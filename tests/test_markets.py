"""Market models, riskless synthesis, and the mixed-market dynamics."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hermite_markets import (
    HermiteSpec,
    InfeasibleMarketError,
    MixedMarket,
    PureHermiteMarket,
    TwoAssetDiffusion,
    bsm_synthetic_rate,
    gen_bm,
    gen_fbm,
    load_market,
    price_mixed_market,
    price_pure_hermite,
    pure_hermite_price_matrix,
    sde_residual,
    singular_square_term,
    synth_riskless,
    synth_riskless_taxed,
)
from hermite_markets import markets
from hermite_markets.processes import derive_seeds


# ---------------------------------------------------------------------------
# plain riskless synthesis

def test_synthesis_two_asset_closed_form():
    out = synth_riskless([0.1, 0.3], [0.03, 0.04])
    assert np.allclose(out.exponents, [1.5, -0.5], atol=1e-12)
    assert out.rate == pytest.approx(0.025, abs=1e-12)


def test_synthesis_constraints_hold_three_assets():
    out = synth_riskless([0.1, 0.25, 0.4], [0.02, 0.03, 0.05])
    assert float(np.sum(out.exponents)) == pytest.approx(1.0, abs=1e-10)
    assert float(out.exponents @ [0.1, 0.25, 0.4]) == pytest.approx(0.0, abs=1e-10)


def test_synthesis_near_collinear_exposures():
    # Exponents of about 3e6 leave each constraint about 1e-9 of rounding,
    # small against its terms.
    sigma = np.array([1.2772690472613746, 1.2772694427007896, 1.2772694861018308])
    phi = synth_riskless(sigma, [0.02, 0.03, 0.05]).exponents
    size = np.abs(phi).sum()
    assert abs(phi.sum() - 1.0) <= 1e-15 * size
    assert abs(float(sigma @ phi)) <= 1e-15 * size


def test_synthesis_infeasible_when_exposures_equal():
    with pytest.raises(InfeasibleMarketError):
        synth_riskless([0.2, 0.2], [0.01, 0.02])


def test_synthetic_bond_replication():
    # The exponent portfolio applied to exponential prices must grow at
    # exactly the synthetic rate, path by path.
    market = PureHermiteMarket(mu=[0.03, 0.04], sigma=[0.1, 0.3])
    out = synth_riskless(market.sigma, market.mu)
    driver = gen_fbm(HermiteSpec(0.7), 1.0, 256, seed=5)
    prices = price_pure_hermite(market, driver)
    bond = np.prod(prices.values ** out.exponents[:, None], axis=0)
    log_err = np.max(np.abs(np.log(bond) - out.rate * prices.times))
    assert log_err < 1e-10


# ---------------------------------------------------------------------------
# taxed synthesis

def test_taxed_synthesis_equal_exposures():
    # Equal sigmas force phi2 = -phi1 and the budget equation collapses
    # to c^2 phi1^2 = 1.
    out = synth_riskless_taxed([0.2, 0.2], [0.05, 0.01], [0.4, 0.4])
    assert np.allclose(out.exponents, [2.5, -2.5], atol=1e-10)
    assert out.rate == pytest.approx((0.05 - 0.01) / 0.4, abs=1e-10)


def test_taxed_synthesis_equal_exposures_many_assets():
    # Three equal exposures leave no untaxed exponents to scale, but the
    # first pair's direction (1, -1), zero on the third asset, carries no
    # exposure, and c^2 phi1^2 = 1 again.
    sigma, c = np.array([0.2, 0.2, 0.2]), np.full(3, 0.3)
    with pytest.raises(InfeasibleMarketError):
        synth_riskless(sigma, [0.05, 0.03, 0.01])
    out = synth_riskless_taxed(sigma, [0.05, 0.03, 0.01], c)
    assert out.exponents == pytest.approx([1 / 0.3, -1 / 0.3, 0.0], rel=1e-14, abs=0.0)
    assert out.rate == pytest.approx((0.05 - 0.03) / 0.3, rel=1e-14)
    assert _taxed_residual(sigma, c, out.exponents) < 1e-12


def test_taxed_synthesis_zero_exposure_matches_its_swap():
    # A zero second exposure solves as the swapped order does.
    phi = synth_riskless_taxed([0.3, 0.0], [0.05, 0.02], 0.3).exponents
    swapped = synth_riskless_taxed([0.0, 0.3], [0.02, 0.05], 0.3).exponents
    assert np.abs(swapped[::-1] - phi).max() <= 1e-15
    assert _taxed_residual(np.array([0.3, 0.0]), np.full(2, 0.3), phi) < 1e-12


def test_taxed_synthesis_equal_exposures_take_the_smaller_root():
    # Along e_0 - e_k the balance's B is (c_k^2 - c_0^2)/2; the sign of the
    # pair that makes B >= 0 takes the smaller of the two roots, in either
    # asset order.
    phi = synth_riskless_taxed([0.2, 0.2], [0.05, 0.01], [1.0, 0.0]).exponents
    assert phi.tolist() == [-1.0, 1.0]
    swapped = synth_riskless_taxed([0.2, 0.2], [0.01, 0.05], [0.0, 1.0]).exponents
    assert swapped.tolist() == [1.0, -1.0]


def test_taxed_synthesis_equal_exposures_untaxed_first_pair():
    # Equal exposures take e_0 - e_k with k the first asset that pairs a
    # tax: here e_0 - e_2, as (1, -1, 0) would leave the balance untaxed.
    sigma, c = np.array([0.2, 0.2, 0.2]), np.array([0.0, 0.0, 0.3])
    phi = synth_riskless_taxed(sigma, [0.01, 0.02, 0.03], c).exponents
    assert phi[1] == 0.0 and phi[0] == -phi[2] > 0
    assert _taxed_residual(sigma, c, phi) < 1e-12


def test_taxed_synthesis_residuals_tiny():
    sigma = np.array([0.15, 0.3])
    c = np.array([0.25, 0.25])
    out = synth_riskless_taxed(sigma, [0.02, 0.04], c)
    phi = out.exponents
    exposure = float(sigma @ phi)
    balance = float(np.sum(phi) - 1.0 + 0.5 * np.sum(c**2 * phi * (phi - 1.0)))
    assert abs(exposure) < 1e-12
    assert abs(balance) < 1e-12


def test_taxed_synthesis_three_assets():
    sigma = np.array([0.2, 0.3, 0.5])
    c = np.array([0.3, 0.3, 0.3])
    out = synth_riskless_taxed(sigma, [0.02, 0.03, 0.05], c)
    phi = out.exponents
    assert abs(float(sigma @ phi)) < 1e-10
    balance = float(np.sum(phi) - 1.0 + 0.5 * np.sum(c**2 * phi * (phi - 1.0)))
    assert abs(balance) < 1e-10
    # The exponents the damped Gauss-Newton iteration that once served
    # three or more assets reached here.
    assert phi == pytest.approx([1.2024629834463034, 0.534427992642802, -0.8016419889642026],
                                rel=1e-12)


def test_taxed_synthesis_near_collinear_exposures():
    # A relative exposure spread of 1e-6 makes the untaxed exponents about
    # 1e5; the damped iteration stalled here, the closed form solves it.
    sigma = np.array([0.3810545923530526, 0.38105186799141744, 0.38105186799141744])
    c = np.array([0.0, 0.8697042768583632, 0.0])
    phi = synth_riskless_taxed(sigma, [0.02, 0.03, 0.05], c).exponents
    assert phi == pytest.approx([-4.402, 2.201, 2.201], rel=1e-3)
    assert _taxed_residual(sigma, c, phi) < 1e-10


def test_taxed_synthesis_zero_tax_reduces_to_plain():
    plain = synth_riskless([0.1, 0.3], [0.03, 0.04])
    taxed = synth_riskless_taxed([0.1, 0.3], [0.03, 0.04], [0.0, 0.0])
    assert np.array_equal(plain.exponents, taxed.exponents)


def test_taxed_synthesis_validates_shapes():
    with pytest.raises(ValueError):
        synth_riskless_taxed([0.1, 0.3], [0.03, 0.04], [0.2])
    with pytest.raises(ValueError):
        synth_riskless_taxed([0.1, 0.3], [0.03, 0.04], [-0.1, 0.2])


def test_synthesis_rejects_non_finite_inputs(monkeypatch):
    for synth in (synth_riskless, lambda sigma, mu: synth_riskless_taxed(sigma, mu, 0.3)):
        with pytest.raises(ValueError, match="sigma"):
            synth([np.nan, 0.3], [0.03, 0.04])
        with pytest.raises(ValueError, match="mu"):
            synth([0.1, 0.3], [0.03, np.inf])
    # A NaN residual fails the convergence check as a large one does.
    monkeypatch.setattr(markets, "_taxed_root", lambda direction, tax: np.nan)
    with pytest.raises(InfeasibleMarketError, match="did not converge"):
        synth_riskless_taxed([0.1, 0.3], [0.03, 0.04], 0.3)


def _taxed_residual(sigma, c, phi):
    balance = float(np.sum(phi) - 1.0 + 0.5 * np.sum(c**2 * phi * (phi - 1.0)))
    return abs(balance) + abs(float(sigma @ phi))


def test_taxed_synthesis_large_root_passes_residual_check():
    # The far root here, phi_1 = 25784.67, once was the answer, and the
    # quadratic formula alone landed one ulp off and missed the 1e-10
    # residual check; the answer is now the near root (60-digit value).
    sigma = np.array([-1.0383640820096394, -0.008988624172409018])
    c = np.array([0.07353757660360533, 0.000510310582033613])
    phi = synth_riskless_taxed(sigma, [0.02, 0.04], c).exponents
    assert phi[0] == pytest.approx(-0.008731906340233272847461316064135, rel=1e-14)
    assert _taxed_residual(sigma, c, phi) < 1e-10


def test_taxed_synthesis_residual_check_scales_with_terms(monkeypatch):
    # At the far root, phi = (20287.498, -1.6e7), the float nearest the
    # root left a balance residual of 1.9e-9 that an absolute 1e-10 check
    # refused.  Checked against each equation's own terms, the near root
    # the synthesis now returns passes; moved by 1e-6 relative, it does not.
    sigma = np.array([3.8165161327922856, 0.004785791851107394])
    c = np.array([0.0004685353517989761, 0.0003513751355374688])
    phi = synth_riskless_taxed(sigma, [0.02, 0.04], c).exponents
    assert phi[0] == pytest.approx(-0.001255543131861194845293540592496,
                                   rel=1e-14)  # 60-digit root
    exact = markets._taxed_root
    monkeypatch.setattr(markets, "_taxed_root",
                        lambda direction, tax: exact(direction, tax) * (1.0 + 1e-6))
    with pytest.raises(InfeasibleMarketError, match="did not converge"):
        synth_riskless_taxed(sigma, [0.02, 0.04], c)


# On these ranges the balance's terms stay below about 1e5, so their
# rounding stays below the 1e-10 residual check.
_EXPOSURE = st.floats(0.1, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))
_INTENSITY = st.one_of(st.just(0.0), st.floats(0.1, 1.0))


@settings(max_examples=300, deadline=None)
@given(sigma=st.tuples(_EXPOSURE, _EXPOSURE),
       c=st.tuples(_INTENSITY, _INTENSITY).filter(any))
# Exposures 1 ulp apart are collinear to the untaxed synthesis; the pair
# direction once followed the asset order there, phi = (1, -1) against a
# swapped (-2, 2).  The second example ties the intensities too.
@example(sigma=(0.1, 0.10000000000000002), c=(0.0, 1.0))
@example(sigma=(0.1, 0.10000000000000002), c=(0.5, 0.5))
def test_taxed_synthesis_two_assets_solves_balance(sigma, c):
    sigma, c, mu = np.array(sigma), np.array(c), np.array([0.02, 0.04])
    phi = synth_riskless_taxed(sigma, mu, c).exponents
    assert _taxed_residual(sigma, c, phi) < 1e-10
    # Equal exposures and equal intensities leave two roots that are each
    # other's swap, and no order to choose between them.
    assume(sigma[0] != sigma[1] or c[0] != c[1])
    swapped = synth_riskless_taxed(sigma[::-1], mu[::-1], c[::-1]).exponents
    assert np.abs(swapped[::-1] - phi).max() <= 1e-10 * np.abs(phi).max()
    assume(sigma[0] != sigma[1])
    untaxed_norm = np.hypot(*sigma) / abs(sigma[0] - sigma[1])
    # To first order a tax c moves the untaxed rate by c^2 |phi|^2 |rate| / 2
    # at most: under 1e-10 at c = 1e-6 while the untaxed exponents stay
    # below 10.
    if untaxed_norm <= 10.0:
        faint = synth_riskless_taxed(sigma, mu, 1e-6).rate
        assert abs(faint - synth_riskless(sigma, mu).rate) < 1e-9


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 5))
def test_taxed_synthesis_many_assets_scales_untaxed(data, n):
    sigma = np.array(data.draw(st.lists(_EXPOSURE, min_size=n, max_size=n)))
    c = np.array(data.draw(st.lists(_INTENSITY, min_size=n, max_size=n).filter(any)))
    mu = np.linspace(0.02, 0.06, n)
    # Exposures this far apart keep the untaxed exponents below about 10.
    assume(np.ptp(sigma) >= 0.5)
    untaxed = synth_riskless(sigma, mu)
    phi = synth_riskless_taxed(sigma, mu, c).exponents
    assert _taxed_residual(sigma, c, phi) < 1e-10
    # phi = psi phi_0 with psi = sum(phi) > 0.
    assert phi.sum() > 0
    assert np.abs(phi - phi.sum() * untaxed.exponents).max() <= 1e-12 * np.abs(phi).max()
    order = np.array(data.draw(st.permutations(range(n))))
    permuted = synth_riskless_taxed(sigma[order], mu[order], c[order]).exponents
    assert np.abs(permuted - phi[order]).max() <= 1e-10 * np.abs(phi).max()
    faint = synth_riskless_taxed(sigma, mu, 1e-6).rate
    assert abs(faint - untaxed.rate) < 1e-9


def test_bsm_synthetic_rate_value():
    assert bsm_synthetic_rate(0.05, 0.2, 0.03, 0.1) == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(ValueError):
        bsm_synthetic_rate(0.05, 0.2, 0.03, 0.2)


# ---------------------------------------------------------------------------
# model containers

_MIXED = dict(r=0.01, b=0.2, rho=0.2, mu=0.05, sigma=0.2, sigma_h=0.3, hurst=0.75)


def test_two_asset_variant_validation():
    with pytest.raises(ValueError):
        TwoAssetDiffusion.ordered(0.05, 0.1, 0.03, 0.2)  # sigma1 < sigma2
    with pytest.raises(ValueError):
        TwoAssetDiffusion.shared_vol(0.05, 0.05, 0.2)  # equal drifts
    with pytest.raises(ValueError):
        TwoAssetDiffusion(0.05, 0.2, 0.03, 0.1, "weird")


# (market, field, constructor): each of these once built a market.
_NON_FINITE_MARKETS = [
    ("shared_vol", "mu1", lambda: TwoAssetDiffusion.shared_vol(math.nan, 0.02, 0.2)),
    ("shared_vol", "mu2", lambda: TwoAssetDiffusion.shared_vol(0.05, -math.inf, 0.2)),
    ("shared_vol", "sigma1", lambda: TwoAssetDiffusion.shared_vol(0.05, 0.02, math.inf)),
    ("ordered", "sigma1", lambda: TwoAssetDiffusion.ordered(0.05, math.inf, 0.02, 0.1)),
] + [(f"mixed-{value}", name,
      lambda name=name, value=value: MixedMarket(**dict(_MIXED, **{name: value})))
     for name in ("r", "b", "rho", "mu", "sigma", "sigma_h", "s0")
     for value in (math.nan, math.inf)]


@pytest.mark.parametrize("name, build", [case[1:] for case in _NON_FINITE_MARKETS],
                         ids=[f"{market}-{name}" for market, name, _ in _NON_FINITE_MARKETS])
def test_market_names_a_non_finite_coefficient(name, build):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got (nan|-?inf)$"):
        build()


def test_market_checks_keep_their_messages_before_finiteness():
    with pytest.raises(ValueError, match="equal positive sigmas"):
        TwoAssetDiffusion.shared_vol(0.05, 0.02, math.nan)
    with pytest.raises(ValueError, match="sigma1 > sigma2 > 0"):
        TwoAssetDiffusion.ordered(0.05, 0.2, 0.02, math.inf)
    with pytest.raises(ValueError, match="hurst must lie"):
        MixedMarket(**dict(_MIXED, hurst=math.nan))
    with pytest.raises(ValueError, match="initial stock price"):
        MixedMarket(**dict(_MIXED, s0=-math.inf))


def test_pure_hermite_market_needs_an_asset():
    with pytest.raises(ValueError, match="at least one asset"):
        PureHermiteMarket(mu=[], sigma=[])


def test_two_asset_price_paths():
    market = TwoAssetDiffusion.ordered(0.05, 0.3, 0.02, 0.1)
    w = gen_bm(1.0, 64, paths=7, seed=3)
    first, second = market.price_paths(w)
    assert first.shape == (7, 65)
    assert np.all(first[:, 0] == 1.0)
    assert np.all(second[:, 0] == 1.0)


def test_pure_hermite_market_validation():
    with pytest.raises(ValueError):
        PureHermiteMarket(mu=[0.1], sigma=[0.1, 0.2])
    with pytest.raises(ValueError):
        PureHermiteMarket(mu=[0.1, 0.2], sigma=[0.1, 0.2], s0=[1.0, -1.0])


def test_pure_hermite_prices_exponential():
    market = PureHermiteMarket(mu=[0.02], sigma=[0.5], s0=[2.0])
    driver = gen_fbm(HermiteSpec(0.8), 1.0, 32, paths=3, seed=7)
    prices = price_pure_hermite(market, driver)
    t = driver.times
    expected = 2.0 * np.exp(0.02 * t[None, :] + 0.5 * driver.values)
    assert np.allclose(prices.values, expected, rtol=1e-14)


def test_price_matrix_shape_and_start():
    market = PureHermiteMarket(mu=[0.02, 0.03], sigma=[0.1, 0.4], s0=[1.0, 3.0])
    driver = gen_fbm(HermiteSpec(0.8), 1.0, 16, paths=5, seed=7)
    cube = pure_hermite_price_matrix(market, driver)
    assert cube.shape == (2, 5, 17)
    assert np.allclose(cube[1, :, 0], 3.0)


def test_pure_hermite_coefficient_callables():
    # Callables give the full drift and exposure at time t, not rates:
    # constant coefficients written as callables price bit for bit alike.
    driver = gen_fbm(HermiteSpec(0.8), 1.0, 32, paths=4, seed=7)
    plain = PureHermiteMarket(mu=[0.02, -0.1], sigma=[0.5, 1.2], s0=[2.0, 1.0])
    as_fns = PureHermiteMarket(
        mu=[0.0, 0.0], sigma=[0.0, 0.0], s0=[2.0, 1.0],
        mu_fn=[lambda t, m=m: m * np.asarray(t, dtype=float) for m in (0.02, -0.1)],
        sigma_fn=[lambda t, s=s: s * np.ones_like(np.asarray(t, dtype=float))
                  for s in (0.5, 1.2)])
    assert np.array_equal(pure_hermite_price_matrix(as_fns, driver),
                          pure_hermite_price_matrix(plain, driver))
    varying = PureHermiteMarket(mu=[0.0], sigma=[0.0], s0=[3.0],
                                mu_fn=[lambda t: 0.1 * t ** 2],
                                sigma_fn=[lambda t: 0.5 + 0.2 * t])
    t = driver.times
    expected = 3.0 * np.exp(0.1 * t ** 2 + (0.5 + 0.2 * t) * driver.values)
    assert np.allclose(price_pure_hermite(varying, driver).values, expected, rtol=1e-14)


@pytest.mark.parametrize("assets, paths", [(1, 50), (3, 1)])
def test_pure_hermite_prices_are_price_matrix_slices(assets, paths):
    market = PureHermiteMarket(mu=[0.02, -0.1, 0.2][:assets], sigma=[0.5, 1.2, -0.4][:assets],
                               s0=[2.0, 1.0, 3.0][:assets])
    driver = gen_fbm(HermiteSpec(0.8), 1.0, 32, paths=paths, seed=7)
    cube = pure_hermite_price_matrix(market, driver)
    want = cube[0] if assets == 1 else cube[:, 0]
    assert np.array_equal(price_pure_hermite(market, driver).values, want)


def test_multi_asset_pricing_needs_single_path():
    market = PureHermiteMarket(mu=[0.02, 0.03], sigma=[0.1, 0.4])
    driver = gen_fbm(HermiteSpec(0.8), 1.0, 16, paths=5, seed=7)
    with pytest.raises(ValueError):
        price_pure_hermite(market, driver)


# ---------------------------------------------------------------------------
# mixed market

def _mixed():
    return MixedMarket(**_MIXED)


def test_singular_square_term_zero_at_origin():
    t = np.array([0.0, 0.5, 1.0])
    h = np.array([[0.0, 0.3, -0.4]])
    out = singular_square_term(t, h, 0.75)
    assert out[0, 0] == 0.0
    assert out[0, 2] == pytest.approx(0.16, abs=1e-12)


def test_singular_square_term_mean_is_time():
    # E[t^(1-2H) H(t)^2] = t^(1-2H) t^(2H) = t.
    driver = gen_fbm(HermiteSpec(0.75), 1.0, 32, paths=4000, seed=19)
    out = singular_square_term(driver.times, driver.values, 0.75)
    for k in (8, 16, 32):
        t = driver.times[k]
        assert abs(float(np.mean(out[:, k])) - t) < 0.1 * max(t, 0.25)


def test_mixed_market_start_values():
    market = _mixed()
    seeds = derive_seeds(11, 2)
    w = gen_bm(1.0, 64, paths=3, seed=seeds[0])
    h = gen_fbm(HermiteSpec(market.hurst), 1.0, 64, paths=3, seed=seeds[1])
    paths = price_mixed_market(market, w, h)
    assert np.all(paths.bond.values[:, 0] == 1.0)
    assert np.all(paths.tilted.values[:, 0] == 1.0)
    assert np.all(paths.unit_exposure.values[:, 0] == 1.0)
    assert np.all(paths.stock.values[:, 0] == market.s0)
    assert paths.stock.values.shape == (3, 65)


def test_mixed_market_grid_mismatch():
    market = _mixed()
    w = gen_bm(1.0, 64, seed=1)
    h = gen_fbm(HermiteSpec(market.hurst), 1.0, 32, seed=2)
    with pytest.raises(ValueError):
        price_mixed_market(market, w, h)


def test_mixed_sde_residual_shrinks():
    # The differential form is only approximate on a grid; its cumulative
    # defect must shrink as the same noise is sampled more finely.
    market = _mixed()
    medians = []
    for steps in (256, 1024, 4096):
        seeds = derive_seeds(404, 2)
        w = gen_bm(1.0, steps, paths=50, seed=seeds[0])
        h = gen_fbm(HermiteSpec(market.hurst), 1.0, steps, paths=50, seed=seeds[1])
        stock = price_mixed_market(market, w, h).stock
        resid = sde_residual(market, stock, w, h)
        medians.append(float(np.median(np.abs(resid[:, -1]))))
    assert medians[0] > medians[1] > medians[2]
    assert medians[-1] < 0.02


# ---------------------------------------------------------------------------
# configuration files

def test_load_market_pure_hermite(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("# demo\ntype = pure_hermite\nmu = 0.02, 0.03\nsigma = 0.1, 0.4\n")
    market = load_market(cfg)
    assert isinstance(market, PureHermiteMarket)
    assert np.allclose(market.mu, [0.02, 0.03])


def test_load_market_two_asset(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("type=two_asset\nmu=0.05,0.02\nsigma=0.3,0.1\nvariant=ordered\n")
    market = load_market(cfg)
    assert isinstance(market, TwoAssetDiffusion)
    assert market.sigma1 == 0.3


def test_load_market_mixed(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("type=mixed\nr=0.01\nb=0.2\nrho=0.2\nmu=0.05\n"
                   "sigma=0.2\nsigma_h=0.3\nhurst=0.75\n")
    market = load_market(cfg)
    assert isinstance(market, MixedMarket)
    assert market.hurst == 0.75


def test_load_market_reports_line_numbers(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("type=mixed\nthis line is broken\n")
    with pytest.raises(ValueError, match=":2:"):
        load_market(cfg)


def test_load_market_missing_type(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("mu=0.05,0.02\n")
    with pytest.raises(ValueError, match="type"):
        load_market(cfg)


def test_load_market_missing_key(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("type=mixed\nr=0.01\n")
    with pytest.raises(ValueError, match="missing key"):
        load_market(cfg)


def test_load_market_unknown_type(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("type=quantum\n")
    with pytest.raises(ValueError, match="unknown market type"):
        load_market(cfg)


def test_load_market_blank_assets(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("type=pure_hermite\nmu=\nsigma=\n")
    with pytest.raises(ValueError, match="at least one asset"):
        load_market(cfg)


@pytest.mark.parametrize("lines, message", [
    ("type=mixed\nr=abc\nb=0.2\nrho=0.2\nmu=0.05\nsigma=0.2\nsigma_h=0.3\nhurst=0.75\n",
     "r must be a number, got 'abc'"),
    ("type=pure_hermite\nmu=0.02,0.03\nsigma=0.3,x\n", "sigma must be a number, got 'x'"),
    ("type=two_asset\nmu=0.05, 1e\nsigma=0.3,0.1\n", "mu must be a number, got '1e'"),
], ids=["mixed", "pure_hermite", "two_asset"])
def test_load_market_names_a_key_that_is_not_a_number(tmp_path, lines, message):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(lines)
    with pytest.raises(ValueError) as err:
        load_market(cfg)
    assert str(err.value) == f"{cfg}: {message}"
