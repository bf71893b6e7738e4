"""Market models, riskless synthesis, and the mixed-market dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings
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
    monkeypatch.setattr(markets, "_taxed_pair_root", lambda ratio, tax: np.nan)
    with pytest.raises(InfeasibleMarketError, match="did not converge"):
        synth_riskless_taxed([0.1, 0.3], [0.03, 0.04], 0.3)


def _taxed_residual(sigma, c, phi):
    balance = float(np.sum(phi) - 1.0 + 0.5 * np.sum(c**2 * phi * (phi - 1.0)))
    return abs(balance) + abs(float(sigma @ phi))


def test_taxed_synthesis_large_root_passes_residual_check():
    # phi_1 is about 25784.67 here. The quadratic formula alone lands one
    # ulp from the float where the balance, as evaluated, is smallest, and
    # misses the 1e-10 residual check (4.7e-10).
    sigma = np.array([-1.0383640820096394, -0.008988624172409018])
    c = np.array([0.07353757660360533, 0.000510310582033613])
    phi = synth_riskless_taxed(sigma, [0.02, 0.04], c).exponents
    assert phi[0] == pytest.approx(25784.67206754937, rel=1e-14)
    assert _taxed_residual(sigma, c, phi) < 1e-10


def test_taxed_synthesis_residual_check_scales_with_terms(monkeypatch):
    # phi = (20287.498, -1.6e7): the exposure's terms are about 7.7e4 and
    # the balance's 3.2e7, so the float nearest the root leaves a balance
    # residual of 1.9e-9 that an absolute 1e-10 check refused.  Checked
    # against each equation's own terms, the root passes; moved by 1e-6
    # relative, it does not.
    sigma = np.array([3.8165161327922856, 0.004785791851107394])
    c = np.array([0.0004685353517989761, 0.0003513751355374688])
    phi = synth_riskless_taxed(sigma, [0.02, 0.04], c).exponents
    assert phi[0] == pytest.approx(20287.49842758485, rel=1e-14)  # 60-digit root
    exact = markets._taxed_pair_root
    monkeypatch.setattr(markets, "_taxed_pair_root",
                        lambda ratio, tax: exact(ratio, tax) * (1.0 + 1e-6))
    with pytest.raises(InfeasibleMarketError, match="did not converge"):
        synth_riskless_taxed(sigma, [0.02, 0.04], c)


# On these ranges the balance's terms stay below about 1e5, so their
# rounding stays below the 1e-10 residual check.
_EXPOSURE = st.floats(0.1, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))
_INTENSITY = st.one_of(st.just(0.0), st.floats(0.1, 1.0))


@settings(max_examples=300, deadline=None)
@given(sigma=st.tuples(_EXPOSURE, _EXPOSURE),
       c=st.tuples(_INTENSITY, _INTENSITY).filter(any))
def test_taxed_synthesis_two_assets_solves_balance(sigma, c):
    sigma, c = np.array(sigma), np.array(c)
    phi = synth_riskless_taxed(sigma, [0.02, 0.04], c).exponents
    assert phi[0] > 0
    assert _taxed_residual(sigma, c, phi) < 1e-10


def test_bsm_synthetic_rate_value():
    assert bsm_synthetic_rate(0.05, 0.2, 0.03, 0.1) == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(ValueError):
        bsm_synthetic_rate(0.05, 0.2, 0.03, 0.2)


# ---------------------------------------------------------------------------
# model containers

def test_two_asset_variant_validation():
    with pytest.raises(ValueError):
        TwoAssetDiffusion.ordered(0.05, 0.1, 0.03, 0.2)  # sigma1 < sigma2
    with pytest.raises(ValueError):
        TwoAssetDiffusion.shared_vol(0.05, 0.05, 0.2)  # equal drifts
    with pytest.raises(ValueError):
        TwoAssetDiffusion(0.05, 0.2, 0.03, 0.1, "weird")


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
    return MixedMarket(r=0.01, b=0.2, rho=0.2, mu=0.05, sigma=0.2,
                       sigma_h=0.3, hurst=0.75)


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
