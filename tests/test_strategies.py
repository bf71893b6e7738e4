"""Portfolio fields, tax accounting, and the arbitrage demonstrations."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermite_markets import (
    HermiteSpec,
    MixedMarket,
    PdeGrid,
    PortfolioFunction,
    SamplePath,
    TerminalClaim,
    TwoAssetDiffusion,
    diffusion_arb_demo,
    f_strategy_demo,
    gen_bm,
    gen_fbm,
    mixed_arb_demo,
    mixed_arbitrage_portfolio,
    mixed_market_residual,
    pair_curvature_residual,
    pair_value_residual,
    power_pair_exponents,
    power_pair_frictionless,
    power_portfolio,
    reduce_to_heat,
    running_cost,
    self_financing_residual,
    shiryaev_demo,
    sqrt_spread_portfolio,
    sqrt_spread_portfolio_fn,
    solve_tax_bsm,
    synth_riskless_taxed,
    taxed_bsm_residual,
    taxed_self_financing_residual,
    wilson_ci,
)
from hermite_markets.markets import _intensities

RNG = np.random.default_rng(515)


def _points(n=12):
    return 0.5 + 1.5 * RNG.random((n, 2))


# ---------------------------------------------------------------------------
# the tax rule: one reading of every tax argument

def test_tax_schedule_rejects_negative():
    for bad in ([0.2, -0.1], [0.2, float("nan")], [float("inf"), 0.2], -0.1):
        with pytest.raises(ValueError, match="tax"):
            _intensities(bad, 2)
    for wrong_shape in ([0.3], [0.3, 0.3, 0.3], [[0.3, 0.3]]):
        with pytest.raises(ValueError, match="tax"):
            _intensities(wrong_shape, 2)


def test_tax_schedule_helpers():
    # None is no tax and a scalar taxes every asset alike.
    assert np.array_equal(_intensities(None, 3), np.zeros(3))
    assert np.array_equal(_intensities(0.3, 2), [0.3, 0.3])
    assert not _intensities([0.0, 0.0], 2).any()
    given_tax = np.array([0.3, 0.2])
    read = _intensities(given_tax, 2)
    assert np.array_equal(read, given_tax) and read is not given_tax


def _bits(*parts):
    return b"".join(np.asarray(part, dtype=float).tobytes() for part in parts)


_SPREAD = sqrt_spread_portfolio_fn(np.array([[0.0, 1.0], [0.0, 0.0]]))
_TWO_PRICES = np.array([[1.0, 1.1, 0.9, 1.2], [1.0, 0.95, 1.05, 1.0]])

# consumer -> (assets, run(tax) -> its result's bits); reduce_to_heat takes its asset
# count from the tax, so its malformed tax is a nested list.
_TAX_CONSUMERS = {
    "running_cost": (2, lambda tax: _bits(running_cost(_SPREAD, _TWO_PRICES, tax).values)),
    "taxed_self_financing_residual": (
        2, lambda tax: _bits(taxed_self_financing_residual(_SPREAD, [1.3, 0.8], tax))),
    "taxed_bsm_residual": (2, lambda tax: _bits(taxed_bsm_residual(
        power_portfolio([0.8, -0.4]), [1.3, 0.8], 0.03, [0.25, 0.2], tax))),
    "power_pair_exponents": (2, lambda tax: _bits(
        power_pair_exponents(0.8, 0.03, [0.25, 0.2], tax))),
    "diffusion_arb_demo": (2, lambda tax: _demo_bytes(diffusion_arb_demo(
        TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2), 20, 16, 1.0, 3, tax))),
    "mixed_arb_demo": (2, lambda tax: _demo_bytes(
        mixed_arb_demo(_mixed_market(), 20, 16, 1.0, 3, tax))),
    "synth_riskless_taxed": (3, lambda tax: _bits(*vars(synth_riskless_taxed(
        [0.2, 0.3, 0.5], [0.02, 0.03, 0.05], tax)).values())),
    "solve_tax_bsm": (1, lambda tax: _bits(solve_tax_bsm(
        TerminalClaim.call(1.0, 1.0), 0.05, 0.2, tax, PdeGrid(0.3, 3.0, 17, 4)).values)),
    "reduce_to_heat": (None, lambda tax: _bits(*(
        getattr(reduce_to_heat(tax, 0.03, 1.0), name) for name in
        ("intensities", "diffusivities", "exponents", "drift_shift", "time_tilt")))),
}


@pytest.mark.parametrize("consumer", sorted(_TAX_CONSUMERS))
@pytest.mark.parametrize("bad", ["nan", "inf", "negative", "wrong length"])
def test_every_consumer_reads_tax_through_one_rule(consumer, bad):
    n_assets, run = _TAX_CONSUMERS[consumer]
    tax = {"nan": float("nan"), "inf": math.inf, "negative": -0.1}.get(bad)
    if bad == "wrong length":
        tax = [[0.3]] if n_assets is None else [0.3] * (2 if n_assets == 1 else 1)
    with pytest.raises(ValueError, match="tax"):
        run(tax)


@pytest.mark.parametrize("consumer", sorted(_TAX_CONSUMERS))
def test_scalar_tax_equals_per_asset_list(consumer):
    n_assets, run = _TAX_CONSUMERS[consumer]
    assert run(0.3) == run([0.3] * (n_assets or 1))


# ---------------------------------------------------------------------------
# portfolio fields and their derivatives

def test_sqrt_spread_value():
    coeffs = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert sqrt_spread_portfolio(coeffs, [4.0, 1.0]) == pytest.approx(1.0)
    assert sqrt_spread_portfolio(coeffs, [2.0, 2.0]) == 0.0


def test_sqrt_spread_rejects_bad_coeffs():
    with pytest.raises(ValueError):
        sqrt_spread_portfolio(np.array([[0.0, -1.0], [0.0, 0.0]]), [1.0, 1.0])
    with pytest.raises(ValueError):
        sqrt_spread_portfolio(np.zeros((3, 3)), [1.0, 1.0])


def test_analytic_partials_match_finite_differences():
    coeffs = np.array([[0.0, 1.0], [0.5, 0.0]])
    analytic = sqrt_spread_portfolio_fn(coeffs)
    plain = PortfolioFunction(fn=lambda x: sqrt_spread_portfolio(coeffs, x), arity=2)
    for x, y in _points():
        for j in (0, 1):
            assert analytic.partial(j, [x, y]) == pytest.approx(
                plain.partial(j, [x, y]), rel=1e-6, abs=1e-8)
        for i in (0, 1):
            for j in (0, 1):
                assert analytic.second(i, j, [x, y]) == pytest.approx(
                    plain.second(i, j, [x, y]), rel=1e-4, abs=1e-5)


def test_power_portfolio_partials():
    field = power_portfolio([0.3, -1.2])
    x = [1.7, 0.9]
    assert field.value(x) == pytest.approx(1.7**0.3 * 0.9**-1.2)
    plain = PortfolioFunction(fn=field.fn, arity=2)
    assert field.partial(0, x) == pytest.approx(plain.partial(0, x), rel=1e-6)
    assert field.second(0, 1, x) == pytest.approx(plain.second(0, 1, x), rel=1e-4)


def test_mixed_portfolio_time_partial():
    field = mixed_arbitrage_portfolio(0.03)
    bare = PortfolioFunction(fn=field.fn, arity=2, time_dependent=True)
    for (x, y), t in zip(_points(6), 0.2 + 0.6 * RNG.random(6)):
        assert field.time_partial([x, y], t) == pytest.approx(
            bare.time_partial([x, y], t), rel=1e-6, abs=1e-8)


def test_portfolio_arity_checks():
    field = power_portfolio([1.0, 1.0])
    with pytest.raises(ValueError):
        field.value([1.0])
    with pytest.raises(ValueError):
        PortfolioFunction(fn=lambda x: x[0], arity=0)
    with pytest.raises(ValueError):
        power_portfolio([1.0]).time_partial([1.0], 0.5)


# ---------------------------------------------------------------------------
# structural identities

def test_sqrt_spread_is_self_financing():
    field = sqrt_spread_portfolio_fn(np.array([[0.0, 2.0], [0.0, 0.0]]))
    worst = max(abs(float(self_financing_residual(field, [x, y])))
                for x, y in _points())
    assert worst < 1e-12


def test_taxed_residual_reduces_at_zero_tax():
    field = sqrt_spread_portfolio_fn(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for x, y in _points(4):
        a = self_financing_residual(field, [x, y])
        b = taxed_self_financing_residual(field, [x, y], None)
        assert float(a) == float(b)


def test_taxed_residual_adds_curvature():
    field = power_portfolio([2.0, 0.0])  # x^2 has curvature 2
    x = [1.5, 1.0]
    plain = float(self_financing_residual(field, x))
    taxed = float(taxed_self_financing_residual(field, x, [0.4, 0.0]))
    assert taxed - plain == pytest.approx(0.5 * 0.16 * 2.0 * 1.5**2, rel=1e-12)


def test_frictionless_power_pair_residuals_vanish():
    for a in (-0.5, 0.3, 2.0):
        field = power_portfolio([a, power_pair_frictionless(a)])
        for x, y in _points(6):
            assert abs(float(pair_value_residual(field, x, y))) < 1e-10
            assert abs(float(pair_curvature_residual(field, x, y))) < 1e-10


def test_mixed_field_solves_pricing_identity():
    r = 0.01
    field = mixed_arbitrage_portfolio(r)
    worst = 0.0
    for (x, y), t in zip(_points(10), 0.1 + 0.8 * RNG.random(10)):
        worst = max(worst, abs(float(mixed_market_residual(field, t, x, y, r))))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# taxed power pairs

def test_power_pair_frictionless_special_case():
    # Equal volatilities, no tax: the quadratic factors through b = 0 and
    # b = 1 - 2r/sigma^2.
    roots = power_pair_exponents(1.0, 0.04, [0.2, 0.2], [0.0, 0.0])
    assert np.allclose(roots, [-1.0, 0.0], atol=1e-12)


def test_power_pair_partner_identity():
    assert power_pair_frictionless(0.3) == 0.7
    assert power_pair_frictionless(2.0) == -1.0


def test_power_pair_taxed_roots_satisfy_identity():
    a, r = 0.8, 0.03
    sigmas = [0.25, 0.2]
    tax = [0.3, 0.4]
    for b in power_pair_exponents(a, r, sigmas, tax):
        field = power_portfolio([a, b])
        worst = max(abs(float(taxed_bsm_residual(field, [x, y], r, sigmas, tax)))
                    for x, y in _points(6))
        assert worst < 1e-10


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-3.0, 3.0, allow_subnormal=False),
       r=st.floats(0.0, 0.2, allow_subnormal=False),
       sigmas=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
       tax=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_power_pair_roots_satisfy_taxed_identity(a, r, sigmas, tax):
    try:
        roots = power_pair_exponents(a, r, sigmas, tax)
    except ValueError:
        assume(False)
    k1, k2 = (s ** 2 + r * c ** 2 for s, c in zip(sigmas, tax))
    for b in roots:
        field = power_portfolio([a, b])
        for x, y in ((0.5, 2.0), (1.0, 1.0), (1.7, 0.6)):
            g = x ** a * y ** b
            # the sum of the operator's terms' sizes
            scale = g * (r * (abs(a) + abs(b) + 1.0) + 0.5 * k1 * (a * a + abs(a))
                         + 0.5 * k2 * (b * b + abs(b)))
            residual = float(taxed_bsm_residual(field, [x, y], r, sigmas, tax))
            assert abs(residual) <= 1e-12 * scale


def test_power_pair_single_root_without_second_volatility():
    # sigma_2 = c_2 = 0 removes the quadratic term: one exponent remains.
    sigmas, tax = [0.3, 0.0], [0.2, 0.0]
    roots = power_pair_exponents(0.8, 0.03, sigmas, tax)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.4432, abs=1e-12)
    field = power_portfolio([0.8, roots[0]])
    for x, y in ((0.5, 2.0), (1.0, 1.0), (1.7, 0.6)):
        assert abs(float(taxed_bsm_residual(field, [x, y], 0.03, sigmas, tax))) < 1e-15


def test_power_pair_rejects_complex_roots():
    with pytest.raises(ValueError, match="discriminant"):
        power_pair_exponents(40.0, 0.5, [2.0, 0.01], [0.0, 0.0])


# ---------------------------------------------------------------------------
# running tax

def _single_asset_quadratic():
    return PortfolioFunction(fn=lambda x: (x[0] - 1.0) ** 2, arity=1,
                             grad=[lambda x: 2.0 * (x[0] - 1.0)],
                             hess=lambda i, j, x: 2.0 * np.ones_like(x[0]))


def test_running_cost_matches_closed_form():
    # For f = (S - 1)^2 the tax integral is c^2 int S dS; the left-point
    # sum equals the closed form (c^2/2)(S_T^2 - 1) minus half the
    # realized squared variation, exactly.
    c = 0.3
    driver = gen_fbm(HermiteSpec(0.75), 1.0, 2**12, seed=77)
    s = np.exp(0.05 * driver.times + 0.2 * driver.single())
    cost = running_cost(_single_asset_quadratic(), s[None, :], [c]).values
    closed = 0.5 * c**2 * (s**2 - s[0] ** 2)
    gap = closed[-1] - cost[-1]
    half_qv = 0.5 * c**2 * float(np.sum(np.diff(s) ** 2))
    assert gap == pytest.approx(half_qv, rel=1e-10)
    assert abs(gap) / abs(closed[-1]) < 0.05


def test_running_cost_zero_tax():
    driver = gen_fbm(HermiteSpec(0.75), 1.0, 64, seed=1)
    s = np.exp(driver.single())
    cost = running_cost(_single_asset_quadratic(), s[None, :], [0.0])
    assert np.all(cost.values == 0.0)


def test_running_cost_ensemble_shape():
    driver = gen_fbm(HermiteSpec(0.75), 1.0, 32, paths=5, seed=2)
    s = np.exp(driver.values)[None, :, :]  # one asset, five paths
    out = running_cost(_single_asset_quadratic(), s, [0.2])
    assert out.shape == (5, 33)
    assert np.all(out[:, 0] == 0.0)


def test_running_cost_takes_asset_rows_in_any_container():
    # A list or tuple of the asset rows is the 3-D array it would stack to.
    # 300 paths span several of the blocks running_cost works through, and
    # the costs match one left-point sum per path.
    prices = np.exp(0.1 * np.random.default_rng(4).standard_normal((2, 300, 129)))
    times = np.linspace(0.0, 1.0, 129)
    field = mixed_arbitrage_portfolio(0.01)
    stacked = running_cost(field, prices, [0.3, 0.2], times=times)
    for rows in (list(prices), tuple(prices)):
        assert np.array_equal(running_cost(field, rows, [0.3, 0.2], times=times), stacked)
    left = prices[:, :, :-1]
    increments = np.zeros_like(left[0])
    for j, c in enumerate((0.3, 0.2)):
        increments = increments + (0.5 * c ** 2 * field.second(j, j, list(left), times[:-1])
                                   * left[j] * np.diff(prices[j], axis=-1))
    assert np.array_equal(stacked[:, 1:], np.cumsum(increments, axis=-1))
    assert np.all(stacked[:, 0] == 0.0)


def test_running_cost_takes_sample_path():
    # A SamplePath's rows are the assets, and its grid is the time grid.
    prices = SamplePath(1.0, 64, np.exp(gen_bm(1.0, 64, paths=2, seed=3).values))
    field = mixed_arbitrage_portfolio(0.01)
    from_path = running_cost(field, prices, [0.3, 0.2])
    from_rows = running_cost(field, prices.values, [0.3, 0.2], times=prices.times)
    assert np.array_equal(from_path.values, from_rows.values)


def test_running_cost_validation():
    field = _single_asset_quadratic()
    with pytest.raises(ValueError):
        running_cost(field, np.ones((2, 4, 5, 6)), [0.2])
    with pytest.raises(ValueError):
        running_cost(field, [np.ones((4, 5, 6))], [0.2])
    with pytest.raises(ValueError, match="one shape"):
        running_cost(power_portfolio([1.0, 2.0]), [np.ones((4, 9)), np.ones((3, 9))], [0.2, 0.2])
    with pytest.raises(ValueError):
        running_cost(field, np.ones((3, 9)), [0.2, 0.2, 0.2])
    timed = mixed_arbitrage_portfolio(0.01)
    with pytest.raises(ValueError, match="time grid"):
        running_cost(timed, np.ones((2, 9)), [0.2, 0.2])


# ---------------------------------------------------------------------------
# binomial interval

def test_wilson_interval_degenerate_top():
    low, high = wilson_ci(50, 50)
    assert high == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= low < 1.0


def test_wilson_interval_brackets_proportion():
    low, high = wilson_ci(30, 100)
    assert low < 0.3 < high
    assert 0.0 <= low <= high <= 1.0


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_ci(5, 0)
    with pytest.raises(ValueError):
        wilson_ci(7, 5)


def test_wilson_interval_ends_are_exact():
    # Rounding used to leave wilson_ci(0, n) above 0 for 5,736 of these n
    # and wilson_ci(n, n) off 1 for 10,113 (1.0000000000000002 at n = 40).
    for n in range(1, 20_001):
        none, every = wilson_ci(0, n), wilson_ci(n, n)
        assert none[0] == 0.0 and 0.0 < none[1] < 1.0
        assert every[1] == 1.0 and 0.0 < every[0] < 1.0


# ---------------------------------------------------------------------------
# demonstrations

def test_shiryaev_demo_identity():
    driver = gen_fbm(HermiteSpec(0.7), 1.0, 1024, paths=200, seed=8)
    report = shiryaev_demo(driver)
    assert report.passed
    assert report.statistics["identity_max_rel_error"] < 1e-8
    assert report.statistics["fraction_positive"] == 1.0
    assert report.statistics["initial_value_max_abs"] == 0.0


def test_f_strategy_rejects_large_intensity():
    driver = gen_fbm(HermiteSpec(0.7), 1.0, 64, paths=10, seed=1)
    with pytest.raises(ValueError):
        f_strategy_demo(lambda x: (x - 1) ** 2, lambda x: 2 * (x - 1),
                        driver, math.sqrt(2.0))


def test_f_strategy_rejects_nonzero_start():
    driver = gen_fbm(HermiteSpec(0.7), 1.0, 64, paths=10, seed=1)
    with pytest.raises(ValueError, match="worthless"):
        f_strategy_demo(lambda x: x, lambda x: 1.0, driver, 0.1)


def test_f_strategy_zero_tax_always_wins():
    driver = gen_fbm(HermiteSpec(0.7), 1.0, 512, paths=300, seed=5)
    report = f_strategy_demo(lambda x: (x - 1) ** 2, lambda x: 2 * (x - 1),
                             driver, 0.0)
    assert report.passed
    assert report.statistics["probability"] == 1.0


def test_f_strategy_positive_tax_loses_sometimes():
    driver = gen_fbm(HermiteSpec(0.7), 1.0, 512, paths=500, seed=5)
    report = f_strategy_demo(lambda x: (x - 1) ** 2, lambda x: 2 * (x - 1),
                             driver, 0.5, threshold_check=True)
    assert report.passed
    assert report.statistics["probability"] < 1.0
    assert report.ci_high < 1.0
    # The win region {S > theta} or {S < 1} counts the same paths.
    assert report.statistics["threshold_probability"] == pytest.approx(
        report.statistics["probability"], abs=1e-12)


def test_diffusion_demo_untaxed():
    market = TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2)
    report = diffusion_arb_demo(market, paths=1500, steps=256, seed=9)
    assert report.passed
    assert report.statistics["initial_value_max_abs"] == 0.0
    assert report.statistics["min_terminal_value"] > 0.0
    assert report.statistics["pair_residual_max"] < 1e-8


def test_diffusion_demo_taxed():
    market = TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2)
    report = diffusion_arb_demo(market, paths=1500, steps=256, seed=9,
                                tax=0.3)
    assert report.passed
    assert report.statistics["fraction_negative_net"] > 0.0
    assert report.ci_low > 0.0


def test_taxed_demo_without_losing_path_fails():
    # A 1e-6 tax sinks none of the 50 paths; with an inexact Wilson end
    # (ci_low 6.9e-18) the demo used to pass all the same.
    report = diffusion_arb_demo(TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2),
                                paths=50, steps=16, seed=42, tax=1e-6)
    assert report.statistics["fraction_negative_net"] == 0.0
    assert report.ci_low == 0.0
    assert not report.passed


def test_diffusion_demo_needs_shared_vol():
    with pytest.raises(ValueError):
        diffusion_arb_demo(TwoAssetDiffusion.ordered(0.05, 0.3, 0.02, 0.1), paths=10)


def _mixed_market():
    return MixedMarket(r=0.01, b=0.2, rho=0.2, mu=0.05, sigma=0.2,
                       sigma_h=0.3, hurst=0.75)


def test_mixed_demo_untaxed():
    report = mixed_arb_demo(_mixed_market(), paths=500, steps=256, seed=12)
    assert report.passed
    assert report.statistics["initial_value_max_abs"] == 0.0
    assert report.statistics["min_value"] >= 0.0
    assert report.statistics["pricing_residual_max"] < 1e-8


def test_mixed_demo_taxed():
    report = mixed_arb_demo(_mixed_market(), paths=500, steps=256, seed=12,
                            tax=0.4)
    assert report.passed
    assert report.statistics["fraction_negative_net"] > 0.0


def test_mixed_demo_rosenblatt_driver():
    report = mixed_arb_demo(_mixed_market(), paths=200, steps=128, seed=3,
                            hermite=HermiteSpec(0.75, 2))
    assert report.statistics["min_value"] >= 0.0


def test_report_serialization():
    driver = gen_fbm(HermiteSpec(0.7), 1.0, 128, paths=50, seed=2)
    data = shiryaev_demo(driver).to_json_dict()
    for key in ("demo", "parameters", "paths", "seed", "statistics",
                "ci_low", "ci_high", "pass"):
        assert key in data
    assert isinstance(data["pass"], bool)


# (demo, tax, paths, seed, Hermite rank of the mixed driver, passed, sha256
# of to_json_dict() and the cost and net paths' bytes), all at 64 steps:
# pins both demos' reports bit for bit, taxed, untaxed and failing.
_GOLDEN_DEMOS = [
    ("diffusion", None, 300, 9, None, True,
     "2861867816aa0ffe3990082ada26e46d556cddb763ea2a6e016de3a250b4b6e1"),
    ("diffusion", 0.3, 300, 9, None, True,
     "e33850b8c6c1957bd3e922d4e2c804d1b3641d8e52bdf94afef3686b42c97946"),
    ("diffusion", 0.02, 40, 9, None, False,
     "bb6f94d7e77a476d8bf9b95e60f1dcb656b9921f0e32e5a67b1a33847b4156ca"),
    ("mixed", None, 300, 12, None, True,
     "4a6d1432fd17e72722efd51009463d38651efcd57100e32df1be701f77a339f7"),
    ("mixed", 0.3, 300, 12, None, True,
     "4f4fbb5f4d0acdabfa54dadf0ffd38dd3bfc1c4662e88a1c5f042f9a35f3fa26"),
    ("mixed", 0.02, 40, 12, None, False,
     "e0a7ad61ca65f3f7c3a56182b3f9163825390a624fb4acf6d4d7f8633eb12c85"),
    ("mixed", 0.3, 100, 4, 2, True,
     "d87f49c9293d2828b39b73a39430bbb73407d1e859acd799e99c3b8bfc245817"),
]


def _demo_bytes(report):
    return (json.dumps(report.to_json_dict(), sort_keys=True),
            report.cost_path.tobytes(), report.net_path.tobytes())


@pytest.mark.parametrize("demo", ["diffusion", "mixed"])
@pytest.mark.parametrize("scalar, schedule", [(0.0, None), (0.3, [0.3, 0.3])])
def test_arb_demos_take_scalar_tax(demo, scalar, schedule):
    if demo == "diffusion":
        run = lambda tax: diffusion_arb_demo(TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2),
                                             60, 32, 1.0, 3, tax)
    else:
        run = lambda tax: mixed_arb_demo(_mixed_market(), 60, 32, 1.0, 3, tax)
    assert _demo_bytes(run(scalar)) == _demo_bytes(run(schedule))


@pytest.mark.parametrize("demo, tax, paths, seed, rank, passed, digest", _GOLDEN_DEMOS)
def test_golden_demo_reports(demo, tax, paths, seed, rank, passed, digest):
    if demo == "diffusion":
        report = diffusion_arb_demo(TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2),
                                    paths, 64, 1.0, seed, tax)
    else:
        hermite = {} if rank is None else {"hermite": HermiteSpec(0.75, rank, 4)}
        report = mixed_arb_demo(_mixed_market(), paths, 64, 1.0, seed, tax,
                                **hermite)
    sha = hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    sha.update(report.cost_path.tobytes())
    sha.update(report.net_path.tobytes())
    assert report.passed is passed
    assert sha.hexdigest() == digest
