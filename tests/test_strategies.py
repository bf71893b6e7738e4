"""Portfolio fields, tax accounting, and the arbitrage demonstrations."""

import hashlib
import json
import math
import os
import tracemalloc

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
    gen_hermite,
    mixed_arb_demo,
    mixed_arbitrage_portfolio,
    mixed_market_residual,
    pair_curvature_residual,
    pair_value_residual,
    power_pair_exponents,
    power_pair_frictionless,
    power_portfolio,
    price_mixed_market,
    reduce_to_heat,
    running_cost,
    self_financing_residual,
    shiryaev_demo,
    singular_square_term,
    sqrt_spread_portfolio,
    sqrt_spread_portfolio_fn,
    solve_tax_bsm,
    synth_riskless_taxed,
    taxed_bsm_residual,
    taxed_self_financing_residual,
    wilson_ci,
)
from hermite_markets import processes, strategies
from hermite_markets.markets import _intensities, _mixed_legs
from _oracles import (
    fsquare_law,
    sqrt_spread_cost_law,
    sqrt_spread_cost_weights,
    subprocess_numbers,
    subprocess_peaks_mib,
)

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
        TerminalClaim.call(1.0, 1.0), 0.05, 0.2, tax, PdeGrid(0.3, 3.0, 33, 4)).values)),
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


def test_mixed_portfolio_cross_partial_is_its_closed_form():
    # d2/dx dy (sqrt(x) + sqrt(y) - 2 e^{rt/2})^2 = 1 / (2 sqrt(xy)), with no t;
    # central differences of the value agree to their truncation error
    field = mixed_arbitrage_portfolio(0.03)
    bare = PortfolioFunction(fn=field.fn, arity=2, time_dependent=True)
    rng = np.random.default_rng(3)
    for x, y, t in zip(0.5 + 1.5 * rng.random(6), 0.5 + 1.5 * rng.random(6),
                       0.2 + 0.6 * rng.random(6)):
        exact = 1.0 / (2.0 * math.sqrt(x * y))
        assert field.second(0, 1, [x, y], t) == pytest.approx(exact, rel=1e-15)
        assert field.second(1, 0, [x, y], t) == pytest.approx(exact, rel=1e-15)
        assert bare.second(0, 1, [x, y], t) == pytest.approx(exact, rel=1e-5)


_MARKET = dict(r=0.01, b=0.2, rho=0.2, mu=0.05, sigma=0.2, sigma_h=0.3, hurst=0.7)


@pytest.mark.parametrize("call, message", [
    (lambda: PortfolioFunction(fn=lambda x: x[0], arity=2, grad=[lambda x: 1.0]),
     "grad must provide one callable per asset"),
    (lambda: taxed_bsm_residual(power_portfolio([2.0]), [1.5], 0.05, [0.2, 0.2], 0.0),
     "taxed_bsm_residual expects a two-asset field"),
    # no rate, no second volatility and no tax leave nothing that involves b
    (lambda: power_pair_exponents(2.0, 0.0, [0.2, 0.0], None),
     "degenerate identity: no dependence on the second exponent"),
    (lambda: f_strategy_demo(lambda x: x - 1.0, lambda x: 1.0, HermiteSpec(0.7), 0.0,
                             paths=8, steps=16, t=2.0),
     "evaluation time 2.0 outside (0, 1.0]"),
    (lambda: mixed_arb_demo(MixedMarket(**_MARKET), paths=8, steps=16, hermite="x"),
     "hermite must be a HermiteSpec"),
])
def test_strategies_name_a_bad_argument(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


_DEMOS = {
    "shiryaev_demo": lambda paths: shiryaev_demo(HermiteSpec(0.7), paths, 64),
    "f_strategy_demo": lambda paths: f_strategy_demo(lambda x: (x - 1.0) ** 2,
                                                     lambda x: 2.0 * (x - 1.0),
                                                     HermiteSpec(0.7), 0.3, paths, 64),
    "diffusion_arb_demo": lambda paths: diffusion_arb_demo(
        TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2), paths, 64, tax=0.3),
    "mixed_arb_demo": lambda paths: mixed_arb_demo(MixedMarket(**_MARKET), paths, 64, tax=0.3),
}


@pytest.mark.parametrize("demo", sorted(_DEMOS))
def test_demo_refuses_a_run_past_memory_before_drawing(monkeypatch, demo):
    # Memory that holds the demo's estimate runs it; one byte less is
    # refused, naming paths and steps, before a path is drawn.
    monkeypatch.setattr(processes, "_physical_memory", lambda: strategies._demo_bytes(100, 64))
    _DEMOS[demo](100)
    monkeypatch.setattr(processes, "_physical_memory",
                        lambda: strategies._demo_bytes(100, 64) - 1)
    monkeypatch.setattr(strategies, "_draw_blocks", pytest.fail)
    with pytest.raises(ValueError, match=rf"^{demo} of 100 paths of 64 steps .*"
                                         r"lower paths or steps$"):
        _DEMOS[demo](100)


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


# The taxed demos charge each block's terminal tax from the field's tax
# density D_j = x_j d2P/dx_j^2 in closed form; the generic second partials
# and running_cost are the oracles.

def _one_point(*prices):
    return [np.array([[x]]) for x in prices]


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_sqrt_spread_densities_match_second_partials(s, v):
    left = _one_point(s, v)
    field = sqrt_spread_portfolio_fn(np.array([[0.0, 1.0], [0.0, 0.0]]))
    densities = strategies._sqrt_spread_densities(left, np.empty((1, 1)))
    for j, density in enumerate(densities):
        expected = (left[j] * field.second(j, j, left))[0, 0]
        assert density[0, 0] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(0.0, 5.0),
       st.floats(-0.2, 0.2))
def test_mixed_densities_match_second_partials(x, y, t, r):
    # D_j = 1/2 - u/(2 sqrt(x_j)) cancels where u is near sqrt(x_j), so the
    # error is relative to the size of its two terms.
    left, times = _one_point(x, y), np.array([t])
    field = mixed_arbitrage_portfolio(r)
    u = math.sqrt(x) + math.sqrt(y) - 2.0 * math.exp(0.5 * r * t)
    roots, field_u, value = np.empty((2, 1, 1)), np.empty((1, 1)), np.empty((1, 1))
    strategies._mixed_field(2.0 * np.exp(0.5 * r * times), left, roots, field_u, value)
    assert value[0, 0] == field.value(left, times)[0, 0]
    densities = strategies._mixed_densities(field_u, roots)
    for j, density in enumerate(densities):
        expected = (left[j] * field.second(j, j, left, times))[0, 0]
        size = 0.5 + abs(u) / (2.0 * math.sqrt(left[j][0, 0]))
        assert abs(density[0, 0] - expected) <= 1e-12 * size


# Path blocks as the demos feed the tally: one path, a short last block,
# and several blocks (the work array is sized by the first).
@pytest.mark.parametrize("blocks", [[1], [5, 2], [3, 3, 3, 1]])
@pytest.mark.parametrize("tax", [[0.3, 0.2], [0.0, 0.4]])
@pytest.mark.parametrize("demo", ["diffusion", "mixed"])
def test_tally_charges_the_running_costs_last_column(demo, tax, blocks):
    # A path's cost can cancel towards 0, so the error is relative to the
    # sum of its absolute tax increments.
    steps = 64
    rng = np.random.default_rng(len(blocks))
    prices = np.ones((2, sum(blocks), steps + 1))
    prices[:, :, 1:] = np.exp(np.cumsum(0.05 * rng.standard_normal((2, sum(blocks), steps)),
                                        axis=-1))
    times = np.linspace(0.0, 1.0, steps + 1)
    if demo == "diffusion":
        field, t = sqrt_spread_portfolio_fn(np.array([[0.0, 1.0], [0.0, 0.0]])), None

        def densities(block):
            return strategies._sqrt_spread_densities([row[:, :-1] for row in block],
                                                     np.empty((len(block[0]), steps)))
    else:
        field, t = mixed_arbitrage_portfolio(0.01), times

        def densities(block):
            roots, u = np.empty((2,) + block[0].shape), np.empty(block[0].shape)
            strategies._mixed_field(2.0 * np.exp(0.005 * times), block, roots, u, np.empty_like(u))
            return strategies._mixed_densities(u[:, :-1], [root[:, :-1] for root in roots])
    tally = strategies._ArbTally(np.array(tax))
    increments = np.empty((blocks[0], steps))
    charged, start = [], 0
    for count in blocks:
        block = [row[start:start + count] for row in prices]
        charged.append(tally.terminal_cost(block, densities(block), increments[:count]))
        start += count
    expected = running_cost(field, prices, tax, times=t)[:, -1]
    left, t_left = list(prices[:, :, :-1]), None if t is None else t[:-1]
    size = sum(0.5 * c ** 2 * np.abs(left[j] * field.second(j, j, left, t_left)
                                      * np.diff(prices[j], axis=-1)).sum(axis=-1)
               for j, c in enumerate(tax))
    assert np.all(np.abs(np.concatenate(charged) - expected) <= 1e-12 * size)


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
    # a count summed by numpy is an integer too
    assert wilson_ci(np.int64(30), np.int64(100)) == (low, high)


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
    report = shiryaev_demo(HermiteSpec(0.7), 200, 1024, 1.0, 8)
    assert report.passed
    assert report.statistics["identity_max_rel_error"] < 1e-8
    assert report.statistics["fraction_positive"] == 1.0
    assert report.statistics["initial_value_max_abs"] == 0.0


def test_f_strategy_rejects_large_intensity():
    with pytest.raises(ValueError):
        f_strategy_demo(lambda x: (x - 1) ** 2, lambda x: 2 * (x - 1),
                        HermiteSpec(0.7), math.sqrt(2.0), 10, 64, 1.0, 1)


def test_f_strategy_rejects_nonzero_start():
    with pytest.raises(ValueError, match="worthless"):
        f_strategy_demo(lambda x: x, lambda x: 1.0, HermiteSpec(0.7), 0.1, 10, 64, 1.0, 1)


@pytest.mark.parametrize("t, steps", [(0.01, 16), (0.0009, 512)])
def test_f_strategy_rejects_a_time_on_the_first_grid_point(t, steps):
    # At grid index 0 every S is still 1, and the demo once reported
    # probability 0, mean value 0, mean cost 0 and a pass.
    with pytest.raises(ValueError) as err:
        f_strategy_demo(lambda x: (x - 1) ** 2, lambda x: 2 * (x - 1),
                        HermiteSpec(0.7), 0.3, 10, steps, 1.0, 1, t=t)
    assert f"t={t}" in str(err.value) and f"steps={steps}" in str(err.value)
    assert "horizon=1.0" in str(err.value)


def test_f_strategy_zero_tax_always_wins():
    report = f_strategy_demo(lambda x: (x - 1) ** 2, lambda x: 2 * (x - 1),
                             HermiteSpec(0.7), 0.0, 300, 512, 1.0, 5)
    assert report.passed
    assert report.statistics["probability"] == 1.0


# (c, H, paths, steps, t, seed): the win probability read z = -0.03, -1.16,
# -1.54 and 0.47, the mean cost z = 0.50, 0.11, 2.36 and 0.43.
@pytest.mark.parametrize("c, hurst, paths, steps, t, seed", [
    (0.3, 0.7, 2000, 64, 1.0, 42), (0.5, 0.6, 5000, 128, 0.5, 7),
    (1.0, 0.8, 4000, 64, 0.25, 3), (1.2, 0.9, 3000, 32, 1.0, 11)])
def test_f_strategy_report_meets_its_exact_law(c, hurst, paths, steps, t, seed):
    report = f_strategy_demo(lambda x: (x - 1.0) ** 2, lambda x: 2.0 * (x - 1.0),
                             HermiteSpec(hurst), c, paths, steps, 1.0, seed, t=t)
    win, mean_cost, cost_sd = fsquare_law(c, hurst, round(t * steps) / steps)
    stats = report.statistics
    assert abs(stats["probability"] - win) < 4.0 * math.sqrt(win * (1.0 - win) / paths)
    assert abs(stats["mean_cost"] - mean_cost) < 4.0 * cost_sd / math.sqrt(paths)


def test_f_strategy_positive_tax_loses_sometimes():
    report = f_strategy_demo(lambda x: (x - 1) ** 2, lambda x: 2 * (x - 1),
                             HermiteSpec(0.7), 0.5, 500, 512, 1.0, 5, threshold_check=True)
    assert report.passed
    assert report.statistics["probability"] < 1.0
    assert report.ci_high < 1.0
    # The win region {S > theta} or {S < 1} counts the same paths.
    assert report.statistics["threshold_probability"] == pytest.approx(
        report.statistics["probability"], abs=1e-12)


# Demo runs at 23 paths x 16 steps: block sizes of 1, 3 and 7 paths (17
# prices per path) end mid-ensemble, and 2**40 entries is one block, the
# whole-array arithmetic.  The same constant sizes running_cost's blocks.
_TRIAL_BLOCK_ENTRIES = [17, 3 * 17, 7 * 17 + 5]


def _demo_run(demo, tax, option=None, paths=23, steps=16, seed=5, horizon=1.0):
    """One demo's report; ``option`` is the mixed driver's Hermite rank or fsquare's t."""
    grid = (paths, steps, horizon, seed)
    if demo == "shiryaev":
        return shiryaev_demo(HermiteSpec(0.7), *grid)
    if demo == "fsquare":
        return f_strategy_demo(lambda x: (x - 1.0) ** 2, lambda x: 2.0 * (x - 1.0),
                               HermiteSpec(0.7), tax, *grid, t=option, threshold_check=True)
    if demo == "diffusion":
        return diffusion_arb_demo(TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2), *grid, tax)
    hermite = {} if option is None else {"hermite": HermiteSpec(0.75, option, 4)}
    return mixed_arb_demo(_mixed_market(), *grid, tax, **hermite)


# (tax name, tax, demo, option): the two-asset demos under every tax form,
# Shiryaev's untaxed portfolio, and fsquare's single intensity.
_BLOCK_CASES = [(name, tax, demo, option)
                for demo, option in [("diffusion", None), ("mixed", None), ("mixed", 2)]
                for name, tax in [("untaxed", None), ("scalar", 0.3), ("per-asset", [0.1, 0.4])]]
_BLOCK_CASES += [("untaxed", None, "shiryaev", None), ("untaxed", 0.0, "fsquare", None),
                 ("scalar", 0.3, "fsquare", None), ("scalar", 0.3, "fsquare", 0.5)]


@pytest.mark.parametrize("tax, demo, option", [case[1:] for case in _BLOCK_CASES],
                         ids=[f"{name}-{demo}-{option}" for name, _, demo, option in _BLOCK_CASES])
def test_demo_reports_do_not_depend_on_path_blocks(monkeypatch, tax, demo, option):
    monkeypatch.setattr(processes, "_BLOCK_ENTRIES", 2**40)
    whole = _demo_bytes(_demo_run(demo, tax, option))
    for entries in _TRIAL_BLOCK_ENTRIES:
        monkeypatch.setattr(processes, "_BLOCK_ENTRIES", entries)
        assert _demo_bytes(_demo_run(demo, tax, option)) == whole, entries


@pytest.mark.parametrize("tax", [None, 0.3])
def test_demo_extremes_are_refused_in_any_block(monkeypatch, tax):
    # Drifts near log(max float) overflow both prices on the paths whose
    # W(1) exceeds 0.5, and inf - inf is NaN.  Path 0 ends finite, so a
    # check of the first block alone would pass; a block of 17 prices is
    # one path.  The message names every parameter, the drifts that cause
    # it among them.
    market = TwoAssetDiffusion.shared_vol(709.7, 709.75, 0.2)
    s_first, v_first = market.price_paths(gen_bm(1.0, 16, 1, seed=2))
    assert math.isfinite(s_first[0, -1]) and math.isfinite(v_first[0, -1])
    with np.errstate(all="ignore"):
        for entries in (17, 2**40):
            monkeypatch.setattr(processes, "_BLOCK_ENTRIES", entries)
            with pytest.raises(ValueError, match=r"^diffusion_arbitrage: .* not finite at "
                                                 r"mu1 = 709\.7, mu2 = 709\.75, .*horizon = 1\.0$"):
                diffusion_arb_demo(market, 12, 16, 1.0, 2, tax)


def test_tally_refuses_a_terminal_value_its_statistics_hide():
    # A least terminal value, as the diffusion demo reports, stays finite
    # when one path among finite ones ends infinite.
    tally = strategies._ArbTally(np.zeros(2))
    tally.add(np.array([[0.0, 1.0], [0.0, 2.0]]))
    tally.add(np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError, match="^demo: terminal values, costs or statistics are not "
                                         "finite at horizon = 2.0$"):
        tally.report("demo", {"horizon": 2.0}, 0, {"min_terminal_value": 1.0}, True)


@pytest.mark.parametrize("demo", ["diffusion", "mixed", "shiryaev", "fsquare"])
@pytest.mark.parametrize("grid, message", [
    ({"paths": 0}, "paths must be an integer >= 1, got 0"),
    ({"paths": 2.5}, "paths must be an integer >= 1, got 2.5"),
    ({"steps": 0}, "steps must be an integer >= 1, got 0"),
    ({"steps": 8.0}, "steps must be an integer >= 1, got 8.0"),
    ({"paths": True}, "paths must be an integer >= 1, got True"),
    ({"steps": True}, "steps must be an integer >= 1, got True"),
    ({"horizon": 0.0}, "horizon must be positive, got 0.0"),
    ({"horizon": math.inf}, "horizon must be finite, got inf"),
])
def test_demos_check_the_grid_before_any_block(demo, grid, message):
    args = dict({"paths": 10, "steps": 8, "horizon": 1.0}, **grid)
    with pytest.raises(ValueError) as err:
        _demo_run(demo, 0.3, seed=3, **args)
    assert str(err.value) == message


# Blocks as the demos draw them, seed words hashed 1,024 paths at a time,
# and priced in spare arrays that still hold the last block's prices: each
# block is the generators' rows, and its legs are the price formulas in
# their grouping, bit for bit.  Over a thousand paths cross a hash chunk.
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), paths=st.one_of(st.integers(1, 40), st.integers(1000, 1100)),
       steps=st.integers(1, 100), rows=st.integers(1, 7), rank=st.sampled_from([1, 2]),
       offset=st.sampled_from([0, 5, 2**32 - 3]), component=st.integers(0, 3))
def test_draw_blocks_draw_and_price_the_generators_rows(seed, paths, steps, rows, rank, offset,
                                                        component):
    hermite = HermiteSpec(0.75, rank, approx_factor=2)
    market, pair = _mixed_market(), TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2)
    w = gen_bm(1.0, steps, paths, seed, component, offset)
    # gen_hermite draws component 0; gen_fbm, its rank-1 case, any
    h_component = component if rank == 1 else 0
    h = (gen_fbm(hermite, 1.0, steps, paths, seed + 1, component, offset) if rank == 1
         else gen_hermite(hermite, 1.0, steps, paths, seed + 1, offset))
    t = w.times
    tilted = np.exp(w.values * market.b + -0.5 * market.b ** 2 * t)
    unit = np.exp(w.values + (singular_square_term(t, h.values, market.hurst) - t)
                  + h.values * market.rho)
    assets = price_mixed_market(market, w, h)
    assert np.array_equal(assets.tilted.values, tilted)
    assert np.array_equal(assets.unit_exposure.values, unit)
    pair_prices = [np.exp(w.values * sigma + (mu - 0.5 * sigma ** 2) * t)
                   for mu, sigma in ((pair.mu1, pair.sigma1), (pair.mu2, pair.sigma2))]
    assert np.array_equal(pair.price_paths(w), pair_prices)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processes, "_BLOCK_ENTRIES", rows * (steps + 1))
        blocks = processes._draw_blocks([(None, seed, component), (hermite, seed + 1, h_component)],
                                        paths, steps, 1.0, offset, spare=4)
        covered = 0
        for start, stop, (w_rows, h_rows), spare in blocks:
            assert start == covered and 0 < stop - start == len(w_rows) <= rows
            covered = stop
            assert np.array_equal(w_rows, w.values[start:stop])
            assert np.array_equal(h_rows, h.values[start:stop])
            _mixed_legs(market, w_rows, h_rows, t, *spare[:2])
            pair._price_rows(w_rows, t, spare[2:])
            for got, want in zip(spare, [tilted, unit] + pair_prices):
                assert np.array_equal(got, want[start:stop])
        assert covered == paths


_FLAT_MEMORY_SCRIPT = """
import sys
from hermite_markets import HermiteSpec, MixedMarket, TwoAssetDiffusion, \\
    diffusion_arb_demo, f_strategy_demo, mixed_arb_demo, shiryaev_demo
market = MixedMarket(r=0.01, b=0.2, rho=0.2, mu=0.05, sigma=0.2, sigma_h=0.3, hurst=0.75)
pair = TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2)
demos = {
    "diffusion": lambda paths, steps: diffusion_arb_demo(pair, paths, steps, 1.0, 7, 0.3),
    "mixed": lambda paths, steps: mixed_arb_demo(market, paths, steps, 1.0, 7, 0.3),
    "shiryaev": lambda paths, steps: shiryaev_demo(HermiteSpec(0.75), paths, steps, 1.0, 7),
    "fsquare": lambda paths, steps: f_strategy_demo(lambda x: (x - 1.0) ** 2,
                                                    lambda x: 2.0 * (x - 1.0),
                                                    HermiteSpec(0.75), 0.3, paths, steps,
                                                    1.0, 7),
}
print_peak()
for paths, steps in ((2000, 64), (20000, 64), (10000, 512)):
    demos[sys.argv[1]](paths, steps)
    print_peak()
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is Linux's")
def test_taxed_mixed_demo_memory_stays_flat_as_paths_grow():
    # Holding every path, 18,000 more paths of 65 prices would add about
    # 65 MiB to the peak; streamed blocks add under 10 MiB.  And a demo of
    # 10,000 x 512, the bench's size, adds under 8 MiB to the peak right
    # after import: blocks of 2**15 prices added 3-4 MiB, blocks of 2**17
    # 8-15.  One process per demo, because VmHWM is the peak of the whole
    # process.
    for demo in ("diffusion", "mixed", "shiryaev", "fsquare"):
        imported, small, large, bench = subprocess_peaks_mib(_FLAT_MEMORY_SCRIPT, demo)
        assert large - small < 25.0, (demo, small, large)
        assert bench - imported < 8.0, (demo, imported, bench)


_FAULTS_SCRIPT = """
import resource, sys
from hermite_markets import MixedMarket, TwoAssetDiffusion, diffusion_arb_demo, mixed_arb_demo
market = MixedMarket(r=0.01, b=0.2, rho=0.2, mu=0.05, sigma=0.2, sigma_h=0.3, hurst=0.75)
pair = TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2)
demos = {"diffusion": lambda paths: diffusion_arb_demo(pair, paths, 512, 1.0, 7, 0.3),
         "mixed": lambda paths: mixed_arb_demo(market, paths, 512, 1.0, 7, 0.3)}
for paths in (2000, 20000):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    demos[sys.argv[1]](paths)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("demo", ["diffusion", "mixed"])
def test_taxed_demo_page_faults_do_not_grow_with_paths(demo):
    # Blocks that allocate and free their arrays anew can have the
    # allocator hand them back to the kernel and fault them in again:
    # 18,000 more paths are 286 more blocks of 63, and one 258 KB array
    # faulted in again a block is over 18,000 faults.  Reused work arrays
    # fault once, in the first run.
    pytest.importorskip("resource")
    small, large = subprocess_numbers(_FAULTS_SCRIPT, demo)
    assert large < small + 2000, (small, large)


@pytest.mark.parametrize("paths, steps", [(300, 512), (3, 2**17)])
@pytest.mark.parametrize("demo", ["diffusion", "mixed", "shiryaev", "fsquare"])
def test_demo_bytes_bounds_the_traced_peak(demo, paths, steps):
    # Blocks of 2**15 prices (63 paths of 513), and blocks of one path
    # when one path holds more; the CLI's memory preflight reads the bound.
    _demo_run(demo, 0.3, paths=4, steps=steps)  # the eigenvalues, cached
    tracemalloc.start()
    try:
        _demo_run(demo, 0.3, paths=paths, steps=steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < strategies._demo_bytes(paths, steps), peak


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


@pytest.mark.parametrize("tax", [[0.3, 0.3], [0.0, 0.4]])
def test_diffusion_demo_cost_is_linear_in_the_prices(tax):
    # The error is relative to sum_k |a_k| s_k + |b_k| v_k, which the
    # path's cost can cancel below.
    market, steps = TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2), 512
    w = gen_bm(1.0, steps, 200, seed=7)
    s, v = market.price_paths(w)
    tally = strategies._ArbTally(np.array(tax))
    work = np.empty((2, 200, steps))
    cost = tally.terminal_cost(
        (s, v), strategies._sqrt_spread_densities((s[:, :-1], v[:, :-1]), work[0]), work[1])
    a, b = sqrt_spread_cost_weights(market.mu1, market.mu2, tax, w.times)
    size = np.abs(a) @ s.T + np.abs(b) @ v.T
    assert np.all(np.abs(cost - (a @ s.T + b @ v.T)) <= 1e-12 * size)


def test_diffusion_demo_cost_law_at_tax_0_3():
    mean, sd = sqrt_spread_cost_law(0.05, 0.02, 0.2, 0.3, np.linspace(0.0, 1.0, 513))
    assert mean == pytest.approx(1.602897e-3, rel=1e-6)
    assert sd == pytest.approx(9.4146e-3, rel=1e-4)


# mean_cost read z = -0.53, -1.59 and 1.42.
@pytest.mark.parametrize("tax, paths, steps, seed", [
    (0.3, 10_000, 512, 7), (0.3, 10_000, 512, 8), ([0.0, 0.4], 5000, 128, 7)])
def test_diffusion_demo_mean_cost_meets_its_exact_law(tax, paths, steps, seed):
    market = TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2)
    mean, sd = sqrt_spread_cost_law(market.mu1, market.mu2, market.sigma1, tax,
                                    np.linspace(0.0, 1.0, steps + 1))
    report = diffusion_arb_demo(market, paths, steps, 1.0, seed, tax)
    assert abs(report.statistics["mean_cost"] - mean) < 4.0 * sd / math.sqrt(paths)


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


def test_mixed_demo_refuses_a_driver_of_another_hurst():
    # The legs carry the market's t^{1-2H} singular term, so a driver of
    # another H would run, pass and report the market's H without meaning.
    with pytest.raises(ValueError, match=r"hermite\.hurst \(0\.55\) must equal market\.hurst \(0\.75\)"):
        mixed_arb_demo(_mixed_market(), paths=8, steps=16, hermite=HermiteSpec(0.55, 2))


def _coerced_report(report):
    """A report's dict with every statistic, the interval and the verdict coerced by hand."""
    return {
        "demo": report.demo,
        "parameters": report.parameters,
        "paths": report.paths,
        "seed": report.seed,
        "statistics": {k: (float(v) if np.isscalar(v) or isinstance(v, np.generic) else v)
                       for k, v in report.statistics.items()},
        "ci_low": float(report.ci_low),
        "ci_high": float(report.ci_high),
        "pass": bool(report.passed),
    }


def _leaves(value):
    """(key or type, value) of every leaf of a JSON-like value, in order, types included."""
    if isinstance(value, dict):
        return [(key, leaf) for key, item in value.items() for leaf in _leaves(item)]
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [(type(value), value)]


@pytest.mark.parametrize("demo, tax", [("shiryaev", None), ("fsquare", 0.0), ("fsquare", 0.3),
                                       ("diffusion", 0.3), ("mixed", 0.3)])
def test_report_dict_needs_no_coercion(demo, tax):
    # Every demo stores Python floats and bools, so the plain dataclass
    # dict equals the hand-coerced one, leaf types included.
    report = _demo_run(demo, tax, paths=100, steps=64, seed=7)
    data = report.to_json_dict()
    assert _leaves(data) == _leaves(_coerced_report(report))
    assert json.loads(json.dumps(data)) == data


def test_report_serialization():
    data = shiryaev_demo(HermiteSpec(0.7), 50, 128, 1.0, 2).to_json_dict()
    for key in ("demo", "parameters", "paths", "seed", "statistics",
                "ci_low", "ci_high", "pass"):
        assert key in data
    assert isinstance(data["pass"], bool)


# (demo, tax, paths, seed, option, passed, sha256 of to_json_dict() as sorted
# JSON), all at 64 steps; the option is the Hermite rank of the mixed driver
# or fsquare's evaluation time t.  Pins every demo's report bit for bit,
# taxed, untaxed and failing.
_GOLDEN_DEMOS = [
    ("diffusion", None, 300, 9, None, True,
     "81211e402553bdae10b7e3391bb15403484ed3c084a99df4ef3d78b6c524b08e"),
    ("diffusion", 0.3, 300, 9, None, True,
     "0fad43b6c2ac07a4930cb1cbbd0148e4899fff553f0c86d13784e7feb326fde3"),
    ("diffusion", 0.02, 40, 9, None, False,
     "f4ad65ddfbeadaf3f95246a3ae5f009021b3229dc859866df8814b6ffbc66364"),
    ("mixed", None, 300, 12, None, True,
     "8d8e54565fac7b6b6d546d9e2df380586556031b83a7b228fdcb43ce529026e3"),
    ("mixed", 0.3, 300, 12, None, True,
     "353ea3f262e941caff29ec26213a76ec1317b84668e8094f2c25a3adfda1b50e"),
    ("mixed", 0.02, 40, 12, None, False,
     "a1a8cc0ee22d5bb7669ac8ab7cdd96302bfe761daf30f4dc674fa495098a5a38"),
    ("mixed", 0.3, 100, 4, 2, True,
     "da8f60bf3222ce037b6156f26982c72343f432477270a7de7e43ff35861f30b8"),
    ("shiryaev", None, 300, 8, None, True,
     "76aa7272b0a1551f90544e8c4337491758dbd74a2506b8040210502c73d4b2ed"),
    ("fsquare", 0.0, 300, 5, None, True,
     "5691a5026c0d4559b3537fcbf3ef6cdb1e3d8d1095e9b61cbb3c247ff085adcf"),
    ("fsquare", 0.3, 300, 5, None, True,
     "4e233ae01a17d9361c15555958f13004309ff3e7b1461554d6083c46666b8a80"),
    ("fsquare", 0.3, 300, 5, 0.5, True,
     "866b83da1adbdc060c1be8175dd01db87c4fde83c1b7b058620358aa4b81ede8"),
    ("fsquare", 0.02, 40, 5, None, False,
     "35039f42e837e124dfc9398845e0e99e8fa4c579e7c0bed052e80a4af480360c"),
    # 9,000 paths are 18 blocks of 504, across more than one chunk of
    # hashed seed words; the rank-2 driver's 1,200 are three blocks.
    ("diffusion", None, 9000, 31, None, True,
     "c566d525d38a29d2ccbbd21e18ec208ea69e171b94bb50bfa7a431f3073ff107"),
    ("diffusion", 0.3, 9000, 31, None, True,
     "0c73afdd8f7e9941bb71e79fd3b9a358b1e375acbe67a3411791291f4f5dc358"),
    ("mixed", None, 9000, 32, None, True,
     "a017f73a8364e2956a53ef1129336436e71020647aeb043f805785edc28fdac7"),
    ("mixed", 0.3, 9000, 32, None, True,
     "1acac4b8e905765c20563119fbc9589cf2a0a4f6490aba40678a05b7ebdae7a0"),
    ("shiryaev", None, 9000, 33, None, True,
     "ac46d4ce1855838cf24f144f1b1eaecf62eb3a552a4b7a0fc760a543cea1d533"),
    ("fsquare", 0.3, 9000, 34, None, True,
     "4b7c4511d6f1f003112bda4e6a65807bf27a5a473c670c2ee5ecc2f1fa1c310a"),
    ("mixed", 0.3, 1200, 35, 2, True,
     "1c874903ccbf5580d20ee83a1a116f7d2f64e8105ada7e66af2571edf17e9629"),
]


def _demo_bytes(report):
    return json.dumps(report.to_json_dict(), sort_keys=True).encode()


@pytest.mark.parametrize("demo", ["diffusion", "mixed"])
@pytest.mark.parametrize("scalar, schedule", [(0.0, None), (0.3, [0.3, 0.3])])
def test_arb_demos_take_scalar_tax(demo, scalar, schedule):
    if demo == "diffusion":
        run = lambda tax: diffusion_arb_demo(TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2),
                                             60, 32, 1.0, 3, tax)
    else:
        run = lambda tax: mixed_arb_demo(_mixed_market(), 60, 32, 1.0, 3, tax)
    assert _demo_bytes(run(scalar)) == _demo_bytes(run(schedule))


@pytest.mark.parametrize("demo, tax, paths, seed, option, passed, digest", _GOLDEN_DEMOS,
                         ids=["-".join(map(str, row[:-1])) for row in _GOLDEN_DEMOS])
def test_golden_demo_reports(demo, tax, paths, seed, option, passed, digest):
    report = _demo_run(demo, tax, option, paths, 64, seed)
    assert report.passed is passed
    assert hashlib.sha256(_demo_bytes(report)).hexdigest() == digest
