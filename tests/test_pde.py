"""Crank-Nicolson pricing and the heat-equation change of variables."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg.lapack import dgttrf

from hermite_markets import (
    HeatReduction,
    IllPosedProblemError,
    PdeGrid,
    TerminalClaim,
    grid_for_spot,
    heat_kernel,
    reduce_to_heat,
    solve_tax_bsm,
)
from hermite_markets import pde, processes
from _oracles import banded_step_surface, black_scholes, power_claim_value

SPOT, STRIKE, RATE, SIGMA, MATURITY = 100.0, 100.0, 0.05, 0.2, 1.0


def _grid(**kw):
    return grid_for_spot(SPOT, SIGMA, MATURITY, rate=RATE, **kw)


def _price(claim, tax_hat=0.0, sigma=SIGMA, **kw):
    surface = solve_tax_bsm(claim, RATE, sigma, tax_hat, _grid(**kw))
    return surface.value_at(SPOT)


# ---------------------------------------------------------------------------
# containers

def test_grid_validation():
    with pytest.raises(ValueError):
        PdeGrid(-1.0, 2.0)
    with pytest.raises(ValueError):
        PdeGrid(2.0, 1.0)
    with pytest.raises(ValueError):
        PdeGrid(1.0, 2.0, nodes=8)


@pytest.mark.parametrize("call, message", [
    (lambda: PdeGrid(50.0, 200.0, 33, time_steps=0), "need at least 1 time step"),
    (lambda: PdeGrid(50.0, 200.0, nodes=31.5), "nodes must be an integer, got 31.5"),
    (lambda: PdeGrid(50.0, 200.0, nodes=True), "nodes must be an integer, got True"),
    (lambda: PdeGrid(50.0, 200.0, time_steps=64.0), "time_steps must be an integer, got 64.0"),
    (lambda: PdeGrid(50.0, math.inf), "x_max must be finite, got inf"),
    (lambda: grid_for_spot(100.0, 0.2, 1.0, nodes=64.0), "nodes must be an integer, got 64.0"),
    (lambda: HeatReduction(0.05, 1.0, np.array([0.0])),
     "reduction needs strictly positive tax intensities, got array([0.])"),
    (lambda: HeatReduction(0.05, 1.0, [0.3, math.nan]),
     "tax intensities must be finite and nonnegative, got [0.3, nan]"),
    (lambda: HeatReduction(0.05, -1.0, [0.3]), "maturity must be positive"),
    (lambda: reduce_to_heat(0.3, math.nan, 1.0), "rate must be finite, got nan"),
    (lambda: reduce_to_heat(0.3, 0.05, math.inf), "maturity must be finite, got inf"),
    # three values for 33 nodes
    (lambda: solve_tax_bsm(TerminalClaim(lambda x: np.zeros(3), 1.0), 0.05, 0.2, 0.0,
                           PdeGrid(50.0, 200.0, 33, 4)),
     "payoff must map the price nodes to one value each"),
])
def test_solver_inputs_name_their_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_grid_defaults_are_the_pricers_default_grid():
    grid = PdeGrid(60.0, 170.0)
    assert (grid.nodes, grid.time_steps) == (pde._DEFAULT_NODES, pde._DEFAULT_TIME_STEPS)
    assert (_grid().nodes, _grid().time_steps) == (grid.nodes, grid.time_steps)


def test_grid_for_spot_centers_log_spot():
    grid = _grid()
    assert grid.nodes % 2 == 1
    mid = grid.log_nodes[grid.nodes // 2]
    assert mid == pytest.approx(math.log(SPOT), abs=1e-12)


def test_claim_validation():
    with pytest.raises(ValueError):
        TerminalClaim.call(-5.0, 1.0)
    with pytest.raises(ValueError):
        TerminalClaim.call(100.0, 0.0)
    with pytest.raises(ValueError):
        TerminalClaim(lambda x: x, 1.0, "exotic")
    with pytest.raises(ValueError):
        TerminalClaim(lambda x: x, 1.0, "power")


# ---------------------------------------------------------------------------
# pricing against closed forms

def test_call_matches_closed_form():
    got = _price(TerminalClaim.call(STRIKE, MATURITY))
    want = black_scholes(SPOT, STRIKE, RATE, SIGMA, MATURITY)
    assert abs(got - want) / want < 1e-3


def test_put_matches_closed_form():
    got = _price(TerminalClaim.put(STRIKE, MATURITY))
    want = black_scholes(SPOT, STRIKE, RATE, SIGMA, MATURITY, put=True)
    assert abs(got - want) / want < 1e-3


@pytest.mark.parametrize("tax_hat", [0.3, 0.6])
def test_taxed_call_is_volatility_shift(tax_hat):
    # The quadratic tax only widens the effective variance, so the taxed
    # price equals the untaxed closed form at the shifted volatility.
    sig_eff = math.sqrt(SIGMA**2 + RATE * tax_hat**2)
    got = _price(TerminalClaim.call(STRIKE, MATURITY), tax_hat=tax_hat)
    want = black_scholes(SPOT, STRIKE, RATE, sig_eff, MATURITY)
    assert abs(got - want) / want < 1e-3


def test_put_call_parity():
    call = _price(TerminalClaim.call(STRIKE, MATURITY), tax_hat=0.4)
    put = _price(TerminalClaim.put(STRIKE, MATURITY), tax_hat=0.4)
    forward = SPOT - STRIKE * math.exp(-RATE * MATURITY)
    assert call - put == pytest.approx(forward, abs=5e-3)


def test_power_claim_exact_growth():
    claim = TerminalClaim.power_claim(2.0, MATURITY)
    tax_hat = 0.3
    sig_eff_sq = SIGMA**2 + RATE * tax_hat**2
    got = _price(claim, tax_hat=tax_hat)
    want = power_claim_value(SPOT, RATE, math.sqrt(sig_eff_sq), 2.0, MATURITY)
    assert abs(got - want) / want < 1e-3


def test_zero_payoff_prices_to_zero():
    claim = TerminalClaim(lambda x: np.zeros_like(np.asarray(x, float)), MATURITY)
    surface = solve_tax_bsm(claim, RATE, SIGMA, 0.0, _grid(nodes=65, time_steps=32))
    assert np.all(surface.values == 0.0)


def test_call_price_monotone_in_tax():
    prices = [_price(TerminalClaim.call(STRIKE, MATURITY), tax_hat=c,
                     nodes=257, time_steps=128)
              for c in (0.0, 0.2, 0.4, 0.8)]
    diffs = np.diff(prices)
    assert np.all(diffs >= -1e-12)
    assert prices[-1] > prices[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name, build", [
    ("strike", lambda v: TerminalClaim.call(v, MATURITY)),
    ("maturity", lambda v: TerminalClaim.put(STRIKE, v)),
    ("exponent", lambda v: TerminalClaim.power_claim(v, MATURITY)),
    ("spot", lambda v: grid_for_spot(v, SIGMA, MATURITY)),
    ("rate", lambda v: solve_tax_bsm(TerminalClaim.call(STRIKE, MATURITY), v, SIGMA, 0.0,
                                     _grid())),
    ("sigma", lambda v: solve_tax_bsm(TerminalClaim.call(STRIKE, MATURITY), RATE, v, 0.0,
                                      _grid())),
    ("tax", lambda v: solve_tax_bsm(TerminalClaim.call(STRIKE, MATURITY), RATE, SIGMA, v,
                                    _grid())),
])
def test_non_finite_pricing_input_names_parameter(name, build, bad):
    with pytest.raises(ValueError, match=name) as caught:
        build(bad)
    assert not isinstance(caught.value, IllPosedProblemError)


@pytest.mark.parametrize("name, bad", [(name, bad) for name in ("sigma", "maturity", "rate")
                                       for bad in (math.nan, math.inf, -math.inf)]
                         + [("maturity", 0.0), ("maturity", -1.0)])
def test_grid_for_spot_names_a_bad_input(name, bad):
    inputs = dict(spot=SPOT, sigma=SIGMA, maturity=MATURITY, rate=RATE)
    inputs[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be"):
        grid_for_spot(**inputs)


# The half-width's exponential overflows, or x_min underflows to zero.
@pytest.mark.parametrize("inputs", [{"rate": 800.0}, {"rate": -900.0}, {"rate": 1e300},
                                    {"maturity": 1e300}, {"sigma": 1e10}, {"sigma": 1e200},
                                    {"spot": 1e-300, "sigma": 12.5}])
def test_grid_for_spot_refuses_a_grid_outside_the_float_range(inputs):
    inputs = dict({"spot": SPOT, "sigma": SIGMA, "maturity": MATURITY, "rate": RATE}, **inputs)
    with pytest.raises(ValueError, match="leaves the float range at sigma = .+, rate = .+, "
                                         "maturity = "):
        grid_for_spot(**inputs)


def test_ill_posed_effective_variance():
    with pytest.raises(IllPosedProblemError):
        solve_tax_bsm(TerminalClaim.call(STRIKE, MATURITY), -0.1, 0.1, 0.4, _grid())


# ---------------------------------------------------------------------------
# surfaces

def test_surface_layout():
    claim = TerminalClaim.call(STRIKE, MATURITY)
    surface = solve_tax_bsm(claim, RATE, SIGMA, 0.0, _grid(nodes=65, time_steps=32))
    assert surface.times[0] == 0.0
    assert surface.times[-1] == MATURITY
    assert np.all(np.diff(surface.times) > 0)
    # the last row is the payoff itself
    assert np.allclose(surface.values[-1], claim.payoff(surface.prices))


@pytest.mark.parametrize("claim", [TerminalClaim.call(STRIKE, MATURITY),
                                   TerminalClaim.put(STRIKE, MATURITY),
                                   TerminalClaim.power_claim(2.0, MATURITY)],
                         ids=["call", "put", "power"])
def test_surface_payoff_row_and_far_field_columns(claim):
    tax_hat = 0.3
    surface = solve_tax_bsm(claim, RATE, SIGMA, tax_hat, _grid(nodes=65, time_steps=32))
    x = surface.prices
    payoff = claim.payoff(x)
    assert np.array_equal(surface.values[-1], payoff)
    taus = np.linspace(0.0, MATURITY, 33)
    left, right = pde._boundary_values(claim, x, payoff, RATE,
                                       SIGMA**2 + RATE * tax_hat**2, taus)
    assert np.array_equal(surface.values[:-1, 0], left[:0:-1])
    assert np.array_equal(surface.values[:-1, -1], right[:0:-1])


# ---------------------------------------------------------------------------
# the start row: calls and puts averaged over each log-cell

_CELL_GRID = PdeGrid(50.0, 200.0, 65, 8)
_CELL_Y = _CELL_GRID.log_nodes
_CELL_DY = _CELL_Y[1] - _CELL_Y[0]


def _quad_cell_mean(claim, y):
    """The payoff's mean over [y - h/2, y + h/2] by adaptive quadrature."""
    lo, hi = y - 0.5 * _CELL_DY, y + 0.5 * _CELL_DY
    kink = math.log(claim.strike)
    value, _ = quad(lambda s: float(claim.payoff(math.exp(s))), lo, hi,
                    points=[kink] if lo < kink < hi else None, epsabs=0.0, epsrel=1e-13)
    return value / _CELL_DY


@pytest.mark.parametrize("strike", [
    math.exp(_CELL_Y[20]), math.exp(0.5 * (_CELL_Y[20] + _CELL_Y[21])),
    0.5 * _CELL_GRID.x_min, math.exp(_CELL_Y[0] - 0.25 * _CELL_DY),
    2.0 * _CELL_GRID.x_max, math.exp(_CELL_Y[-1] + 0.25 * _CELL_DY),
], ids=["on-a-node", "on-a-cell-edge", "below-x-min", "in-the-first-cell",
        "above-x-max", "in-the-last-cell"])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_start_row_is_the_cell_average_of_the_payoff(kind, strike):
    claim = getattr(TerminalClaim, kind)(strike, MATURITY)
    got = pde._start_row(claim, _CELL_Y, claim.payoff(np.exp(_CELL_Y)))
    want = np.array([_quad_cell_mean(claim, y) for y in _CELL_Y])
    # Cells far from the strike, the two end cells among them, take the
    # form that does not cancel; the cells beside it divide a difference
    # of two numbers near the strike by h.
    far = np.abs(_CELL_Y - math.log(strike)) > 8 * _CELL_DY
    assert np.all(got[far & (want == 0.0)] == 0.0)
    assert got[far] == pytest.approx(want[far], rel=1e-14, abs=0.0)
    assert got == pytest.approx(want, rel=0.0, abs=4.0 * math.ulp(strike) / _CELL_DY)


def test_start_row_is_the_payoff_for_power_and_custom_claims():
    x = np.exp(_CELL_Y)
    for claim in (TerminalClaim.power_claim(2.0, MATURITY), TerminalClaim(np.sqrt, MATURITY)):
        payoff = claim.payoff(x)
        assert pde._start_row(claim, _CELL_Y, payoff) is payoff


# sha256 of surface.values for claims whose march starts from the payoff
# at the nodes, recorded from the march that takes each Crank-Nicolson
# step in sum form.  A change to how calls and puts start must not move them.
_POINTWISE_SURFACES = {
    ("power", 1025, 128): "5836076be7f64696811a8d096b759e51b11f7493bc6fb3665e4874b72ac8af93",
    ("power", 65, 32): "259390a9b9e00f42300a6d42d8ee340e1b3323f70425a759faa10396c5587241",
    ("custom", 1025, 128): "36ed9e0244f41bb26d7c007cd3c68e6e75e284f680666efc9d894a6432bdce93",
    ("custom", 65, 32): "eb0a3791cf986671c495d859f9a1d9e2f37f1d33242cf4e6b562729e499a1a77",
}


@pytest.mark.parametrize("kind, nodes, steps", sorted(_POINTWISE_SURFACES))
def test_pointwise_payoff_surfaces_are_unchanged(kind, nodes, steps):
    if kind == "power":
        claim = TerminalClaim.power_claim(2.0, MATURITY)
    else:
        claim = TerminalClaim(lambda x: np.sqrt(np.asarray(x, float))
                              * np.maximum(np.asarray(x, float) - 95.0, 0.0), MATURITY)
    surface = solve_tax_bsm(claim, RATE, SIGMA, 0.3, _grid(nodes=nodes, time_steps=steps))
    digest = hashlib.sha256(surface.values.tobytes()).hexdigest()
    assert digest == _POINTWISE_SURFACES[kind, nodes, steps]


# ---------------------------------------------------------------------------
# the sum-form march against the per-step banded solve

# The march solves each Crank-Nicolson step for new + known, the oracle for
# new, so the two round differently.  Over 9,000 random solves drawn as
# the hypothesis test draws them they differed by at most 9.8e-13 of the
# largest value, and on the pivoting grids by 4.5e-16.
_ROUNDOFF = 1e-11


def _assert_matches_oracle(values, oracle):
    assert np.max(np.abs(values - oracle)) <= _ROUNDOFF * np.max(np.abs(oracle))


def _claim(kind, strike, exponent, maturity):
    if kind == "power":
        return TerminalClaim.power_claim(exponent, maturity)
    return getattr(TerminalClaim, kind)(strike, maturity)


_BENCH_CLAIMS = [(kind, tax, strike) for kind in ("call", "put", "power")
                 for tax in (0.0, 0.2, 0.5) for strike in (80.0, 100.0, 120.0)]


@pytest.mark.parametrize("kind, tax_hat, strike", _BENCH_CLAIMS)
def test_solver_matches_banded_step_loop_on_default_grid(kind, tax_hat, strike):
    claim = _claim(kind, strike, 2.0, MATURITY)
    sig_eff = math.sqrt(pde._effective_variance(RATE, SIGMA, tax_hat))
    grid = grid_for_spot(SPOT, sig_eff, MATURITY, RATE)
    surface = solve_tax_bsm(claim, RATE, SIGMA, tax_hat, grid)
    _assert_matches_oracle(surface.values,
                           banded_step_surface(claim, RATE, SIGMA, tax_hat, grid))


# Coarse, wide grids at a high rate and a small volatility break the Peclet
# condition: the drift outweighs the diffusion across one node, so the
# lower or the upper off-diagonal of the step matrix changes sign and,
# over a long time step, outweighs the diagonal.
_PIVOTING = [(0.5, 0.02, 0.0, 16, 1, 5.0, 1.0), (0.8, 0.05, 0.1, 40, 3, 4.0, 3.0),
             (-0.5, 0.02, 0.0, 16, 2, 5.0, 1.0)]


def _step_matrix_pivots(rate, sigma, tax_hat, grid, maturity):
    sig_eff_sq = pde._effective_variance(rate, sigma, tax_hat)
    dy = grid.log_nodes[1] - grid.log_nodes[0]
    diffusion, drift = 0.5 * sig_eff_sq, rate - 0.5 * sig_eff_sq
    d_tau, n = maturity / grid.time_steps, grid.nodes - 2
    ipiv = dgttrf(np.full(n - 1, -d_tau * (diffusion / dy ** 2 - drift / (2.0 * dy))),
                  np.full(n, 1.0 + d_tau * (2.0 * diffusion / dy ** 2 + rate)),
                  np.full(n - 1, -d_tau * (diffusion / dy ** 2 + drift / (2.0 * dy))))[4]
    return not np.array_equal(ipiv, np.arange(1, n + 1))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["call", "put", "power"]),
       rate=st.one_of(st.just(0.0), st.floats(-0.5, 0.8)),
       sigma=st.floats(0.01, 1.0), tax_hat=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       nodes=st.integers(31, 300), steps=st.integers(2, 80),
       maturity=st.floats(0.05, 5.0), half_width=st.floats(0.2, 3.0),
       strike=st.floats(50.0, 150.0), exponent=st.floats(-2.0, 3.0))
def test_solver_matches_banded_step_loop(kind, rate, sigma, tax_hat, nodes, steps,
                                         maturity, half_width, strike, exponent):
    assume(sigma ** 2 + rate * tax_hat ** 2 > 1e-6)
    claim = _claim(kind, strike, exponent, maturity)
    grid = PdeGrid(SPOT * math.exp(-half_width), SPOT * math.exp(half_width),
                   nodes, steps)
    surface = solve_tax_bsm(claim, rate, sigma, tax_hat, grid)
    _assert_matches_oracle(surface.values,
                           banded_step_surface(claim, rate, sigma, tax_hat, grid))
    assert all(type(surface.meta[key]) is float
               for key in ("extrapolated_value", "error_estimate"))


# These grids are coarse enough to pivot, and below solve_tax_bsm's floor
# of 31 nodes and 2 steps; a half grid can be that coarse, so the march is
# checked on them directly.
@pytest.mark.parametrize("rate, sigma, tax_hat, nodes, steps, maturity, half_width",
                         _PIVOTING)
@pytest.mark.parametrize("kind", ["call", "put", "power"])
def test_solver_matches_banded_step_loop_when_lapack_pivots(
        kind, rate, sigma, tax_hat, nodes, steps, maturity, half_width):
    claim = _claim(kind, STRIKE, 2.0, maturity)
    grid = PdeGrid(SPOT * math.exp(-half_width), SPOT * math.exp(half_width),
                   nodes, steps)
    assert _step_matrix_pivots(rate, sigma, tax_hat, grid, maturity)
    surface = pde._march(claim, rate, pde._effective_variance(rate, sigma, tax_hat), grid)
    _assert_matches_oracle(surface, banded_step_surface(claim, rate, sigma, tax_hat, grid))


@pytest.mark.parametrize("claim, rate, sigma, grid, part, numpy_warns", [
    (TerminalClaim.power_claim(400.0, MATURITY), RATE, SIGMA, _grid(),
     "power claim: non-finite payoff", True),
    (TerminalClaim.call(STRIKE, MATURITY), RATE, 1e154, PdeGrid(50.0, 200.0, 33, 4),
     "call claim: non-finite step-system", True),
    (TerminalClaim(lambda x: np.where((x > 60.0) & (x < 170.0), 1.7e308, 0.0), MATURITY),
     -0.5, SIGMA, PdeGrid(50.0, 200.0, 65, 8), "custom claim: non-finite solution", False),
], ids=["payoff", "coefficients", "surface"])
def test_non_finite_solve_part_is_named(claim, rate, sigma, grid, part, numpy_warns):
    # The payoff and the coefficients overflow in numpy, which warns.  The
    # solution, which grows at e^{tau/2}, may first overflow inside LAPACK's
    # solve, where numpy does not look.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with pytest.raises(ValueError, match=part):
            solve_tax_bsm(claim, rate, sigma, 0.0, grid)
    if numpy_warns:
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_a_solution_at_the_top_of_the_double_range_stays_finite():
    # No step multiplies a value by the operator's diagonal (about -15 on
    # this grid), so a spike of 1e308 prices without overflow.
    claim = TerminalClaim(lambda x: np.where(np.abs(x - SPOT) < 1.0, 1e308, 0.0), MATURITY)
    surface = solve_tax_bsm(claim, RATE, SIGMA, 0.0, _grid(nodes=65, time_steps=8))
    assert np.isfinite(surface.values).all()
    assert surface.values.max() == 1e308


def test_singular_step_system_raises_linalg_error(monkeypatch):
    monkeypatch.setattr(pde, "dgttrf", lambda *diagonals: (*dgttrf(*diagonals)[:-1], 3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_tax_bsm(TerminalClaim.call(STRIKE, MATURITY), RATE, SIGMA, 0.0,
                      _grid(nodes=65, time_steps=8))


# ---------------------------------------------------------------------------
# the half-grid error estimate

def _middle_value(grid, values):
    y = grid.log_nodes
    return float(np.interp(0.5 * (y[0] + y[-1]), y, values[0]))


@pytest.mark.parametrize("kind, tax_hat, grid", [
    ("call", 0.0, None), ("put", 0.3, None), ("power", 0.5, None),
    ("call", 0.2, PdeGrid(60.0, 170.0, 64, 33)),
], ids=["call-default", "put-default", "power-default", "call-even-nodes-odd-steps"])
def test_error_estimate_is_a_third_of_the_half_grid_gap(kind, tax_hat, grid):
    claim = _claim(kind, STRIKE, 2.0, MATURITY)
    if grid is None:
        sig_eff = math.sqrt(pde._effective_variance(RATE, SIGMA, tax_hat))
        grid = grid_for_spot(SPOT, sig_eff, MATURITY, RATE)
    half = PdeGrid(grid.x_min, grid.x_max, (grid.nodes + 1) // 2, grid.time_steps // 2)
    sig_eff_sq = pde._effective_variance(RATE, SIGMA, tax_hat)
    v = _middle_value(grid, pde._march(claim, RATE, sig_eff_sq, grid))
    v_half = _middle_value(half, pde._march(claim, RATE, sig_eff_sq, half))
    meta = solve_tax_bsm(claim, RATE, SIGMA, tax_hat, grid).meta
    assert meta["error_estimate"] == pytest.approx(abs(v - v_half) / 3.0, rel=1e-12, abs=0.0)
    assert meta["extrapolated_value"] == v + (v - v_half) / 3.0


def _bench_claim_surface(kind, tax_hat, strike, **grid):
    """A README claim's surface on a grid sized as ``price`` sizes it, and its closed form."""
    claim = _claim(kind, strike, 2.0, MATURITY)
    sig_eff = math.sqrt(pde._effective_variance(RATE, SIGMA, tax_hat))
    surface = solve_tax_bsm(claim, RATE, SIGMA, tax_hat,
                            grid_for_spot(SPOT, sig_eff, MATURITY, RATE, **grid))
    if kind == "power":
        want = power_claim_value(SPOT, RATE, sig_eff, 2.0, MATURITY)
    else:
        want = black_scholes(SPOT, strike, RATE, sig_eff, MATURITY, put=kind == "put")
    return surface, want


# 1025 x 128 was the default grid when these bounds were set, for value_at.
@pytest.mark.parametrize("kind, tax_hat, strike", _BENCH_CLAIMS)
def test_error_estimate_covers_the_closed_form_error_on_default_grid(kind, tax_hat, strike):
    surface, want = _bench_claim_surface(kind, tax_hat, strike, nodes=1025, time_steps=128)
    error = abs(surface.value_at(SPOT) - want)
    assert error / want <= 1e-4
    assert surface.meta["error_estimate"] >= 0.8 * error


@pytest.mark.parametrize("kind, tax_hat, strike", _BENCH_CLAIMS)
def test_extrapolated_value_meets_the_closed_form_on_default_grid(kind, tax_hat, strike):
    surface, want = _bench_claim_surface(kind, tax_hat, strike)
    assert (surface.meta["nodes"], surface.meta["time_steps"]) == (
        pde._DEFAULT_NODES, pde._DEFAULT_TIME_STEPS)
    assert abs(surface.meta["extrapolated_value"] - want) / want <= 1e-5
    assert surface.meta["error_estimate"] >= 0.8 * abs(surface.value_at(SPOT) - want)


# Short-dated and low-volatility claims, where 8 sigma sqrt(T) plus the
# drift spans far less than one log unit: 288 calls and puts at spot 100 on
# the default grid.  A grid wider than the claim's spread puts a handful of
# nodes across the kink, and the price missed the closed form by many times
# its estimate, some below minus the estimate (a negative price).
@pytest.mark.parametrize("rate", [0.0, 0.05])
@pytest.mark.parametrize("maturity", [1.0, 0.1, 1e-3, 1e-9])
@pytest.mark.parametrize("sigma", [1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2])
def test_narrow_claims_meet_the_closed_form_within_their_estimate(sigma, maturity, rate):
    grid = grid_for_spot(SPOT, sigma, maturity, rate)
    for kind in ("call", "put"):
        for strike in (90.0, 100.0, 110.0):
            claim = getattr(TerminalClaim, kind)(strike, maturity)
            meta = solve_tax_bsm(claim, rate, sigma, 0.0, grid).meta
            price, estimate = meta["extrapolated_value"], meta["error_estimate"]
            want = black_scholes(SPOT, strike, rate, sigma, maturity, put=kind == "put")
            assert abs(price - want) <= max(estimate, 2e-5), (kind, strike, price, want)
            assert price >= -estimate, (kind, strike, price, estimate)


# The half grid needs 16 nodes and one step: 31 nodes and 2 steps are the least.
@pytest.mark.parametrize("nodes, steps", [(31, 64), (65, 2)])
def test_least_grids_carry_an_estimate(nodes, steps):
    meta = solve_tax_bsm(TerminalClaim.call(STRIKE, MATURITY), RATE, SIGMA, 0.0,
                         PdeGrid(60.0, 170.0, nodes, steps)).meta
    assert meta["error_estimate"] > 0.0 and type(meta["extrapolated_value"]) is float


@pytest.mark.parametrize("nodes, steps, named", [(30, 64, "nodes"), (65, 1, "time_steps")])
def test_grid_without_a_half_grid_is_refused(monkeypatch, nodes, steps, named):
    grid = PdeGrid(60.0, 170.0, nodes, steps)
    monkeypatch.setattr(pde, "_march", pytest.fail)
    with pytest.raises(ValueError, match=f"^{named} must be at least"):
        solve_tax_bsm(TerminalClaim.call(STRIKE, MATURITY), RATE, SIGMA, 0.0, grid)
    with pytest.raises(ValueError, match=f"^{named} must be at least"):
        pde._solve_bytes(grid)


def test_solve_bytes_counts_both_surfaces():
    grid = PdeGrid(60.0, 170.0, 65, 32)
    assert pde._solve_bytes(grid) == 8 * (65 * 33 + 33 * 17)
    assert pde._solve_bytes(PdeGrid(60.0, 170.0, 31, 2)) == 8 * (31 * 3 + 16 * 2)


def test_solve_refuses_surfaces_past_memory_before_marching(monkeypatch):
    # Memory that holds both surfaces solves; one byte less is refused,
    # naming the grid's sizes, before either grid is marched.
    grid = PdeGrid(60.0, 170.0, 65, 32)
    claim = TerminalClaim.call(STRIKE, MATURITY)
    monkeypatch.setattr(processes, "_physical_memory", lambda: pde._solve_bytes(grid))
    solve_tax_bsm(claim, RATE, SIGMA, 0.0, grid)
    monkeypatch.setattr(processes, "_physical_memory", lambda: pde._solve_bytes(grid) - 1)
    monkeypatch.setattr(pde, "_march", pytest.fail)
    with pytest.raises(ValueError, match=r"^solve_tax_bsm on 65 nodes and 32 time steps .*"
                                         r"lower nodes or time_steps$"):
        solve_tax_bsm(claim, RATE, SIGMA, 0.0, grid)


def test_value_at_interpolates_and_validates():
    claim = TerminalClaim.call(STRIKE, MATURITY)
    surface = solve_tax_bsm(claim, RATE, SIGMA, 0.0, _grid(nodes=65, time_steps=32))
    node = len(surface.prices) // 2
    exact = surface.values[0, node]
    assert surface.value_at(surface.prices[node]) == pytest.approx(exact, abs=1e-12)
    with pytest.raises(ValueError):
        surface.value_at(surface.prices[-1] * 2.0)
    with pytest.raises(ValueError):
        surface.value_at(SPOT, t=2 * MATURITY)


def _value_at_every_row(surface, spot, t):
    """Reference: interpolate every row in log-price, then the column in time."""
    log_nodes = np.log(surface.prices)
    by_space = np.array([np.interp(math.log(spot), log_nodes, row) for row in surface.values])
    return float(np.interp(t, surface.times, by_space))


def test_value_at_matches_every_row_reference():
    claim = TerminalClaim.put(STRIKE, MATURITY)
    surface = solve_tax_bsm(claim, RATE, SIGMA, 0.3, _grid(nodes=65, time_steps=32))
    times = surface.times
    queries = np.concatenate([times, 0.5 * (times[1:] + times[:-1]), [0.0, MATURITY]])
    for spot in (SPOT, surface.prices[0], surface.prices[-1], surface.prices[7], 93.7):
        for t in queries:
            assert surface.value_at(spot, t) == _value_at_every_row(surface, spot, t)


def test_terminal_value_approaches_payoff():
    claim = TerminalClaim.call(STRIKE, MATURITY)
    surface = solve_tax_bsm(claim, RATE, SIGMA, 0.0, _grid(nodes=65, time_steps=32))
    # off-node spots carry log-linear interpolation error on a coarse grid
    assert surface.value_at(120.0, t=MATURITY) == pytest.approx(20.0, rel=5e-3)


# ---------------------------------------------------------------------------
# heat kernel

def test_heat_kernel_peak_value():
    assert heat_kernel(1.0, [0.0], 1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


def test_heat_kernel_integrates_to_one():
    y = np.linspace(-12.0, 12.0, 4001)
    vals = heat_kernel(0.7, y[:, None], 1.3)
    assert float(np.trapezoid(vals, y)) == pytest.approx(1.0, abs=1e-6)


def test_heat_kernel_two_dimensional_mass():
    y = np.linspace(-10.0, 10.0, 401)
    xx, yy = np.meshgrid(y, y)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = heat_kernel(0.5, pts, [0.8, 1.4]).reshape(xx.shape)
    mass = np.trapezoid(np.trapezoid(vals, y, axis=1), y)
    assert float(mass) == pytest.approx(1.0, abs=1e-6)


def test_heat_kernel_validation():
    with pytest.raises(ValueError):
        heat_kernel(0.0, [0.0], 1.0)
    with pytest.raises(ValueError):
        heat_kernel(1.0, [0.0], -1.0)
    with pytest.raises(ValueError, match="elapsed"):
        heat_kernel(math.nan, [0.0], 1.0)
    with pytest.raises(ValueError, match="diffusivities"):
        heat_kernel(1.0, [0.0], math.nan)


# ---------------------------------------------------------------------------
# change of variables

def test_reduction_coefficients():
    r = 0.03
    c = np.array([0.4, 0.5])
    red = reduce_to_heat(c, r, 1.0)
    assert np.allclose(red.exponents, -r / c**2)
    assert np.allclose(red.diffusivities, c**2)
    assert red.log_tilt == 0.5
    assert red.time_tilt == pytest.approx(float(np.sum(c**2)) / 8.0)
    a = red.exponents
    want_shift = r * a.sum() - r + 0.5 * float(np.sum(c**2 * a * (a - 1.0)))
    assert red.drift_shift == pytest.approx(want_shift)


def test_reduction_derives_every_coefficient_from_three_fields():
    red = reduce_to_heat([0.4, 0.5], 0.03, 1.0)
    assert [f.name for f in dataclasses.fields(red)] == ["rate", "maturity", "intensities"]
    c_sq = np.array([0.4, 0.5]) ** 2
    a = -0.03 / c_sq
    assert red.diffusivities.tobytes() == c_sq.tobytes()
    assert red.exponents.tobytes() == a.tobytes()
    assert red.time_tilt == float(c_sq.sum()) / 8.0
    assert red.drift_shift == (0.03 * a.sum() - 0.03
                               + 0.5 * float(np.sum(c_sq * a * (a - 1.0))))
    # built directly, it reads its intensities as a tax, as reduce_to_heat does
    assert HeatReduction(0.03, 1.0, [0.4, 0.5]).exponents.tobytes() == a.tobytes()


def test_reduction_requires_positive_intensities():
    with pytest.raises(ValueError):
        reduce_to_heat([0.4, 0.0], 0.03, 1.0)
    with pytest.raises(ValueError):
        reduce_to_heat([0.4, 0.5], 0.03, 0.0)


def test_reduction_round_trip_identity():
    red = reduce_to_heat([0.4, 0.5], 0.03, 1.0)

    def heat(tau, y):
        y = np.asarray(y, dtype=float)
        return np.sin(y[..., 0]) + np.cos(y[..., 1]) + tau

    recovered = red.push_forward(red.pull_back(heat))
    pts = np.array([[0.1, -0.2], [0.5, 0.3]])
    for tau in (0.2, 0.9):
        assert np.allclose(recovered(tau, pts), heat(tau, pts), rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(c=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
       rate=st.floats(-0.05, 0.2), maturity=st.floats(0.1, 5.0),
       frac=st.floats(0.0, 1.0),
       x=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)))
def test_reduction_pull_back_inverts_push_forward(c, rate, maturity, frac, x):
    red = reduce_to_heat(c, rate, maturity)

    def price(t, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 * np.exp(t) + x[..., 1] + 1.0

    t = frac * maturity
    recovered = red.pull_back(red.push_forward(price))
    assert recovered(t, np.array(x)) == pytest.approx(price(t, np.array(x)), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(c=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
       rate=st.floats(-0.05, 0.2), maturity=st.floats(0.1, 5.0),
       x=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)))
def test_reduction_terminal_data_pulls_back_to_the_payoff(c, rate, maturity, x):
    red = reduce_to_heat(c, rate, maturity)

    def payoff(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 + np.maximum(x[..., 1] - 1.0, 0.0) + 1.0

    x = np.array(x)
    at_maturity = red.pull_back(red.terminal_data(payoff))(maturity, x)
    assert at_maturity == pytest.approx(payoff(x), rel=1e-12)


def test_pulled_back_kernel_solves_taxed_equation():
    # Evolve a Gaussian heat solution, pull it back, and measure the taxed
    # pricing operator by central differences; the residual should sit at
    # finite-difference truncation level.
    r = 0.03
    c = np.array([0.4, 0.5])
    red = reduce_to_heat(c, r, 1.0)
    y0 = np.array([0.1, -0.2])

    def heat(tau, y):
        y = np.asarray(y, dtype=float)
        return heat_kernel(0.5 + tau, y - y0, c**2)

    price = red.pull_back(heat)

    def residual(t, x1, x2):
        ht, hx = 1e-5, 1e-4
        x = np.array([x1, x2])
        p_t = (price(t + ht, x) - price(t - ht, x)) / (2 * ht)
        out = p_t - r * price(t, x)
        for j, cj in enumerate(c):
            e = np.zeros(2)
            e[j] = hx * max(1.0, abs(x[j]))
            up, mid, down = price(t, x + e), price(t, x), price(t, x - e)
            p_j = (up - down) / (2 * e[j])
            p_jj = (up - 2 * mid + down) / e[j] ** 2
            out += r * x[j] * p_j + 0.5 * cj**2 * x[j] ** 2 * p_jj
        return out

    worst = max(abs(residual(t, x1, x2))
                for t in (0.3, 0.6)
                for x1 in (0.8, 1.2)
                for x2 in (0.9, 1.1))
    assert worst < 1e-5
