"""Crank-Nicolson pricing and the heat-equation change of variables."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_markets import (
    IllPosedProblemError,
    PdeGrid,
    TerminalClaim,
    grid_for_spot,
    heat_kernel,
    reduce_to_heat,
    solve_tax_bsm,
)
from hermite_markets import pde
from _oracles import black_scholes, power_claim_value

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
