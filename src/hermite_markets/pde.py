"""Tax-adjusted claim pricing: a log-space Crank-Nicolson solver and the
change of variables that turns the multi-asset taxed pricing operator into
a plain heat equation.

The single-asset solver prices terminal claims under
dV/dt + r x dV/dx - r V + x^2 (sigma^2 + r c^2)/2 d2V/dx2 = 0,
so a quadratic tax only enters through the effective volatility.  The
first two time steps are taken fully implicit to damp the payoff kink
before switching to Crank-Nicolson, and a second solve on the half grid
turns the price into a Richardson extrapolation.

A Crank-Nicolson step (I - dtau L / 2) new = (I + dtau L / 2) known, with
L the interior operator and its boundary terms, is solved in sum form: since
I + dtau L / 2 = 2 I - (I - dtau L / 2), the sum w = new + known solves
(I - dtau L / 2) w = 2 known + dtau/2 (lower (new[0] + known[0]) e_first
+ upper (new[-1] + known[-1]) e_last), and new = w - known.  No step forms
L known, and the surfaces agree with the stencil form to roundoff.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .markets import _intensities
from .processes import _check_memory, _finite, _integer, _require

__all__ = [
    "IllPosedProblemError",
    "PdeGrid",
    "grid_for_spot",
    "TerminalClaim",
    "PdeSurface",
    "solve_tax_bsm",
    "heat_kernel",
    "HeatReduction",
    "reduce_to_heat",
]


class IllPosedProblemError(ValueError):
    """The effective diffusion coefficient is not positive."""


# The default grid. With the cell-averaged strike payoff and the
# extrapolated price, 513 x 64 keeps the worst error over the README's 27
# claims near a third of 1e-5, and 513 x 32 only 7% under it.  It is the
# one grid where the half-grid estimate was validated.  Over the call and
# put claims the estimate's least ratio to the error of v was 0.95 here,
# and 0.12 on 385 x 48, 0.26 on 769 x 96, 0.53 on 257 x 32 and 0.66 on
# 513 x 48: the step count, not the node count, decides where it fails.
_DEFAULT_NODES, _DEFAULT_TIME_STEPS = 513, 64
_MIN_NODES, _MIN_TIME_STEPS = 16, 1  # the least grid PdeGrid accepts


@dataclass(frozen=True)
class PdeGrid:
    """Uniform log-price grid with ``nodes`` points and ``time_steps`` levels."""

    x_min: float
    x_max: float
    nodes: int = _DEFAULT_NODES
    time_steps: int = _DEFAULT_TIME_STEPS

    def __post_init__(self):
        _finite(x_min=self.x_min, x_max=self.x_max)
        if not 0 < self.x_min < self.x_max:
            raise ValueError("need 0 < x_min < x_max")
        for name, least in (("nodes", _MIN_NODES), ("time_steps", _MIN_TIME_STEPS)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))

    @functools.cached_property
    def log_nodes(self):
        """The log-price nodes, built once per grid and read-only."""
        nodes = np.linspace(math.log(self.x_min), math.log(self.x_max), self.nodes)
        nodes.flags.writeable = False
        return nodes


def grid_for_spot(spot, sigma, maturity, rate=0.0, nodes=_DEFAULT_NODES,
                  time_steps=_DEFAULT_TIME_STEPS):
    """Grid whose log-nodes are centred on ln(spot).

    The middle node equals ln(spot) up to the rounding of exp, log and
    linspace: at spot 37.5 with a half-width of one log unit it is one ulp
    (4.4e-16) off.  The half-width covers 8 standard deviations plus the
    drift over the horizon, with a floor of 1e-4 log units, so that a
    short-dated or low-volatility claim's kink still spans many nodes.
    A non-finite spot, sigma, maturity or rate, a spot or maturity that is
    not positive, or a count of ``nodes`` that PdeGrid refuses raises
    ValueError naming it, and so does a half-width that puts either end of
    the grid outside the float range.  An even count of ``nodes`` is
    rounded up to put a node on the spot.
    """
    _finite(spot=spot, maturity=maturity, sigma=sigma, rate=rate)
    _require(spot > 0, f"spot must be positive, got {spot}")
    _require(maturity > 0, f"maturity must be positive, got {maturity}")
    nodes = _integer("nodes", nodes, _MIN_NODES) | 1
    center = math.log(spot)
    try:
        half = max(1e-4, 8.0 * abs(sigma) * math.sqrt(maturity)
                   + abs(rate - 0.5 * sigma ** 2) * maturity)
        x_min, x_max = math.exp(center - half), math.exp(center + half)
    except OverflowError:
        x_min = 0.0
    if not (x_min > 0.0 and x_max < math.inf):
        raise ValueError(f"the grid around spot {spot:g} leaves the float range at "
                         f"sigma = {sigma:g}, rate = {rate:g}, maturity = {maturity:g}")
    return PdeGrid(x_min, x_max, nodes, time_steps)


@dataclass(frozen=True)
class TerminalClaim:
    """Terminal payoff with the little extra structure the solver needs.

    ``kind`` drives the far-field boundary rule: calls and puts (and any
    'custom' payoff) extrapolate linearly with the intercept discounted,
    while 'power' claims use the exact exponential growth of x^p under the
    pricing operator.
    """

    payoff: object
    maturity: float
    kind: str = "custom"
    strike: float = None
    power: float = None

    def __post_init__(self):
        _finite(maturity=self.maturity)
        _require(self.maturity > 0, f"maturity must be positive, got {self.maturity}")
        if self.kind not in ("call", "put", "power", "custom"):
            raise ValueError(f"unknown claim kind {self.kind!r}")
        if self.kind in ("call", "put") and not 0 < (self.strike or 0) < math.inf:
            raise ValueError(f"call/put claims need a positive, finite strike, got {self.strike}")
        if self.kind == "power" and (self.power is None or not math.isfinite(self.power)):
            raise ValueError(f"power claims need a finite exponent, got {self.power}")

    @classmethod
    def call(cls, strike, maturity):
        return cls(lambda x: np.maximum(np.asarray(x, float) - strike, 0.0),
                   maturity, "call", strike=strike)

    @classmethod
    def put(cls, strike, maturity):
        return cls(lambda x: np.maximum(strike - np.asarray(x, float), 0.0),
                   maturity, "put", strike=strike)

    @classmethod
    def power_claim(cls, exponent, maturity):
        return cls(lambda x: np.asarray(x, float) ** exponent,
                   maturity, "power", power=exponent)


@dataclass
class PdeSurface:
    """Solution values on the (calendar time, price) grid.

    Row i of ``values`` holds the claim value at ``times[i]`` across the
    price nodes; the last row is the payoff itself.
    """

    times: np.ndarray
    prices: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def value_at(self, spot, t=0.0):
        """Claim value at a spot price, linear in log-price and in time."""
        if not self.prices[0] <= spot <= self.prices[-1]:
            raise ValueError(f"spot {spot} outside the grid "
                             f"[{self.prices[0]:.6g}, {self.prices[-1]:.6g}]")
        if not self.times[0] <= t <= self.times[-1]:
            raise ValueError(f"time {t} outside [0, {self.times[-1]}]")
        # Only the two rows bracketing t enter the time interpolation, and
        # np.interp on them alone gives the same bits as on every row.
        hi = min(int(np.searchsorted(self.times, t, side="right")), len(self.times) - 1)
        rows = slice(hi - 1, hi + 1)
        log_nodes = np.log(self.prices)
        by_space = [np.interp(math.log(spot), log_nodes, row) for row in self.values[rows]]
        return float(np.interp(t, self.times[rows], by_space))


def _boundary_values(claim, x, payoff_vals, rate, sig_eff_sq, taus):
    if claim.kind == "power":
        p = claim.power
        growth = rate * (p - 1.0) + 0.5 * sig_eff_sq * p * (p - 1.0)
        factor = np.exp(growth * taus)
        return payoff_vals[0] * factor, payoff_vals[-1] * factor
    disc = np.exp(-rate * taus)
    slope_l = (payoff_vals[1] - payoff_vals[0]) / (x[1] - x[0])
    slope_r = (payoff_vals[-1] - payoff_vals[-2]) / (x[-1] - x[-2])
    left = slope_l * x[0] + (payoff_vals[0] - slope_l * x[0]) * disc
    right = slope_r * x[-1] + (payoff_vals[-1] - slope_r * x[-1]) * disc
    return left, right


def _effective_variance(rate, sigma, tax_hat):
    """sigma^2 + rate * tax_hat^2 from a finite rate and sigma and one asset's tax.

    A term that overflows raises ValueError naming the parameter behind it.
    """
    _finite(rate=rate, sigma=sigma)
    tax = float(_intensities(tax_hat, 1)[0])
    try:
        sig_sq = sigma ** 2
    except OverflowError:
        raise ValueError(f"sigma^2 overflows at sigma = {sigma:g}") from None
    try:
        tax_term = rate * tax ** 2
    except OverflowError:
        raise ValueError(f"tax^2 overflows at tax = {tax:g}") from None
    sig_eff_sq = sig_sq + tax_term
    if sig_eff_sq == math.inf:
        raise ValueError(f"sigma^2 + r c^2 overflows at rate = {rate:g}, "
                         f"sigma = {sigma:g}, tax = {tax:g}")
    if not sig_eff_sq > 0.0:
        raise IllPosedProblemError(
            f"effective variance sigma^2 + r c^2 = {sig_eff_sq:.6g} is not positive")
    return sig_eff_sq


def _require_finite(claim, part, values):
    if not np.isfinite(values).all():
        raise ValueError(f"{claim.kind} claim: non-finite {part}")


def _start_row(claim, y, payoff_vals):
    """The row the march starts from: a call or put payoff averaged over each log-cell.

    The mean over [y - h/2, y + h/2] is closed form, since e^s - K s is an
    antiderivative of the call's positive part and the put is its mirror
    (Pooley, Vetzal & Forsyth 2003).  A cell wholly on one side of the
    strike takes x sinh(h/2) / (h/2) - K, which does not cancel.  Other
    payoffs start from ``payoff_vals``, their values at the nodes.
    """
    if claim.kind not in ("call", "put"):
        return payoff_vals
    strike, k = claim.strike, math.log(claim.strike)
    dy = y[1] - y[0]
    lo, hi = y - 0.5 * dy, y + 0.5 * dy
    mean_x = np.exp(y) * (math.sinh(0.5 * dy) / (0.5 * dy))
    if claim.kind == "call":
        straddle = (np.exp(hi) - strike * (1.0 + (hi - k))) / dy
        return np.where(lo >= k, mean_x - strike, np.where(hi <= k, 0.0, straddle))
    straddle = (np.exp(lo) - strike * (1.0 + (lo - k))) / dy
    return np.where(hi <= k, strike - mean_x, np.where(lo >= k, 0.0, straddle))


def _march(claim, rate, sig_eff_sq, grid):
    """solve_tax_bsm's value surface on one grid: rows in calendar order, the last the payoff."""
    y = grid.log_nodes
    x = np.exp(y)
    dy = y[1] - y[0]
    d_tau = claim.maturity / grid.time_steps
    diffusion = 0.5 * sig_eff_sq
    drift = rate - 0.5 * sig_eff_sq

    lower = diffusion / dy ** 2 - drift / (2.0 * dy)
    diag = -2.0 * diffusion / dy ** 2 - rate
    upper = diffusion / dy ** 2 + drift / (2.0 * dy)

    payoff_vals = np.asarray(claim.payoff(x), dtype=float)
    if payoff_vals.shape != x.shape:
        raise ValueError("payoff must map the price nodes to one value each")
    steps = grid.time_steps
    taus = np.linspace(0.0, claim.maturity, steps + 1)
    bound_l, bound_r = _boundary_values(claim, x, payoff_vals, rate, sig_eff_sq, taus)

    _require_finite(claim, "payoff values", payoff_vals)
    _require_finite(claim, "boundary values", [bound_l, bound_r])

    def step_factors(theta):
        """LU factors of the tridiagonal step system, with partial pivoting."""
        sub, main, sup = (-theta * d_tau * lower, 1.0 - theta * d_tau * diag,
                          -theta * d_tau * upper)
        _require_finite(claim, "step-system coefficients", [sub, main, sup])
        interior = grid.nodes - 2
        *factors, info = dgttrf(np.full(interior - 1, sub), np.full(interior, main),
                                np.full(interior - 1, sup))
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return factors

    implicit, crank_nicolson = step_factors(1.0), step_factors(0.5)
    # Rows in calendar order: the step into row i starts from row i + 1, and
    # the boundary values of every row are set here.  The march starts from
    # the start row; the last row stored is the payoff itself.
    surface = np.empty((steps + 1, grid.nodes))
    surface[:-1, 0] = bound_l[:0:-1]
    surface[:-1, -1] = bound_r[:0:-1]
    surface[-1] = _start_row(claim, y, payoff_vals)
    # A fully implicit step, into the last two rows, solves (I - dtau L) new
    # = known + dtau (lower new[0] e_first + upper new[-1] e_last).  A
    # Crank-Nicolson step, into rows below ``cn``, solves for w = new + known
    # instead: (I - dtau L / 2) w = 2 known + dtau/2 (lower (new[0] + known[0])
    # e_first + upper (new[-1] + known[-1]) e_last), so no step forms L known.
    # The boundary terms of every step are one vector for each end.
    cn = max(steps - 2, 0)
    left, right = (np.concatenate((0.5 * d_tau * coef * (col[:cn] + col[1:cn + 1]),
                                   d_tau * coef * col[cn:steps]))
                   for col, coef in ((surface[:, 0], lower), (surface[:, -1], upper)))
    rhs = np.empty(grid.nodes - 2)
    for row in range(steps - 1, -1, -1):
        known, new = surface[row + 1, 1:-1], surface[row, 1:-1]
        if row >= cn:
            np.copyto(rhs, known)
        else:
            np.add(known, known, out=rhs)
        rhs[0] += left[row]
        rhs[-1] += right[row]
        if row >= cn:
            new[:] = dgttrs(*implicit, rhs, overwrite_b=1)[0]
        else:
            np.subtract(dgttrs(*crank_nicolson, rhs, overwrite_b=1)[0], known, out=new)
    surface[-1] = payoff_vals
    _require_finite(claim, "solution surface", surface)
    return surface


def _require_half_grid(nodes, time_steps, names=("nodes", "time_steps")):
    """Refuse a grid whose half grid would fall below PdeGrid's floor."""
    leasts = (2 * _MIN_NODES - 1, 2 * _MIN_TIME_STEPS)
    for name, value, least in zip(names, (nodes, time_steps), leasts):
        if value < least:
            raise ValueError(f"{name} must be at least {least} for the error estimate, got {value}")


def _half_grid(grid):
    """The same ends with (nodes + 1) // 2 nodes and time_steps // 2 steps.

    On an odd node count its nodes are every other node of ``grid``.
    """
    _require_half_grid(grid.nodes, grid.time_steps)
    return PdeGrid(grid.x_min, grid.x_max, (grid.nodes + 1) // 2, grid.time_steps // 2)


def _solve_bytes(grid):
    """Bytes of the surfaces solve_tax_bsm holds at once: the grid's and its half's."""
    return sum(8 * g.nodes * (g.time_steps + 1) for g in (grid, _half_grid(grid)))


def _middle_value(grid, surface):
    """Time-0 value at the middle log-price, linear in log-price."""
    y = grid.log_nodes
    return float(np.interp(0.5 * (y[0] + y[-1]), y, surface[0]))


def solve_tax_bsm(claim, rate, sigma, tax_hat, grid):
    """Price a terminal claim under the tax-adjusted lognormal operator.

    ``tax_hat`` is the scalar tax intensity entering through
    sigma_eff^2 = sigma^2 + rate * tax_hat^2; a nonpositive effective
    variance raises IllPosedProblemError.  Crank-Nicolson in log price
    with two fully implicit start-up steps.

    Calls and puts march from their payoff averaged over each log-cell,
    which keeps the error a clean multiple of h^2 across the strike.

    The solve is repeated on the half grid (same ends, (nodes + 1) // 2
    nodes, time_steps // 2 steps).  At the middle log-price, where
    grid_for_spot puts the spot, ``meta["extrapolated_value"]`` holds the
    Richardson value v + (v - v_half) / 3, fourth order where v is second
    order, and ``meta["error_estimate"]`` holds |v - v_half| / 3: the size
    of that correction, which estimates the error of v and bounds the
    error of the extrapolated value.  ``values`` and ``value_at`` stay
    the second-order surface, so value_at at the middle log-price and
    the extrapolated value differ by the estimate.  A grid under 31
    nodes or 2 time steps has no half grid and raises ValueError, as does
    one whose two surfaces would not fit in physical memory.  The
    estimate was validated on the default grid, 513 x 64, only: at
    385 x 48 it read as little as 0.12x the error of v, and at 513 x 48
    and 257 x 32, grids of 2^k + 1 nodes, 0.66x and 0.53x.
    """
    half = _half_grid(grid)
    _check_memory(f"solve_tax_bsm on {grid.nodes} nodes and {grid.time_steps} time steps",
                  _solve_bytes(grid), "lower nodes or time_steps")
    sig_eff_sq = _effective_variance(rate, sigma, tax_hat)
    surface = _march(claim, rate, sig_eff_sq, grid)
    v = _middle_value(grid, surface)
    correction = (v - _middle_value(half, _march(claim, rate, sig_eff_sq, half))) / 3.0

    times = claim.maturity - np.linspace(0.0, claim.maturity, grid.time_steps + 1)[::-1]
    return PdeSurface(times=times, prices=np.exp(grid.log_nodes), values=surface,
                      meta={"rate": rate, "sigma": sigma, "tax_hat": tax_hat,
                            "sigma_eff_sq": sig_eff_sq, "kind": claim.kind,
                            "maturity": claim.maturity, "theta": 0.5,
                            "nodes": grid.nodes, "time_steps": grid.time_steps,
                            "extrapolated_value": v + correction,
                            "error_estimate": abs(correction)})


# ---------------------------------------------------------------------------
# heat-equation reduction for the multi-asset taxed operator

def heat_kernel(t, x, diffusivities):
    """Gaussian kernel of du/dt = sum_j d_j/2 d2u/dy_j^2 at elapsed time t.

    ``x`` holds one offset per coordinate (or rows of offsets);
    ``diffusivities`` is scalar or per-coordinate.  Integrates to one over
    the full space.
    """
    _finite(t=t)
    _require(t > 0, f"t must be positive, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim == 1:
        x = x[None, :]
        squeeze = True
    else:
        squeeze = False
    n = x.shape[-1]
    d = np.broadcast_to(np.asarray(diffusivities, dtype=float), (n,))
    if not (d > 0).all():
        raise ValueError("diffusivities must be positive")
    norm = (2.0 * math.pi * t) ** (-0.5 * n) / math.sqrt(np.prod(d))
    out = norm * np.exp(-np.sum(x ** 2 / d, axis=-1) / (2.0 * t))
    return float(out[0]) if squeeze else out


@dataclass
class HeatReduction:
    """Change of variables mapping the taxed pricing operator to heat flow.

    A solution V(tau, y) of du/dtau = sum_j c_j^2/2 d2u/dy_j^2 pulls back
    to a solution of the taxed pricing equation through a power tilt in
    each price, an exponential tilt in time, and the time flip
    tau = maturity - t.  The per-asset exponents -rate / c_j^2 cancel the
    first-order terms; the commonly quoted shortcut -(rate + sum c_j^2)
    for their sum does not.  ``intensities`` is read like a tax, one per
    asset, and each must be strictly positive; the rate must be finite
    and the maturity positive and finite.
    """

    rate: float
    maturity: float
    intensities: np.ndarray

    log_tilt = 0.5

    def __post_init__(self):
        tax = self.intensities
        self.intensities = _intensities(tax, np.size(tax))
        if not self.intensities.all():
            raise ValueError(f"reduction needs strictly positive tax intensities, got {tax!r}")
        _finite(rate=self.rate, maturity=self.maturity)
        _require(self.maturity > 0, f"maturity must be positive, got {self.maturity}")

    @property
    def diffusivities(self):
        return self.intensities ** 2

    @property
    def exponents(self):
        return -self.rate / self.diffusivities

    @property
    def drift_shift(self):
        a, c_sq = self.exponents, self.diffusivities
        return (self.rate * a.sum() - self.rate
                + 0.5 * float(np.sum(c_sq * a * (a - 1.0))))

    @property
    def time_tilt(self):
        return float(self.diffusivities.sum()) / 8.0

    def _tilt(self, t, y):
        weights = self.exponents + self.log_tilt
        return np.exp(np.tensordot(np.asarray(y, float), weights, axes=([-1], [0]))
                      + (self.time_tilt - self.drift_shift) * t)

    def pull_back(self, heat_solution):
        """Map V(tau, y) to the pricing solution P(t, x)."""
        def price_field(t, x):
            x = np.asarray(x, dtype=float)
            y = np.log(x)
            return self._tilt(t, y) * heat_solution(self.maturity - t, y)
        return price_field

    def push_forward(self, price_field):
        """Map P(t, x) to heat data V(tau, y); inverse of pull_back."""
        def heat_solution(tau, y):
            y = np.asarray(y, dtype=float)
            t = self.maturity - tau
            return price_field(t, np.exp(y)) / self._tilt(t, y)
        return heat_solution

    def terminal_data(self, payoff):
        """Heat initial condition V(0, y) produced by a terminal payoff."""
        return self.push_forward(lambda t, x: payoff(x))


def reduce_to_heat(tax, rate, maturity):
    """Build the taxed-operator-to-heat-equation change of variables.

    One asset per tax intensity, each strictly positive (the per-asset
    exponent is -rate / c_j^2); HeatReduction checks them, the rate and
    the maturity.
    """
    return HeatReduction(rate=rate, maturity=maturity, intensities=tax)
