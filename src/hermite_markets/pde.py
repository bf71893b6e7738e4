"""Tax-adjusted claim pricing: a log-space Crank-Nicolson solver and the
change of variables that turns the multi-asset taxed pricing operator into
a plain heat equation.

The single-asset solver prices terminal claims under
dV/dt + r x dV/dx - r V + x^2 (sigma^2 + r c^2)/2 d2V/dx2 = 0,
so a quadratic tax only enters through the effective volatility.  The
first two time steps are taken fully implicit to damp the payoff kink
before switching to Crank-Nicolson.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .markets import _intensities

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


@dataclass(frozen=True)
class PdeGrid:
    """Uniform log-price grid with ``nodes`` points and ``time_steps`` levels."""

    x_min: float
    x_max: float
    nodes: int = 257
    time_steps: int = 256

    def __post_init__(self):
        if not 0 < self.x_min < self.x_max:
            raise ValueError("need 0 < x_min < x_max")
        if self.nodes < 16:
            raise ValueError("need at least 16 spatial nodes")
        if self.time_steps < 1:
            raise ValueError("need at least one time step")

    @property
    def log_nodes(self):
        return np.linspace(math.log(self.x_min), math.log(self.x_max), self.nodes)


def grid_for_spot(spot, sigma, maturity, rate=0.0, nodes=513, time_steps=512):
    """Grid whose log-nodes are centred on ln(spot).

    The middle node equals ln(spot) up to the rounding of exp, log and
    linspace: at spot 37.5 with a half-width of one log unit it is one ulp
    (4.4e-16) off.  The half-width covers 8 standard deviations plus the
    drift over the horizon, with a floor of one log unit.
    """
    if not 0 < spot < math.inf:
        raise ValueError(f"spot must be positive and finite, got {spot}")
    if nodes % 2 == 0:
        nodes += 1
    half = max(1.0, 8.0 * abs(sigma) * math.sqrt(maturity)
               + abs(rate - 0.5 * sigma ** 2) * maturity)
    center = math.log(spot)
    return PdeGrid(math.exp(center - half), math.exp(center + half),
                   nodes, time_steps)


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
        if not 0 < self.maturity < math.inf:
            raise ValueError(f"maturity must be positive and finite, got {self.maturity}")
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
    """sigma^2 + rate * tax_hat^2 from a finite rate and sigma and one asset's tax."""
    for name, value in (("rate", rate), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    sig_eff_sq = sigma ** 2 + rate * float(_intensities(tax_hat, 1)[0]) ** 2
    if not sig_eff_sq > 0.0:
        raise IllPosedProblemError(
            f"effective variance sigma^2 + r c^2 = {sig_eff_sq:.6g} is not positive")
    return sig_eff_sq


def solve_tax_bsm(claim, rate, sigma, tax_hat, grid):
    """Price a terminal claim under the tax-adjusted lognormal operator.

    ``tax_hat`` is the scalar tax intensity entering through
    sigma_eff^2 = sigma^2 + rate * tax_hat^2; a nonpositive effective
    variance raises IllPosedProblemError.  Crank-Nicolson in log price
    with two fully implicit start-up steps.
    """
    sig_eff_sq = _effective_variance(rate, sigma, tax_hat)
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

    def step_system(theta):
        ab = np.zeros((3, grid.nodes - 2))
        ab[0, 1:] = -theta * d_tau * upper
        ab[1, :] = 1.0 - theta * d_tau * diag
        ab[2, :-1] = -theta * d_tau * lower
        return ab

    implicit, crank_nicolson = step_system(1.0), step_system(0.5)
    # Rows in calendar order: step m fills row steps - m - 1, whose boundary
    # values are set here, from row steps - m.
    surface = np.empty((steps + 1, grid.nodes))
    surface[:-1, 0] = bound_l[:0:-1]
    surface[:-1, -1] = bound_r[:0:-1]
    surface[-1] = payoff_vals
    for m in range(steps):
        theta, system = (1.0, implicit) if m < 2 else (0.5, crank_nicolson)
        known, new = surface[steps - m], surface[steps - m - 1]
        stencil = lower * known[:-2] + diag * known[1:-1] + upper * known[2:]
        rhs = known[1:-1] + (1.0 - theta) * d_tau * stencil
        rhs[0] += theta * d_tau * lower * new[0]
        rhs[-1] += theta * d_tau * upper * new[-1]
        new[1:-1] = solve_banded((1, 1), system, rhs)

    times = claim.maturity - taus[::-1]
    return PdeSurface(times=times, prices=x, values=surface,
                      meta={"rate": rate, "sigma": sigma, "tax_hat": tax_hat,
                            "sigma_eff_sq": sig_eff_sq, "kind": claim.kind,
                            "maturity": claim.maturity, "theta": 0.5,
                            "nodes": grid.nodes, "time_steps": grid.time_steps})


# ---------------------------------------------------------------------------
# heat-equation reduction for the multi-asset taxed operator

def heat_kernel(t, x, diffusivities):
    """Gaussian kernel of du/dt = sum_j d_j/2 d2u/dy_j^2 at elapsed time t.

    ``x`` holds one offset per coordinate (or rows of offsets);
    ``diffusivities`` is scalar or per-coordinate.  Integrates to one over
    the full space.
    """
    if not t > 0:
        raise ValueError("elapsed time must be positive")
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
    for their sum does not.
    """

    rate: float
    maturity: float
    intensities: np.ndarray

    log_tilt = 0.5

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
    exponent is -rate / c_j^2).
    """
    intensities = _intensities(tax, np.size(tax))
    if not intensities.all():
        raise ValueError(f"reduction needs strictly positive tax intensities, got {tax!r}")
    if not maturity > 0:
        raise ValueError("maturity must be positive")
    return HeatReduction(rate=rate, maturity=maturity, intensities=intensities)
