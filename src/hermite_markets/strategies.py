"""Self-financing portfolios, the strategy-specific arbitrage tax, and demos.

A portfolio is a scalar field of asset prices (optionally of time too).
The frictionless self-financing property for Markov strategies is the
Euler-type identity sum_j dP/dx_j x_j = P; a quadratic transaction tax with
per-asset intensities c_j adds the curvature term
sum_j c_j^2/2 d2P/dx_j^2 x_j^2.  The running tax charged along a price
path is the left-point integral of those curvature terms against the
assets; the taxed Monte Carlo demos charge its terminal value from each
field's tax density x_j d2P/dx_j^2 in closed form.

The demos draw their drivers through ``processes._draw_blocks``, the
iterator behind every generator, and price and charge each block in the
arrays it hands out; of a block they keep counts and one number a path.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .calculus import GridFunction
from .markets import _as_float_array, _intensities, _mixed_legs
from .processes import (SamplePath, derive_seeds, HermiteSpec, _BLOCK_ENTRIES, _block_rows,
                        _check_grid, _check_memory, _draw_blocks, _require_fbm)

__all__ = [
    "PortfolioFunction",
    "TaxReport",
    "sqrt_spread_portfolio",
    "sqrt_spread_portfolio_fn",
    "power_portfolio",
    "mixed_arbitrage_portfolio",
    "self_financing_residual",
    "taxed_self_financing_residual",
    "mixed_market_residual",
    "taxed_bsm_residual",
    "pair_value_residual",
    "pair_curvature_residual",
    "power_pair_exponents",
    "power_pair_frictionless",
    "running_cost",
    "wilson_ci",
    "shiryaev_demo",
    "f_strategy_demo",
    "diffusion_arb_demo",
    "mixed_arb_demo",
]

_FD_SCALE = 1e-5
_Z95 = 1.959963984540054


@dataclass
class PortfolioFunction:
    """Scalar field of asset prices with first and second partials.

    ``fn`` takes a sequence of per-asset values (scalars or broadcastable
    arrays); time-dependent fields take ``(t, x)`` instead.  Analytic
    partials are used when supplied (``grad`` is one callable per asset,
    ``hess`` a single callable of (i, j, ...)); anything missing falls
    back to central finite differences with step 1e-5 * max(1, |x_j|).
    """

    fn: object
    arity: int
    grad: list = None
    hess: object = None
    time_partial_fn: object = None
    time_dependent: bool = False

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.grad is not None and len(self.grad) != self.arity:
            raise ValueError("grad must provide one callable per asset")

    def _call(self, f, x, t):
        return f(t, x) if self.time_dependent else f(x)

    def _check(self, x):
        if len(x) != self.arity:
            raise ValueError(f"expected {self.arity} price coordinates, got {len(x)}")
        return [np.asarray(xi, dtype=float) for xi in x]

    def value(self, x, t=None):
        return self._call(self.fn, self._check(x), t)

    def partial(self, j, x, t=None):
        x = self._check(x)
        if self.grad is not None:
            return self._call(self.grad[j], x, t)
        h = _FD_SCALE * np.maximum(1.0, np.abs(x[j]))
        up = self._call(self.fn, _shift(x, j, h), t)
        down = self._call(self.fn, _shift(x, j, -h), t)
        return (up - down) / (2.0 * h)

    def second(self, i, j, x, t=None):
        x = self._check(x)
        if self.hess is not None:
            if self.time_dependent:
                return self.hess(i, j, t, x)
            return self.hess(i, j, x)
        hi = _FD_SCALE * np.maximum(1.0, np.abs(x[i]))
        if i == j:
            mid = self._call(self.fn, x, t)
            up = self._call(self.fn, _shift(x, i, hi), t)
            down = self._call(self.fn, _shift(x, i, -hi), t)
            return (up - 2.0 * mid + down) / hi ** 2
        hj = _FD_SCALE * np.maximum(1.0, np.abs(x[j]))
        pp = self._call(self.fn, _shift(_shift(x, i, hi), j, hj), t)
        pm = self._call(self.fn, _shift(_shift(x, i, hi), j, -hj), t)
        mp = self._call(self.fn, _shift(_shift(x, i, -hi), j, hj), t)
        mm = self._call(self.fn, _shift(_shift(x, i, -hi), j, -hj), t)
        return (pp - pm - mp + mm) / (4.0 * hi * hj)

    def time_partial(self, x, t):
        if not self.time_dependent:
            raise ValueError("field is not time-dependent")
        x = self._check(x)
        if self.time_partial_fn is not None:
            return self.time_partial_fn(t, x)
        h = _FD_SCALE * np.maximum(1.0, np.abs(np.asarray(t, dtype=float)))
        return (self.fn(t + h, x) - self.fn(t - h, x)) / (2.0 * h)


def _shift(x, j, delta):
    out = list(x)
    out[j] = x[j] + delta
    return out


# ---------------------------------------------------------------------------
# concrete portfolio families

def sqrt_spread_portfolio(coeffs, x):
    """Value of sum_ij c_ij (sqrt(x_i) - sqrt(x_j))^2 at prices ``x``.

    Zero exactly when all prices coincide, strictly positive otherwise
    whenever some off-diagonal coefficient is positive.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    roots = [np.sqrt(np.asarray(xi, dtype=float)) for xi in x]
    if coeffs.shape != (len(roots), len(roots)):
        raise ValueError("coefficient matrix must be n_assets x n_assets")
    if (coeffs < 0).any():
        raise ValueError("coefficients must be nonnegative")
    total = 0.0
    for i in range(len(roots)):
        for j in range(len(roots)):
            if coeffs[i, j]:
                total = total + coeffs[i, j] * (roots[i] - roots[j]) ** 2
    return total


def sqrt_spread_portfolio_fn(coeffs):
    """The same pairwise square-root spread as a PortfolioFunction."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    sym = coeffs + coeffs.T

    def grad_j(j):
        def g(x):
            acc = 0.0
            for i in range(n):
                if sym[j, i]:
                    acc = acc + sym[j, i] * (1.0 - np.sqrt(np.asarray(x[i], float)
                                                           / np.asarray(x[j], float)))
            return acc
        return g

    def hess(i, j, x):
        xi = np.asarray(x[i], dtype=float)
        xj = np.asarray(x[j], dtype=float)
        if i == j:
            acc = 0.0
            for k in range(n):
                if sym[i, k]:
                    acc = acc + sym[i, k] * np.sqrt(np.asarray(x[k], float)) / (2.0 * xi ** 1.5)
            return acc
        return -sym[i, j] / (2.0 * np.sqrt(xi * xj))

    return PortfolioFunction(fn=lambda x: sqrt_spread_portfolio(coeffs, x), arity=n,
                             grad=[grad_j(j) for j in range(n)], hess=hess)


def power_portfolio(exponents):
    """Product power portfolio prod_j x_j^{a_j} with analytic partials."""
    a = np.atleast_1d(np.asarray(exponents, dtype=float))
    n = len(a)

    def value(x):
        out = 1.0
        for j in range(n):
            out = out * np.asarray(x[j], dtype=float) ** a[j]
        return out

    def grad_j(j):
        return lambda x: a[j] * value(x) / np.asarray(x[j], dtype=float)

    def hess(i, j, x):
        xi = np.asarray(x[i], dtype=float)
        if i == j:
            return a[i] * (a[i] - 1.0) * value(x) / xi ** 2
        return a[i] * a[j] * value(x) / (xi * np.asarray(x[j], dtype=float))

    return PortfolioFunction(fn=value, arity=n, grad=[grad_j(j) for j in range(n)],
                             hess=hess)


def mixed_arbitrage_portfolio(r):
    """(sqrt(x) + sqrt(y) - 2 exp(rt/2))^2, the mixed-market arbitrage field."""

    def u(t, x):
        return np.sqrt(x[0]) + np.sqrt(x[1]) - 2.0 * np.exp(0.5 * r * np.asarray(t, float))

    def fn(t, x):
        return u(t, x) ** 2

    def grad_j(j):
        return lambda t, x: u(t, x) / np.sqrt(np.asarray(x[j], float))

    def hess(i, j, t, x):
        xi = np.asarray(x[i], dtype=float)
        if i == j:
            return 1.0 / (2.0 * xi) - u(t, x) / (2.0 * xi ** 1.5)
        return 1.0 / (2.0 * np.sqrt(xi * np.asarray(x[j], float)))

    def d_t(t, x):
        return -2.0 * r * u(t, x) * np.exp(0.5 * r * np.asarray(t, float))

    return PortfolioFunction(fn=fn, arity=2, grad=[grad_j(0), grad_j(1)], hess=hess,
                             time_partial_fn=d_t, time_dependent=True)


# ---------------------------------------------------------------------------
# residual identities

def self_financing_residual(P, x, t=None):
    """sum_j dP/dx_j x_j - P; zero for frictionless self-financing fields."""
    total = -P.value(x, t)
    for j in range(P.arity):
        total = total + P.partial(j, x, t) * np.asarray(x[j], dtype=float)
    return total


def taxed_self_financing_residual(P, x, tax, t=None):
    """Self-financing residual plus the quadratic-tax curvature terms."""
    intensities = _intensities(tax, P.arity)
    total = self_financing_residual(P, x, t)
    for j in range(P.arity):
        xj = np.asarray(x[j], dtype=float)
        total = total + 0.5 * intensities[j] ** 2 * P.second(j, j, x, t) * xj ** 2
    return total


def mixed_market_residual(P, t, x, y, r):
    """dP/dt + r x dP/dx + r y dP/dy - r P for a time-dependent field."""
    point = [np.asarray(x, float), np.asarray(y, float)]
    return (P.time_partial(point, t)
            + r * point[0] * P.partial(0, point, t)
            + r * point[1] * P.partial(1, point, t)
            - r * P.value(point, t))


def taxed_bsm_residual(g, x, r, sigmas, tax):
    """Two-asset taxed pricing identity residual.

    r x1 g_1 + r x2 g_2 - r g + (sigma_j^2 + r c_j^2)/2 x_j^2 g_jj summed
    over the two assets.
    """
    if g.arity != 2:
        raise ValueError("taxed_bsm_residual expects a two-asset field")
    sigmas = np.asarray(sigmas, dtype=float)
    intensities = _intensities(tax, 2)
    x0 = np.asarray(x[0], float)
    x1 = np.asarray(x[1], float)
    return (r * self_financing_residual(g, x)
            + 0.5 * (sigmas[0] ** 2 + r * intensities[0] ** 2) * x0 ** 2 * g.second(0, 0, x)
            + 0.5 * (sigmas[1] ** 2 + r * intensities[1] ** 2) * x1 ** 2 * g.second(1, 1, x))


def pair_value_residual(P, x, y):
    """P - x P_x - y P_y for two assets on one Brownian driver."""
    return -self_financing_residual(P, [x, y])


def pair_curvature_residual(P, x, y):
    """x^2 P_xx / 2 + xy P_xy + y^2 P_yy / 2 for the shared-driver pair."""
    point = [np.asarray(x, float), np.asarray(y, float)]
    return (0.5 * point[0] ** 2 * P.second(0, 0, point)
            + point[0] * point[1] * P.second(0, 1, point)
            + 0.5 * point[1] ** 2 * P.second(1, 1, point))


def power_pair_exponents(a, r, sigmas, tax):
    """Second exponents b making x^a y^b satisfy the taxed pricing identity.

    The identity reduces to a quadratic in b; both roots are returned in
    ascending order, each in a form of the quadratic formula that does not
    cancel.  A negative discriminant raises.
    """
    for name, value in (("a", a), ("r", r)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    sigmas = _as_float_array(sigmas, "sigmas")
    intensities = _intensities(tax, 2)
    k1 = sigmas[0] ** 2 + r * intensities[0] ** 2
    k2 = sigmas[1] ** 2 + r * intensities[1] ** 2
    lead = 0.5 * k2
    linear = r - 0.5 * k2
    const = r * a - r + 0.5 * a * (a - 1.0) * k1
    if lead == 0.0:
        if linear == 0.0:
            raise ValueError("degenerate identity: no dependence on the second exponent")
        return (-const / linear,)
    disc = linear ** 2 - 4.0 * lead * const
    if disc < 0:
        raise ValueError(f"no real exponent pair: discriminant {disc:.6e} < 0")
    q = -0.5 * (linear + math.copysign(math.sqrt(disc), linear))
    # q is 0 only when linear and const are, and then both roots are 0
    return tuple(sorted((q / lead, const / q if q else 0.0)))


def power_pair_frictionless(a):
    """Frictionless shared-driver pair: the partner exponent is 1 - a."""
    return 1.0 - a


# ---------------------------------------------------------------------------
# running tax along price paths

def running_cost(P, prices, tax, times=None):
    """Cumulative tax sum_j c_j^2/2 int d2P/dx_j^2 S_j dS_j, left-point.

    ``prices`` is one path of each asset, (assets, n + 1), or an ensemble,
    (assets, paths, n + 1): a SamplePath whose rows are assets, an array,
    or a list or tuple of the asset rows, stacked with one copy.  One path
    is charged as an ensemble of one and returns a GridFunction; an
    ensemble returns the cumulative costs per path.  Paths are charged in
    blocks that keep the temporaries in cache and change no bit.
    """
    if isinstance(prices, SamplePath):
        if times is None:
            times = prices.times
        prices = prices.values
    if isinstance(prices, (list, tuple)) and len({np.shape(row) for row in prices}) > 1:
        raise ValueError("every asset needs prices of one shape")
    prices = np.asarray(prices, dtype=float)
    single = prices.ndim == 2
    if single:
        prices = prices[:, None]
    if prices.ndim != 3:
        raise ValueError("prices must be (assets, n+1) or (assets, paths, n+1)")
    if len(prices) != P.arity:
        raise ValueError(f"{len(prices)} asset rows for a field of arity {P.arity}")
    intensities = _intensities(tax, P.arity)
    t_left = None
    if P.time_dependent:
        if times is None:
            raise ValueError("time-dependent field needs the time grid")
        t_left = np.asarray(times, dtype=float)[:-1]
    out = np.zeros(prices.shape[1:])
    size = _block_rows(out.shape[1])
    for start in range(0, len(out), size):
        block = prices[:, start:start + size]
        left = block[:, :, :-1]
        increments = out[start:start + size, 1:]
        for j in range(P.arity):
            if intensities[j]:
                term = 0.5 * intensities[j] ** 2 * P.second(j, j, left, t_left) * left[j]
                term *= block[j, :, 1:] - left[j]
                increments += term
        np.cumsum(increments, axis=-1, out=increments)
    return GridFunction(out[0]) if single else out


def wilson_ci(successes, trials):
    """Wilson 95% score interval for a binomial proportion.

    The ends are exactly 0 with no successes and exactly 1 when every
    trial succeeds, where rounding would leave them an ulp or so off.
    """
    for name, count in (("successes", successes), ("trials", trials)):
        if not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z = _Z95
    denom = 1.0 + z ** 2 / trials
    center = (p + z ** 2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z ** 2 / (4.0 * trials ** 2)) / denom
    low = 0.0 if successes == 0 else center - half
    high = 1.0 if successes == trials else center + half
    return low, high


# ---------------------------------------------------------------------------
# Monte Carlo demos

@dataclass
class TaxReport:
    """Outcome of one arbitrage / tax demonstration."""

    demo: str
    parameters: dict
    paths: int
    seed: int
    statistics: dict
    ci_low: float
    ci_high: float
    passed: bool

    def to_json_dict(self):
        report = asdict(self)
        report["pass"] = report.pop("passed")
        return report


def _require_finite(demo, parameters, stats, finite=True):
    """Refuse a demo whose terminal values or costs (``finite``) or statistics are not finite.

    Prices or costs that overflow leave infinities and NaNs, which JSON
    cannot hold and which no verdict may rest on.  The horizon, the tax or
    the market may be the cause, so the message names every parameter.
    """
    if not (finite and all(math.isfinite(value) for value in stats.values())):
        shown = ", ".join(f"{name} = {value}" for name, value in parameters.items())
        raise ValueError(f"{demo}: terminal values, costs or statistics are not finite at "
                         f"{shown}")


def _demo_bytes(paths, steps):
    """Bytes a demo holds at once: 8 a path, and 14 arrays the size of one block.

    A block is what ``processes._draw_blocks`` hands out, ``_BLOCK_ENTRIES``
    prices or one path.  The mixed demo, the largest of the four, peaks at
    a little over 12 such arrays (tracemalloc) when a block is one path,
    where each row over the time grid is as large as a block, and at about
    8 blocks at 512 steps; the others at 2.5 to 6.  Of those, the drivers
    and the FFT work memory that the block's prices reuse are allocated
    once per demo, by the iterator.
    """
    return 8 * paths + 14 * 8 * max(_BLOCK_ENTRIES, steps + 1)


def _check_demo(demo, horizon, steps, paths):
    """Refuse ``demo``'s grid, or a demo whose ``_demo_bytes`` exceed physical memory."""
    _check_grid(horizon, steps, paths)
    _check_memory(f"{demo} of {paths} paths of {steps} steps", _demo_bytes(paths, steps),
                  "lower paths or steps")


def shiryaev_demo(spec, paths=10_000, steps=512, horizon=1.0, seed=42):
    """Classic fractional arbitrage on S = exp(B_H) against a flat bond.

    Holding 2S - 2 shares of stock and 1 - S^2 bonds is self-financing
    with zero initial value, and its value (S - 1)^2 is positive for
    t > 0.  On any finite grid the left-point gain undershoots the value
    by exactly the accumulated squared increments of S, so the demo
    verifies that identity to rounding error; refining the grid sends the
    gap itself to zero.  Paths of the rank-1 ``spec`` are drawn a block at
    a time.
    """
    _check_demo("shiryaev_demo", horizon, steps, paths)
    _require_fbm(spec)
    tally = _ArbTally(np.zeros(1))  # untaxed: no running cost is charged
    identity_err, gap_ratios = [], []
    for _, _, (s,), (value, increments, gain) in _draw_blocks([(spec, seed, 0)], paths, steps,
                                                             horizon, spare=3):
        np.exp(s, out=s)
        np.square(np.subtract(s, 1.0, out=value), out=value)
        increments = np.subtract(s[:, 1:], s[:, :-1], out=increments[:, 1:])
        terminal = value[:, -1]
        # the cumulative gain of 2S - 2 shares, and then the squared increments
        gain = np.multiply(s[:, :-1], 2.0, out=gain[:, 1:])
        gain -= 2.0
        gain *= increments
        np.cumsum(gain, axis=1, out=gain)
        gap = terminal - gain[:, -1]
        quad_var = np.square(increments, out=gain).sum(axis=1)
        identity_err.append((np.abs(gap - quad_var) / np.maximum(1.0, terminal)).max())
        gap_ratios.append(gap / np.maximum(terminal, 1e-12))
        tally.add(value)
    stats = {
        "identity_max_rel_error": float(np.max(identity_err)),
        "median_terminal_rel_gap": float(np.median(np.concatenate(gap_ratios))),
        "fraction_positive": tally.hits / paths,
    }
    invariant = tally.hits == paths and stats["identity_max_rel_error"] < 1e-8
    return tally.report("shiryaev", {"hurst": spec.hurst, "steps": steps, "horizon": horizon},
                        seed, stats, invariant)


def f_strategy_demo(f, df, spec, intensity, paths=10_000, steps=512, horizon=1.0, seed=42,
                    t=None, threshold_check=False):
    """Tax a smooth single-asset strategy f(S) on S = exp(B_H).

    The running tax admits the closed form
    c^2/2 (f'(S_t) S_t - f(S_t) - f'(S_0) S_0); the demo reports the
    probability that the strategy still wins after tax, with a Wilson 95%
    interval.  Intensities at or above sqrt(2) are rejected.  With
    ``threshold_check`` the quadratic-payoff threshold decomposition is
    evaluated on the same terminal values.  Paths of the rank-1 ``spec``
    are drawn a block at a time; of a path only S_t stays.
    """
    c = float(intensity)
    if not 0.0 <= c < math.sqrt(2.0):
        raise ValueError(f"intensity must lie in [0, sqrt(2)), got {c}")
    if abs(f(1.0)) > 1e-12:
        raise ValueError("strategy must start worthless: f(1) != 0")
    _check_demo("f_strategy_demo", horizon, steps, paths)
    if t is None:
        t = horizon
    if not 0.0 < t <= horizon:
        raise ValueError(f"evaluation time {t} outside (0, {horizon}]")
    index = int(round(t / horizon * steps))
    if index == 0:
        raise ValueError(f"evaluation time t={t} rounds to grid index 0 of steps={steps} over "
                         f"horizon={horizon}, where every price is still 1; raise t or steps")
    _require_fbm(spec)
    s_t = np.empty(paths)
    for start, stop, (path,), _ in _draw_blocks([(spec, seed, 0)], paths, steps, horizon):
        s_t[start:stop] = path[:, index]
    np.exp(s_t, out=s_t)
    value_t = f(s_t)
    cost_t = 0.5 * c ** 2 * (df(s_t) * s_t - value_t - df(1.0))
    wins = int((value_t - cost_t > 0).sum())
    low, high = wilson_ci(wins, paths)
    stats = {
        "probability": wins / paths,
        "mean_value": float(value_t.mean()),
        "mean_cost": float(cost_t.mean()),
    }
    if threshold_check:
        if c > 0:
            threshold = (1.0 + 0.5 * c ** 2) / (1.0 - 0.5 * c ** 2)
            alt = float(((s_t > threshold).mean() + (s_t < 1.0).mean()))
            stats["threshold"] = threshold
        else:
            alt = float((s_t != 1.0).mean())
        stats["threshold_probability"] = alt
    parameters = {"intensity": c, "t": t, "hurst": spec.hurst, "steps": steps,
                  "horizon": horizon}
    _require_finite("f_strategy", parameters, stats)
    if c == 0.0:
        passed = stats["probability"] == 1.0
    else:
        passed = bool(high < 1.0 and stats["probability"] < 1.0)
    return TaxReport("f_strategy", parameters, paths, seed, stats, low, high, passed)


def diffusion_arb_demo(market, paths=10_000, steps=512, horizon=1.0, seed=42, tax=None):
    """Square-root spread arbitrage on two shared-driver diffusions.

    Frictionless, (sqrt(S) - sqrt(V))^2 starts at zero and is positive for
    t > 0 on every path; under a positive tax the running cost drives the
    net value negative on a nonzero fraction of paths.  Paths are drawn
    and charged a block at a time; of a path only its terminal cost stays.
    """
    if market.variant != "shared_vol":
        raise ValueError("demo needs the shared-volatility two-asset market")
    intensities = _intensities(tax, 2)
    _check_demo("diffusion_arb_demo", horizon, steps, paths)
    portfolio = sqrt_spread_portfolio_fn(np.array([[0.0, 1.0], [0.0, 0.0]]))
    tally = _ArbTally(intensities)
    t = np.linspace(0.0, horizon, steps + 1)
    terminal = []
    for _, _, (w,), (s, v, increments) in _draw_blocks([(None, seed, 0)], paths, steps, horizon,
                                                       spare=3):
        market._price_rows(w, t, (s, v))
        # the tally reads the field's first and last values only
        ends = portfolio.value((s[:, ::steps], v[:, ::steps]))
        terminal.append(ends[:, -1].min())
        # the spent driver holds each tax density in turn
        densities = _sqrt_spread_densities((s[:, :-1], v[:, :-1]), w[:, :-1])
        tally.add(ends, (s, v), densities, increments[:, :-1])
    rng = np.random.default_rng(seed)
    spots = 0.5 + 1.5 * rng.random((20, 2))
    x, y = spots[:, 0], spots[:, 1]
    fields = [portfolio] + [power_portfolio([a, power_pair_frictionless(a)])
                            for a in (-0.5, 0.3, 2.0)]
    residual = max(float(np.abs(identity(field, x, y)).max()) for field in fields
                   for identity in (pair_value_residual, pair_curvature_residual))
    stats = {"min_terminal_value": float(np.min(terminal)), "pair_residual_max": residual}
    invariant = stats["min_terminal_value"] > 0.0 and stats["pair_residual_max"] < 1e-8
    return tally.report("diffusion_arbitrage",
                        {"mu1": market.mu1, "mu2": market.mu2, "sigma": market.sigma1,
                         "tax": intensities.tolist(), "steps": steps, "horizon": horizon},
                        seed, stats, invariant)


def mixed_arb_demo(market, paths=10_000, steps=512, horizon=1.0, seed=42,
                   tax=None, hermite=None):
    """Arbitrage field on the mixed market's tilted and unit-exposure assets.

    The field (sqrt(x) + sqrt(y) - 2 exp(rt/2))^2 starts at zero from unit
    prices, never goes negative, and solves the time-dependent pricing
    identity; a positive tax on both legs produces losing paths.  Paths
    are drawn and charged a block at a time, as in diffusion_arb_demo.
    """
    intensities = _intensities(tax, 2)
    if hermite is None:
        hermite = HermiteSpec(market.hurst, 1)
    elif not isinstance(hermite, HermiteSpec):
        raise ValueError("hermite must be a HermiteSpec")
    elif hermite.hurst != market.hurst:
        # the legs' t^{1-2H} singular term is the market's, so the driver must share its H
        raise ValueError(f"hermite.hurst ({hermite.hurst}) must equal market.hurst "
                         f"({market.hurst})")
    w_seed, h_seed = derive_seeds(seed, 2)
    _check_demo("mixed_arb_demo", horizon, steps, paths)
    portfolio = mixed_arbitrage_portfolio(market.r)
    tally = _ArbTally(intensities)
    t = np.linspace(0.0, horizon, steps + 1)
    growth = 2.0 * np.exp(0.5 * market.r * t)
    lowest = []
    for _, _, (w, h), (tilted, unit, u, values, increments) in _draw_blocks(
            [(None, w_seed, 0), (hermite, h_seed, 0)], paths, steps, horizon, spare=5):
        _mixed_legs(market, w, h, t, tilted, unit)
        legs = tilted, unit
        roots = w, h  # the drivers are spent
        _mixed_field(growth, legs, roots, u, values)
        lowest.append(values.min())
        densities = _mixed_densities(u[:, :-1], [root[:, :-1] for root in roots])
        tally.add(values, legs, densities, increments[:, :-1])
    rng = np.random.default_rng(seed)
    spots = 0.5 + 1.5 * rng.random((20, 2))
    ts = 0.1 + 0.8 * rng.random(20)
    residual = float(np.abs(mixed_market_residual(portfolio, ts, spots[:, 0], spots[:, 1],
                                                  market.r)).max())
    stats = {"min_value": float(np.min(lowest)), "pricing_residual_max": residual}
    invariant = stats["min_value"] >= 0.0 and residual < 1e-8
    return tally.report("mixed_arbitrage",
                        {"r": market.r, "b": market.b, "rho": market.rho,
                         "hurst": market.hurst, "tax": intensities.tolist(),
                         "steps": steps, "horizon": horizon},
                        seed, stats, invariant)


# The tax density D_j = x_j d2P/dx_j^2 of each taxed demo's field, in
# closed form.  Each generator yields the assets' densities in turn at the
# left points of a block, written into arrays the demo passes, so one
# density is valid until the next is drawn.

def _sqrt_spread_densities(left, density):
    """1/2 sqrt(v/s) and 1/2 sqrt(s/v), for (sqrt(s) - sqrt(v))^2, into ``density``."""
    s, v = left
    for num, den in ((v, s), (s, v)):
        np.divide(num, den, out=density)
        np.sqrt(density, out=density)
        density *= 0.5
        yield density


def _mixed_field(growth, legs, roots, u, values):
    """(sqrt(x) + sqrt(y) - growth)^2 into ``values``, growth = 2 exp(rt/2) on the grid.

    The legs' square roots and u = sqrt(x) + sqrt(y) - growth stay in
    ``roots`` and ``u`` for the tax densities.
    """
    for leg, root in zip(legs, roots):
        np.sqrt(leg, out=root)
    np.add(*roots, out=u)
    u -= growth
    np.square(u, out=values)


def _mixed_densities(u, roots):
    """1/2 - u/(2 sqrt(x_j)) from the mixed field's u and roots, each written over its root."""
    for root in roots:
        np.divide(u, root, out=root)
        root *= -0.5
        root += 0.5
        yield root


class _ArbTally:
    """An arbitrage field's report, gathered over blocks of paths in order.

    Untaxed, the Wilson interval covers the share of paths whose value
    ends positive; under a positive tax each block is charged its terminal
    tax and the interval covers the share whose net value ends negative.
    Passing needs the demo's invariant, a field that starts at exactly zero
    (``initial_value_max_abs``) and, taxed, that interval clear of 0.  Only
    counts, block maxima, terminal costs and whether every terminal value
    and cost was finite are kept from a block.
    """

    def __init__(self, intensities):
        self.scales = 0.5 * intensities ** 2
        self.taxed = bool(intensities.any())
        self.paths = self.hits = 0
        self.initial, self.cost_ends = [], []
        self.finite = True

    def terminal_cost(self, assets, densities, increments):
        """sum_j c_j^2/2 sum_k D_j(x_k) (x_{k+1} - x_k) on each path of a block.

        This is running_cost's last column.  ``densities`` yields each
        asset's tax density D_j at the left points in turn, and
        ``increments`` is a work array of their shape.
        """
        cost = np.zeros(len(increments))
        for row, scale, density in zip(assets, self.scales, densities):
            if scale:
                np.subtract(row[:, 1:], row[:, :-1], out=increments)
                increments *= density
                cost += scale * increments.sum(axis=1)
        return cost

    def add(self, values, assets=(), densities=(), increments=None):
        """Count a block of field ``values``; taxed, charge it its ``terminal_cost``."""
        self.paths += values.shape[0]
        self.initial.append(np.abs(values[:, 0]).max())
        ends = values[:, -1]
        if self.taxed:
            cost_end = self.terminal_cost(assets, densities, increments)
            ends = ends - cost_end
            self.hits += int((ends < 0).sum())
            self.cost_ends.append(cost_end)
        else:
            self.hits += int((ends > 0).sum())
        self.finite = self.finite and bool(np.isfinite(ends).all())

    def report(self, demo, parameters, seed, stats, invariant):
        stats["initial_value_max_abs"] = start = float(np.max(self.initial))
        low, high = wilson_ci(self.hits, self.paths)
        if self.taxed:
            stats["fraction_negative_net"] = self.hits / self.paths
            stats["mean_cost"] = float(np.concatenate(self.cost_ends).mean())
        _require_finite(demo, parameters, stats, self.finite)
        passed = bool(invariant and start == 0.0 and (not self.taxed or low > 0.0))
        return TaxReport(demo, parameters, self.paths, seed, stats, low, high, passed)
