"""Market models driven by Hermite processes and synthetic riskless assets.

Three market families:

* pure Hermite markets, S_i(t) = S_i(0) exp(mu_i t + sigma_i H(t)), one
  shared driver, where a portfolio with unit exponent-weighted exposure
  can replicate a riskless bond exactly;
* a two-asset diffusion market (either distinct volatilities, or the
  shared-driver variant with equal volatility and different drifts);
* the mixed market combining an independent Brownian motion and a Hermite
  process, with the explicit bond / tilted-diffusion / unit-exposure /
  stock price system.

Riskless synthesis solves the exposure constraints directly; the taxed
variant scales the untaxed exponents by the root of the quadratic that
the balance equation, with its transaction-tax term, becomes along them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .processes import SamplePath

__all__ = [
    "PureHermiteMarket",
    "TwoAssetDiffusion",
    "MixedMarket",
    "MixedMarketPaths",
    "RisklessSynthesis",
    "InfeasibleMarketError",
    "price_pure_hermite",
    "pure_hermite_price_matrix",
    "price_mixed_market",
    "sde_residual",
    "singular_square_term",
    "synth_riskless",
    "synth_riskless_taxed",
    "bsm_synthetic_rate",
    "load_market",
]


class InfeasibleMarketError(ValueError):
    """No portfolio satisfies the requested replication constraints."""


def _as_float_array(x, name):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    return arr


def _require_finite(obj, names):
    """ValueError naming the first of the fields ``names`` of ``obj`` that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _intensities(tax, n_assets):
    """Per-asset tax intensities c_j as a new array: the one reading of a tax.

    ``None`` is no tax, a scalar taxes every asset alike, a sequence gives
    one intensity per asset; each must be finite and nonnegative.
    """
    arr = np.array(0.0 if tax is None else tax, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_assets, arr)
    elif arr.shape != (n_assets,):
        raise ValueError(f"tax must be a scalar or {n_assets} intensities, got {tax!r}")
    if not ((arr >= 0) & (arr < math.inf)).all():
        raise ValueError(f"tax intensities must be finite and nonnegative, got {tax!r}")
    return arr


@dataclass
class PureHermiteMarket:
    """Assets S_i(t) = s0_i exp(mu_i(t) + sigma_i(t) H(t)) on one driver.

    ``mu`` and ``sigma`` are per-asset constants; when the optional
    time-dependent callables ``mu_fn``/``sigma_fn`` are given they supply
    the full coefficient value at time t (not a rate) and take precedence.
    """

    mu: np.ndarray
    sigma: np.ndarray
    s0: np.ndarray = None
    mu_fn: list = None
    sigma_fn: list = None

    def __post_init__(self):
        self.mu = _as_float_array(self.mu, "mu")
        self.sigma = _as_float_array(self.sigma, "sigma")
        if len(self.mu) != len(self.sigma):
            raise ValueError("mu and sigma must have the same length")
        if not len(self.mu):
            raise ValueError("a market needs at least one asset")
        if self.s0 is None:
            self.s0 = np.ones_like(self.mu)
        self.s0 = _as_float_array(self.s0, "s0")
        if len(self.s0) != len(self.mu):
            raise ValueError("s0 must match the number of assets")
        if (self.s0 <= 0).any():
            raise ValueError("initial prices must be positive")
        for fn_list, name in ((self.mu_fn, "mu_fn"), (self.sigma_fn, "sigma_fn")):
            if fn_list is not None and len(fn_list) != len(self.mu):
                raise ValueError(f"{name} must provide one callable per asset")

    @property
    def n_assets(self):
        return len(self.mu)

    def drift_at(self, asset, t):
        if self.mu_fn is not None:
            return self.mu_fn[asset](t)
        return self.mu[asset] * np.asarray(t, dtype=float)

    def exposure_at(self, asset, t):
        if self.sigma_fn is not None:
            return self.sigma_fn[asset](t)
        return self.sigma[asset] * np.ones_like(np.asarray(t, dtype=float))


@dataclass
class TwoAssetDiffusion:
    """Two geometric diffusions on one Brownian driver.

    ``variant`` is 'ordered' (sigma1 > sigma2 > 0, the configuration whose
    synthetic rate is (mu2 sigma1 - mu1 sigma2)/(sigma1 - sigma2)) or
    'shared_vol' (equal sigmas, different drifts, the pair admitting the
    square-root spread arbitrage).
    """

    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    variant: str = "ordered"

    def __post_init__(self):
        if self.variant == "ordered":
            if not (self.sigma1 > self.sigma2 > 0):
                raise ValueError(
                    f"ordered variant needs sigma1 > sigma2 > 0, got {self.sigma1}, {self.sigma2}")
        elif self.variant == "shared_vol":
            if not (self.sigma1 == self.sigma2 > 0):
                raise ValueError("shared_vol variant needs equal positive sigmas")
            if self.mu1 == self.mu2:
                raise ValueError("shared_vol variant needs distinct drifts")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")
        _require_finite(self, ("mu1", "sigma1", "mu2", "sigma2"))

    @classmethod
    def ordered(cls, mu1, sigma1, mu2, sigma2):
        return cls(mu1, sigma1, mu2, sigma2, "ordered")

    @classmethod
    def shared_vol(cls, mu_first, mu_second, sigma):
        return cls(mu_first, sigma, mu_second, sigma, "shared_vol")

    def price_paths(self, w):
        """Price rows for each asset along a Brownian ensemble ``w``."""
        out = np.empty((2,) + w.values.shape)
        self._price_rows(w.values, w.times, out)
        return list(out)

    def _price_rows(self, w, t, out):
        """Both assets' prices along Brownian rows ``w`` on times ``t``, into ``out`` (2, *w.shape)."""
        for prices, (mu, sigma) in zip(out, ((self.mu1, self.sigma1), (self.mu2, self.sigma2))):
            np.multiply(w, sigma, out=prices)
            prices += (mu - 0.5 * sigma ** 2) * t
            np.exp(prices, out=prices)


@dataclass
class MixedMarket:
    """Bond, tilted diffusion, unit-exposure asset and stock.

    beta(t) = exp(rt); Z(t) = exp(-b^2 t/2 + b W); Y(t) = exp(W +
    (t^{1-2H} H(t)^2 - t) + rho H); the stock is s0 exp(mu t + sigma W +
    sigma^2 (t^{1-2H} H^2 - t) + sigma_h H).  At t = 0 the singular factor
    t^{1-2H} H(t)^2 is defined to be zero.
    """

    r: float
    b: float
    rho: float
    mu: float
    sigma: float
    sigma_h: float
    hurst: float
    s0: float = 1.0

    def __post_init__(self):
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (1/2, 1), got {self.hurst}")
        if self.s0 <= 0:
            raise ValueError("initial stock price must be positive")
        _require_finite(self, ("r", "b", "rho", "mu", "sigma", "sigma_h", "s0"))


@dataclass
class MixedMarketPaths:
    bond: SamplePath
    tilted: SamplePath
    unit_exposure: SamplePath
    stock: SamplePath


@dataclass
class RisklessSynthesis:
    """Portfolio exponents replicating a riskless bond, and its rate."""

    exponents: np.ndarray
    rate: float

    def __post_init__(self):
        self.exponents = _as_float_array(self.exponents, "exponents")


# ---------------------------------------------------------------------------
# pricing

def price_pure_hermite(market, driver):
    """Exponential prices along the driver.

    With several assets the driver must hold a single path and the result
    rows are assets; with one asset the result rows follow the driver's
    paths.
    """
    if market.n_assets > 1 and driver.n_paths > 1:
        raise ValueError("multi-asset pricing needs a single driver path; "
                         "use pure_hermite_price_matrix for ensembles")
    cube = pure_hermite_price_matrix(market, driver)
    values = cube[0] if market.n_assets == 1 else cube[:, 0]
    return SamplePath(driver.horizon, driver.steps, values, driver.seed,
                      meta={"market": "pure_hermite", "mu": market.mu.tolist(),
                            "sigma": market.sigma.tolist(), "s0": market.s0.tolist()})


def pure_hermite_price_matrix(market, driver):
    """(assets, paths, steps + 1) price array over a driver ensemble."""
    t = driver.times
    out = np.empty((market.n_assets, driver.n_paths, driver.steps + 1))
    for i in range(market.n_assets):
        out[i] = market.s0[i] * np.exp(market.drift_at(i, t)
                                       + market.exposure_at(i, t) * driver.values)
    return out


def singular_square_term(t, h_values, hurst):
    """t^{1-2H} H(t)^2 with the t = 0 value set to zero.

    The exponent 1 - 2H is negative, but H(t)^2 shrinks like t^{2H}, so
    the product tends to zero almost surely; its mean is exactly t.
    """
    t = np.asarray(t, dtype=float)
    h = np.asarray(h_values, dtype=float)
    return _singular_square(t, h, hurst, np.empty(np.broadcast_shapes(t.shape, h.shape)))


def _time_power(t, p):
    """t**p on the times ``t``, 0 at t = 0, where the mixed market's singular powers vanish."""
    return np.power(t, p, out=np.zeros_like(t), where=t > 0)


def _singular_square(t, h, hurst, out):
    """singular_square_term of float arrays, into ``out``."""
    np.square(h, out=out)
    out *= _time_power(t, 1.0 - 2.0 * hurst)
    out[..., t <= 0] = 0.0  # where H^2 overflowed: inf * 0 is nan
    return out


def price_mixed_market(market, w, h):
    """Bond, tilted diffusion, unit-exposure asset and stock paths.

    ``w`` and ``h`` must live on the same grid and come from independent
    streams (distinct seeds); rows are aligned pathwise.
    """
    if (w.steps, w.horizon) != (h.steps, h.horizon):
        raise ValueError("Brownian and Hermite paths must share one grid")
    if w.n_paths != h.n_paths:
        raise ValueError("Brownian and Hermite ensembles must have equal path counts")
    t = w.times
    tilted, unit, stock = np.empty((3,) + w.values.shape)
    _mixed_legs(market, w.values, h.values, t, tilted, unit)
    bond = np.exp(market.r * t)[None, :]
    excess = singular_square_term(t, h.values, market.hurst)
    excess -= t
    np.multiply(w.values, market.sigma, out=stock)
    stock += market.mu * t
    stock += np.multiply(excess, market.sigma ** 2, out=excess)
    stock += np.multiply(h.values, market.sigma_h, out=excess)
    np.exp(stock, out=stock)
    stock *= market.s0
    common = dict(horizon=w.horizon, steps=w.steps, seed=w.seed)
    return MixedMarketPaths(
        bond=SamplePath(values=bond, meta={"asset": "bond", "r": market.r}, **common),
        tilted=SamplePath(values=tilted, meta={"asset": "tilted", "b": market.b}, **common),
        unit_exposure=SamplePath(values=unit, meta={"asset": "unit_exposure",
                                                    "rho": market.rho}, **common),
        stock=SamplePath(values=stock, meta={"asset": "stock"}, **common),
    )


def _mixed_legs(market, w, h, t, tilted, unit):
    """The tilted and unit-exposure prices of price_mixed_market, into ``tilted`` and ``unit``.

    ``w`` and ``h`` are Brownian and Hermite rows on times ``t``.  Each
    exponent is built in place with the grouping of the formulas above;
    IEEE + and * commute exactly, so operand order changes no bit.
    """
    _singular_square(t, h, market.hurst, unit)
    unit -= t
    unit += w
    unit += np.multiply(h, market.rho, out=tilted)
    np.multiply(w, market.b, out=tilted)
    tilted += -0.5 * market.b ** 2 * t
    np.exp(tilted, out=tilted)
    np.exp(unit, out=unit)


def sde_residual(market, stock, w, h):
    """Cumulative defect of the stock's differential form along paths.

    Per step the left-point form is
    dS/S = (mu - sigma^2/2 + sigma^2 (1-2H) t^{-2H} H^2) dt + sigma dW
           + (2 sigma^2 t^{1-2H} H + sigma_h) dH,
    with both singular t-powers defined as zero at t = 0.  Returns the
    cumulative residual, one row per path; it shrinks under refinement of
    the same realization.
    """
    t = w.times
    dt = w.horizon / w.steps
    hv, wv, sv = h.values, w.values, stock.values
    tl, hl = t[:-1], hv[:, :-1]
    hurst = market.hurst
    drift_sing = _time_power(tl, -2.0 * hurst) * hl ** 2
    exposure_sing = _time_power(tl, 1.0 - 2.0 * hurst) * hl
    drift = (market.mu - 0.5 * market.sigma ** 2
             + market.sigma ** 2 * (1.0 - 2.0 * hurst) * drift_sing) * dt
    model = (drift + market.sigma * np.diff(wv, axis=1)
             + (2.0 * market.sigma ** 2 * exposure_sing + market.sigma_h) * np.diff(hv, axis=1))
    realized = np.diff(sv, axis=1) / sv[:, :-1]
    out = np.zeros_like(sv)
    out[:, 1:] = np.cumsum(realized - model, axis=1)
    return out


# ---------------------------------------------------------------------------
# riskless synthesis

def synth_riskless(sigma, mu):
    """Exponents rho with sum(rho) = 1 and sum(rho sigma) = 0.

    For two assets the solution is unique; for more the minimum-norm
    solution is returned.  The replicated bond grows at rate sum(rho mu).
    A constant exposure vector makes the constraints contradictory.
    """
    sigma = _as_float_array(sigma, "sigma")
    mu = _as_float_array(mu, "mu")
    if len(sigma) != len(mu):
        raise ValueError("sigma and mu must have the same length")
    if len(sigma) < 2:
        raise ValueError("need at least two assets")
    design = np.vstack([np.ones_like(sigma), sigma])
    target = np.array([1.0, 0.0])
    exponents, *_ = np.linalg.lstsq(design, target, rcond=None)
    # Each constraint is checked against the size of its own terms: the
    # large exponents of near-collinear exposures leave more rounding than
    # an absolute tolerance allows.
    defect = np.abs(design @ exponents - target)
    size = np.abs(design * exponents).sum(axis=1) + target
    if not (defect <= 1e-9 * np.maximum(1.0, size)).all():
        raise InfeasibleMarketError(
            f"no exponents satisfy the constraints (defect {defect.max():.3e}); "
            "exposures are collinear with the budget constraint")
    return RisklessSynthesis(exponents=exponents, rate=float(exponents @ mu))


def synth_riskless_taxed(sigma, mu, tax):
    """Exponents phi with zero driver exposure and taxed budget balance.

    Solves sum(sigma phi) = 0 together with
    sum(phi) - 1 + sum(c_j^2 phi_j (phi_j - 1))/2 = 0 in closed form as
    phi = psi d, where d is the untaxed exponents of ``synth_riskless``, so
    permuting the assets permutes the exponents.  Equal (or collinear)
    exposures have none; there d = +-(e_0 - e_k), with k the first asset
    after 0 such that c_0 + c_k > 0, and the sign puts the plus on the
    asset with the smaller intensity, or with equal intensities the smaller
    exposure, so that swapping two assets swaps their exponents.  With
    three or more such exposures the pair (0, k) still follows the asset
    order.  Either d carries no exposure, and along it the balance is a
    quadratic in psi whose positive root ``_taxed_root`` returns.
    """
    sigma = _as_float_array(sigma, "sigma")
    intensities = _intensities(tax, len(sigma))
    if not intensities.any():
        return synth_riskless(sigma, mu)
    try:
        direction = synth_riskless(sigma, mu).exponents
    except InfeasibleMarketError:
        # Along e_0 - e_k, B = (c_k^2 - c_0^2)/2: the sign that makes B >= 0
        # takes the smaller root, and equal intensities go by the exposures.
        k = 1 + int(np.argmax(intensities[0] + intensities[1:] > 0))
        sign = 1.0 if (intensities[k], sigma[k]) >= (intensities[0], sigma[0]) else -1.0
        direction = np.zeros(len(sigma))
        direction[0], direction[k] = sign, -sign
    phi = _taxed_root(direction, intensities) * direction

    # Each equation is checked against the size of its own terms, which
    # bounds what rounding can leave; absolute, large roots would fail.
    quadratic = 0.5 * intensities ** 2 * phi * (phi - 1.0)
    checks = ((float(np.sum(phi) - 1.0 + quadratic.sum()),
               np.abs(phi).sum() + 1.0 + np.abs(quadratic).sum()),
              (float(sigma @ phi), np.abs(sigma * phi).sum()))
    for residual, size in checks:
        if not abs(residual) <= 1e-10 * max(1.0, float(size)):
            raise InfeasibleMarketError(
                f"taxed synthesis did not converge (residual {abs(residual):.3e} "
                f"against terms summing to {size:.3e})")
    return RisklessSynthesis(exponents=phi, rate=float(phi @ np.asarray(mu, dtype=float)))


def _taxed_root(direction, intensities):
    """The positive root psi of A psi^2 + B psi - 1, in a form that does not cancel.

    With phi = psi d, the taxed balance reads A psi^2 + B psi - 1 = 0,
    A = sum(c^2 d^2)/2 >= 0 and B = sum(d) - sum(c^2 d)/2.  The roots have
    opposite signs; the positive one continues the untaxed exponents as
    the tax grows from zero (sum(d) is 1, or 0 for equal exposures).
    """
    c_sq = intensities ** 2
    a = 0.5 * float(np.sum(c_sq * direction ** 2))
    b = float(np.sum(direction)) - 0.5 * float(np.sum(c_sq * direction))
    root = math.sqrt(b * b + 4.0 * a)
    return 2.0 / (b + root) if b >= 0 else (root - b) / (2.0 * a)


def bsm_synthetic_rate(mu1, sigma1, mu2, sigma2):
    """Rate (mu2 sigma1 - mu1 sigma2)/(sigma1 - sigma2) of the two-asset pair."""
    for name, value in zip(("mu1", "sigma1", "mu2", "sigma2"), (mu1, sigma1, mu2, sigma2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if sigma1 == sigma2:
        raise ValueError("equal volatilities leave the synthetic rate undefined")
    return (mu2 * sigma1 - mu1 * sigma2) / (sigma1 - sigma2)


# ---------------------------------------------------------------------------
# configuration files

def _number(path, key, text):
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}: {key} must be a number, got {text!r}") from None


def load_market(path):
    """Market object from a flat key=value file.

    Common key ``type`` selects the family: ``pure_hermite`` (keys mu,
    sigma, optional s0, comma-separated per asset), ``two_asset`` (mu,
    sigma with two entries each, optional variant), ``mixed`` (r, b, rho,
    mu, sigma, sigma_h, hurst, optional s0).  Lines starting with '#' and
    blank lines are ignored.
    """
    entries = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{number}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    kind = entries.pop("type", None)
    if kind is None:
        raise ValueError(f"{path}: missing required key 'type'")

    def numbers(key):
        parts = (part.strip() for part in entries[key].split(","))
        return [_number(path, key, part) for part in parts if part]

    try:
        if kind == "pure_hermite":
            s0 = numbers("s0") if "s0" in entries else None
            return PureHermiteMarket(mu=numbers("mu"), sigma=numbers("sigma"), s0=s0)
        if kind == "two_asset":
            mu = numbers("mu")
            sigma = numbers("sigma")
            if len(mu) != 2 or len(sigma) != 2:
                raise ValueError("two_asset markets need exactly two mu and sigma entries")
            variant = entries.get("variant", "ordered")
            return TwoAssetDiffusion(mu[0], sigma[0], mu[1], sigma[1], variant)
        if kind == "mixed":
            keys = ("r", "b", "rho", "mu", "sigma", "sigma_h", "hurst")
            return MixedMarket(**{key: _number(path, key, entries[key]) for key in keys},
                               s0=_number(path, "s0", entries.get("s0", 1.0)))
    except KeyError as missing:
        raise ValueError(f"{path}: missing key {missing} for market type {kind!r}") from None
    raise ValueError(f"{path}: unknown market type {kind!r}")
