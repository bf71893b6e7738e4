"""Statistical targets and estimators for generated paths.

Covers the theoretical covariance surface of a unit-variance Hermite
process, the closed-form normalizing constants for ranks 1 and 2, centered
quadratic variation, a variance-scaling Hurst estimator, and the lagged
autocovariance slope used to confirm long-range dependence.
"""

import math
from dataclasses import dataclass

import numpy as np

from .processes import _hurst, _integer

__all__ = [
    "theoretical_cov",
    "norm_const",
    "centered_qv",
    "HurstEstimate",
    "estimate_hurst",
    "increment_autocov",
    "autocov_slope",
]


def theoretical_cov(hurst, t, s):
    """Cov of a unit-variance self-similar process with stationary increments.

    Equals (t^2H + s^2H - |t - s|^2H)/2; shared by every Hermite rank at a
    given Hurst index.
    """
    _hurst(hurst)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    for name, times in (("t", t), ("s", s)):
        if not ((times >= 0) & (times < math.inf)).all():
            raise ValueError(f"{name} must be finite and nonnegative, got {times.tolist()}")
    two_h = 2.0 * hurst
    out = 0.5 * (t ** two_h + s ** two_h - np.abs(t - s) ** two_h)
    return out if out.ndim else float(out)


def norm_const(hurst, rank):
    """Closed-form unit-variance kernel constant for Hermite ranks 1 and 2."""
    _hurst(hurst)
    rank = _integer("rank", rank, 1)
    h = float(hurst)
    if rank == 1:
        num = 2.0 * h * math.gamma(1.5 - h)
        den = math.gamma(0.5 + h) * math.gamma(2.0 - 2.0 * h)
        return math.sqrt(num / den)
    if rank == 2:
        return math.gamma(1.0 + h / 2.0) * math.sqrt(h / 2.0 * (2.0 * h - 1.0)) / (
            math.gamma(h / 2.0) * math.gamma(1.0 - h))
    raise ValueError(f"no closed form for rank {rank}; ranks 1 and 2 are supported")


def centered_qv(path, block=1, hurst=None):
    """Centered quadratic variation per path on a block-coarsened grid.

    Returns ``(stats, delta)`` where ``stats[i]`` is
    sum_k [(increment_k)^2 - gamma^2H] for path i with gamma the coarse
    spacing, and ``delta`` is the sample root-mean-square of the statistic
    across paths (the natural normalizer).  ``hurst`` falls back to the
    path metadata and must lie in (0, 1).
    """
    if hurst is None:
        hurst = path.meta.get("hurst")
    if hurst is None:
        raise ValueError("hurst not given and absent from path metadata")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    block = _integer("block", block, 1)
    if path.steps % block != 0:
        raise ValueError(f"block {block} must divide steps {path.steps}")
    gamma_spacing = path.horizon * block / path.steps
    coarse = path.values[:, ::block]
    increments = np.diff(coarse, axis=1)
    stats = (increments ** 2 - gamma_spacing ** (2.0 * hurst)).sum(axis=1)
    delta = float(np.sqrt(np.mean(stats ** 2)))
    return stats, delta


@dataclass(frozen=True)
class HurstEstimate:
    value: float
    stderr: float


def estimate_hurst(path):
    """Hurst index from variance scaling across dyadic aggregation levels.

    Increments over whole windows of 2^j steps, as in ``centered_qv``, have
    variance proportional to (window length)^2H; the log-log regression
    slope over the available dyadic levels estimates 2H.  Requires at least 64 steps.
    """
    if path.steps < 64:
        raise ValueError(f"need at least 64 steps to estimate, got {path.steps}")
    dt = path.horizon / path.steps
    log_span, log_var = [], []
    level = 0
    while path.steps >> level >= 8:
        width = 1 << level
        blocks = np.diff(path.values[:, ::width], axis=1)
        variance = float(np.mean(blocks ** 2))
        if variance <= 0:
            raise ValueError("degenerate path: zero variance at aggregation level "
                             f"{level}")
        log_span.append(math.log(width * dt))
        log_var.append(math.log(variance))
        level += 1
    (slope, _), cov = np.polyfit(log_span, log_var, 1, cov=True)
    return HurstEstimate(value=float(slope / 2.0), stderr=math.sqrt(cov[0, 0]) / 2.0)


def increment_autocov(values, max_lag):
    """Mean-zero lagged autocovariance of per-step increments.

    ``values`` is a (series, steps + 1) level array; products are averaged
    over time and series without demeaning (increments are centered by
    construction).  Returns lags 0..max_lag.
    """
    max_lag = _integer("max_lag", max_lag, 0)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    increments = np.diff(values, axis=1)
    n = increments.shape[1]
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} must be below increment count {n}")
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = float(np.mean(increments[:, : n - lag] * increments[:, lag:]))
    return out


def autocov_slope(values, lags):
    """Log-log slope of the increment autocovariance over the given lags."""
    lags = np.asarray(lags)
    if np.unique(lags).size < 2:
        raise ValueError(f"lags must hold at least two distinct lags, got {lags.tolist()}")
    if lags.dtype.kind not in "iu":
        raise ValueError(f"lags must be integers, got {lags.tolist()}")
    if (lags < 1).any():
        raise ValueError("lags must be >= 1")
    acov = increment_autocov(values, lags.max())[lags]
    if (acov <= 0).any():
        raise ValueError("autocovariance not positive at requested lags; "
                         "cannot take logs")
    slope = np.polyfit(np.log(lags), np.log(acov), 1)[0]
    return float(slope)
