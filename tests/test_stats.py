"""Covariance targets, normalization constants, QV statistics, Hurst fits."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats as sps

import hermite_markets

from hermite_markets import (
    HermiteSpec,
    SamplePath,
    bsm_synthetic_rate,
    centered_qv,
    estimate_hurst,
    gen_bm,
    gen_fbm,
    gen_hermite,
    norm_const,
    power_pair_exponents,
    theoretical_cov,
    wilson_ci,
)
from hermite_markets.stats import autocov_slope, increment_autocov
from _oracles import fgn_qv_eigenvalues, quadratic_form_cumulants


def test_cov_at_unit_time_is_one():
    assert theoretical_cov(0.7, 1.0, 1.0) == 1.0


def test_cov_vanishes_at_origin():
    assert theoretical_cov(0.8, 3.0, 0.0) == 0.0
    assert theoretical_cov(0.8, 0.0, 0.0) == 0.0


def test_cov_direct_value():
    assert abs(theoretical_cov(0.75, 2.0, 1.0) - 0.5 * 2.0**1.5) < 1e-12


def test_cov_symmetry_and_vector_forms():
    assert theoretical_cov(0.6, 2.0, 5.0) == theoretical_cov(0.6, 5.0, 2.0)
    grid = np.array([0.5, 1.0, 2.0])
    out = theoretical_cov(0.6, grid, 1.0)
    assert out.shape == (3,)
    assert out[1] == 1.0


def test_cov_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theoretical_cov(0.4, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_cov(0.7, -1.0, 1.0)


def test_norm_const_reference_value():
    # Independent closed-form evaluation, frozen to full precision:
    # sqrt(2 H Gamma(3/2 - H) / (Gamma(1/2 + H) Gamma(2 - 2H))) at H = 0.75.
    assert abs(norm_const(0.75, 1) - 1.0696446350319904) < 1e-12


def test_norm_const_positive_both_ranks():
    for h in (0.55, 0.65, 0.75, 0.85, 0.95):
        assert norm_const(h, 1) > 0
        assert norm_const(h, 2) > 0


def test_norm_const_rejects_high_rank():
    with pytest.raises(ValueError):
        norm_const(0.7, 3)


def _fresh_import(code):
    """What ``code`` prints in a new interpreter that imports the package from source."""
    src = os.path.dirname(os.path.dirname(hermite_markets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", "import hermite_markets; " + code], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_library_import_leaves_out_scipy_special_and_optimize():
    # Closed forms replace scipy's gamma, root finder and, for the
    # pricer's cell-averaged payoff, quadrature; only the CLI's checks
    # still pull in scipy.stats, and with it the first two modules.
    out = _fresh_import("import sys; print(sorted(m for m in ('scipy.optimize', "
                        "'scipy.special', 'scipy.integrate') if m in sys.modules))")
    assert out.strip() == "[]"


_MODULES = ("processes", "stats", "calculus", "markets", "strategies", "pde", "pathio")


def test_package_exports_exactly_its_modules_public_names():
    # A new interpreter, since importing hermite_markets.cli binds ``cli`` in the package.
    public = set(_fresh_import(
        "print(*(n for n in vars(hermite_markets) if not n.startswith('_')))").split())
    union = set()
    for name in _MODULES:
        module = getattr(hermite_markets, name)
        assert all(hasattr(module, exported) for exported in module.__all__), name
        union.update(module.__all__)
    assert public == union | set(_MODULES)


# ---------------------------------------------------------------------------
# centered quadratic variation

def test_centered_qv_linear_path_is_deterministic():
    steps, h = 16, 0.7
    t = np.linspace(0.0, 1.0, steps + 1)
    path = SamplePath(horizon=1.0, steps=steps, values=t[None, :])
    stats, _ = centered_qv(path, hurst=h)
    gamma = 1.0 / steps
    expected = steps * (gamma**2 - gamma ** (2 * h))
    assert abs(stats[0] - expected) < 1e-14


def test_centered_qv_block_coarsening():
    steps = 16
    t = np.linspace(0.0, 1.0, steps + 1)
    path = SamplePath(horizon=1.0, steps=steps, values=t[None, :])
    stats, _ = centered_qv(path, block=4, hurst=0.6)
    gamma = 4.0 / steps
    expected = 4 * (gamma**2 - gamma ** (2 * 0.6))
    assert abs(stats[0] - expected) < 1e-14


@pytest.mark.parametrize("call, message", [
    (lambda: norm_const(0.4, 1), "hurst must lie in (1/2, 1), got 0.4"),
    (lambda: centered_qv(gen_fbm(HermiteSpec(0.7), 1.0, 16, seed=1), block=0),
     "block must be an integer >= 1, got 0"),
    (lambda: centered_qv(gen_fbm(HermiteSpec(0.7), 1.0, 16, seed=1), hurst=math.nan),
     "hurst must lie in (0, 1), got nan"),
    (lambda: centered_qv(gen_fbm(HermiteSpec(0.7), 1.0, 16, seed=1), hurst=1.5),
     "hurst must lie in (0, 1), got 1.5"),
    (lambda: increment_autocov(np.arange(16.0), -1), "max_lag must be an integer >= 0, got -1"),
    (lambda: increment_autocov(np.arange(16.0), 2.5), "max_lag must be an integer >= 0, got 2.5"),
    (lambda: autocov_slope(np.arange(16.0), [0, 1, 2]), "lags must be >= 1"),
    (lambda: autocov_slope(np.arange(16.0), []), "lags must hold at least two distinct lags, got []"),
    (lambda: autocov_slope(np.arange(16.0), [2, 2]),
     "lags must hold at least two distinct lags, got [2, 2]"),
    (lambda: autocov_slope(np.arange(16.0), [2.5, 3.7]), "lags must be integers, got [2.5, 3.7]"),
    (lambda: theoretical_cov(0.7, math.nan, 1.0), "t must be finite and nonnegative, got nan"),
    (lambda: theoretical_cov(0.7, 1.0, math.inf), "s must be finite and nonnegative, got inf"),
    (lambda: wilson_ci(1.5, 3), "successes must be an integer >= 0, got 1.5"),
    (lambda: wilson_ci(1, 3.0), "trials must be an integer >= 1, got 3.0"),
    (lambda: wilson_ci(4, 3), "successes must lie in [0, trials]"),
    (lambda: power_pair_exponents(math.nan, 0.05, [0.2, 0.2], 0.0), "a must be finite, got nan"),
    (lambda: power_pair_exponents(0.8, 0.05, [math.inf, 0.2], 0.0),
     "sigmas must be finite, got [inf, 0.2]"),
    (lambda: bsm_synthetic_rate(0.1, math.inf, 0.2, 0.1), "sigma1 must be finite, got inf"),
])
def test_statistics_name_a_bad_argument(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_centered_qv_validation():
    path = gen_fbm(HermiteSpec(0.7), 1.0, 16, seed=1)
    with pytest.raises(ValueError):
        centered_qv(path, block=3)  # does not divide 16
    bare = SamplePath(horizon=1.0, steps=16, values=path.values, meta={})
    with pytest.raises(ValueError):
        centered_qv(bare)  # no hurst anywhere
    stats_meta, _ = centered_qv(path)  # falls back to path metadata
    stats_kw, _ = centered_qv(path, hurst=0.7)
    assert np.array_equal(stats_meta, stats_kw)


def test_centered_qv_gaussian_regime():
    # Rank 1 below H = 3/4: the normalized statistic is asymptotically
    # normal and should pass an omnibus normality test.
    path = gen_hermite(HermiteSpec(0.6, 1), 1.0, 512, paths=500, seed=11)
    stats, delta = centered_qv(path)
    assert delta > 0
    assert sps.normaltest(stats / delta).pvalue > 0.01


def test_centered_qv_nonstandard_regimes():
    # Above H = 3/4, and for rank 2 everywhere, the limit is non-Gaussian.
    high = gen_hermite(HermiteSpec(0.85, 1), 1.0, 512, paths=500, seed=11)
    stats, delta = centered_qv(high)
    assert sps.normaltest(stats / delta).pvalue < 0.01
    rank2 = gen_hermite(HermiteSpec(0.7, 2), 1.0, 256, paths=500, seed=11)
    stats2, delta2 = centered_qv(rank2)
    assert sps.normaltest(stats2 / delta2).pvalue < 0.01


# The acceptance test's rank-1 cases: 2,000 exact FBM paths of 1,024 steps.
@pytest.mark.parametrize("hurst, seed, exact_sd, exact_skew",
                         [(0.6, 11, 0.01148, 0.104), (0.85, 12, 0.001542, 2.11)])
def test_centered_qv_matches_its_exact_finite_n_law(hurst, seed, exact_sd, exact_skew):
    # The statistic is sum_k lambda_k (Z_k^2 - 1) over the eigenvalues of
    # the increments' covariance: mean 0, and cumulants from sums of
    # lambda^m.  The sample sd is judged by the delta method, whose variance
    # (kappa_4 + 2 kappa_2^2) / (4 kappa_2 n) carries the exact fourth
    # cumulant, so the heavy tail at H = 0.85 widens its band.
    _, k2, k3, k4 = quadratic_form_cumulants(fgn_qv_eigenvalues(hurst, 1024), (1, 2, 3, 4))
    sd = math.sqrt(k2)
    assert sd == pytest.approx(exact_sd, rel=1e-3)
    assert k3 / k2 ** 1.5 == pytest.approx(exact_skew, rel=1e-2)
    stats, _ = centered_qv(gen_fbm(HermiteSpec(hurst), 1.0, 1024, paths=2000, seed=seed))
    n = len(stats)
    z_mean = stats.mean() / (sd / math.sqrt(n))
    z_sd = (stats.std(ddof=1) - sd) / math.sqrt((k4 + 2.0 * k2 ** 2) / (4.0 * k2 * n))
    assert abs(z_mean) < 4.0 and abs(z_sd) < 4.0, (z_mean, z_sd)


# ---------------------------------------------------------------------------
# Hurst estimation

def test_hurst_rescale_invariance():
    path = gen_fbm(HermiteSpec(0.72), 1.0, 2**12, seed=21)
    scaled = SamplePath(horizon=3.0, steps=path.steps, values=5.0 * path.values)
    a = estimate_hurst(path)
    b = estimate_hurst(scaled)
    assert abs(a.value - b.value) < 1e-12


def test_hurst_needs_enough_steps():
    short = gen_bm(1.0, 32, seed=1)
    with pytest.raises(ValueError):
        estimate_hurst(short)


def test_hurst_rejects_constant_path():
    flat = SamplePath(horizon=1.0, steps=128, values=np.ones((1, 129)))
    with pytest.raises(ValueError, match="degenerate"):
        estimate_hurst(flat)


def test_hurst_reports_uncertainty():
    est = estimate_hurst(gen_fbm(HermiteSpec(0.7), 1.0, 2**12, seed=21))
    assert est.stderr > 0


@pytest.mark.parametrize("steps", [64, 100, 1024])
@pytest.mark.parametrize("hurst", [0.6, 0.9])
def test_hurst_is_linregress_over_its_levels(hurst, steps):
    # Block sums of 2^j increments, trimmed to whole blocks, for every j
    # with 8 or more blocks; half the fitted log-log slope and its stderr.
    path = gen_fbm(HermiteSpec(hurst), 2.0, steps, paths=7, seed=steps)
    increments = np.diff(path.values, axis=1)
    spans, variances = [], []
    width = 1
    while steps // width >= 8:
        usable = steps // width * width
        blocks = increments[:, :usable].reshape(7, -1, width).sum(axis=2)
        spans.append(width * 2.0 / steps)
        variances.append(np.mean(blocks ** 2))
        width *= 2
    fit = sps.linregress(np.log(spans), np.log(variances))
    estimate = estimate_hurst(path)
    assert estimate.value == pytest.approx(fit.slope / 2.0, rel=1e-12)
    assert estimate.stderr == pytest.approx(fit.stderr / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# autocovariance helpers

def test_increment_autocov_lag_zero():
    values = np.cumsum(np.array([[1.0, -2.0, 0.5, 1.5]]), axis=1)
    values = np.hstack([np.zeros((1, 1)), values])
    acov = increment_autocov(values, 2)
    assert abs(acov[0] - np.mean([1.0, 4.0, 0.25, 2.25])) < 1e-14


def test_increment_autocov_lag_bound():
    path = gen_bm(1.0, 8, seed=0)
    with pytest.raises(ValueError):
        increment_autocov(path.values, 8)


def test_autocov_slope_needs_positive_tail():
    # Alternating increments have negative lag-1 autocovariance; taking
    # logs is impossible and the helper must say so.
    zig = np.cumsum(np.tile([1.0, -1.0], 64))[None, :]
    zig = np.hstack([np.zeros((1, 1)), zig])
    with pytest.raises(ValueError):
        autocov_slope(zig, np.arange(1, 5))
