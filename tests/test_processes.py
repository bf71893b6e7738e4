"""Generator-level checks: seeding, marginal laws, scaling, memory."""

import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from hermite_markets import (
    CirculantEmbeddingError,
    HermiteSpec,
    HouSpec,
    MixedHermiteSpec,
    SamplePath,
    estimate_hurst,
    gen_bm,
    gen_fbm,
    gen_hermite,
    gen_hou,
    gen_mixed,
    path_rng,
)
from hermite_markets import processes
from hermite_markets.processes import _bm_walk, _draw_blocks, _fft_work, _fgn_autocov, \
    _fgn_draws, _fgn_transform, _hermite_rows, _hermite_scale, _raw_sum_std, _stream_states, \
    gen_fgn, hermite_poly
from hermite_markets.stats import autocov_slope
from _oracles import subprocess_peaks_mib


# ---------------------------------------------------------------------------
# seeding and determinism

def test_same_seed_same_paths():
    a = gen_fbm(HermiteSpec(0.7), 1.0, 128, paths=4, seed=12)
    b = gen_fbm(HermiteSpec(0.7), 1.0, 128, paths=4, seed=12)
    assert np.array_equal(a.values, b.values)


def test_different_seeds_differ():
    a = gen_fbm(HermiteSpec(0.7), 1.0, 128, seed=12)
    b = gen_fbm(HermiteSpec(0.7), 1.0, 128, seed=13)
    assert not np.array_equal(a.values, b.values)


def test_path_offset_matches_block_slice():
    # Generating paths 2..5 directly must reproduce rows 2..5 of a larger
    # block, so chunked generation cannot depend on how work is split.
    whole = gen_hermite(HermiteSpec(0.72, 2), 1.0, 64, paths=6, seed=9)
    part = gen_hermite(HermiteSpec(0.72, 2), 1.0, 64, paths=4, seed=9, path_offset=2)
    assert np.array_equal(whole.values[2:6], part.values)


# Each generator at 11 paths from path 3.  At 389 entries a batch holds 3
# rows of a 64-point lattice (128 normals) and 4 of hou's 40-point one, so
# the last batch is short and reuses only the leading rows of the work
# arrays; a stale row would show.  The mixture's rank-1 lattice (16 points)
# takes all 11 rows in one batch.
_BATCH_CASES = {
    "fbm": lambda: gen_fbm(HermiteSpec(0.7), 1.0, 64, paths=11, seed=4, path_offset=3),
    "hermite3": lambda: gen_hermite(HermiteSpec(0.7, 3, approx_factor=4), 1.0, 16, paths=11,
                                    seed=4, path_offset=3),
    "mixed": lambda: gen_mixed(MixedHermiteSpec(0.75, ((0.6, 1), (0.8, 2)), approx_factor=4),
                               1.0, 16, paths=11, seed=4, path_offset=3),
    "hou": lambda: gen_hou(HouSpec(2.0, 0.5, history_truncation=0.25),
                           HermiteSpec(0.75, 2, approx_factor=2), 1.0, 16, paths=11, seed=4,
                           path_offset=3),
}


@pytest.mark.parametrize("entries", [1, 3 * 128 + 5])
@pytest.mark.parametrize("process", sorted(_BATCH_CASES))
def test_generators_do_not_depend_on_fft_batches(monkeypatch, process, entries):
    whole = _BATCH_CASES[process]().values
    monkeypatch.setattr(processes, "_CHUNK_ENTRIES", entries)
    assert np.array_equal(_BATCH_CASES[process]().values, whole)


_GENERATOR_MEMORY_SCRIPT = """
from hermite_markets import MixedHermiteSpec, gen_mixed
spec = MixedHermiteSpec(0.75, ((0.5 ** 0.5, 1), (0.5 ** 0.5, 2)))
gen_mixed(spec, 1.0, 16, paths=2, seed=1)
print_peak()
gen_mixed(spec, 1.0, 1024, paths=64, seed=1)
print_peak()
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is Linux's")
def test_mixture_batches_keep_the_peak_small():
    # The output is 0.5 MiB; the rank-2 lattice has 32,768 points and 1
    # MiB of work arrays a row.  A batch of 2**18 entries holds 4 rows, and
    # the peak grows about 11 MiB; batches of 2**20 entries, 16 rows with
    # their arrays allocated afresh for each, grew it about 47 MiB.
    small, large = subprocess_peaks_mib(_GENERATOR_MEMORY_SCRIPT)
    assert large - small < 25.0, (small, large)


@pytest.mark.parametrize("rank", [2, 3])
def test_hermite_rows_hold_one_batch_of_terms(rank):
    # A block of the mixed demo's rank-2 driver at 512 steps is 63 paths,
    # 8 batches of 8 rows on a 16,384-point lattice.  Over several batches
    # the kernel holds no more than over one: a batch's Hermite terms are
    # dropped before the next batch's are built, where keeping them held
    # one more 1 MiB array of terms.
    spec, steps = HermiteSpec(0.75, rank), 512
    words = _stream_states(1, range(64), 0)
    values = np.empty((64, steps + 1))
    draws, half, _ = _fft_work(spec, steps, 64)
    scale = _hermite_scale(spec, 1.0, steps)
    assert len(draws) == 8

    def peak(rows):
        tracemalloc.start()
        try:
            _hermite_rows(spec, scale, values[:rows], words[:rows], draws, half)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(len(draws))
    terms = draws.nbytes // 2
    assert peak(len(values)) < one + terms // 2, (one, terms)


def test_components_are_independent_streams():
    a = gen_fbm(HermiteSpec(0.7), 1.0, 64, seed=5, component=0)
    b = gen_fbm(HermiteSpec(0.7), 1.0, 64, seed=5, component=1)
    assert not np.array_equal(a.values, b.values)


def test_paths_start_at_zero():
    for path in (
        gen_bm(1.0, 32, paths=3, seed=1),
        gen_fbm(HermiteSpec(0.8), 1.0, 32, paths=3, seed=1),
        gen_hermite(HermiteSpec(0.7, 2), 1.0, 32, paths=3, seed=1),
    ):
        assert np.all(path.values[:, 0] == 0.0)


# Generators seed every path in one pass of numpy's SeedSequence hash;
# SeedSequence itself is the oracle.  Numpy codes integers of 2**32 and
# above in two 32-bit words, so indices straddling 2**32 are checked too.
_EDGE_INDICES = [0, 2**31, 2**32 - 1, 2**32, *range(2**32 - 3, 2**32 + 3)]


def _seed_sequence_state(seed, path, component):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path, component))
    return ss.generate_state(4, np.uint64)


# Seeds of 4 and 5 words straddle the first seed word mixed in after the
# pool is full, and so the hash constant every path starts from.
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128,
                                  2**130 + 7])
@pytest.mark.parametrize("component", [0, 1, 2**32 - 1, 2**32, 2**64 + 1])
def test_stream_states_match_seed_sequence(seed, component):
    states = _stream_states(seed, _EDGE_INDICES, component)
    expected = [_seed_sequence_state(seed, p, component) for p in _EDGE_INDICES]
    assert np.array_equal(states, np.array(expected))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**140), start=st.integers(0, 2**64 - 8),
       count=st.integers(1, 7), component=st.integers(0, 2**33))
def test_stream_states_match_seed_sequence_property(seed, start, count, component):
    paths = range(start, start + count)
    expected = [_seed_sequence_state(seed, p, component) for p in paths]
    assert np.array_equal(_stream_states(seed, paths, component), np.array(expected))


# Seed words hashed whole blocks at a time, as many as fit in a chunk and
# at least one, from offsets on either side of 2**32, where numpy codes a
# path index in a second word.
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64), paths=st.integers(1, 60), rows=st.integers(1, 9),
       chunk=st.integers(0, 40), offset=st.sampled_from([0, 5, 2**32 - 20, 2**40]),
       component=st.integers(0, 3))
def test_draw_blocks_hash_whole_blocks_a_chunk_at_a_time(seed, paths, rows, chunk, offset,
                                                         component):
    steps = 3
    drivers = [(None, seed, component), (None, seed + 1, component)]
    hashed = []

    def recording(stream_seed, indices, stream_component):
        hashed.append((stream_seed, indices, stream_component))
        return _stream_states(stream_seed, indices, stream_component)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processes, "_BLOCK_ENTRIES", rows * (steps + 1))
        patch.setattr(processes, "_HASH_PATHS", chunk)
        patch.setattr(processes, "_stream_states", recording)
        blocks = [(start, stop, values.copy())
                  for start, stop, values, _ in _draw_blocks(drivers, paths, steps, 1.0, offset)]
    assert [start for start, _, _ in blocks] == list(range(0, paths, rows))
    assert [stop for _, stop, _ in blocks] == [min(start + rows, paths)
                                               for start in range(0, paths, rows)]
    per_chunk = rows * max(1, chunk // rows)
    assert hashed == [(stream_seed, range(offset + first, offset + min(first + per_chunk, paths)),
                       component)
                      for first in range(0, paths, per_chunk) for _, stream_seed, _ in drivers]
    for i, (_, stream_seed, _) in enumerate(drivers):
        whole = np.empty((paths, steps + 1))
        _bm_walk(whole, _stream_states(stream_seed, range(offset, offset + paths), component),
                 math.sqrt(1.0 / steps))
        assert np.array_equal(np.concatenate([values[i] for _, _, values in blocks]), whole)


# The kernels behind the generators, fed seed words hashed elsewhere and
# work arrays of any batch size, draw the generators' rows bit for bit;
# over a thousand paths cross a hash chunk of 1,024 paths, and at 300
# steps or more several blocks of 2**15 prices (102 to 108 paths) too.
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), paths=st.one_of(st.integers(1, 9), st.integers(1000, 1100)),
       steps=st.one_of(st.integers(1, 40), st.integers(300, 320)),
       offset=st.sampled_from([0, 7, 2**32 - 3]), component=st.integers(0, 3),
       rank=st.sampled_from([1, 2]), batch=st.integers(1, 9),
       horizon=st.sampled_from([1.0, 2.5]))
def test_kernels_draw_the_generators_rows(seed, paths, steps, offset, component, rank, batch,
                                          horizon):
    words = _stream_states(seed, range(offset, offset + paths), component)
    values = np.full((paths, steps + 1), np.nan)
    _bm_walk(values, words, math.sqrt(horizon / steps))
    expected = gen_bm(horizon, steps, paths, seed, component, path_offset=offset).values
    assert np.array_equal(values, expected)
    # gen_hermite draws component 0; gen_fbm, its rank-1 case, any
    spec = HermiteSpec(0.7, rank, approx_factor=3)
    if rank == 1:
        expected = gen_fbm(spec, horizon, steps, paths, seed, component, offset).values
    else:
        words = _stream_states(seed, range(offset, offset + paths), 0)
        expected = gen_hermite(spec, horizon, steps, paths, seed, path_offset=offset).values
    values[:] = np.nan
    draws, half, _ = _fft_work(spec, steps, batch)
    draws[:] = np.nan
    _hermite_rows(spec, _hermite_scale(spec, horizon, steps), values, words, draws, half)
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("offset", [0, 2**32 - 2])
def test_generator_rows_equal_path_rng_draws(offset):
    steps, seed, component = 16, 77, 3
    bm = gen_bm(2.0, steps, paths=4, seed=seed, component=component, path_offset=offset)
    for i, row in enumerate(bm.values):
        draws = path_rng(seed, offset + i, component).standard_normal(steps)
        assert row[0] == 0.0
        assert np.array_equal(row[1:], np.cumsum(draws) * math.sqrt(2.0 / steps))
    fgn = _fgn_draws(steps, seed, range(offset, offset + 4), component)
    for i, row in enumerate(fgn):
        assert np.array_equal(row, path_rng(seed, offset + i, component).standard_normal(2 * steps))


def test_stream_seeding_rejects_negative_integers():
    with pytest.raises(ValueError, match="seed"):
        gen_bm(1.0, 4, seed=-1)
    with pytest.raises(ValueError, match="component"):
        gen_bm(1.0, 4, component=-1)
    with pytest.raises(ValueError, match="path indices"):
        gen_bm(1.0, 4, path_offset=-1)


# Pinned realizations, 3 paths x 8 steps at seed 2024 (t = 0 column
# omitted): a change that moves them changes what every seed draws.
_GOLDEN_FBM = [
    [0.10402337136287, 0.011718364135488, -0.16800957454774, -0.32287351047176,
     -0.58681234812008, -0.62746921814606, -0.83168108926071, -0.99926760972858],
    [0.27317679033742, 0.54923155860524, 0.47417407665757, 0.37190790085215,
     0.4107899096632, 0.85118847509987, 0.39867567894287, 0.30700674285672],
    [-0.077287765021263, 0.086470945106679, -0.13153871068034, -0.10266219814465,
     0.39719837158293, 0.57988868796693, 0.49139817105447, 0.66973782922612],
]
_GOLDEN_ROSENBLATT = [
    [-0.12357161363161, 0.1461355684636, 0.048785297771146, -0.14916806515469,
     -0.3414811042073, -0.33414298987073, -0.57416413097362, -0.75871128634148],
    [0.0098499162709963, -0.00065363690714487, -0.20642052451139, -0.2087840473349,
     0.07437392859363, 0.077924106745283, 0.01476178956246, -0.030578067966807],
    [-0.13131196281621, -0.024224499974078, -0.1025406640603, -0.2825104112594,
     -0.40878871176009, -0.47393288459801, -0.55199482931645, -0.44462351594436],
]
_GOLDEN_MIXED = [
    [0.054478244538995, -0.042210958312728, -0.17215998669897, -0.28951017814991,
     -0.58505774259029, -0.7534638046215, -0.99754432496747, -1.2417139482343],
    [0.72872729548779, 1.087010424165, 1.1817321420042, 1.2448027703403,
     1.1709464282602, 1.3421118260782, 0.97752832918778, 0.83908594164483],
    [-0.03641434865213, 0.016905080142977, -0.065842553148729, 0.05449104267345,
     0.32567555624268, 0.4389669615444, 0.26343888558025, 0.26476632428094],
]


def test_golden_realizations():
    w = 1.0 / np.sqrt(2.0)
    cases = [
        (gen_fbm(HermiteSpec(0.7), 1.0, 8, paths=3, seed=2024), _GOLDEN_FBM),
        (gen_hermite(HermiteSpec(0.7, 2), 1.0, 8, paths=3, seed=2024), _GOLDEN_ROSENBLATT),
        (gen_mixed(MixedHermiteSpec(0.75, ((w, 1), (w, 2))), 1.0, 8, paths=3, seed=2024),
         _GOLDEN_MIXED),
    ]
    for path, golden in cases:
        np.testing.assert_allclose(path.values[:, 1:], golden, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter validation

def test_hurst_range_enforced():
    with pytest.raises(ValueError):
        HermiteSpec(0.4)
    with pytest.raises(ValueError):
        HermiteSpec(1.0)


def test_analytic_normalization_needs_low_rank():
    with pytest.raises(ValueError):
        HermiteSpec(0.7, 3, normalization="analytic")


def test_mixed_weights_must_be_unit_norm():
    with pytest.raises(ValueError):
        MixedHermiteSpec(0.7, ((0.6, 1), (0.6, 2)))


def test_mixed_spec_checks_components_as_hermite_specs():
    w = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError, match="hurst must lie in .*got 0.4"):
        MixedHermiteSpec(0.4, ((w, 1), (w, 2)))
    with pytest.raises(ValueError, match="approx_factor must be an integer >= 1, got 0"):
        MixedHermiteSpec(0.75, ((w, 1), (w, 2)), approx_factor=0)
    with pytest.raises(ValueError, match="normalization must be .*got 'exact'"):
        MixedHermiteSpec(0.75, ((w, 1), (w, 2)), normalization="exact")
    # An analytic rank-3 component fails here, not later inside gen_mixed.
    with pytest.raises(ValueError, match="analytic normalization"):
        MixedHermiteSpec(0.75, ((w, 1), (w, 3)), normalization="analytic")


def test_grid_validation():
    with pytest.raises(ValueError):
        gen_bm(0.0, 32)
    with pytest.raises(ValueError):
        gen_bm(1.0, 0)


# Python counts a bool as an int, but True is no count of steps or paths
# and no rank: each integer parameter refuses one with its own message.
@pytest.mark.parametrize("make, message", [
    (lambda: gen_bm(1.0, 8, paths=True), "paths must be an integer >= 1, got True"),
    (lambda: gen_hermite(HermiteSpec(0.7), 1.0, 8, paths=True),
     "paths must be an integer >= 1, got True"),
    (lambda: gen_fbm(HermiteSpec(0.7), 1.0, True), "steps must be an integer >= 1, got True"),
    (lambda: HermiteSpec(0.7, rank=True), "rank must be an integer >= 1, got True"),
    (lambda: HermiteSpec(0.7, approx_factor=True), "approx_factor must be an integer >= 1, got True"),
    (lambda: MixedHermiteSpec(0.75, ((1.0, True),)), "rank must be an integer >= 1, got True"),
    (lambda: hermite_poly(True, 0.5), "order must be an integer >= 0, got True"),
])
def test_integer_parameters_refuse_bool(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("horizon, message", [
    (math.inf, "horizon must be finite, got inf"),
    (math.nan, "horizon must be positive, got nan"),
])
def test_sample_path_names_a_non_finite_horizon(horizon, message):
    with pytest.raises(ValueError) as err:
        SamplePath(horizon, 2, [[0.0, 1.0, 2.0]])
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Hermite polynomials

def test_hermite_poly_low_orders():
    x = np.array([-1.0, 0.0, 0.5, 2.0])
    assert np.array_equal(hermite_poly(0, x), np.ones(4))
    assert np.array_equal(hermite_poly(1, x), x)
    assert not np.shares_memory(hermite_poly(1, x), x)
    assert np.allclose(hermite_poly(2, x), x**2 - 1.0)
    assert np.allclose(hermite_poly(3, x), x**3 - 3.0 * x)


# ---------------------------------------------------------------------------
# fractional Gaussian noise

def test_fgn_unit_variance():
    x = gen_fgn(0.85, 2**13, seed=2)
    assert abs(float(np.mean(x**2)) - 1.0) < 0.1


def test_fgn_deterministic():
    assert np.array_equal(gen_fgn(0.8, 512, seed=4), gen_fgn(0.8, 512, seed=4))


def test_indefinite_autocov_raises_circulant_embedding_error(monkeypatch):
    # Unit covariance at lag 1 alone embeds as a circulant whose eigenvalues
    # are 2 cos(2 pi k / m), down to -2 at k = m / 2.
    monkeypatch.setattr(processes, "_fgn_autocov", lambda hurst, k: (k == 1).astype(float))
    processes._half_spectrum_scale.cache_clear()
    try:
        with pytest.raises(CirculantEmbeddingError) as info:
            gen_fbm(HermiteSpec(0.7), 1.0, 16, seed=1)
    finally:
        processes._half_spectrum_scale.cache_clear()
    assert info.value.eigenvalue == -2.0


def test_fgn_long_memory_slope():
    # Sample autocovariance of a persistent sequence decays like
    # lag^(2H' - 2); the fitted log-log slope should sit near -0.2.
    x = np.cumsum(gen_fgn(0.9, 2**14, seed=7))
    slope = autocov_slope(x, np.arange(2, 33))
    assert abs(slope - (2 * 0.9 - 2.0)) < 0.15


@pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
@pytest.mark.parametrize("count", [1, 2, 3, 64, 257])
def test_fgn_transform_covariance_is_exact(count, hurst):
    # The transform is linear in the unit normals, so pushing the identity
    # through it gives the matrix A with x = d @ A, whose covariance A'A
    # must be the FGN Toeplitz matrix.  No sampling is involved.
    a = _fgn_transform(hurst, np.eye(2 * count))
    want = toeplitz(_fgn_autocov(hurst, np.arange(count)))
    assert np.max(np.abs(a.T @ a - want)) < 1e-12


@pytest.mark.parametrize("count", [1, 2, 3, 64, 257])
def test_fgn_transform_may_write_over_its_normals(count):
    # The generators pass the normals as the transform's output: the half
    # spectrum is filled before the inverse FFT writes, so the result is
    # bit for bit the one a fresh output array gives.
    draws = _fgn_draws(count, 11, range(5), 0)
    fresh = _fgn_transform(0.8, draws, np.empty((5, count + 1), complex), np.empty_like(draws))
    fresh = fresh.copy()
    same = _fgn_transform(0.8, draws, np.empty((5, count + 1), complex), out=draws)
    assert np.shares_memory(same, draws)
    assert same.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 5, 64])
def test_raw_sum_std_matches_double_sum(rank, count):
    # Var sum_j He_k(xi_j) = sum_i sum_j k! rho(|i - j|)^k, summed term by
    # term here instead of by lag.
    for inner_hurst in (0.55, 0.8, 0.95):
        lags = np.abs(np.subtract.outer(np.arange(count), np.arange(count)))
        rho = _fgn_autocov(inner_hurst, lags)
        want = math.sqrt(math.factorial(rank) * float(np.sum(rho ** rank)))
        assert _raw_sum_std(inner_hurst, rank, count) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# marginal law of the rank-1 process

def test_fbm_unit_time_variance():
    path = gen_fbm(HermiteSpec(0.7), 1.0, 64, paths=2000, seed=31)
    var = float(np.var(path.values[:, -1]))
    assert abs(var - 1.0) < 0.07


def test_fbm_covariance_interior_point():
    path = gen_fbm(HermiteSpec(0.7), 1.0, 64, paths=2000, seed=31)
    cov = float(np.mean(path.values[:, 32] * path.values[:, -1]))
    h = 0.7
    target = 0.5 * (1.0 + 0.5 ** (2 * h) - 0.5 ** (2 * h))
    assert abs(cov - target) < 0.05


def test_single_step_is_scaled_normal():
    # With one step the increment is exactly N(0, T^(2H)).
    h, horizon = 0.8, 2.0
    path = gen_fbm(HermiteSpec(h), horizon, 1, paths=4000, seed=17)
    z = path.values[:, 1] / horizon**h
    assert abs(float(np.var(z)) - 1.0) < 0.07
    assert sps.normaltest(z).pvalue > 0.01


def test_rank1_hermite_matches_fbm_in_law():
    # The partial-sum scheme at rank 1 is FBM on the inner lattice, so its
    # terminal law must agree with the direct Davies-Harte generator.
    a = gen_hermite(HermiteSpec(0.75, 1), 1.0, 64, paths=1500, seed=8)
    b = gen_fbm(HermiteSpec(0.75, 1), 1.0, 64, paths=1500, seed=9)
    assert sps.ks_2samp(a.values[:, -1], b.values[:, -1]).pvalue > 0.01


@pytest.mark.parametrize("approx_factor", [1, 5, 32])
@pytest.mark.parametrize("normalization", ["empirical", "analytic"])
def test_rank1_hermite_is_fbm(approx_factor, normalization):
    # Rank 1 is drawn exactly on the output grid, so the partial-sum
    # lattice setting plays no part and gen_hermite is gen_fbm.
    spec = HermiteSpec(0.75, 1, approx_factor, normalization)
    a = gen_hermite(spec, 2.0, 64, paths=3, seed=8, path_offset=1)
    b = gen_fbm(HermiteSpec(0.75), 2.0, 64, paths=3, seed=8, path_offset=1)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# rank-2 marginal law

def test_rosenblatt_terminal_moments():
    path = gen_hermite(HermiteSpec(0.7, 2), 1.0, 64, paths=4000, seed=23)
    x = path.values[:, -1]
    assert abs(float(np.mean(x))) < 0.05
    assert abs(float(np.var(x)) - 1.0) < 0.08
    assert float(sps.skew(x)) > 0.5
    assert sps.normaltest(x).pvalue < 0.01


def test_gaussian_boundary_between_ranks():
    g = gen_hermite(HermiteSpec(0.65, 1), 1.0, 64, paths=1500, seed=29)
    ng = gen_hermite(HermiteSpec(0.65, 2), 1.0, 64, paths=1500, seed=29)
    assert sps.normaltest(g.values[:, -1]).pvalue > 0.01
    assert sps.normaltest(ng.values[:, -1]).pvalue < 0.01


# ---------------------------------------------------------------------------
# self-similarity

@pytest.mark.parametrize("rank", [1, 2])
def test_self_similarity_interior_scaling(rank):
    # H(ct) must equal c^H H(t) in law.  Compare an interior grid value,
    # rescaled, against the terminal value from an independent run; the
    # stretch factors 0.5 and 2 exercise both directions.
    spec = HermiteSpec(0.75, rank)
    a = gen_hermite(spec, 1.0, 64, paths=1500, seed=41)
    b = gen_hermite(spec, 1.0, 64, paths=1500, seed=42)
    p_half = sps.ks_2samp(a.values[:, 32] * 2.0**0.75, b.values[:, 64]).pvalue
    assert p_half > 0.01
    c = gen_hermite(spec, 2.0, 64, paths=1500, seed=43)
    p_double = sps.ks_2samp(c.values[:, 16] * 4.0**0.75, c.values[:, 64]).pvalue
    assert p_double > 0.01


# ---------------------------------------------------------------------------
# long-range dependence and path roughness

def test_increment_autocov_slope():
    path = gen_fbm(HermiteSpec(0.8), 1.0, 2**16, seed=4)
    slope = autocov_slope(path.values, np.arange(2, 33))
    assert abs(slope - (2 * 0.8 - 2.0)) < 0.2


def test_holder_roughness_slope():
    # The largest increment over a dyadic subgrid scales like dt^H up to
    # a slowly varying factor, so the fitted exponent stays above H - 0.1.
    path = gen_fbm(HermiteSpec(0.7), 1.0, 2**14, seed=14)
    v = path.values[0]
    log_max, log_dt = [], []
    for n in (2**8, 2**10, 2**12, 2**14):
        sub = v[:: 2**14 // n]
        log_max.append(np.log(np.max(np.abs(np.diff(sub)))))
        log_dt.append(np.log(1.0 / n))
    slope = float(np.polyfit(log_dt, log_max, 1)[0])
    assert slope >= 0.7 - 0.1


def test_hurst_estimate_recovers_input():
    path = gen_fbm(HermiteSpec(0.7), 1.0, 2**14, seed=3)
    est = estimate_hurst(path)
    assert abs(est.value - 0.7) < 0.05


def test_hurst_estimate_brownian_motion():
    est = estimate_hurst(gen_bm(1.0, 2**14, seed=3))
    assert abs(est.value - 0.5) < 0.05


# ---------------------------------------------------------------------------
# mixtures

def test_single_component_mixture_collapses():
    spec = MixedHermiteSpec(0.72, ((1.0, 2),))
    mixed = gen_mixed(spec, 1.0, 64, paths=3, seed=6)
    plain = gen_hermite(HermiteSpec(0.72, 2), 1.0, 64, paths=3, seed=6)
    assert np.array_equal(mixed.values, plain.values)


def test_mixed_unit_variance():
    w = 1.0 / np.sqrt(2.0)
    spec = MixedHermiteSpec(0.75, ((w, 1), (w, 2)))
    path = gen_mixed(spec, 1.0, 64, paths=5000, seed=44)
    assert abs(float(np.var(path.values[:, -1])) - 1.0) < 0.05


def test_mixed_records_ranks_in_meta():
    spec = MixedHermiteSpec(0.75, ((1.0, 1),))
    path = gen_mixed(spec, 1.0, 16, seed=1)
    assert path.meta.get("ranks") == [1]


# ---------------------------------------------------------------------------
# normalization modes

def test_analytic_matches_empirical_rank1():
    # Rank-1 partial sums have variance exactly N^(2H), so the two
    # normalization modes coincide to machine precision.
    a = gen_fbm(HermiteSpec(0.8, 1, normalization="empirical"), 1.0, 128, seed=5)
    b = gen_fbm(HermiteSpec(0.8, 1, normalization="analytic"), 1.0, 128, seed=5)
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-14)


def test_analytic_close_to_empirical_rank2():
    a = gen_hermite(HermiteSpec(0.7, 2, normalization="empirical"), 1.0, 64, seed=5)
    b = gen_hermite(HermiteSpec(0.7, 2, normalization="analytic"), 1.0, 64, seed=5)
    ratio = np.max(np.abs(b.values[:, 1:] / a.values[:, 1:] - 1.0))
    assert ratio < 0.02


# ---------------------------------------------------------------------------
# fractional Ornstein-Uhlenbeck

@pytest.mark.parametrize("lam, sigma, history, message", [
    (math.inf, 1.0, None, "lam must be finite, got inf"),
    (1.0, math.inf, None, "sigma must be finite, got inf"),
    # an infinite history once reached gen_hou, and an OverflowError
    (1.0, 1.0, math.inf, "history_truncation must be finite, got inf"),
])
def test_hou_spec_names_a_non_finite_parameter(lam, sigma, history, message):
    with pytest.raises(ValueError) as err:
        HouSpec(lam, sigma, history)
    assert str(err.value) == message


def test_hou_zero_sigma_is_flat():
    path = gen_hou(HouSpec(1.0, 0.0), HermiteSpec(0.75), 4.0, 64, seed=2)
    assert np.all(path.values == 0.0)


def test_hou_starts_off_zero():
    path = gen_hou(HouSpec(1.0, 1.0), HermiteSpec(0.75), 4.0, 64, seed=2)
    assert path.values[0, 0] != 0.0


def test_hou_stationary_variance():
    # The left-point recursion X_n = sum_k decay^(n-k) dB_k over the
    # warm-up has the exact variance w' Cov(dB) w, w_k = decay^(n-k), with
    # Cov(dB) the FGN Toeplitz matrix times dt^(2H).  The sample variance
    # is compared to that; the discretization bias against the continuous
    # stationary variance Gamma(2H + 1) / (2 lam^(2H)) is bounded apart.
    import math

    h, lam, horizon, steps = 0.75, 1.0, 4.0, 64
    dt = horizon / steps
    decay = math.exp(-lam * dt)
    burn = math.ceil(20.0 / lam / dt)
    target = math.gamma(2 * h + 1.0) / (2.0 * lam ** (2 * h))
    path = gen_hou(HouSpec(lam, 1.0), HermiteSpec(h), horizon, steps, paths=3000, seed=15)
    worst = 0.0
    for k in (0, 16, 48, 64):
        n = burn + k
        w = decay ** (n - np.arange(n))
        exact = float(w @ toeplitz(_fgn_autocov(h, np.arange(n))) @ w) * dt ** (2 * h)
        assert abs(exact / target - 1.0) < 0.07
        var = float(np.var(path.values[:, k]))
        worst = max(worst, abs(var / exact - 1.0))
    assert worst < 0.10


def test_hou_value_autocov_decay():
    # Value autocovariance at widely separated times decays like the
    # driver's increment covariance, exponent 2H - 2.
    h, lam = 0.8, 1.0
    path = gen_hou(HouSpec(lam, 1.0), HermiteSpec(h), 40.0, 640, paths=3000, seed=16)
    dt = 40.0 / 640
    lags_t = np.array([5.0, 10.0])
    idx = (lags_t / dt).astype(int)
    vals = path.values - path.values.mean(axis=0, keepdims=True)
    acov = [float(np.mean(vals[:, 320] * vals[:, 320 + i])) for i in idx]
    assert min(acov) > 0
    slope = float(np.diff(np.log(acov))[0] / np.diff(np.log(lags_t))[0])
    assert abs(slope - (2 * h - 2.0)) < 0.3


def test_hou_working_bytes_counts_driver_and_chunk():
    # Rank 2, approx_factor 32, 100 steps, 3 paths: three (3, 101) arrays
    # of 8 bytes, 56 bytes per inner point for the eigenvalues, and 32 for
    # the work arrays plus 40 for the Hermite terms in each of the 3 rows
    # of one batch (3200 inner points).
    estimate = processes._hou_working_bytes(HermiteSpec(0.75, 2), 100, 3)
    assert estimate == 8 * 3 * 3 * 101 + (56 + 72 * 3) * 3200
    # Rank 1 runs on the output grid with no Hermite terms, and a lattice
    # longer than one batch is transformed a row at a time.
    assert processes._hou_working_bytes(HermiteSpec(0.75), 100, 3) == \
        8 * 3 * 3 * 101 + (56 + 32 * 3) * 100
    big = 2**23
    assert processes._hou_working_bytes(HermiteSpec(0.75), big, 5) == \
        8 * 3 * 5 * (big + 1) + (56 + 32) * big


@pytest.mark.parametrize("rank", [1, 2, 3, 5])
def test_hou_working_bytes_bounds_the_measured_peak(rank):
    # The estimate covers what numpy allocates while the driver is drawn,
    # eigenvalues included (their cache is cleared first).
    hermite = HermiteSpec(0.75, rank, approx_factor=4)
    processes._half_spectrum_scale.cache_clear()
    tracemalloc.start()
    try:
        processes._drawn(hermite, 1.0, 4096, 5, seed=2, component=0, path_offset=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < processes._hou_working_bytes(hermite, 4096, 5)


def test_hou_preflight_raises_before_allocating(monkeypatch):
    # lam = 0.01 with 1024 steps on [0, 1] runs a rank-2 driver over a
    # 65.6-million-point lattice: gigabytes per row, refused before any
    # of it is built.
    def never(*args, **kwargs):
        raise AssertionError("the driver was allocated")

    monkeypatch.setattr(processes, "_draw_blocks", never)
    monkeypatch.setattr(processes, "_physical_memory", lambda: 2**30)
    with pytest.raises(ValueError, match=r"ou_lambda \(0\.01\).*history_truncation") as err:
        gen_hou(HouSpec(0.01, 1.0), HermiteSpec(0.75, 2), 1.0, 1024, paths=10)
    assert "8.3 GiB" in str(err.value)
