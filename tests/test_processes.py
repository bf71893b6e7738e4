"""Generator-level checks: seeding, marginal laws, scaling, memory."""

import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh, toeplitz
from scipy.optimize import brentq

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
    _fgn_transform, _fill_normals, _half_spectrum_scale, _hermite_rows, _hermite_scale, \
    _raw_sum_std, _stream_states, gen_fgn, hermite_poly
from hermite_markets.stats import autocov_slope
from _oracles import hou_step_loop, quadratic_form_cdf, subprocess_peaks_mib


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
def test_hermite_blocks_hold_one_batch_of_terms(rank):
    # A rank-2 driver at 512 steps has a 16,384-point lattice, so its blocks
    # are FFT batches of 8 rows: 64 paths are 8 blocks.  Over several blocks
    # the draw holds no more than over one: a block's Hermite terms are
    # dropped before the next block's are built, where keeping them held one
    # more 1 MiB array of terms.
    spec, steps = HermiteSpec(0.75, rank), 512
    _half_spectrum_scale(spec.inner_hurst, 32 * steps)
    assert processes._driver_rows(spec, steps) == 8

    def peak(paths):
        tracemalloc.start()
        try:
            for _ in _draw_blocks([(spec, 1, 0)], paths, steps, 1.0):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(8)
    terms = 8 * 32 * steps * 8
    assert peak(64) < one + terms // 2, (one, terms)


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
# blocks of any batch size, draw the generators' rows bit for bit;
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
    scale = _hermite_scale(spec, horizon, steps)
    for start in range(0, paths, batch):
        n = len(values[start:start + batch])
        _hermite_rows(spec, scale, values[start:start + n], words[start:start + n], draws[:n],
                      half[:n])
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("offset", [0, 2**32 - 2])
def test_generator_rows_equal_path_rng_draws(offset):
    steps, seed, component = 16, 77, 3
    bm = gen_bm(2.0, steps, paths=4, seed=seed, component=component, path_offset=offset)
    for i, row in enumerate(bm.values):
        draws = path_rng(seed, offset + i, component).standard_normal(steps)
        assert row[0] == 0.0
        assert np.array_equal(row[1:], np.cumsum(draws) * math.sqrt(2.0 / steps))
    fgn = np.empty((4, 2 * steps))
    _fill_normals(fgn, _stream_states(seed, range(offset, offset + 4), component))
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
# HOU at 37 paths from path 5, 64 steps and 1,280 steps of history: rows 0,
# 23, 24 and 36 at every 16th grid time (t = 0 included, since it carries
# the history).  Both drivers draw 24-row blocks, so rows 23 and 24 sit on
# either side of a block boundary.
_GOLDEN_HOU = [
    [-0.18104943001897, -0.25016668212901, -0.34097997543082, -0.48264657815392,
     -0.32670853371486],
    [0.40825955428585, 0.53209477460141, 0.54723466935862, 0.48764825658435,
     0.53716020711313],
    [0.74731696203052, 0.79422039125163, 0.6102942169117, 0.3856638212086, 0.23244206616612],
    [-0.02927523227351, 0.059051057093379, 0.27106384760748, 0.15953860966453,
     0.046134578611794],
]
_GOLDEN_HOU_ROSENBLATT = [
    [-0.35471190513713, -0.42449616657972, -0.32866693127223, -0.23970373711686,
     -0.25388143735629],
    [-0.21387382647755, -0.1320149313439, -0.19292634715344, -0.24258824823072,
     -0.32500774691977],
    [-0.1148600625331, -0.10093697770099, -0.061074524753403, 0.10418859340883,
     0.22539615681904],
    [-0.12574263316315, -0.15886228621606, -0.14867097353534, -0.16393005332279,
     -0.33161994019597],
]
# gen_fgn(0.8, count, seed=3): all of counts 1 and 7, entries 0, 1, 499,
# 998 and 999 of count 1,000.
_GOLDEN_FGN = {
    1: [-0.10847857229849],
    7: [-0.65984638816326, 0.26045717276976, 0.78092858774354, 1.5631496931238,
        1.3188550395466, 1.0339753944964, -0.8109059162763],
    1000: [-0.34417257102324, -0.96491044839935, -0.47227898734924, -0.012552586678163,
           0.2403491162168],
}


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
    for hermite, golden in ((HermiteSpec(0.75), _GOLDEN_HOU),
                            (HermiteSpec(0.75, 2, approx_factor=4), _GOLDEN_HOU_ROSENBLATT)):
        path = gen_hou(HouSpec(1.0, 0.5), hermite, 1.0, 64, paths=37, seed=9, path_offset=5)
        np.testing.assert_allclose(path.values[[0, 23, 24, 36], ::16], golden, rtol=0,
                                   atol=1e-12)
    for count, golden in _GOLDEN_FGN.items():
        fgn = gen_fgn(0.8, count, seed=3)
        picked = fgn if count < 10 else fgn[[0, 1, 499, 998, 999]]
        np.testing.assert_allclose(picked, golden, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter validation

def test_hurst_range_enforced():
    with pytest.raises(ValueError):
        HermiteSpec(0.4)
    with pytest.raises(ValueError):
        HermiteSpec(1.0)


def test_mixed_weights_must_be_unit_norm():
    with pytest.raises(ValueError):
        MixedHermiteSpec(0.7, ((0.6, 1), (0.6, 2)))


def test_mixed_weight_whose_square_overflows_is_refused():
    # 1e200 squared is inf, refused like any other sum, not an OverflowError
    with pytest.raises(ValueError, match="squared weights must sum to 1 .*got inf"):
        MixedHermiteSpec(0.75, ((1e200, 1), (1.0, 2)))


def test_mixed_spec_checks_components_as_hermite_specs():
    w = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError, match="hurst must lie in .*got 0.4"):
        MixedHermiteSpec(0.4, ((w, 1), (w, 2)))
    with pytest.raises(ValueError, match="approx_factor must be an integer >= 1, got 0"):
        MixedHermiteSpec(0.75, ((w, 1), (w, 2)), approx_factor=0)


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
    (lambda: gen_fgn(0.8, True), "count must be an integer >= 1, got True"),
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


@pytest.mark.parametrize("count", [7.5, 7.0, 0])
def test_fgn_count_must_be_a_positive_int(count):
    with pytest.raises(ValueError, match="count must be an integer >= 1"):
        gen_fgn(0.8, count)


def test_fgn_preflight_raises_before_drawing(monkeypatch):
    # Memory that holds the estimate draws; one byte less is refused before
    # any normal is drawn.
    need = processes._lattice_bytes(HermiteSpec(0.8), 512, 512, 1)
    monkeypatch.setattr(processes, "_physical_memory", lambda: need)
    assert gen_fgn(0.8, 512, seed=4).shape == (512,)

    def never(*args, **kwargs):
        raise AssertionError("normals were drawn")

    monkeypatch.setattr(processes, "_fill_normals", never)
    monkeypatch.setattr(processes, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"gen_fgn of 512 points.*lower count"):
        gen_fgn(0.8, 512, seed=4)


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
    eye = np.eye(2 * count)
    a = _fgn_transform(hurst, eye, np.empty((2 * count, count + 1), complex), np.empty_like(eye))
    want = toeplitz(_fgn_autocov(hurst, np.arange(count)))
    assert np.max(np.abs(a.T @ a - want)) < 1e-12


@pytest.mark.parametrize("count", [1, 2, 3, 64, 257])
def test_fgn_transform_may_write_over_its_normals(count):
    # The generators pass the normals as the transform's output: the half
    # spectrum is filled before the inverse FFT writes, so the result is
    # bit for bit the one a fresh output array gives.
    draws = np.empty((5, 2 * count))
    _fill_normals(draws, _stream_states(11, range(5), 0))
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
def test_rank1_hermite_is_fbm(approx_factor):
    # Rank 1 is drawn exactly on the output grid, so the partial-sum
    # lattice setting plays no part and gen_hermite is gen_fbm.
    spec = HermiteSpec(0.75, 1, approx_factor)
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


@pytest.mark.parametrize("terms", [8, 16, 40])
@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
def test_quadratic_form_cdf_matches_chi2_for_equal_eigenvalues(terms, scale):
    for q in (0.001, 0.1, 0.5, 0.9, 0.999):
        x = scale * sps.chi2.ppf(q, terms)
        assert abs(quadratic_form_cdf(np.full(terms, scale), x) - q) < 1e-8


@pytest.mark.parametrize("hurst, factor", [(0.7, 4), (0.85, 8)])
def test_rosenblatt_terminal_law_is_its_exact_quadratic_form(hurst, factor):
    # The terminal value is scale (xi' xi - n), xi the n = 64 a inner FGN
    # points at the inner Hurst index, so its law is sum_k lambda_k (Z_k^2
    # - 1) with lambda the eigenvalues of their Toeplitz covariance times
    # scale.  The share of paths above each exact quantile of Imhof's CDF
    # lies within 4 binomial sd.
    spec = HermiteSpec(hurst, 2, approx_factor=factor)
    paths = 20_000
    gamma = toeplitz(_fgn_autocov(spec.inner_hurst, np.arange(64 * factor)))
    eigs = _hermite_scale(spec, 1.0, 64) * eigvalsh(gamma)
    terminal = gen_hermite(spec, 1.0, 64, paths=paths, seed=101).values[:, -1]
    for q in (0.1, 0.5, 0.9):
        quantile = brentq(lambda x: quadratic_form_cdf(eigs, x + eigs.sum()) - q,
                          -eigs.sum(), 20.0, xtol=1e-10)
        z = (np.mean(terminal > quantile) - (1.0 - q)) / math.sqrt(q * (1.0 - q) / paths)
        assert abs(z) < 4.0


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
# fractional Ornstein-Uhlenbeck

@pytest.mark.parametrize("lam, sigma, history, message", [
    (math.inf, 1.0, None, "lam must be finite, got inf"),
    (1.0, math.inf, None, "sigma must be finite, got inf"),
    # an infinite history once reached gen_hou, and an OverflowError
    (1.0, 1.0, math.inf, "history_truncation must be finite, got inf"),
    # NaN fails every comparison, so it once read as "must be positive"
    (math.nan, 1.0, None, "lam must be finite, got nan"),
    (1.0, math.nan, None, "sigma must be finite, got nan"),
    (1.0, 1.0, math.nan, "history_truncation must be finite, got nan"),
    (-math.inf, 1.0, None, "lam must be finite, got -inf"),
])
def test_hou_spec_names_a_non_finite_parameter(lam, sigma, history, message):
    with pytest.raises(ValueError) as err:
        HouSpec(lam, sigma, history)
    assert str(err.value) == message


def test_hou_history_that_is_not_finite_is_refused():
    # 20 / 1.2e-307 is a finite history, but it overflows to inf steps of 1/16
    with pytest.raises(ValueError, match=r"history.* not finite; raise ou_lambda "
                                         r"\(1\.2e-307\) or lower history_truncation"):
        gen_hou(HouSpec(1.2e-307, 1.0), HermiteSpec(0.75), 1.0, 16)


def test_hou_huge_history_is_counted_in_short_form():
    with pytest.raises(ValueError, match=r"3\.2e\+302 steps.*ou_lambda") as err:
        gen_hou(HouSpec(1e-300, 1.0), HermiteSpec(0.75), 1.0, 16)
    assert not re.search(r"\d{20}", str(err.value))


def test_hou_values_that_overflow_name_lambda_and_sigma():
    # The stationary scale sigma lam**-H is far past the largest float; the
    # recursion overflows without a numpy warning and the output is refused.
    with pytest.raises(ValueError, match=r"not finite at ou_lambda = 0\.001, ou_sigma = 1e\+308"):
        gen_hou(HouSpec(1e-3, 1e308), HermiteSpec(0.75), 1000.0, 16, paths=2, seed=1)


def test_hou_overflow_outside_the_output_warns_nothing():
    # At seed 1 two paths overflow only in history the output drops: the
    # values are finite, and the recursion's overflow prints no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = gen_hou(HouSpec(1.0, 1e308), HermiteSpec(0.75), 1.0, 16, paths=2, seed=1)
    assert np.isfinite(path.values).all()


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


# Of the examples, lam dt = 300 makes time blocks of one step, 5 makes
# blocks of 102 steps over 230, the last of them 26, 60 makes 42 blocks of
# 8 steps and one of 1 over 337, and 0.01 takes the whole history in one
# block; at sigma = 1e200 the step loop is still finite.
@settings(max_examples=40, deadline=None)
@given(lam_dt=st.floats(1e-3, 600.0), steps=st.integers(1, 40), history=st.integers(1, 300),
       sigma=st.sampled_from([0.5, 1.0, 3.0]), rank=st.sampled_from([1, 2]))
@example(lam_dt=300.0, steps=5, history=3, sigma=1.0, rank=1)
@example(lam_dt=5.0, steps=30, history=200, sigma=1.0, rank=1)
@example(lam_dt=5.0, steps=30, history=200, sigma=1e200, rank=2)
@example(lam_dt=60.0, steps=37, history=300, sigma=1.0, rank=1)
@example(lam_dt=0.01, steps=30, history=200, sigma=1.0, rank=2)
def test_hou_time_blocks_match_the_step_loop(lam_dt, steps, history, sigma, rank):
    hermite = HermiteSpec(0.75, rank, approx_factor=2)
    horizon = 1.0
    dt = horizon / steps
    spec = HouSpec(lam_dt / dt, sigma, history_truncation=history * dt)
    total = int(math.ceil(spec.history_truncation / dt)) + steps
    driver = gen_hermite(hermite, total * dt, total, paths=3, seed=6, path_offset=2).values
    want = hou_step_loop(driver, math.exp(-spec.lam * dt), sigma)[:, total - steps:]
    got = gen_hou(spec, hermite, horizon, steps, paths=3, seed=6, path_offset=2).values
    assert np.isfinite(want).all()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_lattice_bytes_counts_driver_and_chunk():
    # Rank 2, approx_factor 32, 100 steps of which 40 are output, 3 paths:
    # the (3, 41) output at 9 bytes a point, the (3, 101) driver block, 56
    # bytes per inner point for the eigenvalues, and 32 for the work arrays
    # plus 40 for the Hermite terms in each of the 3 rows of one batch
    # (3200 inner points), and numpy's buffers for one ufunc.
    buffers = 3 * 8192 * 16
    estimate = processes._lattice_bytes(HermiteSpec(0.75, 2), 100, 40, 3)
    assert estimate == 9 * 3 * 41 + 8 * 3 * 101 + (56 + 72 * 3) * 3200 + buffers
    # Rank 1 runs on the output grid with no Hermite terms, and a lattice
    # longer than one block is drawn a row at a time.
    assert processes._lattice_bytes(HermiteSpec(0.75), 100, 40, 3) == \
        9 * 3 * 41 + 8 * 3 * 101 + (56 + 32 * 3) * 100 + buffers
    big = 2**23
    assert processes._lattice_bytes(HermiteSpec(0.75), big, 1024, 5) == \
        9 * 5 * 1025 + 8 * (big + 1) + (56 + 32) * big + buffers


@pytest.mark.parametrize("lam, history, horizon, steps, total", [
    (1.0, 1.0, 1.0, 2048, 4096), (2000.0, 0.01, 16.0, 16384, 16395)])
@pytest.mark.parametrize("rank", [1, 2, 3, 5])
def test_lattice_bytes_bounds_the_measured_hou_peak(rank, lam, history, horizon, steps, total):
    # The estimate covers what numpy allocates in gen_hou, eigenvalues
    # included (their cache is cleared first): over a 4,096-step lattice,
    # half of it history, in one time block, and over 16,395 steps in 63
    # time blocks of 262 steps at lam = 2000.
    hermite = HermiteSpec(0.75, rank, approx_factor=4)
    processes._half_spectrum_scale.cache_clear()
    tracemalloc.start()
    try:
        gen_hou(HouSpec(lam, 1.0, history_truncation=history), hermite, horizon, steps,
                paths=5, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < processes._lattice_bytes(hermite, total, steps, 5)


_PREFLIGHT_CASES = [
    (gen_fbm, HermiteSpec(0.7), HermiteSpec(0.7)),
    (gen_hermite, HermiteSpec(0.75, 2, approx_factor=4), HermiteSpec(0.75, 2, approx_factor=4)),
    (gen_mixed, MixedHermiteSpec(0.75, ((0.8, 1), (0.6, 2)), approx_factor=4),
     HermiteSpec(0.75, 2, approx_factor=4)),
]


@pytest.mark.parametrize("gen, spec, largest", _PREFLIGHT_CASES)
def test_lattice_bytes_bounds_the_measured_generator_peak(gen, spec, largest):
    # gen_fbm, gen_hermite and gen_mixed hold their output once and one
    # driver's block at a time, so the estimate for the largest driver, on
    # the output grid, covers what numpy allocates, eigenvalues included.
    processes._half_spectrum_scale.cache_clear()
    tracemalloc.start()
    try:
        gen(spec, 1.0, 2048, paths=5, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < processes._lattice_bytes(largest, 2048, 2048, 5)


@pytest.mark.parametrize("gen, spec, largest", _PREFLIGHT_CASES)
def test_generator_preflight_raises_before_allocating(monkeypatch, gen, spec, largest):
    # Memory that holds the largest driver's estimate draws; one byte less
    # is refused before _draw_blocks allocates anything.
    need = processes._lattice_bytes(largest, 1024, 1024, 3)
    monkeypatch.setattr(processes, "_physical_memory", lambda: need)
    assert gen(spec, 1.0, 1024, paths=3).values.shape == (3, 1025)

    def never(*args, **kwargs):
        raise AssertionError("the driver was allocated")

    monkeypatch.setattr(processes, "_draw_blocks", never)
    monkeypatch.setattr(processes, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"3 paths of 1024 steps.*lower steps or paths"):
        gen(spec, 1.0, 1024, paths=3)


def test_bm_preflight_raises_before_allocating(monkeypatch):
    # gen_bm takes the same preflight as the Hermite generators: its
    # output at 9 bytes a point, plus one block.
    need = processes._lattice_bytes(None, 64, 64, 100)
    monkeypatch.setattr(processes, "_physical_memory", lambda: need)
    assert gen_bm(1.0, 64, paths=100).values.shape == (100, 65)

    def never(*args, **kwargs):
        raise AssertionError("the driver was allocated")

    monkeypatch.setattr(processes, "_draw_blocks", never)
    for memory in (need - 1, 1000):
        monkeypatch.setattr(processes, "_physical_memory", lambda: memory)
        with pytest.raises(ValueError, match=r"100 paths of 64 steps.*lower steps or paths"):
            gen_bm(1.0, 64, paths=100)


def test_hou_holds_its_output_and_one_block():
    # 200 paths of 1,024 steps after 20,480 steps of history: the output is
    # 1.6 MiB and a block one 21,505-point row.  Holding the (200, 21,505)
    # history, as the driver and as numpy's copy of it while its increments
    # were written over it, took 65.6 MiB.
    processes._half_spectrum_scale.cache_clear()
    tracemalloc.start()
    try:
        gen_hou(HouSpec(1.0, 1.0), HermiteSpec(0.75), 1.0, 1024, paths=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    assert "7.8 GiB" in str(err.value)
