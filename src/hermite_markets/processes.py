"""Sample-path generators for Hermite fractional processes.

Drivers supported: Brownian motion, fractional Gaussian noise (FGN),
fractional Brownian motion (FBM), higher-rank Hermite processes (rank 2 is
the Rosenblatt process), mixtures of independent Hermite components sharing
one Hurst index, and a Hermite-driven Ornstein-Uhlenbeck process.

Construction notes
------------------
FGN is sampled exactly by circulant embedding of its autocovariance: each
path's unit normals fill the Hermitian half of a spectrum, and one real
inverse FFT maps them to the sequence.  A rank-``kappa`` Hermite process
with Hurst index ``H``, ``kappa >= 2``, is approximated by partial sums of
the rank-``kappa`` Hermite polynomial applied to an inner FGN whose Hurst
index is ``(H - 1)/kappa + 1``; the sums run on a lattice ``approx_factor``
times finer than the output grid and are divided by their exact standard
deviation on that lattice, so the variance at t = 1 is one.  Rank 1 (FBM)
is drawn exactly on the output grid instead: the partial sums of a finer
lattice, sampled on the grid, have the same law, so ``approx_factor``
plays no part.

Every path derives its own random stream from ``(seed, path index,
component index)``, so ensembles can be generated in any order, split
across workers, and reassembled by index with bit-identical results.

Memory
------
Every draw but ``gen_fgn``'s, which calls ``_fgn_transform`` directly,
goes through one iterator, ``_draw_blocks``, in blocks of
``_BLOCK_ENTRIES`` = 2**15 prices (or one path), which ``_drawn``, the one
body of ``gen_bm``, ``gen_fbm``, ``gen_hermite`` and ``gen_mixed``, adds
into their output, each component times its weight, and the strategies'
demos price in place.  Seed words are hashed ``_HASH_PATHS`` = 1,024
paths at a time.  A block that holds a Hermite driver is also one FFT
batch of its inner FGN lattice, at most ``_CHUNK_ENTRIES`` = 2**18
normals (rows x 2 count, or one path).  The block and its work arrays, 32 bytes per row and lattice point (the
normals, which the inverse transform overwrites, and the complex half
spectrum), are allocated once per call and refilled; ranks of 2 and more
add one block's Hermite terms, 8 to 40 bytes.  So a call holds its output
plus one block: a rank-2 lattice of 32,768 points takes 4 rows a block,
about 5 MiB.  That holds for ``gen_hou`` with no exception: it runs the OU
recursion over each block's driver, history included, and keeps only the
output's columns.  Before a Hermite generator or ``gen_fgn`` allocates,
``_lattice_bytes`` estimates what it will hold, and it refuses a draw
larger than physical memory.  The block size changes no bit.  Each
driver has one kernel, writing into arrays and from seed words it is
passed: ``_bm_walk`` for Brownian motion and ``_hermite_rows`` for every
rank.
"""

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "CirculantEmbeddingError",
    "HermiteSpec",
    "MixedHermiteSpec",
    "HouSpec",
    "SamplePath",
    "path_rng",
    "derive_seeds",
    "hermite_poly",
    "gen_fgn",
    "gen_bm",
    "gen_fbm",
    "gen_hermite",
    "gen_mixed",
    "gen_hou",
]

# Bound on the rows x 2 count entries drawn and transformed per FFT batch.
_CHUNK_ENTRIES = 1 << 18
# Prices per block of paths drawn or charged: a few such arrays fit in L2.
_BLOCK_ENTRIES = 1 << 15
# Paths hashed at once: hashing one costs about as much as a few hundred.
_HASH_PATHS = 1 << 10
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_EIG_TOL = -1e-10


class CirculantEmbeddingError(RuntimeError):
    """The circulant embedding of the FGN autocovariance failed.

    Raised when an embedding eigenvalue is negative beyond roundoff; the
    offending eigenvalue is kept on the exception.
    """

    def __init__(self, eigenvalue):
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"circulant embedding not nonnegative definite: "
            f"min eigenvalue {self.eigenvalue:.6e}"
        )


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _finite(**values):
    """ValueError naming the first of ``values`` that is not finite; a list must be finite throughout."""
    for name, value in values.items():
        if not (all(map(math.isfinite, value)) if isinstance(value, list) else math.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def _integer(name, value, least):
    """``value`` as an int: a Python or numpy integer, never a bool, of at least ``least``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


def _hurst(value, name="hurst"):
    """ValueError naming ``name`` unless ``value`` lies in (1/2, 1), the paper's range."""
    _require(0.5 < value < 1.0, f"{name} must lie in (1/2, 1), got {value}")


@dataclass(frozen=True)
class HermiteSpec:
    """Parameters of one Hermite process.

    Attributes
    ----------
    hurst : float
        Self-similarity index H, strictly inside (1/2, 1).
    rank : int
        Hermite rank kappa >= 1.  Rank 1 is FBM, rank 2 Rosenblatt.
    approx_factor : int
        Inner lattice points per output step in the partial-sum scheme.
        Ignored for rank 1, which is drawn exactly on the output grid.
    """

    hurst: float
    rank: int = 1
    approx_factor: int = 32

    def __post_init__(self):
        _hurst(self.hurst)
        for name in ("rank", "approx_factor"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))

    @property
    def inner_hurst(self):
        """Hurst index of the inner Gaussian sequence, (H - 1)/rank + 1."""
        return (self.hurst - 1.0) / self.rank + 1.0


@dataclass(frozen=True)
class MixedHermiteSpec:
    """Finite mixture sum_i w_i * H^(H, rank_i) of independent components.

    ``components`` is a tuple of (weight, rank) pairs; the squared weights
    must sum to one so the mixture keeps unit variance at t = 1.
    """

    hurst: float
    components: tuple
    approx_factor: int = HermiteSpec.approx_factor

    def __post_init__(self):
        _require(len(self.components) >= 1, "at least one component is required")
        sq = 0.0
        components = []
        for index, (weight, _) in enumerate(self.components):
            _require(weight > 0, f"component weights must be positive, got {weight}")
            spec = self.component_spec(index)
            components.append((weight, spec.rank))
            try:
                weight = float(weight)
            except OverflowError:  # an int past the float range
                weight = math.inf
            sq += weight * weight  # inf, not OverflowError, past 1e154
        _require(abs(sq - 1.0) <= 1e-12, f"squared weights must sum to 1 within 1e-12, got {sq!r}")
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "approx_factor", spec.approx_factor)

    def component_spec(self, index):
        """HermiteSpec of component ``index``; building it validates the component."""
        _, rank = self.components[index]
        return HermiteSpec(self.hurst, rank, self.approx_factor)


@dataclass(frozen=True)
class HouSpec:
    """Hermite-driven Ornstein-Uhlenbeck parameters.

    The process is sigma * integral of exp(-lam (t - u)) against the driver
    over (-T0, t]; ``history_truncation`` is T0 and defaults to 20/lam.
    """

    lam: float
    sigma: float
    history_truncation: float = None

    def __post_init__(self):
        _finite(lam=self.lam, sigma=self.sigma)
        _require(self.lam > 0, f"lam must be positive, got {self.lam}")
        _require(self.sigma >= 0, f"sigma must be nonnegative, got {self.sigma}")
        if self.history_truncation is None:
            object.__setattr__(self, "history_truncation", 20.0 / self.lam)
            _require(math.isfinite(self.history_truncation), "lam must make the default "
                     f"history_truncation, 20 / lam, finite, got {self.lam}")
        _finite(history_truncation=self.history_truncation)
        _require(self.history_truncation > 0,
                 f"history_truncation must be positive, got {self.history_truncation}")


@dataclass
class SamplePath:
    """Realizations of a process on a uniform grid over [0, horizon].

    ``values`` has shape (series, steps + 1); a row is one path, or one
    asset when the object carries a multi-asset price system.  ``meta``
    holds the generating parameters and is what the JSON sidecar stores.
    """

    horizon: float
    steps: int
    values: np.ndarray
    seed: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _finite(horizon=self.horizon)
        _require(self.horizon > 0, f"horizon must be positive, got {self.horizon}")
        self.steps = _integer("steps", self.steps, 1)
        _require(self.values.ndim == 2, "values must be a 2-D array (series, steps + 1)")
        _require(self.values.shape[1] == self.steps + 1,
                 f"values must have steps + 1 = {self.steps + 1} columns, got {self.values.shape[1]}")
        if not np.isfinite(self.values).all():
            raise ValueError("values contain non-finite entries")

    @property
    def times(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)

    @property
    def n_paths(self):
        return self.values.shape[0]

    def single(self):
        _require(self.n_paths == 1, f"expected a single path, object holds {self.n_paths}")
        return self.values[0]


# ---------------------------------------------------------------------------
# seeding

def path_rng(seed, path_index, component=0):
    """Independent generator for one path of one driver component.

    The generators seed all their paths in one vectorised pass instead of
    calling this per path; they draw the same normals, and this function
    is the reference the tests compare them against.
    """
    ss = np.random.SeedSequence(entropy=_integer("seed", seed, 0),
                                spawn_key=(_integer("path_index", path_index, 0),
                                           _integer("component", component, 0)))
    return np.random.default_rng(ss)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), run once for
# all paths at a time: one SeedSequence per path costs about twice the
# draws of a 512-step path.  numpy hashes the seed, whose words come first
# in every path's entropy; the generators mix in each path's and
# component's words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value):
    """SeedSequence's coding of a nonnegative int: 32-bit words, low first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(init, mult, first, n):
    """Hash constants ``first`` to ``first + n - 1`` as (xor, multiplier) (n, 1) uint32 columns.

    Constant k is ``init * mult**k`` mod 2**32, and each one's multiplier
    is the constant after it.
    """
    consts = [init * pow(mult, first, 1 << 32) & _MASK32]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _stream_states(seed, path_indices, component):
    """PCG64 seed words of ``path_rng(seed, p, component)``, one row per p.

    A path's entropy is the seed's words, zero-padded to the pool size,
    then the path's and the component's.  numpy hashes 0 past the end of a
    bare seed too, so every path starts from ``SeedSequence(seed).pool``;
    the seed took hash constants 0 to 15 and four more per word past the
    fourth.  The path's words and then the component's are mixed into the
    four pool words of every path at once, a (4, paths) array.  Path
    indices must lie below 2**64; numpy codes those of 2**32 and above in
    two words, so the rows are hashed in two groups.
    """
    seed = _integer("seed", seed, 0)
    first = 4 * (_POOL_SIZE + max(0, len(_uint32_words(seed)) - _POOL_SIZE))
    tail = _uint32_words(_integer("component", component, 0))
    start = np.random.SeedSequence(seed).pool[:, None]
    try:
        paths = np.asarray(path_indices, dtype=np.uint64)
    except OverflowError:
        raise ValueError("path indices must be integers in [0, 2**64)") from None
    states = np.empty((len(paths), 4), dtype=np.uint64)
    low = (paths & np.uint64(_MASK32)).astype(np.uint32)
    high = (paths >> np.uint64(32)).astype(np.uint32)
    for wide in (False, True):
        rows = np.flatnonzero((high != 0) == wide)
        if len(rows) == 0:
            continue
        words = ([low[rows], high[rows]] if wide else [low[rows]]) + tail
        pool = start
        for i, word in enumerate(words):
            mixed = _hashmix(word, *_hash_constants(_INIT_A, _MULT_A, first + 4 * i, 4))
            pool = _MIX_L * pool - _MIX_R * mixed
            pool ^= pool >> 16
        halves = _hashmix(np.tile(pool, (2, 1)), *_hash_constants(_INIT_B, _MULT_B, 0, 8))
        halves = halves.astype(np.uint64)
        states[rows] = (halves[0::2] | (halves[1::2] << np.uint64(32))).T
    return states


class _SeedWords(ISeedSequence):
    """Seed words computed beforehand, handed to PCG64 as a seed sequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (4, np.dtype(np.uint64)):
            raise NotImplementedError("only PCG64's four uint64 seed words are precomputed")
        return self.words


def _fill_normals(out, words):
    """Fill row i of ``out`` with the normals of the stream whose seed words are ``words[i]``."""
    for row, seed_words in zip(out, words):
        np.random.Generator(np.random.PCG64(_SeedWords(seed_words))).standard_normal(out=row)


def derive_seeds(seed, count):
    """Split one base seed into ``count`` independent integer sub-seeds."""
    children = np.random.SeedSequence(_integer("seed", seed, 0)).spawn(_integer("count", count, 0))
    return [int(child.generate_state(1)[0]) for child in children]


# ---------------------------------------------------------------------------
# fractional Gaussian noise by circulant embedding

def _fgn_autocov(hurst, lags):
    k = np.asarray(lags, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h)


@lru_cache(maxsize=64)
def _half_spectrum_scale(hurst, count):
    """Per-frequency factors taking unit normals to the FGN half spectrum.

    The circulant of size m = 2 count embeds the autocovariance with
    gamma(count) in its middle (Davies-Harte): a 0 there loses nonnegative
    definiteness for H near 1, and the eigenvalue check below still guards
    this form.  The circulant is symmetric, so its eigenvalues are real and
    mirror around count; the first count + 1 of them, times m for the
    inverse FFT's 1/m, and halved in variance where a frequency carries a
    real and an imaginary normal, are all the transform needs.
    """
    acov = _fgn_autocov(hurst, np.arange(count + 1))
    row = np.concatenate([acov, acov[count - 1:0:-1]])
    eigs = np.fft.rfft(row).real
    worst = eigs.min()
    if worst < _EIG_TOL:
        raise CirculantEmbeddingError(worst)
    scale = np.sqrt(np.clip(eigs, 0.0, None) * (2 * count))
    scale[1:count] *= _INV_SQRT2
    scale.setflags(write=False)
    return scale


def _block_rows(row_entries, budget=None):
    """Rows of ``row_entries`` entries that fit in ``budget`` entries, a block's by default; at least one."""
    budget = _BLOCK_ENTRIES if budget is None else budget
    return max(1, budget // max(row_entries, 1))


def _fgn_transform(hurst, draws, half, out):
    """Exact FGN rows from rows of 2 count unit normals; linear in ``draws``.

    Normal 0 and normal 1 are the real zero and Nyquist frequencies,
    normals 2..count the real parts and count+1..2 count-1 the imaginary
    parts of frequencies 1..count-1 (Davies-Harte, in real-FFT form).
    ``half``, complex of shape (rows, count + 1), and ``out``, of shape
    (rows, 2 count), are the work arrays it fills, and the result is a view
    of ``out``.  ``out`` may be ``draws`` itself: the half spectrum is
    filled before the transform writes.
    """
    rows, m = draws.shape
    count = m // 2
    scale = _half_spectrum_scale(hurst, count)
    re, im = half.real, half.imag
    np.multiply(draws[:, 0], scale[0], out=re[:, 0])
    np.multiply(draws[:, 1], scale[count], out=re[:, count])
    np.multiply(draws[:, 2:count + 1], scale[1:count], out=re[:, 1:count])
    im[:, 0] = im[:, count] = 0.0
    np.multiply(draws[:, count + 1:], scale[1:count], out=im[:, 1:count])
    return np.fft.irfft(half, n=m, axis=1, out=out)[:, :count]


def gen_fgn(inner_hurst, count, seed=0):
    """One exact zero-mean, unit-variance FGN sequence of length ``count``.

    The autocovariance at lag k is (|k+1|^2H' + |k-1|^2H' - 2|k|^2H')/2 for
    Hurst index H' = ``inner_hurst``.  Fails loudly if the circulant
    embedding has an eigenvalue below -1e-10, and refuses a ``count`` whose
    lattice would not fit in physical memory before it allocates.
    """
    _hurst(inner_hurst, "inner_hurst")
    count = _integer("count", count, 1)
    _check_memory(f"gen_fgn of {count} points",
                  _lattice_bytes(HermiteSpec(inner_hurst), count, count, 1), "lower count")
    draws = np.empty((1, 2 * count))
    _fill_normals(draws, _stream_states(seed, [0], 0))
    return _fgn_transform(inner_hurst, draws, np.empty((1, count + 1), complex), draws)[0]


# ---------------------------------------------------------------------------
# Hermite polynomials and the partial-sum normalizer

def hermite_poly(order, x):
    """Probabilists' Hermite polynomial He_order(x), three-term recurrence."""
    order = _integer("order", order, 0)
    arr = np.asarray(x, dtype=float)
    if order == 0:
        return np.ones_like(arr) if arr.ndim else 1.0
    if order == 1:
        return arr.copy() if arr.ndim else float(arr)
    prev, cur = 1.0, arr
    for m in range(1, order):
        prev, cur = cur, arr * cur - m * prev
    return cur if arr.ndim else float(cur)


@lru_cache(maxsize=128)
def _raw_sum_std(inner_hurst, rank, count):
    """Exact std of sum_{j<=count} He_rank(xi_j) for FGN xi.

    Uses E[He_k(X) He_k(Y)] = k! corr(X, Y)^k, so the variance is the exact
    double sum of the lagged autocovariance raised to the rank.
    """
    lags = np.arange(count, dtype=float)
    rho = _fgn_autocov(inner_hurst, lags)
    weights = np.empty(count)
    weights[0] = count
    weights[1:] = 2.0 * (count - lags[1:])
    variance = math.factorial(rank) * float(np.dot(weights, rho ** rank))
    return math.sqrt(variance)


# ---------------------------------------------------------------------------
# generators

def _check_grid(horizon, steps, paths, seed, path_offset=0):
    """``steps``, ``paths``, ``seed`` and ``path_offset`` as ints, once the grid is checked."""
    _finite(horizon=horizon)
    _require(horizon > 0, f"horizon must be positive, got {horizon}")
    return (_integer("steps", steps, 1), _integer("paths", paths, 1), _integer("seed", seed, 0),
            _integer("path_offset", path_offset, 0))


def _bm_walk(values, words, dt_root):
    """Brownian rows into ``values`` (rows, steps + 1), row i from the stream of ``words[i]``."""
    values[:, 0] = 0.0
    walk = values[:, 1:]
    _fill_normals(walk, words)
    np.cumsum(walk, axis=1, out=walk)
    walk *= dt_root


def _meta(process, spec, paths, path_offset, **fields):
    """A draw's ``meta``: its process, ``spec``'s parameters, its paths and the caller's ``fields``."""
    params = {} if spec is None else {"hurst": spec.hurst, "approx_factor": spec.approx_factor}
    return dict(process=process, **params, paths=paths, path_offset=path_offset, **fields)


def gen_bm(horizon, steps, paths=1, seed=0, component=0, path_offset=0):
    """Standard Brownian motion, W(0) = 0, exact Gaussian increments."""
    component = _integer("component", component, 0)
    return _drawn("bm", None, [(None, component, 1)], horizon, steps, paths, seed, path_offset,
                  component=component)


def _require_fbm(spec):
    """Refuse anything but the rank-1 HermiteSpec that gen_fbm draws."""
    _require(isinstance(spec, HermiteSpec), "spec must be a HermiteSpec")
    _require(spec.rank == 1, f"gen_fbm requires rank 1, got rank {spec.rank}")


def gen_fbm(spec, horizon, steps, paths=1, seed=0, component=0, path_offset=0):
    """FBM by cumulative sums of scaled FGN; exact Gaussian law on the grid.

    This is the rank-1 case of gen_hermite: ``spec.approx_factor`` has no
    effect, and the paths equal gen_hermite's for the same seed.
    """
    _require_fbm(spec)
    component = _integer("component", component, 0)
    return _drawn("fbm", spec, [(spec, component, 1)], horizon, steps, paths, seed, path_offset,
                  rank=1, component=component)


def _lattice_factor(spec):
    """Inner lattice points per output step.

    Rank-1 partial sums are inner-lattice FBM sampled every approx_factor
    points, and their exact standard deviation is n_inner**hurst; by
    self-similarity that is FBM drawn on the output grid, exactly in law,
    whatever approx_factor is.
    """
    return 1 if spec.rank == 1 else spec.approx_factor


def _hermite_scale(spec, horizon, steps):
    """Factor taking the partial sums of the inner lattice to the process on [0, horizon]."""
    if spec.rank == 1:
        return (horizon / steps) ** spec.hurst
    std = _raw_sum_std(spec.inner_hurst, spec.rank, spec.approx_factor * steps)
    return horizon ** spec.hurst * (1.0 / std)


def _driver_rows(spec, steps):
    """Paths in a block of driver ``spec``: ``_BLOCK_ENTRIES`` prices, and one FFT batch at most."""
    rows = _block_rows(steps + 1)
    if spec is not None:
        rows = min(rows, _block_rows(2 * _lattice_factor(spec) * steps, _CHUNK_ENTRIES))
    return rows


def _fft_work(spec, steps, rows, floats=0):
    """Work arrays to draw ``rows`` paths of ``spec`` in one FFT batch: (draws, half, memory).

    ``draws`` (rows, 2 n) holds the normals and ``half`` (rows, n + 1) the
    complex half spectrum, n inner lattice points; both are views of
    ``memory``, a flat float array of at least ``floats`` entries that a
    caller may use for anything once the rows are drawn.  The eigenvalues
    are built, and the embedding checked, before the memory exists.
    """
    n_inner = _lattice_factor(spec) * steps
    _half_spectrum_scale(spec.inner_hurst, n_inner)
    spectrum = rows * (n_inner + 1)
    memory = np.empty(max(spectrum + rows * n_inner, -(-floats // 2)), dtype=np.complex128)
    half = memory[:spectrum].reshape(rows, n_inner + 1)
    draws = memory[spectrum:spectrum + rows * n_inner].view(np.float64)
    return draws.reshape(rows, 2 * n_inner), half, memory.view(np.float64)


def _hermite_rows(spec, scale, values, words, draws, half):
    """Rows of ``spec`` into ``values`` (rows, steps + 1), row i from the stream of ``words[i]``.

    The rows are one FFT batch in the work arrays ``draws`` and ``half`` of
    as many rows (see ``_fft_work``): filled with normals, transformed to
    FGN over the normals, mapped to Hermite terms, summed, and sampled on
    the grid times ``scale``.
    """
    factor = _lattice_factor(spec)
    _fill_normals(draws, words)
    fgn = _fgn_transform(spec.inner_hurst, draws, half, draws)
    terms = fgn if spec.rank == 1 else hermite_poly(spec.rank, fgn)
    np.cumsum(terms, axis=1, out=terms)
    values[:, 0] = 0.0
    np.multiply(terms[:, factor - 1::factor], scale, out=values[:, 1:])


def _draw_blocks(drivers, paths, steps, horizon, path_offset=0, spare=0):
    """(start, stop, driver values, spare arrays) for each block of paths, in order.

    ``drivers`` lists (spec, seed, component): spec None draws gen_bm's
    Brownian motion and a HermiteSpec (at most one) gen_hermite's process,
    path p from the stream path_rng(seed, path_offset + p, component).  A
    block's driver values are (drivers, rows, steps + 1), one FFT batch of
    a Hermite driver (``_driver_rows``); its ``spare`` arrays, of the same
    shape, share memory with the FFT work arrays and are free once the
    block is drawn.  Every array is allocated for the first block and
    refilled by every later one (a shorter block uses their leading rows),
    so its pages are not handed back and faulted in again.  Seed words are
    hashed in whole blocks, as many as fit in ``_HASH_PATHS`` paths.
    """
    hermite = next((spec for spec, _, _ in drivers if spec is not None), None)
    _require(hermite is None or isinstance(hermite, HermiteSpec), "spec must be a HermiteSpec")
    block = _driver_rows(hermite, steps)
    rows = min(paths, block)
    values = np.empty((len(drivers), rows, steps + 1))
    floats = spare * rows * (steps + 1)
    if hermite is None:
        memory = np.empty(floats)
    else:
        draws, half, memory = _fft_work(hermite, steps, rows, floats)
        scale = _hermite_scale(hermite, horizon, steps)
    spares = memory[:floats].reshape(spare, rows, steps + 1)
    dt_root = math.sqrt(horizon / steps)
    per_chunk = block * max(1, _HASH_PATHS // block)
    for first in range(0, paths, per_chunk):
        last = min(first + per_chunk, paths)
        indices = range(path_offset + first, path_offset + last)
        words = [_stream_states(seed, indices, component) for _, seed, component in drivers]
        for start in range(first, last, block):
            stop = min(start + block, last)
            n = stop - start
            for (spec, _, _), out, chunk in zip(drivers, values[:, :n], words):
                block_words = chunk[start - first:stop - first]
                if spec is None:
                    _bm_walk(out, block_words, dt_root)
                else:
                    _hermite_rows(spec, scale, out, block_words, draws[:n], half[:n])
            yield start, stop, values[:, :n], spares[:, :n]


def _drawn(process, spec, drivers, horizon, steps, paths, seed, path_offset, **fields):
    """The SamplePath of the sum of the ``_draw_blocks`` drivers (spec, component, weight).

    The grid is checked, and physical memory asked for the output once and
    the largest driver's block (a None spec is Brownian motion), before
    anything is allocated.  ``process``, ``spec`` and ``fields`` make its
    ``meta``.
    """
    steps, paths, seed, path_offset = _check_grid(horizon, steps, paths, seed, path_offset)
    _check_memory(f"drawing {paths} paths of {steps} steps",
                  max(_lattice_bytes(driver, steps, steps, paths) for driver, _, _ in drivers),
                  "lower steps or paths")
    values = np.zeros((paths, steps + 1))
    for driver, component, weight in drivers:
        for start, stop, (rows,), _ in _draw_blocks([(driver, seed, component)], paths, steps,
                                                    horizon, path_offset):
            if weight != 1:
                rows *= weight
            values[start:stop] += rows
    return SamplePath(horizon, steps, values, seed,
                      meta=_meta(process, spec, paths, path_offset, **fields))


def gen_hermite(spec, horizon, steps, paths=1, seed=0, path_offset=0):
    """Rank-``spec.rank`` Hermite process by the partial-sum construction.

    The value at grid time t is the normalized sum of He_rank over the
    first floor(n t / horizon) inner lattice points, n = approx_factor *
    steps, rescaled by horizon**hurst through self-similarity.  Paths start
    at exactly 0.
    """
    _require(isinstance(spec, HermiteSpec), "spec must be a HermiteSpec")
    return _drawn("hermite", spec, [(spec, 0, 1)], horizon, steps, paths, seed, path_offset,
                  rank=spec.rank)


def gen_mixed(spec, horizon, steps, paths=1, seed=0, path_offset=0):
    """Weighted sum of independent Hermite components, one Hurst index.

    Component i draws from the stream (seed, path index, i), so a
    single-component mixture with weight 1 reproduces gen_hermite exactly.
    """
    _require(isinstance(spec, MixedHermiteSpec), "spec must be a MixedHermiteSpec")
    drivers = [(spec.component_spec(i), i, weight) for i, (weight, _) in enumerate(spec.components)]
    return _drawn("mixed", spec, drivers, horizon, steps, paths, seed, path_offset,
                  weights=[w for w, _ in spec.components], ranks=[r for _, r in spec.components])


def _lattice_bytes(spec, total, steps, paths):
    """Bytes a draw of driver ``spec`` over ``total`` grid steps holds at once, an over-estimate.

    The (paths, steps + 1) output, the last steps + 1 points of each path,
    9 bytes a point with SamplePath's finiteness mask, and one block: the
    driver's (rows, total + 1) values and, for a Hermite ``spec`` (None is
    Brownian motion), its work arrays (gen_hou writes its OU values over
    the first and its increments into the second).  The circulant's
    eigenvalues take about 56 bytes per inner lattice point, before the
    work arrays exist: per row and inner point, 16 bytes each for the
    normals and the half spectrum, and for rank >= 2 up to five arrays of
    Hermite terms from He_rank's recurrence, 40 more.  A ufunc over rows
    that are not contiguous buffers 8,192 elements of each of its three
    operands, up to 16 bytes each, whatever the block's size.
    """
    rows = min(paths, _driver_rows(spec, total))
    need = 9 * paths * (steps + 1) + 8 * rows * (total + 1) + 3 * 8192 * 16
    if spec is not None:
        per_row = 32 if spec.rank == 1 else 72
        need += (56 + per_row * rows) * total * _lattice_factor(spec)
    return need


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(what, need, remedy):
    """ValueError ending in ``remedy`` when ``need`` bytes exceed physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        need_gib = f"{need / 2**30:.1f}" if need < 2**50 else f"{need / 2**30:.3g}"
        raise ValueError(f"{what} would need about {need_gib} GiB, more than the "
                         f"{have / 2**30:.1f} GiB of physical memory; {remedy}")


# A sigma near the largest float overflows the recursion; the finite check
# at the end names it, where numpy's warnings would name no parameter.
@np.errstate(over="ignore", invalid="ignore")
def gen_hou(spec, hermite, horizon, steps, paths=1, seed=0, path_offset=0):
    """Hermite-driven Ornstein-Uhlenbeck process on [0, horizon].

    The moving-average integral is taken left-point over a driver simulated
    from time -T0 (T0 = spec.history_truncation, grid-aligned upward), so
    the time-0 value already carries the truncated stationary history and
    is generally nonzero.
    """
    _require(isinstance(spec, HouSpec), "spec must be a HouSpec")
    _require(isinstance(hermite, HermiteSpec), "hermite must be a HermiteSpec")
    steps, paths, seed, path_offset = _check_grid(horizon, steps, paths, seed, path_offset)
    dt = horizon / steps
    history = spec.history_truncation / dt
    remedy = (f"raise ou_lambda ({spec.lam}) or horizon ({horizon}), or lower "
              f"history_truncation ({spec.history_truncation}) or steps ({steps})")
    _require(math.isfinite(history),
             f"gen_hou's history, history_truncation / dt = {spec.history_truncation:.6g} / "
             f"{dt:.6g} steps, is not finite; {remedy}")
    burn = math.ceil(history)
    total = burn + steps
    _check_memory(f"gen_hou for {paths} paths of {total:.6g} steps ({burn:.6g} of them history)",
                  _lattice_bytes(hermite, total, steps, paths), remedy)
    lam_dt = spec.lam * dt  # d = e**-lam_dt, the decay over one step
    span = total if lam_dt * total <= 512 else max(1, int(512 / lam_dt))  # d**-span <= e**512
    grow, shrink = np.exp(lam_dt * np.arange(span)), np.exp(-lam_dt * np.arange(1, span + 1))
    values = np.empty((paths, steps + 1))
    for start, stop, (ou,), (inc,) in _draw_blocks([(hermite, seed, 0)], paths, total,
                                                   total * dt, path_offset, spare=1):
        # ou[s+j] = d**j (ou[s] + sigma sum_{i<=j} d**(1-i) inc[s+i]), d**j before sigma and ou[s]
        np.subtract(ou[:, 1:], ou[:, :-1], out=inc[:, 1:])
        for s in range(0, total, span):
            terms, block = inc[:, s + 1:s + span + 1], ou[:, s + 1:s + span + 1]
            terms *= grow[:terms.shape[1]]
            np.cumsum(terms, axis=1, out=terms)
            terms *= shrink[:terms.shape[1]]
            terms *= spec.sigma
            np.multiply(ou[:, s:s + 1], shrink[:terms.shape[1]], out=block)
            block += terms
        values[start:stop] = ou[:, burn:]
    _require(np.isfinite(values).all(),
             f"gen_hou's values are not finite at ou_lambda = {spec.lam}, ou_sigma = {spec.sigma}; "
             "lower ou_sigma or raise ou_lambda")
    return SamplePath(horizon, steps, values, seed,
                      meta=_meta("hou", hermite, paths, path_offset, rank=hermite.rank,
                                 ou_lambda=spec.lam, ou_sigma=spec.sigma,
                                 history_truncation=spec.history_truncation))
