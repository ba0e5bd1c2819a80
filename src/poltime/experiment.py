"""Synthetic photon-counting runs of dip scans.

A scan steps the ancilla delay across a grid and records Poisson-distributed
coincidence counts with expectation N0 * R(delta).  Each point's count comes
from the counter-based stream point_rng(scan seed, point index), so any
subset of points can be evaluated in any order, or in parallel, without
changing the outcome.  Seeds are integers in [0, 2**64): a fractional, NaN
or boolean seed raises ValueError instead of being truncated.  derive_seeds
gives many streams' seeds from one master seed in one array pass.

sample_block runs the scans of one encoded state against many ancillas on
one grid, at one baseline and visibility, as one ScanTrace per scan.  Its
expectations are the seed-free block_model, one hom.scan_traces block of
(scans, points) expected counts; _draw_counts draws every count in one
array pass over the points' keys from their seed-free _draw_plan, which a
caller drawing one model at many seeds builds once.  That computes the
first Philox block of every key in exact array code and settles most
points there with numpy's transformed-rejection (PTRS) sampler, on the
block's two candidates at once: the quick test and reject rules, then the
log test only outside a guard band of 1e-9 of a bound on its terms'
magnitudes, which covers np.log's last bits and a cut Stirling series.
numpy's own sampler, one generator per thread reset to the point's key,
draws the rest.  Each count is the one point_rng gives, bit for bit.

sample_scan is its one-scan case, at a ScanConfig's checked grid and
seed.  read_dips reads one trace, and _read (scans, points) counts, at the
points read_points gives: each scan's baseline N0, the long-delay plateau
mean, and its counts at lags * tau; dip_depths is the one reading of them,
1 - n / N0 clipped to [0, 1].  reading_lags says which lags a scan reads;
a single-bin ancilla's scan yields two projections.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import hom
from .hilbert import PhotonState, _check_pure, _check_real

BASELINE_EXCLUSION_SIGMAS = 12.0
GRID_MATCH_RTOL = 1e-6
_OCCUPIED_TOL = 1e-12  # bin amplitude norm below which a bin counts as empty
_U64 = np.uint64
# Shift and mask operands are 0-d arrays: ufuncs take them with less
# overhead than Python or numpy scalars.
_LO32, _SHIFT32, _SHIFT11 = (np.array(c, dtype=_U64) for c in (0xFFFFFFFF, 32, 11))
# Philox4x64-10 (Random123) as two lanes, (2, 1) columns: the multipliers
# of words 0 and 2, also as 0-d arrays, and the Weyl increments of the key
# words, stacked with the multipliers' 32-bit halves for _philox_first_block.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=_U64)
_PHILOX_M0, _PHILOX_M1 = (row[0, ...] for row in _PHILOX_M)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=_U64)
_PHILOX_COLUMNS = np.concatenate([_PHILOX_W, _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32])
_PHILOX_ROUNDS = 10
_TO_UNIT = 1.0 / 9007199254740992.0  # numpy's next_double: (x >> 11) * 2**-53
_PTRS_MAX = 2.0**53  # larger means go to numpy's sampler, which bounds them
# numpy's random_loggam: the first 3 terms a[0..2] of its 10-term Stirling
# series, and log(2 pi).  For x >= 7 the other 7 sum to at most 7.2e-10.
_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04)
_LG2PI = 1.8378770664093453
# The PTRS log test's guard band, relative to its bound S' (_ptrs_settle).
_LOG_TEST_BAND, _LOG_TEST_SLACK = 1e-9, 130.0
_THREAD = threading.local()  # holds each thread's _reset_draws generator
_DrawPlan = NamedTuple("_DrawPlan", [(name, np.ndarray) for name in (  # see _draw_plan
    "means rows flat keys lam b a v_r log_ia log_lam fixed fixed_keys".split())])
# numpy's SeedSequence: hashmix call k xors a uint32 word with _HASH_A[k]
# and multiplies it by _HASH_A[k + 1]; readout word w likewise with _HASH_B.
_HASH_A, _HASH_B = (
    np.array([init * mult**k % 2**32 for k in range(17)], dtype=np.uint32)[:, None]
    for init, mult in ((0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED))
)
# Mixing pool word s into word d != s is call 4 + 3s + d - (d > s); row d = s
# is unused, and taking d >= s there keeps its index in range.
_SEED_MIX = [
    (_HASH_A[k], _HASH_A[k + 1])
    for k in (4 + 3 * s + np.arange(4) - (np.arange(4) >= s) for s in range(4))
]
_MIX_L, _MIX_R, _SHIFT16 = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = words ^ xor
    words *= mult
    words ^= words >> _SHIFT16
    return words


def derive_seeds(master_seed: int, streams) -> np.ndarray:
    """Entry j is SeedSequence((master_seed, streams[j])).generate_state(1,
    np.uint64)[0], for all streams in one uint32 array pass.  SeedSequence
    takes the master's words, then the stream's, low word first, padded
    with zeros to its pool of 4; each takes at most 2, so the padding is
    exact.  Master and streams must pass the scan seeds' check, which a
    range of streams passes if its first and last do."""
    master = _check_seed(master_seed)
    if not isinstance(streams, range):
        streams = [_check_seed(s) for s in streams]
    elif streams:
        _check_seed(streams[0]), _check_seed(streams[-1])
    streams = np.array(streams, dtype=_U64)
    head = [master & 0xFFFFFFFF, master >> 32][: 1 + (master >> 32 > 0)]
    words = np.zeros((4, streams.size), dtype=np.uint32)
    words[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    words[len(head) : len(head) + 2] = streams & _LO32, streams >> _SHIFT32
    pool = _hashmix(words, _HASH_A[:4], _HASH_A[1:5])
    for s, (xor, mult) in enumerate(_SEED_MIX):
        mixed = _MIX_L * pool - _MIX_R * _hashmix(pool[s], xor, mult)
        mixed ^= mixed >> _SHIFT16
        mixed[s] = pool[s]
        pool = mixed
    low, high = _hashmix(pool[:2], _HASH_B[:2], _HASH_B[1:3]).astype(_U64)
    return low | high << _SHIFT32


def point_rng(seed: int, point_index: int) -> np.random.Generator:
    """Counter-based generator for one scan point: Philox keyed by
    (seed, point_index), counter at zero.  This defines the count stream;
    sampling draws it through _draw_counts, which reproduces it draw for
    draw."""
    key = np.array([int(seed), int(point_index)], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


def _reset_draws(keys, means) -> list:
    """rng.poisson(m) for each ((seed, index), m) pair, drawn by this
    thread's one Philox, whose state is reset to the fresh state of key
    (seed, index) before each draw: equal to point_rng(seed, index).poisson(m).
    The generator is built on a thread's first call and kept, because a new
    one costs more than a few draws (a new Philox also seeds an unused
    SeedSequence from OS entropy); the reset leaves it no state of its own
    between draws.  m may be an array, drawn in sequence from the one key.
    """
    generator = getattr(_THREAD, "reset_generator", None)
    if generator is None:
        bit_gen = np.random.Philox(key=[0, 0])
        generator = _THREAD.reset_generator = bit_gen, np.random.Generator(bit_gen)
    bit_gen, rng = generator
    # The state setter reads Python ints faster than numpy scalars.
    key = [0, 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = []
    for (seed, index), m in zip(keys, means):
        key[0], key[1] = int(seed), int(index)
        bit_gen.state = fresh
        draws.append(rng.poisson(m))
    return draws


def _philox_first_block(seeds: np.ndarray, indices: np.ndarray) -> tuple:
    """The four words of Philox4x64-10 at counter (1, 0, 0, 0) for keys
    (seeds[j], indices[j]), the first block a fresh numpy Philox with that
    key emits (Salmon et al., SC'11), as two (2, n) arrays x and y: words 0
    and 2 are the rows of x, words 1 and 3 those of y, so column j of row c
    holds the two words of point j's PTRS candidate c.  The rows are the
    two multiply lanes, and the key words are stacked the same way.  Round
    0 is folded: at this counter it yields (k0, 0, k1, M0).  The high words
    of the 128-bit products are assembled from products of 32-bit halves,
    which fit in uint64, in place in (2, n) buffers against constants
    repeated to (2, n): numpy runs contiguous operands faster than stride-0
    or reversed ones, so the lanes swap row by row into spare buffers."""
    key, n = np.stack([seeds, indices]), seeds.size
    weyl, m_lo, m_hi = np.repeat(_PHILOX_COLUMNS, n, axis=1).reshape(3, 2, n)
    x, (y, lo, hi, t, w) = key.copy(), np.empty((5, 2, n), dtype=_U64)
    y[0], y[1] = 0, _PHILOX_M0
    for _ in range(_PHILOX_ROUNDS - 1):
        key += weyl
        np.bitwise_and(x, _LO32, out=lo)
        np.right_shift(x, _SHIFT32, out=hi)
        np.multiply(m_lo, lo, out=t)
        t >>= _SHIFT32
        lo *= m_hi
        t += lo  # t = M_hi lo + (M_lo lo >> 32)
        np.bitwise_and(t, _LO32, out=w)
        np.multiply(m_lo, hi, out=lo)
        w += lo  # w = (t & 0xFFFFFFFF) + M_lo hi
        w >>= _SHIFT32
        t >>= _SHIFT32
        hi *= m_hi
        hi += t
        hi += w  # the high word of M x
        # Swap lanes: x = the other's high word ^ y ^ key, y = its low word.
        np.multiply(x[1], _PHILOX_M1, out=lo[0])
        np.multiply(x[0], _PHILOX_M0, out=lo[1])
        np.bitwise_xor(hi[1], y[0], out=t[0])
        np.bitwise_xor(hi[0], y[1], out=t[1])
        t ^= key
        x, y, t, lo = t, lo, x, y
    return x, y


def _draw_plan(means, points=None) -> _DrawPlan:
    """What a draw of the (rows, points) means reads that no seed changes,
    points[i] the grid index of column i, i by default: of each PTRS point,
    10 <= lam <= _PTRS_MAX, its row, flat index, grid key, lam, and numpy's
    b, a, v_r, log(invalpha) and log(lam); the flat indices and keys of the
    rest, which numpy's sampler draws whatever the seed."""
    width = means.shape[1]
    index = np.arange(width, dtype=_U64) if points is None else np.asarray(points, _U64)
    ptrs = (means >= 10.0) & (means <= _PTRS_MAX)
    flat, fixed = np.flatnonzero(ptrs), np.flatnonzero(~ptrs)
    lam = means.take(flat)
    b = 0.931 + 2.53 * np.sqrt(lam)
    a, v_r = -0.059 + 0.02483 * b, 0.9277 - 3.6224 / (b - 2.0)
    log_ia = np.log(1.1239 + 1.1328 / (b - 3.4))
    return _DrawPlan(
        means, flat // width, flat, index[flat % width], lam, b, a, v_r, log_ia, np.log(lam),
        fixed, index[fixed % width],
    )


def _ptrs_settle(plan: _DrawPlan, words) -> tuple:
    """PTRS on the first two candidates of each of the plan's PTRS points,
    from the four words of its first Philox block: the candidate k numpy
    returns, and the mask of the points where array code settles it.  A
    point is settled if numpy accepts its first candidate, or rejects the
    first and accepts the second; the rest are left to numpy's sampler.

    Both candidates go through one pass: row c of the (2, n) words is
    candidate c, numpy turns word_u into U + 0.5 and word_v into V, and the
    quick test and reject rules run on both rows at once, with each point's
    lam and the plan's a, b and v_r of it broadcast over them.  The log
    test runs only on the candidates they leave undecided, and on a second
    candidate only where the first failed its quick test.

    numpy's quick test and reject rules use only multiply, add, divide,
    sqrt, floor and compares, which give the same bits here.  Its log test

        log(V) + log(invalpha) - log(a / us**2 + b)
            <= -lam + k log(lam) - loggam(k + 1)

    runs here with numpy's random_loggam for k >= 6, where it has no
    recurrence, its Stirling series cut to 3 terms: at x = k + 1 >= 7 that
    moves it by at most 7.2e-10.  np.log may differ from libm's log by an
    ulp or two, so each side differs from numpy's by at most about ten ulps
    of S, the sum of the terms' magnitudes, plus the cut.  The test is
    settled only where |lhs - rhs| > _LOG_TEST_BAND * S', S' = 130 + lam +
    k log(lam) + (x - 1/2) log(x) + x >= S, as |log V| <= 37, |log
    invalpha| <= 1 and |log h| <= 90 there: the band is at least 1.3e-7,
    some 10**5 times the rounding and 180 times the cut.  k < 6, V = 0 and
    points inside it stay undecided.
    """
    word_u, word_v = words
    u = (word_u >> _SHIFT11) * _TO_UNIT - 0.5
    v = (word_v >> _SHIFT11) * _TO_UNIT
    us = 0.5 - np.abs(u)
    k = np.floor((2.0 * plan.a / us + plan.b) * u + plan.lam + 0.43)
    acc = (us >= 0.07) & (v <= plan.v_r)
    rej = ~acc & ((k < 0.0) | ((us < 0.013) & (v > us)))
    undecided = ~acc & ~rej & (k >= 6.0) & (v > 0.0)
    undecided[1] &= ~acc[0]
    c, i = np.nonzero(undecided)
    lam, a, b, us, kk = plan.lam[i], plan.a[i], plan.b[i], us[c, i], k[c, i]
    x = kk + 1.0
    x2 = (1.0 / x) * (1.0 / x)
    gl0 = (_LOGGAM_A[2] * x2 + _LOGGAM_A[1]) * x2 + _LOGGAM_A[0]
    log_x = np.log(x)
    k_loglam = kk * plan.log_lam[i]
    lhs = np.log(v[c, i]) + plan.log_ia[i] - np.log(a / (us * us) + b)
    rhs = -lam + k_loglam - (gl0 / x + 0.5 * _LG2PI + (x - 0.5) * log_x - x)
    scale = _LOG_TEST_SLACK + lam + k_loglam + (x - 0.5) * log_x + x
    sure = np.abs(lhs - rhs) > _LOG_TEST_BAND * scale
    acc[c, i] = sure & (lhs <= rhs)
    rej[c, i] = sure & (lhs > rhs)
    return np.where(acc[0], k[0], k[1]), acc[0] | (rej[0] & acc[1])


def _draw_counts(plan: _DrawPlan, seeds: np.ndarray) -> np.ndarray:
    """Poisson draws of the plan's (rows, points) means at uint64 seeds,
    keyed by (seed of the row, grid index): with points[i] the grid index
    of column i given to _draw_plan, column i of row r equals

        float(point_rng(seeds[r], points[i]).poisson(means[r, i]))

    numpy draws Poisson(lam >= 10) by transformed rejection, PTRS
    (Hoermann, 1993), whose candidates take the stream's doubles two at a
    time; the first Philox block of every key, computed here in exact
    uint64 array code, holds the first two candidates.  Each point takes one
    of two routes:

    1. array code, one pass over both candidates of every point
       (_ptrs_settle): numpy's quick test, which accepts about 3/4 of
       points at their first candidate, its reject rules and its log test,
       settled outside a guard band.  A point takes its first candidate if
       that is accepted, or its second (words 2 and 3 of the block) if the
       first is rejected and the second accepted;
    2. numpy's own sampler from the point's reset key, for the plan's fixed
       points (lam < 10, NaN, negative or huge means, which thus raise
       numpy's own ValueError) and the settle's leftovers: candidates below
       6, log tests inside the band and points that reject both candidates.

    On the CLI's default grid about 1.5% of the points at 10 <= lam take
    route 2, and when none do _reset_draws is never called.
    scripts/check_keyed_draws.py compares the two over 10^6 draws; numpy
    does not promise stable Generator streams, so rerun it after an upgrade.
    """
    out = np.empty(plan.means.shape)
    flat = out.reshape(-1)
    k, accept = _ptrs_settle(plan, _philox_first_block(seeds[plan.rows], plan.keys))
    flat[plan.flat[accept]] = k[accept]
    left = np.flatnonzero(~accept)
    at = np.concatenate([plan.fixed, plan.flat[left]])  # fixed first: bad means raise in order
    if at.size:
        rows = at // out.shape[1]
        keys = zip(seeds[rows].tolist(), plan.fixed_keys.tolist() + plan.keys[left].tolist())
        flat[at] = _reset_draws(keys, plan.means.take(at).tolist())
    return out


@dataclass(frozen=True)
class ScanConfig:
    """Delay grid and counting parameters of one scan."""

    delays: np.ndarray
    baseline_counts: float
    seed: int
    visibility: float = 1.0

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        if delays.ndim != 1 or delays.size < 3:
            raise ValueError("delay grid must be a 1-d array with at least 3 points")
        if not (np.diff(delays) > 0).all():
            raise ValueError("delay grid must be strictly increasing")
        delays = delays.copy()
        delays.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        if not 0 < _check_real("baseline_counts", self.baseline_counts) < np.inf:
            raise ValueError("baseline_counts must be positive and finite")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        hom._check_visibility(self.visibility)


def _check_seed(seed) -> int:
    """seed as an int.  Raises ValueError for a bool, NaN, any other value
    that is not an integral number, or one outside [0, 2**64)."""
    out_of_range = "seed must fit in an unsigned 64-bit integer"
    if isinstance(seed, (bool, np.bool_)):
        raise ValueError(f"seed must be an integer, not {seed!r}")
    try:
        value = int(seed)
    except OverflowError:  # an infinity
        raise ValueError(out_of_range) from None
    except (TypeError, ValueError):  # NaN, or not a number
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if value != seed:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= value < 2**64:
        raise ValueError(out_of_range)
    return value


@dataclass(frozen=True)
class ScanTrace:
    """Recorded counts of one scan, plus the model expectation for reference.
    delays and counts are kept as the float arrays that are checked."""

    delays: np.ndarray
    counts: np.ndarray
    expected: np.ndarray
    seed: int
    tau: float
    sigma_t: float
    n_bins: int
    noiseless: bool

    def __post_init__(self):
        for name in ("delays", "counts"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        delays, counts = self.delays, self.counts
        if counts.shape != delays.shape:
            raise ValueError("counts and delays must have matching shapes")
        if not ((counts >= 0) & (counts < np.inf)).all():  # NaN fails both comparisons
            raise ValueError("counts must be nonnegative and finite")
        if not self.noiseless and (counts != counts.round()).any():
            raise ValueError("sampled counts must be integers")


@dataclass(frozen=True)
class ProjectionReading:
    """Dip depth read at one lag of a trace: p_hat = 1 - R_hat."""

    lag: int
    p_hat: float


def default_delay_grid(
    tau: float, half_span: float = 8e-12, step: float = 5e-14
) -> np.ndarray:
    """Uniform grid over [-half_span, half_span] containing 0 and +-tau.

    The points nearest to the required lags are snapped onto them exactly so
    dip readings never interpolate.  Raises ValueError if an argument is not
    a real number (hilbert._check_real) or not finite, step is not positive,
    tau is not positive, half_span does not exceed tau, or two lags are
    nearest to one point.
    """
    args = {"tau": tau, "half_span": half_span, "step": step}
    tau, half_span, step = (_check_real(name, value) for name, value in args.items())
    if not step > 0:
        raise ValueError("grid step must be positive")
    for name, value in zip(args, (tau, half_span, step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if tau >= half_span:
        raise ValueError("half_span must exceed tau")
    n = int(round(half_span / step))
    grid = np.arange(-n, n + 1, dtype=float) * step
    snapped = [int(np.argmin(np.abs(grid - t))) for t in (-tau, 0.0, tau)]
    if len(set(snapped)) < 3:
        raise ValueError("grid step too coarse to snap the dip lags")
    grid[snapped] = -tau, 0.0, tau
    return grid


def compact_delay_grid(
    tau: float,
    sigma_t: float,
    n_bins: int = 2,
    baseline_points: int = 40,
    step: float = 5e-14,
) -> np.ndarray:
    """Minimal valid grid: every bin lag plus two long-delay baseline wings,
    which start one step past plateau_reach for at least three bins.

    Much faster to simulate than the full default grid; used by batch studies.
    """
    lags = [m * tau for m in range(-(n_bins - 1), n_bins)]
    wing_start = plateau_reach(tau, sigma_t, max(n_bins, 3)) + step
    half = (baseline_points + 1) // 2
    wings = [wing_start + i * step for i in range(half)]
    grid = sorted(set(lags + wings + [-w for w in wings]))
    return np.array(grid, dtype=float)


def plateau_reach(tau: float, sigma_t: float, n_bins: int) -> float:
    """Delay past which read_dips' plateau starts, (n_bins - 1) tau + 12 sigma_t."""
    return (n_bins - 1) * tau + BASELINE_EXCLUSION_SIGMAS * sigma_t


def scan_geometry(encoded, ancillas) -> tuple[float, float, int]:
    """tau, sigma_t and n_bins of the scans of encoded against ancillas."""
    n_bins = max(state.bin_count for state in (encoded, *ancillas))
    return encoded.lattice.tau, encoded.packet.sigma_t, n_bins


def block_model(encoded, ancillas, delays, baseline_counts, visibility, points=None) -> np.ndarray:
    """The (scans, points) expected counts N0 * R(delta) of the scans of
    encoded against ancillas, at all points of the grid or at its sorted
    indices `points`: one hom.scan_traces call.  Raises ValueError on a
    grid that does not reach past plateau_reach."""
    reach = plateau_reach(*scan_geometry(encoded, ancillas))
    if not (delays[-1] > reach and delays[0] < -reach):
        raise ValueError(f"delay grid must reach past +-{reach:.3e} s to expose the baseline")
    grid = delays if points is None else delays[points]
    return baseline_counts * hom.scan_traces(encoded, ancillas, grid, visibility)


def sample_block(
    encoded, ancillas, seeds, delays, baseline_counts, visibility, noiseless
) -> list[ScanTrace]:
    """One ScanTrace per ancilla, with one seed each, on a grid, baseline,
    visibility and seeds that ScanConfig has checked: point i of a scan is
    drawn from point_rng(its seed, i) by one _draw_counts of the plan of
    their block_model, or set to the exact expectation in noiseless mode."""
    expected = block_model(encoded, ancillas, delays, baseline_counts, visibility)
    seeds = np.asarray(seeds, dtype=_U64)
    counts = expected.copy() if noiseless else _draw_counts(_draw_plan(expected), seeds)
    shared = *scan_geometry(encoded, ancillas), noiseless
    rows = zip(counts, expected, seeds.tolist())
    return [ScanTrace(delays, c, e, seed, *shared) for c, e, seed in rows]


def sample_scan(encoded, ancilla, config: ScanConfig, noiseless: bool = False) -> ScanTrace:
    """Run one scan of the encoded state against the ancilla: the one-scan
    case of sample_block, on the grid the config has checked."""
    return sample_block(
        encoded, [ancilla], [config.seed], config.delays,
        config.baseline_counts, config.visibility, noiseless,
    )[0]


def read_dips(trace: ScanTrace, lags) -> tuple[float, np.ndarray]:
    """Baseline and dips (len(lags),) of one trace: _read of its counts at
    read_points' points.  Raises ValueError as those two do."""
    points = read_points(trace.delays, trace.tau, trace.sigma_t, trace.n_bins, lags)
    (baseline,), (dips,) = _read(trace.counts[None], *points)
    return baseline, dips


def read_points(delays, tau, sigma_t, n_bins, lags) -> tuple[np.ndarray, np.ndarray]:
    """The points a read of scans on one grid takes: the baseline plateau
    mask, the points farther than BASELINE_EXCLUSION_SIGMAS * sigma_t from
    every lag m * tau, |m| < n_bins, and the column of each of lags * tau.
    Raises ValueError if no point lies within GRID_MATCH_RTOL * tau of a lag."""
    dip_lags = np.arange(1 - n_bins, n_bins) * tau
    reach = BASELINE_EXCLUSION_SIGMAS * sigma_t
    plateau = (np.abs(delays - dip_lags[:, None]) > reach).all(axis=0)
    targets = np.asarray(lags, dtype=float) * tau
    columns = np.abs(delays - targets[:, None]).argmin(axis=1)
    for target, delay in zip(targets, delays[columns]):
        if abs(delay - target) > GRID_MATCH_RTOL * tau:
            raise ValueError(f"delay grid does not contain the lag {target:.3e} s")
    return plateau, columns


def _read(counts, plateau, columns) -> tuple[np.ndarray, np.ndarray]:
    """Baselines (S,) and dips of the (S, points) counts of S scans at the
    plateau mask and lag columns read_points gave: a baseline is the mean
    count over the plateau, dip column k the count at column k.  Raises
    ValueError if the plateau has no points or a scan no counts there."""
    size = np.count_nonzero(plateau)
    if not size:
        raise ValueError("no baseline points: grid lies entirely inside dip regions")
    # np.mean's own sum and division, without its wrapper.
    baselines = counts[:, plateau].sum(axis=1) / size
    if not (baselines > 0).all():
        raise ValueError("no counts on the baseline plateau: baseline_counts is too small")
    return baselines, counts[:, columns]


def dip_depths(baselines, dips) -> np.ndarray:
    """Dip depths 1 - n / N0 clipped to [0, 1], dips over their baselines,
    in read_dips' order: dip_depths(*read_dips(trace, lags))."""
    return np.clip(1.0 - dips / baselines, 0.0, 1.0)


def estimate_baseline(trace: ScanTrace) -> float:
    """Mean counts over the long-delay plateau of one trace; estimates N0."""
    return float(read_dips(trace, ())[0])


def reading_lags(occupied) -> tuple[int, ...]:
    """The lags a scan reads given its ancilla's occupied bins: 0, and the
    shift onto the other logical bin for a single-bin ancilla, +1 from bin
    0 or -1 from bin 1."""
    occupied = frozenset(int(b) for b in occupied)
    if not occupied:
        raise ValueError("ancilla must occupy at least one bin")
    return {frozenset({0}): (0, 1), frozenset({1}): (0, -1)}.get(occupied, (0,))


def extract_projections(trace: ScanTrace, ancilla_bins_occupied) -> list[ProjectionReading]:
    """Projection estimates from one trace, at the lags of reading_lags, so
    a single-bin ancilla's scan feeds two projections."""
    lags = reading_lags(ancilla_bins_occupied)
    p_hat = dip_depths(*read_dips(trace, lags))
    return [ProjectionReading(lag=lag, p_hat=float(p)) for lag, p in zip(lags, p_hat)]


def estimate_visibility(trace: ScanTrace) -> float:
    """1 - R_hat(0); calibrates v from a scan of two identical states."""
    return float(dip_depths(*read_dips(trace, (0,)))[0])


def occupied_bins(state: PhotonState) -> frozenset[int]:
    """Bins holding any amplitude, for scheduling shifted readings."""
    _check_pure("experiment.occupied_bins", state)
    mat = state.as_matrix()
    col_norms = np.linalg.norm(mat, axis=0)
    return frozenset(int(i) for i in np.nonzero(col_norms > _OCCUPIED_TOL)[0])


def write_trace_csv(trace: ScanTrace, path) -> None:
    """CSV with header delay_s,counts,R_hat.  Stable byte-for-byte for
    identical traces.  R_hat is the count over the estimated baseline."""
    r = trace.counts / estimate_baseline(trace)
    with open(path, "w", encoding="utf-8") as f:
        f.write("delay_s,counts,R_hat\n")
        for d, c, rh in zip(trace.delays, trace.counts, r):
            c_txt = str(int(c)) if c == int(c) else repr(float(c))
            f.write(f"{d:.18e},{c_txt},{rh:.17g}\n")
