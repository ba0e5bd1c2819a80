"""Synthetic photon-counting runs of dip scans.

A scan steps the ancilla delay across a grid and records Poisson-distributed
coincidence counts with expectation N0 * R(delta).  Each point's count comes
from the counter-based stream point_rng(scan seed, point index), so any
subset of points can be evaluated in any order, or in parallel, without
changing the outcome.  Sampling draws those streams through one Philox whose
state is reset to each point's key, which reproduces point_rng draw for draw.

The long-delay plateau of a trace estimates N0; dip depths are read at the
lags 0 and +-tau.  A scan of a single-bin ancilla yields two projections
(the unshifted and the bin-shifted one) from the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hom
from .hilbert import DensityMatrix, PhotonState

BASELINE_EXCLUSION_SIGMAS = 12.0
GRID_MATCH_RTOL = 1e-6
_U64 = np.uint64


def derive_seed(master_seed: int, stream_index: int) -> int:
    """Deterministic per-stream seed from a master seed."""
    ss = np.random.SeedSequence((int(master_seed), int(stream_index)))
    return int(ss.generate_state(1, _U64)[0])


def point_rng(seed: int, point_index: int) -> np.random.Generator:
    """Counter-based generator for one scan point: Philox keyed by
    (seed, point_index), counter at zero.  This defines the count stream;
    sampling draws it through _keyed_poisson, which reproduces it draw for
    draw."""
    key = np.array([int(seed), int(point_index)], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


def _keyed_poisson(seed: int, means) -> np.ndarray:
    """Poisson draws keyed by (seed, index): equal by definition to

        np.array([point_rng(seed, i).poisson(m) for i, m in enumerate(means)],
                 dtype=float)

    but one Philox is reset to the fresh state of key (seed, i) before each
    draw, instead of building a generator per index, which costs several
    times more (a new Philox also seeds an unused SeedSequence from OS
    entropy).
    """
    key = np.array([int(seed), 0], dtype=_U64)
    zeros = np.zeros(4, dtype=_U64)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_gen = np.random.Philox(key=key)
    rng = np.random.Generator(bit_gen)
    draws = []
    for i, m in enumerate(means):
        key[1] = i
        bit_gen.state = fresh
        draws.append(rng.poisson(m))
    return np.array(draws, dtype=float)


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
        if not np.all(np.diff(delays) > 0):
            raise ValueError("delay grid must be strictly increasing")
        delays = delays.copy()
        delays.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        if not self.baseline_counts > 0:
            raise ValueError("baseline_counts must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")


@dataclass(frozen=True)
class ScanTrace:
    """Recorded counts of one scan, plus the model expectation for reference."""

    delays: np.ndarray
    counts: np.ndarray
    expected: np.ndarray
    config: ScanConfig
    tau: float
    sigma_t: float
    n_bins: int
    noiseless: bool

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != self.delays.shape:
            raise ValueError("counts and delays must have matching shapes")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if not self.noiseless and np.any(counts != np.round(counts)):
            raise ValueError("sampled counts must be integers")


@dataclass(frozen=True)
class ProjectionReading:
    """Dip depth read at one lag of a trace: p_hat = 1 - R_hat."""

    lag: int
    delay: float
    p_hat: float


def default_delay_grid(
    tau: float, half_span: float = 8e-12, step: float = 5e-14
) -> np.ndarray:
    """Uniform grid over [-half_span, half_span] containing 0 and +-tau.

    The points nearest to the required lags are snapped onto them exactly so
    dip readings never interpolate.
    """
    if tau >= half_span:
        raise ValueError("half_span must exceed tau")
    n = int(round(half_span / step))
    grid = np.arange(-n, n + 1, dtype=float) * step
    for t in (-tau, 0.0, tau):
        grid[int(np.argmin(np.abs(grid - t)))] = t
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid step too coarse to snap the dip lags")
    return grid


def compact_delay_grid(
    tau: float,
    sigma_t: float,
    n_bins: int = 2,
    baseline_points: int = 40,
    step: float = 5e-14,
) -> np.ndarray:
    """Minimal valid grid: every bin lag plus two long-delay baseline wings.

    Much faster to simulate than the full default grid; used by batch studies.
    """
    lags = [m * tau for m in range(-(n_bins - 1), n_bins)]
    wing_start = 2 * tau + BASELINE_EXCLUSION_SIGMAS * sigma_t + step
    half = (baseline_points + 1) // 2
    wings = [wing_start + i * step for i in range(half)]
    grid = sorted(set(lags + wings + [-w for w in wings]))
    return np.array(grid, dtype=float)


def sample_scan(
    encoded: PhotonState | DensityMatrix,
    ancilla: PhotonState,
    config: ScanConfig,
    noiseless: bool = False,
) -> ScanTrace:
    """Run one scan of the encoded state against the ancilla.

    The model ratios come from one hom.scan_trace call over the whole grid.
    Counts are Poisson samples around N0 * R(delta), point i drawn from
    point_rng(config.seed, i), or the exact expectation in noiseless mode.
    Identical inputs always give identical traces.
    """
    tau = ancilla.lattice.tau
    sigma = ancilla.packet.sigma_t
    reach = 2 * tau + BASELINE_EXCLUSION_SIGMAS * sigma
    if config.delays[-1] < reach or config.delays[0] > -reach:
        raise ValueError(
            f"delay grid must reach past +-{reach:.3e} s to expose the baseline"
        )

    ratios = hom.scan_trace(encoded, ancilla, config.delays, config.visibility)
    expected = config.baseline_counts * ratios
    if noiseless:
        counts = expected.copy()
    else:
        counts = _keyed_poisson(config.seed, expected)
    return ScanTrace(
        delays=config.delays,
        counts=counts,
        expected=expected,
        config=config,
        tau=tau,
        sigma_t=sigma,
        n_bins=max(encoded.bin_count, ancilla.bin_count),
        noiseless=noiseless,
    )


def baseline_mask(trace: ScanTrace) -> np.ndarray:
    """Points far from every possible dip lag m * tau, |m| < n_bins."""
    lags = np.arange(-(trace.n_bins - 1), trace.n_bins) * trace.tau
    dist = np.abs(trace.delays[:, None] - lags[None, :]).min(axis=1)
    return dist > BASELINE_EXCLUSION_SIGMAS * trace.sigma_t


def estimate_baseline(trace: ScanTrace) -> float:
    """Mean counts over the long-delay plateau; estimates N0."""
    mask = baseline_mask(trace)
    if not mask.any():
        raise ValueError("no baseline points: grid lies entirely inside dip regions")
    return float(trace.counts[mask].mean())


def ratio_estimates(trace: ScanTrace) -> np.ndarray:
    """R_hat per grid point: counts normalized by the estimated baseline."""
    return trace.counts / estimate_baseline(trace)


def index_at_lag(trace: ScanTrace, lag: int) -> int:
    """Grid index of the point sitting on lag * tau, where the dip of that
    lag is read.  Raises ValueError if no grid point lies within
    GRID_MATCH_RTOL * tau of it."""
    target = lag * trace.tau
    i = int(np.argmin(np.abs(trace.delays - target)))
    if abs(trace.delays[i] - target) > GRID_MATCH_RTOL * trace.tau:
        raise ValueError(f"delay grid does not contain the lag {target:.3e} s")
    return i


def ratio_at_lag(trace: ScanTrace, lag: int) -> float:
    """R_hat at the grid point sitting on lag*tau."""
    n0 = estimate_baseline(trace)
    return float(trace.counts[index_at_lag(trace, lag)] / n0)


def extract_projections(
    trace: ScanTrace, ancilla_bins_occupied: frozenset[int] | set[int]
) -> list[ProjectionReading]:
    """Projection estimates from one trace.

    Always reads the unshifted lag 0.  A single-bin ancilla also reads the
    lag that shifts it onto the other logical bin: +tau from bin 0, -tau
    from bin 1, so one scan feeds two projections.
    """
    occupied = frozenset(int(b) for b in ancilla_bins_occupied)
    if not occupied:
        raise ValueError("ancilla must occupy at least one bin")
    lags = [0]
    if occupied == {0}:
        lags.append(1)
    elif occupied == {1}:
        lags.append(-1)
    n0 = estimate_baseline(trace)
    out = []
    for lag in lags:
        i = index_at_lag(trace, lag)
        p_hat = 1.0 - trace.counts[i] / n0
        out.append(
            ProjectionReading(
                lag=lag, delay=float(trace.delays[i]), p_hat=float(np.clip(p_hat, 0.0, 1.0))
            )
        )
    return out


def estimate_visibility(trace: ScanTrace) -> float:
    """1 - R_hat(0); calibrates v from a scan of two identical states."""
    n0 = estimate_baseline(trace)
    i = index_at_lag(trace, 0)
    return float(np.clip(1.0 - trace.counts[i] / n0, 0.0, 1.0))


def occupied_bins(state: PhotonState, atol: float = 1e-12) -> frozenset[int]:
    """Bins holding any amplitude, for scheduling shifted readings."""
    mat = state.as_matrix()
    col_norms = np.linalg.norm(mat, axis=0)
    return frozenset(int(i) for i in np.nonzero(col_norms > atol)[0])


def write_trace_csv(trace: ScanTrace, path) -> None:
    """CSV with header delay_s,counts,R_hat.  Stable byte-for-byte for
    identical traces."""
    r = ratio_estimates(trace)
    with open(path, "w", encoding="utf-8") as f:
        f.write("delay_s,counts,R_hat\n")
        for d, c, rh in zip(trace.delays, trace.counts, r):
            c_txt = str(int(c)) if c == int(c) else repr(float(c))
            f.write(f"{d:.18e},{c_txt},{rh:.17g}\n")
