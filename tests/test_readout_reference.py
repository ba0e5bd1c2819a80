"""The dip reader pinned against the one it replaced.

`parent_read_dips` is `experiment.read_dips` as it was before the plateau
mask was taken as an all-lags test on a (lags, points) table, the baseline
as np.mean's own sum and division, and the lag columns by argmin along the
points; it is copied verbatim but for its name.  Those changes keep every
arithmetic operation, so the current reader must return its baselines and
dips bit for bit and raise its three errors with the same messages, both
from one trace (read_dips, against the parent on a one-trace list) and
from stacked counts (_read at read_points' points).
"""

import numpy as np
import pytest

from poltime import experiment, hilbert
from poltime.experiment import (
    BASELINE_EXCLUSION_SIGMAS,
    GRID_MATCH_RTOL,
    ScanTrace,
    compact_delay_grid,
    default_delay_grid,
    read_dips,
    read_points,
)

TAU = 2.3e-12
SIGMA = TAU / 10
LAGS = [(), (0,), (0, 1), (0, -1)]


def parent_read_dips(traces, lags) -> tuple[np.ndarray, np.ndarray]:
    """Baselines (S,) and dips (S, len(lags)) of S traces on the first one's
    grid, tau, sigma_t and bins.  A baseline is the mean count over the
    points farther than BASELINE_EXCLUSION_SIGMAS * sigma_t from every lag
    m * tau, |m| < n_bins; dip column k is the count at lags[k] * tau.
    Raises ValueError if the plateau has no points, a trace no counts there,
    or no grid point lies within GRID_MATCH_RTOL * tau of a lag.
    """
    first = traces[0]
    delays, tau = first.delays, first.tau
    block = np.array([trace.counts for trace in traces])
    dip_lags = np.arange(1 - first.n_bins, first.n_bins) * tau
    dist = np.abs(delays[:, None] - dip_lags).min(axis=1)
    plateau = dist > BASELINE_EXCLUSION_SIGMAS * first.sigma_t
    if not plateau.any():
        raise ValueError("no baseline points: grid lies entirely inside dip regions")
    baselines = block[:, plateau].mean(axis=1)
    if not np.all(baselines > 0):
        raise ValueError("no counts on the baseline plateau: baseline_counts is too small")
    targets = np.asarray(lags, dtype=float) * tau
    columns = np.abs(delays[:, None] - targets).argmin(axis=0)
    for target, delay in zip(targets, delays[columns]):
        if abs(delay - target) > GRID_MATCH_RTOL * tau:
            raise ValueError(f"delay grid does not contain the lag {target:.3e} s")
    return baselines, block[:, columns]


def make_traces(delays, n_bins, rows, rng, noiseless=False, baseline=1000.0):
    """rows traces on one grid with counts that dip at every bin lag."""
    lags = np.arange(1 - n_bins, n_bins) * TAU
    dip = np.exp(-0.125 * ((delays[:, None] - lags) / SIGMA) ** 2).max(axis=1)
    traces = []
    for _ in range(rows):
        expected = baseline * (1.0 - rng.uniform(0.3, 0.9) * dip)
        counts = expected.copy() if noiseless else rng.poisson(expected).astype(float)
        traces.append(
            ScanTrace(
                delays=delays, counts=counts, expected=expected, seed=0, tau=TAU,
                sigma_t=SIGMA, n_bins=n_bins, noiseless=noiseless,
            )
        )
    return traces


def grid_of(name, n_bins):
    if name == "default":
        # Wide enough that every bin count keeps a plateau.
        return default_delay_grid(TAU, half_span=(n_bins + 1) * TAU + 12 * SIGMA)
    return compact_delay_grid(TAU, SIGMA, n_bins=n_bins)


def read_one(traces, lags):
    """read_dips of a one-trace list, as the parent's one-row arrays."""
    (trace,) = traces
    baseline, dips = read_dips(trace, lags)
    return np.array([baseline]), dips[None]


def read_as_block(traces, lags):
    """_read of the traces' stacked counts at read_points' points of the first's grid."""
    first = traces[0]
    counts = np.array([trace.counts for trace in traces])
    points = read_points(first.delays, first.tau, first.sigma_t, first.n_bins, lags)
    return experiment._read(counts, *points)


def assert_reads_identical(traces, lags):
    cases = [(read_as_block, traces), *((read_one, [trace]) for trace in traces)]
    for read, group in cases:
        want, got = parent_read_dips(group, lags), read(group, lags)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("lags", LAGS, ids=repr)
@pytest.mark.parametrize("n_bins", [2, 3, 4])
@pytest.mark.parametrize("grid", ["default", "compact"])
@pytest.mark.parametrize("noiseless", [False, True])
def test_read_dips_matches_parent_bit_for_bit(grid, n_bins, lags, noiseless):
    rng = np.random.default_rng(n_bins * 7 + len(lags))
    delays = grid_of(grid, n_bins)
    for rows in (1, 3, 19):
        assert_reads_identical(make_traces(delays, n_bins, rows, rng, noiseless), lags)


def test_read_dips_matches_parent_on_the_cli_grid(lattice, packet):
    """Scans drawn by sample_block on the default CLI grid, one block."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    ancillas = [hilbert.named_state(n, lattice, packet) for n in ("h0", "vt", "p+", "rl_bell")]
    traces = experiment.sample_block(
        phi, ancillas, [3, 5, 7, 11], default_delay_grid(TAU), 1000.0, 0.94, False
    )
    for lags in LAGS:
        assert_reads_identical(traces, lags)


def raised_message(read, traces, lags):
    with pytest.raises(ValueError) as raised:
        read(traces, lags)
    return str(raised.value)


def test_read_dips_errors_match_parent():
    rng = np.random.default_rng(3)
    # The grid lies inside the dips: no plateau.
    inside = np.linspace(-TAU, TAU, 41)
    # No counts on the plateau.
    empty = make_traces(compact_delay_grid(TAU, SIGMA), 2, 2, rng)
    empty[1] = ScanTrace(
        delays=empty[1].delays, counts=np.zeros(empty[1].delays.size),
        expected=empty[1].expected, seed=0, tau=TAU, sigma_t=SIGMA, n_bins=2,
        noiseless=False,
    )
    # A lag that is not on the grid.
    coarse = make_traces(compact_delay_grid(TAU, SIGMA), 2, 1, rng)
    cases = [
        (make_traces(inside, 2, 1, rng), (0,), "no baseline points"),
        (empty, (0,), "no counts on the baseline plateau"),
        (coarse, (0, 2), "delay grid does not contain the lag"),
    ]
    # Each case's faulty trace is its last.
    for traces, lags, start in cases:
        want = raised_message(parent_read_dips, traces, lags)
        assert want.startswith(start)
        assert raised_message(read_as_block, traces, lags) == want
        assert raised_message(read_one, traces[-1:], lags) == want
