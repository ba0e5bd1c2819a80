"""Synthetic scan sampling and estimation: Poisson counts, baselines,
projection readings, visibility calibration, determinism."""

import re
import sys
import threading

import numpy as np
import pytest

from poltime import experiment, hilbert, hom, tomography
from poltime.experiment import (
    ScanConfig,
    ScanTrace,
    compact_delay_grid,
    default_delay_grid,
    derive_seeds,
    dip_depths,
    estimate_baseline,
    estimate_visibility,
    extract_projections,
    occupied_bins,
    point_rng,
    read_dips,
    reading_lags,
    sample_block,
    sample_scan,
    write_trace_csv,
)

TAU = 2.3e-12
SIGMA = TAU / 10


def make_config(seed=0, baseline=1000.0, visibility=1.0, baseline_points=40):
    return ScanConfig(
        delays=compact_delay_grid(TAU, SIGMA, baseline_points=baseline_points),
        baseline_counts=baseline,
        seed=seed,
        visibility=visibility,
    )


# ---------------------------------------------------------------------------
# Grids and configs
# ---------------------------------------------------------------------------


def test_default_grid_contains_dip_lags_exactly():
    grid = default_delay_grid(TAU)
    for lag in (-TAU, 0.0, TAU):
        assert np.min(np.abs(grid - lag)) == 0.0
    assert np.all(np.diff(grid) > 0)
    assert grid[0] <= -8e-12 + 1e-15 and grid[-1] >= 8e-12 - 1e-15


def test_default_grid_refuses_steps_that_cannot_snap_the_lags():
    """A step near tau still snaps -tau, 0 and tau onto points of their
    own; a coarser one would snap two lags onto one point, and a step that
    is not positive gives no grid: both raise a named ValueError."""
    grid = default_delay_grid(TAU, half_span=1e-11, step=2e-12)
    assert [np.count_nonzero(grid == lag) for lag in (-TAU, 0.0, TAU)] == [1, 1, 1]
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError, match="grid step too coarse to snap the dip lags"):
        default_delay_grid(TAU, half_span=1e-11, step=5e-12)
    for step in (0.0, -5e-14, np.nan):
        with pytest.raises(ValueError, match="grid step must be positive"):
            default_delay_grid(TAU, step=step)


def test_default_grid_names_a_non_finite_argument():
    """NaN or infinite arguments raise a ValueError that names them, not
    numpy's float-to-integer conversion errors.  A NaN step is refused
    first, as not positive."""
    for name, value in [("tau", np.nan), ("tau", np.inf), ("half_span", np.nan),
                        ("half_span", np.inf), ("step", np.inf)]:
        args = {"tau": TAU, "half_span": 8e-12, "step": 5e-14, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            default_delay_grid(**args)


def test_default_grid_needs_a_positive_tau():
    """tau = 0 was refused as a step too coarse to snap the dip lags, and a
    negative tau returned a grid."""
    for tau in (0.0, -TAU):
        with pytest.raises(ValueError, match=re.escape(f"tau must be positive, got {tau}")):
            default_delay_grid(tau)


def test_compact_grid_has_baseline_wings():
    grid = compact_delay_grid(TAU, SIGMA, baseline_points=40)
    for lag in (-TAU, 0.0, TAU):
        assert np.min(np.abs(grid - lag)) == 0.0
    outside = np.abs(grid) > 2 * TAU + 12 * SIGMA
    assert outside.sum() >= 40


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(delays=np.array([0.0, 1.0, 0.5]), baseline_counts=100, seed=0)
    with pytest.raises(ValueError):
        ScanConfig(delays=np.array([0.0, 1.0]), baseline_counts=100, seed=0)
    with pytest.raises(ValueError):
        make_config(baseline=-5)
    with pytest.raises(ValueError):
        make_config(visibility=1.5)
    with pytest.raises(ValueError):
        ScanConfig(delays=np.linspace(-1, 1, 5), baseline_counts=10, seed=-1)


@pytest.mark.parametrize("baseline", [np.inf, np.nan, 0.0, -5.0])
def test_scan_config_needs_a_positive_finite_baseline(baseline):
    """An infinite baseline was accepted, and a noiseless scan then read
    inf / inf, NaN, at every dip."""
    with pytest.raises(ValueError, match="^baseline_counts must be positive and finite$"):
        ScanConfig(compact_delay_grid(TAU, SIGMA), baseline, 0)


@pytest.mark.parametrize("value", [True, np.True_, np.False_, "0.9", None, np.array(0.5)])
@pytest.mark.parametrize("name", ["baseline_counts", "visibility"])
def test_scan_config_refuses_booleans_and_non_numbers(name, value):
    """True ran as a baseline of 1 count or as V = 1, and a string failed in
    a bare comparison; both are now ValueErrors that name the parameter."""
    args = {"baseline_counts": 100.0, "visibility": 0.9, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        ScanConfig(compact_delay_grid(TAU, SIGMA), seed=0, **args)


@pytest.mark.parametrize("value", [np.float64(0.9), np.int64(1), 1, np.float32(0.5)])
def test_scan_config_takes_numpy_numbers(value):
    cfg = ScanConfig(compact_delay_grid(TAU, SIGMA), value * 100, 0, value)
    assert cfg.visibility == value


@pytest.mark.parametrize("noiseless", [False, True])
@pytest.mark.parametrize("bad_seed", [-1, 2**64])
def test_scan_jobs_check_their_seed_noisy_or_noiseless(lattice, packet, tset, noiseless, bad_seed):
    """A noiseless scan draws nothing, yet it refuses a bad seed as a noisy
    one does: one scan through its ScanConfig, a run through its master
    seed."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    delays = compact_delay_grid(TAU, SIGMA)
    calls = [
        lambda: sample_scan(phi, phi, ScanConfig(delays, 100.0, bad_seed), noiseless=noiseless),
        lambda: tomography.simulate_counts(
            phi, tset, 100.0, master_seed=bad_seed, delays=delays, noiseless=noiseless
        ),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="seed"):
            call()


def test_scan_traces_need_an_ancilla(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError, match="at least one ancilla"):
        hom.scan_traces(phi, [], compact_delay_grid(TAU, SIGMA))


NOT_AN_INTEGER = "seed must be an integer"
OUT_OF_RANGE = "seed must fit in an unsigned 64-bit integer"


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(v, message, id=repr(v))
        for values, message in (
            ((1.7, 3.9, -0.5, np.float64(2.5), np.nan, "5", None), NOT_AN_INTEGER),
            ((True, False, np.True_), NOT_AN_INTEGER),
            ((-1, 2**64, 2.0**64, -np.inf, np.inf), OUT_OF_RANGE),
        )
        for v in values
    ],
)
def test_seeds_must_be_integers_in_range(lattice, packet, tset, bad, message):
    """A seed that is not an integral number is refused, never truncated:
    seed=1.7 used to be kept on the config but drawn and recorded as 1, and
    derive_seeds(3.9, [1]) equalled derive_seeds(3, [1]).  Out-of-range seeds keep
    their message."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    delays = compact_delay_grid(TAU, SIGMA)
    calls = [
        lambda: ScanConfig(delays=delays, baseline_counts=100.0, seed=bad),
        lambda: sample_scan(phi, phi, ScanConfig(delays, 100.0, bad)),
        lambda: derive_seeds(bad, [1]),
        lambda: tomography.simulate_counts(phi, tset, 100.0, master_seed=bad, delays=delays),
        lambda: tomography.bootstrap_errors(None, tset, 1.0, phi, replicas=2, seed=bad),
    ]
    for call in calls:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value).startswith(message)


@pytest.mark.parametrize(
    "stream, message",
    [(1.5, NOT_AN_INTEGER), (True, NOT_AN_INTEGER), (np.True_, NOT_AN_INTEGER),
     (np.nan, NOT_AN_INTEGER), (-1, OUT_OF_RANGE), (2**64, OUT_OF_RANGE)],
    ids=repr,
)
def test_stream_indices_must_be_integers_in_range(stream, message):
    """A stream index passes the seeds' check: derive_seeds(3, [1.5]) used to
    equal derive_seeds(3, [1]), and True was taken as stream 1.  Streams from
    2**64 on, which SeedSequence took, raise too."""
    for call in (lambda: derive_seeds(3, [stream]), lambda: derive_seeds(3, [0, stream])):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value).startswith(message)


SEED_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x5DEECE66D3B4F1A7]
SEED_STREAMS = [*range(21), 2**32 - 1, 2**32, 2**64 - 1, 0xC2B2AE3D27D4EB4F]


@pytest.mark.parametrize("master", SEED_MASTERS, ids=hex)
def test_derived_seeds_equal_seed_sequence(master):
    """The array seed pass is SeedSequence((master, stream)) read as one
    uint64, over one- and two-word masters and streams."""
    want = [
        int(np.random.SeedSequence((master, s)).generate_state(1, np.uint64)[0])
        for s in SEED_STREAMS
    ]
    got = derive_seeds(master, SEED_STREAMS)
    assert got.dtype == np.uint64 and got.tolist() == want
    assert [int(derive_seeds(master, [s])[0]) for s in SEED_STREAMS] == want
    assert derive_seeds(master, []).shape == (0,)


@pytest.mark.parametrize(
    "streams",
    [range(19), range(1, 19), range(0), range(30, 2, -7), range(2**64 - 5, 2**64)],
    ids=repr,
)
def test_stream_ranges_are_checked_by_their_ends(streams):
    """A range of streams, checked by its first and last entry, derives the
    seeds of the same streams listed, and one that leaves [0, 2**64) at
    either end raises the per-element check's error."""
    got = derive_seeds(7, streams)
    assert got.dtype == np.uint64 and got.tolist() == derive_seeds(7, list(streams)).tolist()
    for bad in (range(-1, 5), range(5, -2, -1), range(2**64 - 2, 2**64 + 1), range(2**64, 0, -3)):
        with pytest.raises(ValueError) as raised:
            derive_seeds(7, bad)
        assert str(raised.value).startswith(OUT_OF_RANGE)


@pytest.mark.parametrize(
    "seed", [0, 3, 3.0, np.uint64(2**64 - 1), np.int64(17), 2**64 - 1], ids=repr
)
def test_integral_seeds_are_accepted_as_ints(seed):
    assert experiment._check_seed(seed) == int(seed)
    assert type(experiment._check_seed(seed)) is int
    assert derive_seeds(seed, [1]).tolist() == derive_seeds(int(seed), [1]).tolist()


@pytest.mark.parametrize("encoded_bins", [2, 3])
def test_sample_block_refuses_ancillas_on_mixed_lattices(lattice, packet, encoded_bins):
    wide = hilbert.TimeBinLattice(3, TAU)
    encoded = hilbert.named_state("phi_plus", lattice if encoded_bins == 2 else wide, packet)
    ancillas = [hilbert.named_state("p+", lattice, packet), hilbert.named_state("rx", wide, packet)]
    delays = compact_delay_grid(TAU, SIGMA, n_bins=3)
    with pytest.raises(ValueError, match="share one bin count"):
        sample_block(encoded, ancillas, [0, 1], delays, 100.0, 1.0, False)
    with pytest.raises(ValueError, match="share one bin count"):
        hom.scan_traces(encoded, ancillas, delays)


def test_sample_scan_requires_baseline_reach(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    narrow = ScanConfig(
        delays=np.linspace(-TAU / 2, TAU / 2, 9), baseline_counts=100, seed=0
    )
    with pytest.raises(ValueError):
        sample_scan(phi, phi, narrow)


def test_scan_reach_is_the_plateau_of_read_dips(lattice, packet):
    """A two-bin grid must reach past tau + 12 sigma_t, where read_dips'
    plateau starts: just past it the scan runs and has baseline points; at
    it, no grid point is on the plateau and the scan is refused."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    reach = experiment.plateau_reach(TAU, SIGMA, 2)
    assert reach == TAU + 12 * SIGMA
    grid = np.array([-reach - 1e-14, -TAU, 0.0, TAU, reach + 1e-14])
    trace = sample_scan(phi, phi, ScanConfig(grid, 1000.0, 0), noiseless=True)
    baseline, _ = read_dips(trace, (0,))
    assert baseline == pytest.approx(1000.0, rel=1e-6)
    at_reach = ScanConfig(np.array([-reach, -TAU, 0.0, TAU, reach]), 1000.0, 0)
    with pytest.raises(ValueError, match="reach past"):
        sample_scan(phi, phi, at_reach)


@pytest.mark.parametrize("n_bins", [2, 3, 4, 5])
def test_compact_grid_reaches_the_plateau_for_any_bin_count(packet, n_bins):
    """The wings start past plateau_reach for the grid's bin count; the 2- and
    3-bin grids keep their wings at 2 tau + 12 sigma_t + step."""
    grid = compact_delay_grid(TAU, SIGMA, n_bins=n_bins)
    state = hilbert.basis_state("h", n_bins - 1, hilbert.TimeBinLattice(n_bins, TAU), packet)
    trace = sample_scan(state, state, ScanConfig(grid, 1000.0, 0), noiseless=True)
    np.testing.assert_array_equal(trace.delays, grid)
    if n_bins <= 3:
        wings = [2 * TAU + 12 * SIGMA + 5e-14 + i * 5e-14 for i in range(20)]
        lags = [m * TAU for m in range(1 - n_bins, n_bins)]
        old = np.array(sorted(set(lags + wings + [-w for w in wings])))
        np.testing.assert_array_equal(grid, old)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_same_seed_gives_bitwise_identical_traces(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    cfg = make_config(seed=42)
    a = sample_scan(phi, phi, cfg)
    b = sample_scan(phi, phi, cfg)
    assert np.array_equal(a.counts, b.counts)
    c = sample_scan(phi, phi, make_config(seed=43))
    assert not np.array_equal(a.counts, c.counts)


def test_full_dip_never_counts(lattice, packet):
    # Poisson with zero mean is identically zero, whatever the seed.
    phi = hilbert.named_state("phi_plus", lattice, packet)
    zero_idx = None
    for seed in range(200):
        trace = sample_scan(phi, phi, make_config(seed=seed))
        if zero_idx is None:
            zero_idx = int(np.argmin(np.abs(trace.delays)))
        assert trace.counts[zero_idx] == 0.0


def test_orthogonal_states_sample_around_baseline(lattice, packet):
    plus = hilbert.named_state("phi_plus", lattice, packet)
    minus = hilbert.named_state("phi_minus", lattice, packet)
    counts = []
    for seed in range(300):
        trace = sample_scan(plus, minus, make_config(seed=seed, baseline_points=8))
        counts.append(trace.counts)
    mean = np.mean(counts, axis=0)
    tol = 5.0 * np.sqrt(1000.0 / 300)
    assert np.all(np.abs(mean - 1000.0) < tol)


def test_counts_are_integers_when_sampled(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    trace = sample_scan(phi, phi, make_config(seed=5))
    assert np.array_equal(trace.counts, np.round(trace.counts))
    assert not trace.noiseless


def test_mean_ratio_converges_to_model(lattice, packet):
    """Averaged over many seeds, R_hat approaches the model R at every point."""
    encoded = hilbert.named_state("phi_plus", lattice, packet)
    ancilla = hilbert.product_state("p", "+", lattice, packet)
    cfg = make_config(baseline_points=8)
    model = hom.scan_trace(encoded, ancilla, cfg.delays, 1.0)
    n_seeds = 1000
    ratios = np.empty((n_seeds, cfg.delays.size))
    for seed in range(n_seeds):
        trace = sample_scan(encoded, ancilla, make_config(seed=seed, baseline_points=8))
        ratios[seed] = trace.counts / estimate_baseline(trace)
    mean = ratios.mean(axis=0)
    stderr = ratios.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    assert np.all(np.abs(mean - model) <= 3.0 * stderr + 1e-6)


# ---------------------------------------------------------------------------
# Baseline and visibility estimation
# ---------------------------------------------------------------------------


def test_noiseless_baseline_is_exact(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    trace = sample_scan(phi, phi, make_config(), noiseless=True)
    assert estimate_baseline(trace) == pytest.approx(1000.0, abs=1e-9)


def test_poisson_baseline_standard_error(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    hits = 0
    n_points = 50
    for seed in range(40):
        trace = sample_scan(
            phi, phi, make_config(seed=seed, baseline_points=n_points)
        )
        if abs(estimate_baseline(trace) - 1000.0) <= 5.0 * np.sqrt(1000.0 / n_points):
            hits += 1
    assert hits >= 39  # 5 sigma misses are essentially impossible


def test_estimate_baseline_needs_plateau_points():
    delays = np.linspace(-TAU / 2, TAU / 2, 5)
    trace = ScanTrace(
        delays=delays,
        counts=np.full(5, 100.0),
        expected=np.full(5, 100.0),
        seed=0,
        tau=TAU,
        sigma_t=SIGMA,
        n_bins=2,
        noiseless=True,
    )
    with pytest.raises(ValueError, match="no baseline"):
        estimate_baseline(trace)


def test_scan_trace_keeps_the_float_arrays_it_checks(tmp_path):
    """Delays and counts given as lists are kept as the float arrays that
    were checked, so the trace reads and writes as a sampled one does; list
    counts used to make write_trace_csv raise TypeError.  float64 arrays
    are kept as they are."""
    delays = compact_delay_grid(TAU, SIGMA, baseline_points=8)
    counts = np.full(delays.size, 100.0)
    fields = dict(expected=counts, seed=0, tau=TAU, sigma_t=SIGMA, n_bins=2, noiseless=False)
    listed = ScanTrace(delays=delays.tolist(), counts=[100] * delays.size, **fields)
    for name in ("delays", "counts"):
        value = getattr(listed, name)
        assert type(value) is np.ndarray and value.dtype == np.float64
    np.testing.assert_array_equal(listed.delays, delays)
    np.testing.assert_array_equal(listed.counts, counts)
    write_trace_csv(listed, tmp_path / "listed.csv")
    arrays = ScanTrace(delays=delays, counts=counts, **fields)
    assert arrays.delays is delays and arrays.counts is counts
    write_trace_csv(arrays, tmp_path / "arrays.csv")
    assert (tmp_path / "listed.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()


@pytest.mark.parametrize("noiseless", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_scan_trace_refuses_counts_that_are_negative_or_not_finite(bad, noiseless):
    """A NaN or infinite count is refused as a negative one is, noiseless or
    sampled; a NaN or infinite count used to pass and read as a NaN dip or
    an infinite baseline."""
    delays = compact_delay_grid(TAU, SIGMA, baseline_points=8)
    counts = np.full(delays.size, 100.0)
    counts[3] = bad
    fields = dict(expected=counts, seed=0, tau=TAU, sigma_t=SIGMA, n_bins=2, noiseless=noiseless)
    with pytest.raises(ValueError, match="^counts must be nonnegative and finite$"):
        ScanTrace(delays=delays, counts=counts, **fields)


def test_scan_trace_refuses_misshapen_or_fractional_sampled_counts():
    """Counts must match the delays point for point, and sampled counts are
    whole numbers; a noiseless trace may hold expected, fractional counts."""
    delays = compact_delay_grid(TAU, SIGMA, baseline_points=8)
    counts = np.full(delays.size, 100.5)
    fields = dict(expected=counts, seed=0, tau=TAU, sigma_t=SIGMA, n_bins=2)
    with pytest.raises(ValueError, match="^counts and delays must have matching shapes$"):
        ScanTrace(delays=delays, counts=counts[1:], noiseless=True, **fields)
    with pytest.raises(ValueError, match="^sampled counts must be integers$"):
        ScanTrace(delays=delays, counts=counts, noiseless=False, **fields)
    ScanTrace(delays=delays, counts=counts, noiseless=True, **fields)


def test_visibility_estimates(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    exact = sample_scan(phi, phi, make_config(), noiseless=True)
    assert estimate_visibility(exact) == pytest.approx(1.0, abs=1e-12)
    for v in (0.94, 0.89):
        for seed in range(5):
            trace = sample_scan(
                phi, phi, make_config(seed=seed, baseline=1e4, visibility=v)
            )
            assert estimate_visibility(trace) == pytest.approx(v, abs=0.02)


# ---------------------------------------------------------------------------
# Projection readings
# ---------------------------------------------------------------------------


def test_single_bin_ancilla_reads_two_projections(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    h0 = hilbert.basis_state("h", 0, lattice, packet)
    trace = sample_scan(phi, h0, make_config(), noiseless=True)
    readings = extract_projections(trace, occupied_bins(h0))
    by_lag = {r.lag: r for r in readings}
    assert set(by_lag) == {0, 1}
    assert by_lag[0].p_hat == pytest.approx(0.5, abs=1e-9)
    assert by_lag[1].p_hat == pytest.approx(0.0, abs=1e-9)


def test_delayed_bin_ancilla_reads_backward_lag(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    vt = hilbert.basis_state("v", 1, lattice, packet)
    trace = sample_scan(phi, vt, make_config(), noiseless=True)
    readings = extract_projections(trace, occupied_bins(vt))
    assert {r.lag for r in readings} == {0, -1}


def test_two_bin_ancilla_reads_only_zero_lag(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    p_plus = hilbert.product_state("p", "+", lattice, packet)
    trace = sample_scan(phi, p_plus, make_config(), noiseless=True)
    readings = extract_projections(trace, occupied_bins(p_plus))
    assert [r.lag for r in readings] == [0]


def test_projection_clamped_to_unit_interval():
    delays = compact_delay_grid(TAU, SIGMA, baseline_points=8)
    counts = np.full(delays.size, 100.0)
    counts[np.argmin(np.abs(delays))] = 103.0  # upward fluctuation at the dip
    trace = ScanTrace(
        delays=delays,
        counts=counts,
        expected=counts,
        seed=0,
        tau=TAU,
        sigma_t=SIGMA,
        n_bins=2,
        noiseless=True,
    )
    readings = extract_projections(trace, frozenset({0, 1}))
    assert readings[0].p_hat == 0.0


def test_dip_depths_clip_and_broadcast():
    """A count above its baseline reads 0 and a zero count 1; one baseline
    broadcasts over a row of dips, and (dips, baselines) columns, as the
    tomography run's projections.csv takes them, read row by row."""
    assert dip_depths(100.0, np.array([103.0, 0.0, 25.0])).tolist() == [0.0, 1.0, 0.75]
    counts = np.array([[103.0, 100.0], [0.0, 50.0], [30.0, 40.0]])
    assert dip_depths(counts[:, 1], counts[:, 0]).tolist() == [0.0, 1.0, 0.25]


def test_noiseless_projections_match_state_overlaps(lattice, packet, tset, rng):
    """Readings on exact traces reproduce the model projector expectations."""
    from poltime import tomography

    rho_logical = tomography.random_density_matrix(4, rng)
    rho = hilbert.DensityMatrix(rho_logical, lattice, packet)
    for state in tset.states():
        trace = sample_scan(rho, state, make_config(), noiseless=True)
        readings = extract_projections(trace, occupied_bins(state))
        expectation = hom.coincidence_ratio(rho, state, 0.0, 1.0)
        assert readings[0].p_hat == pytest.approx(1.0 - expectation, abs=1e-9)


def test_requested_lag_must_sit_on_grid(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    wide = ScanConfig(
        delays=np.array([-8e-12, -6e-12, 1e-13, 6e-12, 8e-12]),
        baseline_counts=100,
        seed=0,
    )
    trace = sample_scan(phi, phi, wide, noiseless=True)
    with pytest.raises(ValueError):
        extract_projections(trace, frozenset({0}))


def test_ratio_at_lag_reads_dip_structure(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    trace = sample_scan(phi, phi, make_config(), noiseless=True)
    n0, dips = read_dips(trace, (-1, 0, 1))
    np.testing.assert_allclose(dips / n0, [1.0, 0.0, 1.0], atol=1e-6)
    assert dips[1] / n0 == pytest.approx(0.0, abs=1e-9)


def test_reading_lags():
    assert reading_lags({0}) == (0, 1)
    assert reading_lags(frozenset({1})) == (0, -1)
    assert reading_lags({0, 1}) == (0,)
    with pytest.raises(ValueError, match="at least one bin"):
        reading_lags(set())


def test_read_dips_of_many_scans_equals_one_scan_reads(lattice, packet, tset):
    """One _read of S traces' stacked counts at read_points' points gives,
    bit for bit, each trace's own read, the one-scan readers, and the counts
    at the grid points on the lags, column by position in `lags`."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    ancillas = tset.states()[:6]
    delays = make_config().delays
    traces = sample_block(phi, ancillas, range(6), delays, 1000.0, 0.94, False)
    lags = (1, -1, 0)
    points = experiment.read_points(delays, TAU, packet.sigma_t, 2, lags)
    baselines, dips = experiment._read(np.array([trace.counts for trace in traces]), *points)
    assert baselines.shape == (6,) and dips.shape == (6, 3)
    columns = [int(np.argmin(np.abs(delays - lag * TAU))) for lag in lags]
    for trace, n0, row, ancilla in zip(traces, baselines, dips, ancillas):
        one_n0, one_row = read_dips(trace, lags)
        assert n0 == one_n0 and np.array_equal(row, one_row)
        assert np.array_equal(row, trace.counts[columns])
        assert n0 == estimate_baseline(trace)
        assert estimate_visibility(trace) == float(np.clip(1.0 - row[2] / n0, 0.0, 1.0))
        for reading in extract_projections(trace, occupied_bins(ancilla)):
            dip = row[lags.index(reading.lag)]
            assert reading.p_hat == float(np.clip(1.0 - dip / n0, 0.0, 1.0))


def self_scan_on(phi, delays):
    return sample_scan(phi, phi, ScanConfig(delays, 1000.0, 0), noiseless=True)


@pytest.mark.parametrize("shifted", [False, True])
def test_read_dips_reads_a_trace_on_its_own_grid(lattice, packet, shifted):
    """A trace on a grid shifted by one point is read at its own plateau
    and lag columns: its noiseless self-scan dips to zero at lag 0, as the
    unshifted one does."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    grid = default_delay_grid(TAU, step=2e-13)
    if shifted:
        grid = np.concatenate([[2 * grid[0] - grid[1]], grid[:-1]])
    baseline, (dip,) = read_dips(self_scan_on(phi, grid), (0,))
    assert baseline == pytest.approx(1000.0, rel=1e-6)
    assert dip / baseline < 1e-9


@pytest.mark.parametrize("sigma_t", [SIGMA, SIGMA / 2])
def test_read_dips_reads_a_trace_at_its_own_sigma_t(lattice, sigma_t):
    """The plateau is cut at 12 sigma_t of the trace read, so a trace of a
    narrower packet is read on its own plateau and dips."""
    phi = hilbert.named_state("phi_plus", lattice, hilbert.Wavepacket(sigma_t))
    trace = self_scan_on(phi, default_delay_grid(TAU, step=2e-13))
    assert trace.sigma_t == sigma_t
    baseline, dips = read_dips(trace, (-1, 0, 1))
    assert baseline == pytest.approx(1000.0, rel=1e-6)
    np.testing.assert_allclose(dips / baseline, [1.0, 0.0, 1.0], atol=1e-6)


# ---------------------------------------------------------------------------
# Helpers and serialization
# ---------------------------------------------------------------------------


def test_occupied_bins(lattice, packet):
    assert occupied_bins(hilbert.basis_state("h", 0, lattice, packet)) == {0}
    assert occupied_bins(hilbert.basis_state("v", 1, lattice, packet)) == {1}
    assert occupied_bins(hilbert.product_state("p", "+", lattice, packet)) == {0, 1}


def test_seed_derivation_is_stable_and_distinct():
    assert derive_seeds(1, [2]).tolist() == derive_seeds(1, [2]).tolist()
    seeds = set(derive_seeds(0, range(100)).tolist())
    assert len(seeds) == 100
    a = point_rng(3, 4).poisson(100.0, size=5)
    b = point_rng(3, 4).poisson(100.0, size=5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("baseline", [6.0, 1000.0])
@pytest.mark.parametrize("visibility", [1.0, 0.94])
def test_counts_follow_the_keyed_point_streams(lattice, packet, baseline, visibility):
    """Means from 0 (full dip) up to the baseline, on both sides of numpy's
    small-mean/large-mean Poisson switch."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    cfg = ScanConfig(
        delays=default_delay_grid(TAU),
        baseline_counts=baseline,
        seed=11,
        visibility=visibility,
    )
    trace = sample_scan(phi, phi, cfg)
    reference = [
        point_rng(cfg.seed, i).poisson(mu) for i, mu in enumerate(trace.expected)
    ]
    assert np.array_equal(trace.counts, np.array(reference, dtype=float))


def keyed_draws(seeds, means, points=None):
    """The program's keyed draw: _draw_counts of the means' _draw_plan, one
    seed per row, points the columns' grid indices."""
    plan = experiment._draw_plan(np.asarray(means, dtype=float), points)
    return experiment._draw_counts(plan, np.array([int(s) for s in seeds], dtype=np.uint64))


@pytest.mark.parametrize("rows, points", [(10, 2000), (1, 321), (18, 43), (19, 321)])
def test_keyed_poisson_equals_point_rng_draw_for_draw(rows, points):
    """The array draws against their definition.  The 10 x 2000 block has
    about 2e4 draws over every regime of numpy's Poisson sampler (zero,
    multiplication below 10, both sides of the switch at 10, transformed
    rejection, huge means).  The others are the block shapes the benchmark
    draws, at means in [60, 1000]: one scan on the default grid, 18 scans on
    the compact grid and 19 on the default grid."""
    rng = np.random.default_rng(6)
    if rows == 10:
        fixed = [0.0, 1e-3, np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 20.0), 1e7]
        seeds = [0, 2**64 - 1, 1, 2**63, *rng.integers(2, 2**62, size=6).tolist()]
        means = np.exp(rng.uniform(np.log(60.0), np.log(1e4), size=(len(seeds), points)))
        means[:, ::3] = np.resize(fixed, means[:, ::3].size).reshape(len(seeds), -1)
    else:
        seeds = derive_seeds(points, range(rows)).tolist()
        means = np.exp(rng.uniform(np.log(60.0), np.log(1e3), size=(rows, points)))
    got = keyed_draws(seeds, means)
    want = [
        [point_rng(seed, i).poisson(mu) for i, mu in enumerate(row)]
        for seed, row in zip(seeds, means)
    ]
    assert np.array_equal(got, np.array(want, dtype=float))


def point_rng_draws(seeds, means):
    rows = [
        [point_rng(seed, i).poisson(mu) for i, mu in enumerate(row)]
        for seed, row in zip(seeds, means)
    ]
    return np.array(rows, dtype=float)


def spy_on_reset_draws(monkeypatch):
    """Replace experiment._reset_draws by a wrapper that records the keys of
    the points it draws."""
    reached = []
    reset = experiment._reset_draws

    def recording(keys, means):
        keys = list(keys)
        reached.extend(keys)
        return reset(keys, means)

    monkeypatch.setattr(experiment, "_reset_draws", recording)
    return reached


def test_keyed_poisson_routes_equal_point_rng(monkeypatch):
    """Every array route against its definition, where numpy's transformed
    rejection runs: means log-uniform over [10, 60), where candidates below
    6 and the us < 0.013 reject rule occur, and over [60, 1e6].  The log
    test's guard band as shipped, at 0 (array code settles every log test)
    and at infinity (every log test falls back to numpy's sampler)."""
    rng = np.random.default_rng(31)
    seeds = [0, 2**64 - 1, *rng.integers(1, 2**63, size=4).tolist()]
    low = np.exp(rng.uniform(np.log(10.0), np.log(60.0), size=(len(seeds), 1500)))
    high = np.exp(rng.uniform(np.log(60.0), np.log(1e6), size=(len(seeds), 1500)))
    means = np.concatenate([low, high], axis=1)
    want = point_rng_draws(seeds, means)
    shipped = experiment._LOG_TEST_BAND
    fallback = {}
    for band in (shipped, 0.0, np.inf):
        monkeypatch.setattr(experiment, "_LOG_TEST_BAND", band)
        reached = spy_on_reset_draws(monkeypatch)
        assert np.array_equal(keyed_draws(seeds, means), want)
        fallback[band] = len(reached)
        monkeypatch.undo()
    assert fallback[0.0] <= fallback[shipped] < fallback[np.inf]


# numpy's random_loggam: its whole 10-term Stirling series.
NUMPY_LOGGAM_A = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)


def loggam(x, coefficients):
    """random_loggam at x >= 7 with the Stirling series cut to `coefficients`."""
    x2 = (1.0 / x) * (1.0 / x)
    gl0 = coefficients[-1]
    for coef in coefficients[-2::-1]:
        gl0 = gl0 * x2 + coef
    return gl0 / x + 0.5 * experiment._LG2PI + (x - 0.5) * np.log(x) - x


def test_cut_loggam_series_stays_far_inside_the_log_test_band():
    """The settle's 3-term Stirling series is numpy's first three terms, and
    from k = 6 to 2**53, on a log grid, its loggam(k + 1) stays within a
    hundredth of the smallest guard band, 1e-9 * 130, of numpy's 10-term
    one."""
    assert experiment._LOGGAM_A == NUMPY_LOGGAM_A[:3]
    k = np.unique(np.floor(np.geomspace(6.0, 2.0**53, 4000)))
    cut = loggam(k + 1.0, experiment._LOGGAM_A)
    whole = loggam(k + 1.0, NUMPY_LOGGAM_A)
    assert np.abs(cut - whole).max() <= 1e-2 * 1e-9 * 130
    assert experiment._LOG_TEST_BAND * experiment._LOG_TEST_SLACK == 1e-9 * 130


def test_log_test_bound_covers_its_terms():
    """On the candidates a 1e5-draw sample leaves to the log test, |log V|
    <= 37, |log invalpha| <= 1 and |log h| <= 90, so the settle's bound S'
    is at least S, the sum of the magnitudes of the test's terms."""
    rng = np.random.default_rng(35)
    means = np.exp(rng.uniform(np.log(10.0), np.log(2.0**53), size=(10, 10_000)))
    seeds = rng.integers(0, 2**64, size=10, dtype=np.uint64)
    plan = experiment._draw_plan(means)
    word_u, word_v = experiment._philox_first_block(seeds[plan.rows], plan.keys)
    # numpy's PTRS steps up to its log test, as _ptrs_settle takes them.
    u = (word_u >> np.uint64(11)) * experiment._TO_UNIT - 0.5
    v = (word_v >> np.uint64(11)) * experiment._TO_UNIT
    us = 0.5 - np.abs(u)
    k = np.floor((2.0 * plan.a / us + plan.b) * u + plan.lam + 0.43)
    acc = (us >= 0.07) & (v <= plan.v_r)
    rej = ~acc & ((k < 0.0) | ((us < 0.013) & (v > us)))
    c, i = np.nonzero(~acc & ~rej & (k >= 6.0) & (v > 0.0))
    assert c.size > 10_000
    lam, kk, x = plan.lam[i], k[c, i], k[c, i] + 1.0
    log_v, log_ia = np.log(v[c, i]), plan.log_ia[i]
    log_h = np.log(plan.a[i] / (us[c, i] * us[c, i]) + plan.b[i])
    assert np.abs(log_v).max() <= 37 and np.abs(log_ia).max() <= 1 and np.abs(log_h).max() <= 90
    x2 = (1.0 / x) * (1.0 / x)
    gl0 = (experiment._LOGGAM_A[2] * x2 + experiment._LOGGAM_A[1]) * x2 + experiment._LOGGAM_A[0]
    log_x, k_loglam = np.log(x), kk * plan.log_lam[i]
    bound = experiment._LOG_TEST_SLACK + lam + k_loglam + (x - 0.5) * log_x + x
    magnitudes = (
        np.abs(log_v) + np.abs(log_ia) + np.abs(log_h) + lam + np.abs(k_loglam)
        + np.abs(gl0 / x) + 0.5 * experiment._LG2PI + (x - 0.5) * log_x + x
    )
    assert (bound >= magnitudes).all()


def test_keyed_poisson_without_fallback_points_builds_no_generator(monkeypatch):
    """A block whose points all settle in array code never calls
    _reset_draws: the block is the prefix of columns before the first
    point that falls back."""
    rng = np.random.default_rng(32)
    seeds = [5, 2**64 - 1]
    means = np.exp(rng.uniform(np.log(10.0), np.log(1e6), size=(2, 200)))
    reached = spy_on_reset_draws(monkeypatch)
    keyed_draws(seeds, means)
    width = min(index for _, index in reached)
    assert width > 0

    def unreachable(keys, means):
        raise AssertionError("the fallback sampler was called")

    monkeypatch.setattr(experiment, "_reset_draws", unreachable)
    block = means[:, :width]
    assert np.array_equal(keyed_draws(seeds, block), point_rng_draws(seeds, block))


def test_keyed_poisson_keys_columns_by_their_grid_index():
    """Columns at non-contiguous grid indices, some above 2**32, get the
    draws of point_rng(seed, index) on every route: numpy's sampler below
    10 and at or above _PTRS_MAX, the array settle between.  A strided
    subset of a grid gets the whole grid's draws at its points, and a NaN
    mean raises numpy's own ValueError."""
    rng = np.random.default_rng(34)
    seeds = [0, 2**64 - 1, 987654321]
    points = np.array([0, 7, 8, 320, 2**32 - 1, 2**32 + 5, 2**63, 2**64 - 1], dtype=np.uint64)
    means = np.exp(rng.uniform(np.log(10.0), np.log(1e4), size=(len(seeds), points.size)))
    means[:, 1:3] = 0.5, 9.75
    means[:, -2:] = experiment._PTRS_MAX, 4 * experiment._PTRS_MAX
    want = [
        [point_rng(seed, int(p)).poisson(m) for p, m in zip(points, row)]
        for seed, row in zip(seeds, means)
    ]
    assert np.array_equal(keyed_draws(seeds, means, points), want)
    grid = np.exp(rng.uniform(np.log(1.0), np.log(1e4), size=(len(seeds), 2000)))
    subset = np.arange(3, 2000, 7)
    whole = keyed_draws(seeds, grid)
    assert np.array_equal(keyed_draws(seeds, grid[:, subset], subset), whole[:, subset])
    means[1, 3] = np.nan
    with pytest.raises(ValueError) as theirs:
        point_rng(seeds[1], int(points[3])).poisson(np.nan)
    with pytest.raises(ValueError) as ours:
        keyed_draws(seeds, means, points)
    assert str(ours.value) == str(theirs.value)


def test_reset_draws_keep_one_generator_per_thread():
    """Threads drawing at once, switching every microsecond, each keep and
    reset a generator of their own, and every draw still equals
    point_rng's."""
    keys = [(seed, i) for seed in (3, 2**64 - 1) for i in range(40)]
    means = [50.0 + 7.0 * i for i in range(len(keys))]
    want = [point_rng(seed, i).poisson(m) for (seed, i), m in zip(keys, means)]
    start = threading.Barrier(6)
    generators, failures = [], []

    def work(shift):
        # Each thread walks the keys from its own start.
        mine = (keys[shift:] + keys[:shift], means[shift:] + means[:shift])
        try:
            start.wait(timeout=60)
            for _ in range(20):
                if experiment._reset_draws(*mine) != want[shift:] + want[:shift]:
                    failures.append(f"thread {shift}: draws differ")
                    return
            generators.append(experiment._THREAD.reset_generator)
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len({id(generator) for generator in generators}) == len(threads)


@pytest.mark.parametrize("bad", [np.nan, -1.0, 1e300])
def test_keyed_poisson_raises_numpys_errors(bad):
    means = np.full((2, 50), 500.0)
    means[1, 20] = bad
    with pytest.raises(ValueError) as theirs:
        point_rng(7, 20).poisson(bad)
    with pytest.raises(ValueError) as ours:
        keyed_draws([3, 7], means)
    assert str(ours.value) == str(theirs.value)


def test_trace_csv_roundtrip(tmp_path, lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    trace = sample_scan(phi, phi, make_config(seed=9))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "delay_s,counts,R_hat"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], trace.delays)
    np.testing.assert_allclose(data[:, 1], trace.counts)
    write_trace_csv(trace, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
