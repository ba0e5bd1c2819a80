"""Synthetic scan sampling and estimation: Poisson counts, baselines,
projection readings, visibility calibration, determinism."""

import numpy as np
import pytest

from poltime import experiment, hilbert, hom
from poltime.experiment import (
    ProjectionReading,
    ScanConfig,
    ScanTrace,
    compact_delay_grid,
    default_delay_grid,
    derive_seed,
    estimate_baseline,
    estimate_visibility,
    extract_projections,
    occupied_bins,
    point_rng,
    read_dips,
    reading_lags,
    sample_scan,
    sample_scans,
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


@pytest.mark.parametrize("noiseless", [False, True])
@pytest.mark.parametrize("bad_seed", [-1, 2**64])
def test_sample_scans_checks_every_seed(lattice, packet, noiseless, bad_seed):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    delays = compact_delay_grid(TAU, SIGMA)
    with pytest.raises(ValueError, match="seed"):
        sample_scans(phi, [phi, phi], [0, bad_seed], delays, 100.0, noiseless=noiseless)


@pytest.mark.parametrize("encoded_bins", [2, 3])
def test_sample_scans_refuse_ancillas_on_mixed_lattices(lattice, packet, encoded_bins):
    wide = hilbert.TimeBinLattice(3, TAU)
    encoded = hilbert.named_state("phi_plus", lattice if encoded_bins == 2 else wide, packet)
    ancillas = [hilbert.named_state("p+", lattice, packet), hilbert.named_state("rx", wide, packet)]
    delays = compact_delay_grid(TAU, SIGMA, n_bins=3)
    with pytest.raises(ValueError, match="share one bin count"):
        sample_scans(encoded, ancillas, [0, 1], delays, 100.0)
    with pytest.raises(ValueError, match="share one bin count"):
        hom.scan_traces(encoded, ancillas, delays)


def test_sample_scan_requires_baseline_reach(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    narrow = ScanConfig(
        delays=np.linspace(-TAU / 2, TAU / 2, 9), baseline_counts=100, seed=0
    )
    with pytest.raises(ValueError):
        sample_scan(phi, phi, narrow)


def test_sample_scans_reach_is_the_plateau_of_read_dips(lattice, packet):
    """A two-bin grid must reach past tau + 12 sigma_t, where read_dips'
    plateau starts: just past it the scan runs and has baseline points; at
    it, no grid point is on the plateau and the scan is refused."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    reach = experiment.plateau_reach(TAU, SIGMA, 2)
    assert reach == TAU + 12 * SIGMA
    grid = np.array([-reach - 1e-14, -TAU, 0.0, TAU, reach + 1e-14])
    (trace,) = sample_scans(phi, [phi], [0], grid, 1000.0, noiseless=True)
    baselines, _ = experiment.read_dips([trace], (0,))
    assert baselines[0] == pytest.approx(1000.0, rel=1e-6)
    with pytest.raises(ValueError, match="reach past"):
        sample_scans(phi, [phi], [0], np.array([-reach, -TAU, 0.0, TAU, reach]), 1000.0)


@pytest.mark.parametrize("n_bins", [2, 3, 4, 5])
def test_compact_grid_reaches_the_plateau_for_any_bin_count(packet, n_bins):
    """The wings start past plateau_reach for the grid's bin count; the 2- and
    3-bin grids keep their wings at 2 tau + 12 sigma_t + step."""
    grid = compact_delay_grid(TAU, SIGMA, n_bins=n_bins)
    state = hilbert.basis_state("h", n_bins - 1, hilbert.TimeBinLattice(n_bins, TAU), packet)
    (trace,) = sample_scans(state, [state], [0], grid, 1000.0, noiseless=True)
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
    (n0,), (dips,) = read_dips([trace], (-1, 0, 1))
    np.testing.assert_allclose(dips / n0, [1.0, 0.0, 1.0], atol=1e-6)
    assert dips[1] / n0 == pytest.approx(0.0, abs=1e-9)


def test_reading_lags():
    assert reading_lags({0}) == (0, 1)
    assert reading_lags(frozenset({1})) == (0, -1)
    assert reading_lags({0, 1}) == (0,)
    with pytest.raises(ValueError, match="at least one bin"):
        reading_lags(set())


def test_read_dips_of_many_scans_equals_one_scan_reads(lattice, packet, tset):
    """One read of S traces gives, bit for bit, each trace's own read, the
    one-scan readers, and the counts at the grid points on the lags, column
    by position in `lags`."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    ancillas = tset.states()[:6]
    delays = make_config().delays
    traces = sample_scans(phi, ancillas, range(6), delays, 1000.0, 0.94)
    lags = (1, -1, 0)
    baselines, dips = read_dips(traces, lags)
    assert baselines.shape == (6,) and dips.shape == (6, 3)
    columns = [int(np.argmin(np.abs(delays - lag * TAU))) for lag in lags]
    for trace, n0, row, ancilla in zip(traces, baselines, dips, ancillas):
        (one_n0,), (one_row,) = read_dips([trace], lags)
        assert n0 == one_n0 and np.array_equal(row, one_row)
        assert np.array_equal(row, trace.counts[columns])
        assert n0 == estimate_baseline(trace)
        assert estimate_visibility(trace) == float(np.clip(1.0 - row[2] / n0, 0.0, 1.0))
        for reading in extract_projections(trace, occupied_bins(ancilla)):
            dip = row[lags.index(reading.lag)]
            assert reading.p_hat == float(np.clip(1.0 - dip / n0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Helpers and serialization
# ---------------------------------------------------------------------------


def test_occupied_bins(lattice, packet):
    assert occupied_bins(hilbert.basis_state("h", 0, lattice, packet)) == {0}
    assert occupied_bins(hilbert.basis_state("v", 1, lattice, packet)) == {1}
    assert occupied_bins(hilbert.product_state("p", "+", lattice, packet)) == {0, 1}


def test_seed_derivation_is_stable_and_distinct():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    seeds = {derive_seed(0, i) for i in range(100)}
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


def test_keyed_poisson_equals_point_rng_draw_for_draw():
    """The array draws against their definition: about 2e4 draws over every
    regime of numpy's Poisson sampler (zero, multiplication below 10, both
    sides of the switch at 10, transformed rejection, huge means)."""
    fixed = [0.0, 1e-3, np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 20.0), 1e7]
    rng = np.random.default_rng(6)
    seeds = [0, 2**64 - 1, 1, 2**63, *rng.integers(2, 2**62, size=6).tolist()]
    means = np.exp(rng.uniform(np.log(60.0), np.log(1e4), size=(len(seeds), 2000)))
    means[:, ::3] = np.resize(fixed, means[:, ::3].size).reshape(len(seeds), -1)
    got = experiment._keyed_poisson(seeds, means)
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
        assert np.array_equal(experiment._keyed_poisson(seeds, means), want)
        fallback[band] = len(reached)
        monkeypatch.undo()
    assert fallback[0.0] <= fallback[shipped] < fallback[np.inf]


def test_keyed_poisson_without_fallback_points_builds_no_generator(monkeypatch):
    """A block whose points all settle in array code never calls
    _reset_draws: the block is the prefix of columns before the first
    point that falls back."""
    rng = np.random.default_rng(32)
    seeds = [5, 2**64 - 1]
    means = np.exp(rng.uniform(np.log(10.0), np.log(1e6), size=(2, 200)))
    reached = spy_on_reset_draws(monkeypatch)
    experiment._keyed_poisson(seeds, means)
    width = min(index for _, index in reached)
    assert width > 0

    def unreachable(keys, means):
        raise AssertionError("the fallback sampler was called")

    monkeypatch.setattr(experiment, "_reset_draws", unreachable)
    block = means[:, :width]
    assert np.array_equal(experiment._keyed_poisson(seeds, block), point_rng_draws(seeds, block))


@pytest.mark.parametrize("bad", [np.nan, -1.0, 1e300])
def test_keyed_poisson_raises_numpys_errors(bad):
    means = np.full((2, 50), 500.0)
    means[1, 20] = bad
    with pytest.raises(ValueError) as theirs:
        point_rng(7, 20).poisson(bad)
    with pytest.raises(ValueError) as ours:
        experiment._keyed_poisson([3, 7], means)
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
