"""The block scan model pinned against the per-scan path it replaced.

`reference_shifted_vector` and `reference_scan_trace` are
`hom.shifted_ancilla_vector` and `hom.scan_trace` as they were before every
scan of a run became one block, copied verbatim: each scan built its own
envelope table and took its shifted vectors as the stacked complex product
`amps @ np.swapaxes(env, -1, -2)`.  `reference_simulate_counts` is the
per-trace readout of `tomography.simulate_counts` from that time, with each
count drawn from its own `point_rng` and each baseline from its own plateau
mask, written out here as it was but for one row per reading where it
pooled the readings of a member.  The block path must give the same
bits, not merely close numbers: an elementwise sum over the ancilla bins in
place of the product moves some entries by an ulp, and these tests are
there to catch exactly that.
"""

import numpy as np
import pytest
from conftest import on_each_grid, wide_grid

from poltime import experiment, hilbert, hom, tomography
from poltime.hilbert import DensityMatrix, PhotonState, TimeBinLattice, Wavepacket

TAU = 2.3e-12


def reference_shifted_vector(ancilla, delay, target_bin_count):
    tau = ancilla.lattice.tau
    amps = ancilla.as_matrix()
    k = np.arange(ancilla.bin_count)
    j = np.arange(target_bin_count)
    d = np.asarray(delay, dtype=float)
    # (..., target_bins, ancilla_bins)
    dt = d[..., None, None] + (k[None, :] - j[:, None]) * tau
    env = np.exp(-0.125 * (dt / ancilla.packet.sigma_t) ** 2)
    return (amps @ np.swapaxes(env, -1, -2)).reshape(d.shape + (-1,))


def reference_scan_trace(encoded, ancilla, delays, vis=1.0):
    grid = np.asarray(delays, dtype=float)
    g = reference_shifted_vector(ancilla, grid, encoded.bin_count)
    if isinstance(encoded, DensityMatrix):
        mg = np.matmul(encoded.matrix[None], g[:, :, None])
        raw = np.matmul(g.conj()[:, None, :], mg)[:, 0, 0].real
    else:
        e = encoded.amplitudes.conj()
        z = np.matmul(g[:, None, :], e[None, :, None])[:, 0, 0]
        raw = np.float_power(np.hypot(z.real, z.imag), 2.0)
    return 1.0 - vis * np.clip(raw, 0.0, 1.0)


def reference_simulate_counts(encoded, tset, baseline_counts, visibility, master_seed,
                              delays, noiseless, calibrate=True):
    """(counts, visibility_hat, trace counts) scan by scan."""
    calibrated = calibrate and isinstance(encoded, PhotonState)
    runs = [(encoded, 0)] if calibrated else []
    runs += [(tset.members[a][1], j + 1) for j, a in enumerate(tset.scans)]
    traces = []
    for ancilla, stream in runs:
        seed = int(experiment.derive_seeds(master_seed, [stream])[0])
        expected = baseline_counts * reference_scan_trace(encoded, ancilla, delays, visibility)
        counts = expected.copy() if noiseless else np.array([
            float(experiment.point_rng(seed, i).poisson(m)) for i, m in enumerate(expected)
        ])
        traces.append(experiment.ScanTrace(
            delays, counts, expected, seed, TAU, encoded.packet.sigma_t, 2, noiseless,
        ))

    def baseline_mask(trace):
        lags = np.arange(-(trace.n_bins - 1), trace.n_bins) * trace.tau
        dist = np.abs(trace.delays[:, None] - lags[None, :]).min(axis=1)
        return dist > experiment.BASELINE_EXCLUSION_SIGMAS * trace.sigma_t

    def baseline(trace):
        return float(trace.counts[baseline_mask(trace)].mean())

    def at(trace, lag):
        return int(np.argmin(np.abs(trace.delays - lag * trace.tau)))

    v_hat = visibility
    if calibrated:
        cal = traces.pop(0)
        v_hat = float(np.clip(1.0 - cal.counts[at(cal, 0)] / baseline(cal), 0.0, 1.0))
    baselines = [baseline(trace) for trace in traces]
    counts = [(traces[j].counts[at(traces[j], lag)], baselines[j]) for j, lag, _ in tset.readings]
    return np.array(counts), v_hat, [trace.counts for trace in traces]


def random_pure(rng, lattice, packet):
    amps = rng.normal(size=2 * lattice.bin_count) + 1j * rng.normal(size=2 * lattice.bin_count)
    return PhotonState(amps / np.linalg.norm(amps), lattice, packet)


@pytest.mark.parametrize("v", [1.0, 0.94])
@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("enc_bins,anc_bins", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_block_scan_equals_per_scan_reference_bit_for_bit(enc_bins, anc_bins, mixed, v):
    rng = np.random.default_rng(1000 * enc_bins + 100 * anc_bins + 10 * mixed)
    packet = Wavepacket(0.127e-12)
    enc_lattice, anc_lattice = TimeBinLattice(enc_bins, TAU), TimeBinLattice(anc_bins, TAU)
    encoded = random_pure(rng, enc_lattice, packet)
    if mixed:
        rho = tomography.random_density_matrix(2 * enc_bins, rng)
        encoded = DensityMatrix(rho, enc_lattice, packet)
    ancillas = [random_pure(rng, anc_lattice, packet) for _ in range(4)]
    ancillas += [
        hilbert.product_state("h", "0", anc_lattice, packet),
        hilbert.product_state("r", "t", anc_lattice, packet),
        hilbert.product_state("p", "+", anc_lattice, packet),
    ]
    grids = [np.sort(rng.uniform(-3, 3, 361)) * TAU, np.array([0.4 * TAU])]
    for grid in grids:
        block = hom.scan_traces(encoded, ancillas, grid, v)
        assert block.shape == (len(ancillas), grid.size)
        for ancilla, row in zip(ancillas, block):
            expected = reference_scan_trace(encoded, ancilla, grid, v)
            assert np.array_equal(row, expected)
            assert np.array_equal(hom.scan_trace(encoded, ancilla, grid, v), expected)
            g = reference_shifted_vector(ancilla, grid, enc_bins)
            assert np.array_equal(hom.shifted_ancilla_vector(ancilla, grid, enc_bins), g)
    for ancilla in ancillas:
        delay = float(rng.uniform(-2, 2) * TAU)
        scalar = reference_shifted_vector(ancilla, delay, enc_bins)
        assert np.array_equal(hom.shifted_ancilla_vector(ancilla, delay, enc_bins), scalar)
        ratio = reference_scan_trace(encoded, ancilla, [delay], v)[0]
        assert hom.coincidence_ratio(encoded, ancilla, delay, v) == ratio


def test_sampled_scans_equal_per_scan_reference_bit_for_bit():
    lattice, packet = TimeBinLattice(2, TAU), Wavepacket(TAU / 10)
    tset = tomography.default_tomography_set(lattice, packet)
    encoded = hilbert.named_state("rl_bell", lattice, packet)
    ancillas = tset.states()
    delays = experiment.compact_delay_grid(TAU, packet.sigma_t)
    seeds = experiment.derive_seeds(5, range(len(ancillas))).tolist()
    traces = experiment.sample_block(encoded, ancillas, seeds, delays, 1000.0, 0.94, False)
    for ancilla, seed, trace in zip(ancillas, seeds, traces):
        expected = 1000.0 * reference_scan_trace(encoded, ancilla, delays, 0.94)
        assert np.array_equal(trace.expected, expected)
        counts = [experiment.point_rng(seed, i).poisson(m) for i, m in enumerate(expected)]
        assert np.array_equal(trace.counts, counts)
        assert trace.seed == seed


@pytest.mark.parametrize("set_maker, encoded_kind, noiseless, grid", on_each_grid(
    [tomography.default_tomography_set, tomography.product_tomography_set],
    ["phi_plus", "p_plus", "mixed"],
    [False, True],
))
def test_simulated_counts_equal_per_scan_reference(set_maker, encoded_kind, noiseless, grid):
    """Counts, baselines and the calibrated visibility of the block readout,
    and the lazily built traces, equal the per-trace readout bit for bit, on
    the compact grid and on the CLI's default grid, of which a run models
    and draws only the points it reads."""
    if grid == "compact":
        packet = Wavepacket(0.127e-12)
        delays = experiment.compact_delay_grid(TAU, packet.sigma_t)
    else:
        packet, delays = wide_grid(grid)
    lattice = TimeBinLattice(2, TAU)
    tset = set_maker(lattice, packet)
    if encoded_kind == "mixed":
        rho = tomography.random_density_matrix(4, np.random.default_rng(11))
        encoded = DensityMatrix(rho, lattice, packet)
    else:
        encoded = hilbert.named_state(encoded_kind, lattice, packet)
    for seed, v, calibrate in ((0, 0.94, True), (2**64 - 1, 1.0, True), (17, 0.94, False)):
        bundle = tomography.simulate_counts(
            encoded, tset, 1000.0, visibility=v, master_seed=seed, delays=delays,
            noiseless=noiseless, calibrate=calibrate,
        )
        counts, v_hat, trace_counts = reference_simulate_counts(
            encoded, tset, 1000.0, v, seed, delays, noiseless, calibrate
        )
        assert np.array_equal(bundle.counts, counts)
        assert bundle.visibility_hat == v_hat
        assert np.array_equal([t.counts for t in bundle.traces], trace_counts)
