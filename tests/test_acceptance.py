"""End-to-end acceptance checks for the full toolkit.

Each test prints one [PASS]/[FAIL] line per checked criterion so a suite run
doubles as a scorecard.  Tolerances are part of the contract and are not to
be loosened here.
"""

import json
import time

import numpy as np

from poltime import cli, experiment, hilbert, hom, optics, tomography
from poltime.hilbert import (
    DensityMatrix,
    PhotonState,
    StateAnnihilatedError,
    TimeBinLattice,
    Wavepacket,
)

TAU = 2.3e-12
SIGMA = TAU / 10


def report(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return ok


def random_pure(rng, lattice, packet):
    amps = rng.normal(size=2 * lattice.bin_count) + 1j * rng.normal(
        size=2 * lattice.bin_count
    )
    return PhotonState(amps / np.linalg.norm(amps), lattice, packet)


def exact_counts(rho_logical, tset, baseline=1000.0, visibility=1.0):
    projs = tomography.projector_stack(tset)
    expect = np.real(np.einsum("iab,ba->i", projs, rho_logical))
    q = 1.0 - visibility * expect
    return np.stack([baseline * q, np.full(len(tset.members), baseline)], axis=1)


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


# ---------------------------------------------------------------------------
# 1. Encoding pipeline
# ---------------------------------------------------------------------------


def test_encoding_pipeline_reaches_bell_state(lattice, packet):
    source = hilbert.basis_state("h", 0, lattice, packet)
    pipe = optics.OpticalPipeline(
        (
            optics.HalfWavePlate(np.pi / 8),
            optics.crystal_with_delay(lattice.tau),
        )
    )
    target = hilbert.named_state("phi_plus", lattice, packet)
    optics.apply_pipeline(pipe, source)  # warm caches before timing
    t0 = time.perf_counter()
    out = optics.apply_pipeline(pipe, source)
    elapsed = time.perf_counter() - t0
    fid = abs(hilbert.inner_product(target, out)) ** 2
    ok = report(
        "encoding: plate + crystal pipeline produces the entangled state",
        fid >= 1.0 - 1e-12 and elapsed < 1e-3,
        f"fidelity={fid:.2e} wall={elapsed * 1e6:.0f}us",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. Gate matrix
# ---------------------------------------------------------------------------


def test_gate_matrix_consistency(lattice, packet):
    u = optics.gate_matrix()
    crystal = optics.crystal_with_delay(lattice.tau)
    physical = np.zeros((4, 4), dtype=complex)
    for col, (pol, b) in enumerate([("h", 0), ("h", 1), ("v", 0), ("v", 1)]):
        state = hilbert.basis_state(pol, b, lattice, packet)
        out = optics.element_action(crystal, state)
        physical[:, col] = out.as_matrix()[:, :2].reshape(-1)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    checks = [
        np.max(np.abs(u - physical)) <= 1e-12,
        np.max(np.abs(u.conj().T @ u - np.diag([1, 1, 1, 0]))) <= 1e-12,
        np.max(np.abs(u[:, :3] - cnot[:, :3])) == 0.0,
    ]
    ok = report(
        "gate: logical matrix equals projected crystal action, partial isometry, "
        "controlled-NOT on the in-space columns",
        all(checks),
        f"max|U-phys|={np.max(np.abs(u - physical)):.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. Fock oracle equivalence
# ---------------------------------------------------------------------------


def test_interference_model_matches_fock_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        bins = int(rng.integers(2, 5))
        lattice = TimeBinLattice(bins, TAU)
        packet = Wavepacket(TAU / 16 if rng.integers(2) else TAU / 20)
        enc = random_pure(rng, lattice, packet)
        anc = random_pure(rng, lattice, packet)
        delay = float(rng.uniform(-2, 2)) * TAU
        fast = hom.coincidence_ratio(enc, anc, delay, 1.0)
        slow = hom.fock_oracle_ratio(enc, anc, delay, 1.0)
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - t0
    ok = report(
        "interference: closed form matches two-photon Fock enumeration on 200 triples",
        worst <= 1e-9 and elapsed < 10.0,
        f"max|dev|={worst:.2e} wall={elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. Dip scan structures
# ---------------------------------------------------------------------------


def test_dip_scan_structures(lattice):
    # Resolvable-bin regime; broader envelopes blur the 3/4 side dips at
    # the few-1e-6 level through adjacent-bin tails.
    packet = Wavepacket(TAU / 16)
    grid = experiment.default_delay_grid(TAU)

    def ratios(encoded, ancilla):
        return hom.scan_trace(encoded, ancilla, grid, 1.0)

    def at(values, delay):
        return values[int(np.argmin(np.abs(grid - delay)))]

    phi_p = hilbert.named_state("phi_plus", lattice, packet)
    phi_m = hilbert.named_state("phi_minus", lattice, packet)
    p_plus = hilbert.product_state("p", "+", lattice, packet)
    p_minus = hilbert.product_state("p", "-", lattice, packet)

    same = ratios(phi_p, phi_p)
    cross = ratios(phi_p, phi_m)
    shift_same = ratios(p_plus, p_plus)
    shift_cross = ratios(p_plus, p_minus)

    checks = {
        "identical entangled pair dips fully at zero delay": at(same, 0.0) <= 1e-12,
        "identical entangled pair flat at the bin lags": min(
            at(same, TAU), at(same, -TAU)
        )
        >= 1.0 - 1e-6,
        "orthogonal entangled pair never dips": cross.min() >= 1.0 - 1e-6,
        "shifted superposition side dips are one quarter deep": max(
            abs(at(shift_same, TAU) - 0.75),
            abs(at(shift_same, -TAU) - 0.75),
            abs(at(shift_cross, TAU) - 0.75),
            abs(at(shift_cross, -TAU) - 0.75),
        )
        <= 1e-6,
        "shifted superposition centers": at(shift_same, 0.0) <= 1e-12
        and at(shift_cross, 0.0) >= 1.0 - 1e-6,
    }
    ok = all(checks.values())
    report(
        "dip structure: four canonical scans show the expected shapes",
        ok,
        "; ".join(k for k, v in checks.items() if not v) or "all shapes exact",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Visibility recovery
# ---------------------------------------------------------------------------


def test_visibility_recovery_statistics(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    delays = experiment.compact_delay_grid(TAU, SIGMA)
    all_ok = True
    details = []
    for v in (0.94, 0.89):
        hits = 0
        for seed in range(200):
            cfg = experiment.ScanConfig(
                delays=delays, baseline_counts=1e4, seed=seed, visibility=v
            )
            trace = experiment.sample_scan(phi, phi, cfg)
            if abs(experiment.estimate_visibility(trace) - v) <= 0.02:
                hits += 1
        details.append(f"v={v}: {hits}/200 within 0.02")
        all_ok &= hits >= 190
    ok = report(
        "visibility: injected dip visibilities recovered at high count rates",
        all_ok,
        "; ".join(details),
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. Noiseless reconstruction round trip
# ---------------------------------------------------------------------------


def test_noiseless_reconstruction_roundtrip(lattice, packet, tset):
    worst_fid = 1.0
    worst_dist = 0.0

    def run_one(rho_true, seed):
        nonlocal worst_fid, worst_dist
        counts = exact_counts(rho_true, tset)
        result = tomography.mle_reconstruct(counts, tset, seed=seed)
        rho_hat = tomography.logical_rho(result)
        worst_fid = min(worst_fid, tomography.fidelity(rho_hat, rho_true))
        p = 1.0 - counts[:, 0] / counts[:, 1]
        rho_li, _ = tomography.linear_inversion(p, tset)
        worst_dist = max(worst_dist, trace_distance(rho_hat, rho_li))

    for name in ("phi_plus", "p_plus", "rl_bell"):
        vec = hilbert.logical_vector(hilbert.named_state(name, lattice, packet))
        run_one(np.outer(vec, vec.conj()), seed=0)
    rng = np.random.default_rng(123)
    for seed in range(100):
        run_one(tomography.random_density_matrix(4, rng), seed=seed)

    ok = report(
        "noiseless tomography: likelihood fit recovers truth and matches linear"
        " inversion",
        worst_fid >= 0.999 and worst_dist <= 1e-6,
        f"min fid={worst_fid:.7f} max dist={worst_dist:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Noisy-regime reconstruction statistics
# ---------------------------------------------------------------------------


def test_noisy_regime_reconstruction_statistics(lattice, packet, tset):
    """Counting noise at a realistic budget: high median fidelity and
    bootstrap error bars in the expected band for all three reference states."""
    visibility = 0.94
    baseline = 1000.0
    delays = experiment.compact_delay_grid(TAU, SIGMA)
    t0 = time.perf_counter()
    failures = []
    for name in ("phi_plus", "p_plus", "rl_bell"):
        target = hilbert.named_state(name, lattice, packet)
        fids = []
        for seed in range(100):
            bundle = tomography.simulate_counts(
                target,
                tset,
                baseline,
                visibility=visibility,
                master_seed=seed,
                delays=delays,
                calibrate=False,
            )
            res = tomography.mle_reconstruct(
                bundle.counts, tset, visibility=visibility, target=target, seed=seed
            )
            fids.append(res.fidelity_vs_target)
        median = float(np.median(fids))

        noiseless = tomography.simulate_counts(
            target,
            tset,
            baseline,
            visibility=visibility,
            master_seed=0,
            delays=delays,
            noiseless=True,
            calibrate=False,
        )
        boot = tomography.bootstrap_errors(
            noiseless.counts, tset, visibility, target, replicas=100, seed=0
        )
        std = boot.fidelity_std

        median_ok = median >= 0.95
        band_ok = 0.003 <= std <= 0.03
        report(
            f"noisy regime [{name}]: median fidelity over 100 seeds",
            median_ok,
            f"median={median:.4f} (threshold 0.95)",
        )
        report(
            f"noisy regime [{name}]: bootstrap fidelity spread in band",
            band_ok,
            f"std={std:.4f} (band [0.003, 0.03])",
        )
        if not median_ok:
            failures.append(f"{name} median {median:.4f} < 0.95")
        if not band_ok:
            failures.append(f"{name} bootstrap std {std:.4f} outside [0.003, 0.03]")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 300s")
    report(
        "noisy regime: all reference states within statistical contract",
        not failures,
        f"wall={elapsed:.0f}s" + ("; " + "; ".join(failures) if failures else ""),
    )
    assert not failures, "; ".join(failures)


def test_noisy_regime_contract_holds_at_equal_total_budget(lattice, packet, tset):
    """The default design meets the same contract with the photons of the
    paper's 16-scan schedule spread over its own scans.  phi_plus is not one
    of the default set's projectors, so it tests the design off its members."""
    visibility = 0.94
    baseline = 1000.0 * 16 / len(tset.scans)
    assert len(tset.scans) == 18
    delays = experiment.compact_delay_grid(TAU, SIGMA)
    target = hilbert.named_state("phi_plus", lattice, packet)
    fids = []
    for seed in range(100):
        bundle = tomography.simulate_counts(
            target,
            tset,
            baseline,
            visibility=visibility,
            master_seed=seed,
            delays=delays,
            calibrate=False,
        )
        res = tomography.mle_reconstruct(
            bundle.counts, tset, visibility=visibility, target=target, seed=seed
        )
        fids.append(res.fidelity_vs_target)
    median = float(np.median(fids))
    noiseless = tomography.simulate_counts(
        target,
        tset,
        baseline,
        visibility=visibility,
        master_seed=0,
        delays=delays,
        noiseless=True,
        calibrate=False,
    )
    std = tomography.bootstrap_errors(
        noiseless.counts, tset, visibility, target, replicas=100, seed=0
    ).fidelity_std
    median_ok = report(
        "equal budget [phi_plus]: median fidelity over 100 seeds",
        median >= 0.95,
        f"median={median:.4f} (threshold 0.95) at baseline {baseline:.1f}",
    )
    band_ok = report(
        "equal budget [phi_plus]: bootstrap fidelity spread in band",
        0.003 <= std <= 0.03,
        f"std={std:.4f} (band [0.003, 0.03])",
    )
    assert median_ok and band_ok, f"median {median:.4f}, std {std:.4f}"


# ---------------------------------------------------------------------------
# 8. Invariant sweeps
# ---------------------------------------------------------------------------


def test_invariant_property_sweeps(lattice, packet):
    rng = np.random.default_rng(2024)
    n = 1000
    failures = []

    # Density matrices: Hermitian, PSD, unit trace.
    for _ in range(n):
        rho = tomography.random_density_matrix(4, rng)
        if (
            np.max(np.abs(rho - rho.conj().T)) > 1e-12
            or np.linalg.eigvalsh(rho).min() < -1e-10
            or abs(np.trace(rho).real - 1.0) > 1e-12
        ):
            failures.append("density matrix invariants")
            break

    # Dip ratio bounds, pure/density agreement, swap symmetry.
    worst_bound = 0.0
    worst_agree = 0.0
    worst_swap = 0.0
    for _ in range(n):
        a = random_pure(rng, lattice, packet)
        b = random_pure(rng, lattice, packet)
        delay = float(rng.uniform(-2, 2)) * TAU
        v = float(rng.uniform(0, 1))
        r = hom.coincidence_ratio(a, b, delay, v)
        worst_bound = max(worst_bound, max(-r, r - 1.0))
        r_density = hom.coincidence_ratio(hilbert.to_density(a), b, delay, v)
        worst_agree = max(worst_agree, abs(r - r_density))
        worst_swap = max(
            worst_swap, abs(r - hom.coincidence_ratio(b, a, -delay, v))
        )
    if worst_bound > 0.0:
        failures.append("ratio bounds")
    if worst_agree > 1e-12:
        failures.append("pure/density agreement")
    if worst_swap > 1e-12:
        failures.append("swap symmetry")

    # Linearity in the encoded density matrix.
    worst_lin = 0.0
    for _ in range(n):
        rho1 = hilbert.to_density(random_pure(rng, lattice, packet))
        rho2 = hilbert.to_density(random_pure(rng, lattice, packet))
        lam = float(rng.uniform(0, 1))
        blend = DensityMatrix(
            lam * rho1.matrix + (1 - lam) * rho2.matrix, lattice, packet
        )
        anc = random_pure(rng, lattice, packet)
        delay = float(rng.uniform(-2, 2)) * TAU
        r_blend = hom.coincidence_ratio(blend, anc, delay, 1.0)
        r_mix = lam * hom.coincidence_ratio(rho1, anc, delay, 1.0) + (
            1.0 - lam
        ) * hom.coincidence_ratio(rho2, anc, delay, 1.0)
        worst_lin = max(worst_lin, abs(r_blend - r_mix))
    if worst_lin > 1e-12:
        failures.append("linearity in the mixed state")

    # Plate unitarity and polarizer/gate contractivity.
    worst_unitary = 0.0
    worst_contract = 0.0
    u = optics.gate_matrix()
    for _ in range(n):
        state = random_pure(rng, lattice, packet)
        theta = float(rng.uniform(0, np.pi))
        plate = (
            optics.HalfWavePlate(theta)
            if rng.integers(2)
            else optics.QuarterWavePlate(theta)
        )
        out = optics.element_action(plate, state)
        worst_unitary = max(worst_unitary, abs(out.norm_squared - state.norm_squared))
        try:
            pol_out = optics.element_action(optics.Polarizer(theta), state)
            worst_contract = max(
                worst_contract, pol_out.norm_squared - state.norm_squared
            )
        except StateAnnihilatedError:
            pass
        vec = hilbert.logical_vector(state)
        worst_contract = max(
            worst_contract, float(np.linalg.norm(u @ vec) - np.linalg.norm(vec))
        )
    if worst_unitary > 1e-12:
        failures.append("wave plate unitarity")
    if worst_contract > 1e-12:
        failures.append("polarizer/gate contractivity")

    # Partial trace: trace preserving, PSD, pure on product states.
    for _ in range(n):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = DensityMatrix(mat, lattice, packet)
        pol = hilbert.partial_trace_time(rho)
        if (
            abs(np.trace(pol).real - rho.trace) > 1e-12
            or np.linalg.eigvalsh(pol).min() < -1e-10
        ):
            failures.append("partial trace conservation")
            break
    for _ in range(n):
        pvec = rng.normal(size=2) + 1j * rng.normal(size=2)
        bvec = rng.normal(size=2) + 1j * rng.normal(size=2)
        pvec /= np.linalg.norm(pvec)
        bvec /= np.linalg.norm(bvec)
        state = hilbert.product_state(pvec, bvec, lattice, packet)
        pol = hilbert.partial_trace_time(hilbert.to_density(state))
        purity = float(np.trace(pol @ pol).real)
        if abs(purity - 1.0) > 1e-10:
            failures.append("product state purity after partial trace")
            break

    ok = report(
        "invariants: 1000-instance sweeps over states, ratios, elements, traces",
        not failures,
        "; ".join(sorted(set(failures))) or "all sweeps clean",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Deterministic command-line artifacts
# ---------------------------------------------------------------------------


def test_cli_outputs_are_deterministic(tmp_path):
    scan_cfg = tmp_path / "scan.json"
    scan_cfg.write_text(
        json.dumps({"encoded_target": "phi_plus", "ancilla": "p_plus", "seed": 5})
    )
    tomo_cfg = tmp_path / "tomo.json"
    tomo_cfg.write_text(
        json.dumps(
            {
                "encoded_target": "rl_bell",
                "ancilla": "tomography",
                "seed": 5,
                "replicas": 10,
            }
        )
    )
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert (
            cli.main(
                [
                    "scan",
                    "--config",
                    str(scan_cfg),
                    "--out",
                    str(out),
                    "--no-timestamp",
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "tomography",
                    "--config",
                    str(tomo_cfg),
                    "--out",
                    str(out),
                    "--no-timestamp",
                ]
            )
            == 0
        )
        blobs.append(
            {
                name: (out / name).read_bytes()
                for name in (
                    "trace.csv",
                    "summary.json",
                    "result.json",
                    "projections.csv",
                    "rho_real.csv",
                    "rho_imag.csv",
                )
            }
        )
    ok = report(
        "determinism: repeated scan and tomography runs are byte-identical",
        blobs[0] == blobs[1],
    )
    assert ok
