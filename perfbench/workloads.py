"""The benchmark's workloads, their inputs and their output checks.

Every workload is an endless, seed-determined sequence of operations.
`inputs(i)` builds the inputs of operation i outside the timed region,
`run` is the timed call into poltime, and `check` validates the outputs and
returns the bytes that the RNG fixes, for the determinism digest.  All
calls into poltime go through module attributes, so the tracer sees them.

Why these three (the acceptance regime V = 0.94, N0 = 1000 throughout):

- tomography_run: the user's headline `poltime tomography` run, with self-
  calibration on the default grid.  The bootstrap is about 2/3 of it and the
  fits about 3/4, so a faster or batched solver shows here.
- seed_sweep: one scan-and-fit reconstruction on the compact grid, the unit
  of the acceptance and benchmark scripts.  Single fits, no bootstrap: a
  change that only batches bootstrap replicas should not move it.
- scan_sweep: prepare, scan and read out one ancilla on the default grid,
  with no fit at all.  Covers both interference branches (pure and mixed
  encoded states, one- and two-bin ancillas); every fifth scan is noiseless
  and so never touches the point RNG.
"""

from __future__ import annotations

import json
import shutil

import numpy as np

TARGETS = ("phi_plus", "p_plus", "rl_bell")
VISIBILITY = 0.94
BASELINE = 1000.0
TAU = 2.3e-12
SIGMA_ACCEPTANCE = TAU / 10.0  # the arena of tests/test_acceptance.py
CANONICAL_PAIRINGS = (  # scripts/run_dip_scans.py
    ("phi_plus", "phi_plus"),
    ("phi_plus", "phi_minus"),
    ("p+", "p+"),
    ("p+", "p-"),
)
NOISELESS_EVERY = 5
# One 100-replica CLI run costs 2-9 s depending on its data, so too few fit
# in a run for a steady median; with 10 the bootstrap is still ~2/3 of it.
REPLICAS = 10
SMOKE_GRID = {"half_span_s": 8e-12, "step_s": 2e-13}
RHO_TOL = 1e-9
ROUNDTRIP_TOL = 1e-6  # trace distance to linear inversion, as in tier-1


def op_seed(workload_seed: int, stream: int, index: int) -> int:
    """Seed of operation `index`, drawn from the workload seed."""
    ss = np.random.SeedSequence((int(workload_seed), stream, index))
    return int(ss.generate_state(1, np.uint32)[0])


def rho_problems(rho: np.ndarray) -> list[str]:
    """A reconstruction must be Hermitian, PSD and of unit trace."""
    problems = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm <= RHO_TOL:
        problems.append(f"rho not Hermitian ({herm:.2e})")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if not low >= -RHO_TOL:
        problems.append(f"rho not PSD (min eigenvalue {low:.2e})")
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= RHO_TOL:
        problems.append(f"rho trace {tr!r}")
    return problems


def fidelity_problems(fid) -> list[str]:
    if fid is None or not 0.0 <= fid <= 1.0:
        return [f"fidelity {fid!r} outside [0, 1]"]
    return []


def count_problems(trace) -> list[str]:
    """Scan counts are nonnegative, and integers unless noiseless."""
    c = np.asarray(trace.counts)
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        return ["negative or non-finite scan counts"]
    if not trace.noiseless and np.any(c != np.round(c)):
        return ["sampled scan counts are not integers"]
    return []


class Workload:
    name = ""
    stream = 0  # keeps op seeds of different workloads apart
    cycle = 1  # ops per round of inputs; runs stop on a whole round
    prefix = 1  # ops every run makes; digests and scorecards use these
    tail = "p90"  # percentile reported beside the median
    timing = ""  # the per-op timing's name in the report

    def __init__(self, pt, seed: int, work_dir, smoke: bool):
        self.pt = pt
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke

    def seed_of(self, i: int) -> int:
        return op_seed(self.seed, self.stream, i)

    def warmup(self) -> None:
        self.run(self.inputs(0))

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[list[str], bytes | None, dict]:
        raise NotImplementedError


class TomographyRun(Workload):
    """One in-process `poltime tomography` run into a scratch directory."""

    name = "tomography_run"
    stream = 1
    cycle = 3
    prefix = 45
    tail = "max"
    timing = "tomo_run_s"

    def __init__(self, pt, seed, work_dir, smoke):
        super().__init__(pt, seed, work_dir, smoke)
        self.dir = work_dir / "tomography"
        self.out = self.dir / "out"
        self.dir.mkdir(parents=True, exist_ok=True)
        if smoke:
            self.prefix = 3

    def _config(self, target: str, seed: int, replicas: int, grid) -> list[str]:
        cfg = {
            "encoded_target": target,
            "visibility": VISIBILITY,
            "baseline_counts": BASELINE,
            "replicas": replicas,
            "seed": seed,
        }
        if grid is not None:
            cfg["grid"] = grid
        path = self.dir / "config.json"
        path.write_text(json.dumps(cfg))
        shutil.rmtree(self.out, ignore_errors=True)
        return ["tomography", "--config", str(path), "--out", str(self.out), "--no-timestamp"]

    def warmup(self) -> None:
        self.run((None, None, self._config(TARGETS[0], 0, 2, SMOKE_GRID)))

    def inputs(self, i):
        target, seed = TARGETS[i % len(TARGETS)], self.seed_of(i)
        replicas, grid = (3, SMOKE_GRID) if self.smoke else (REPLICAS, None)
        return target, seed, self._config(target, seed, replicas, grid)

    def run(self, inp):
        return self.pt.cli.main(inp[2])

    def check(self, inp, code):
        target, seed, _ = inp
        if code != 0:
            return [f"CLI exit {code}"], None, {}
        result = json.loads((self.out / "result.json").read_text())
        rho = np.array([[complex(re, im) for re, im in row] for row in result["rho"]])
        problems = rho_problems(rho) + fidelity_problems(result["fidelity"])
        record = {
            "target": target,
            "seed": seed,
            "fidelity": result["fidelity"],
            "fidelity_std": result["fidelity_std"],
            "replicas_dropped": result["replicas_dropped"],
        }
        return problems, (self.out / "projections.csv").read_bytes(), record


class SeedSweep(Workload):
    """`simulate_counts` on the compact grid without calibration, then one fit."""

    name = "seed_sweep"
    stream = 2
    cycle = 3
    prefix = 120
    tail = "p90"
    timing = "recon_s"

    def __init__(self, pt, seed, work_dir, smoke):
        super().__init__(pt, seed, work_dir, smoke)
        if smoke:
            self.prefix = 3
        h = pt.hilbert
        lattice = h.TimeBinLattice(bin_count=2, tau=TAU)
        packet = h.Wavepacket(sigma_t=SIGMA_ACCEPTANCE)
        self.tset = pt.tomography.default_tomography_set(lattice, packet, with_plans=False)
        self.delays = pt.experiment.compact_delay_grid(TAU, SIGMA_ACCEPTANCE)
        self.states = {t: h.named_state(t, lattice, packet) for t in TARGETS}

    def inputs(self, i):
        return TARGETS[i % len(TARGETS)], self.seed_of(i)

    def run(self, inp):
        target, seed = inp
        tomo = self.pt.tomography
        state = self.states[target]
        bundle = tomo.simulate_counts(
            state,
            self.tset,
            BASELINE,
            visibility=VISIBILITY,
            master_seed=seed,
            delays=self.delays,
            calibrate=False,
        )
        result = tomo.mle_reconstruct(
            bundle.counts, self.tset, visibility=VISIBILITY, target=state, seed=seed
        )
        return bundle, result

    def check(self, inp, out):
        target, seed = inp
        bundle, result = out
        problems = [p for tr in bundle.traces for p in count_problems(tr)]
        problems += rho_problems(self.pt.tomography.logical_rho(result))
        problems += fidelity_problems(result.fidelity_vs_target)
        digest = b"".join(tr.counts.tobytes() for tr in bundle.traces)
        record = {"target": target, "seed": seed, "fidelity": result.fidelity_vs_target}
        return problems, digest, record


class ScanSweep(Workload):
    """Compile an ancilla's preparation, scan it, read the scan out."""

    name = "scan_sweep"
    stream = 3
    prefix = 1020  # 15 rounds; >= 1000 samples for p99
    tail = "p99"
    timing = "scan_s"

    def __init__(self, pt, seed, work_dir, smoke):
        super().__init__(pt, seed, work_dir, smoke)
        h, tomo = pt.hilbert, pt.tomography
        cfg = pt.cli.resolve_config({"grid": SMOKE_GRID} if smoke else {})
        lattice, packet = cfg.lattice, cfg.packet
        self.delays = cfg.delays()

        def named(n):
            return h.named_state(n, lattice, packet)

        ancillas = [
            (pol + b, h.product_state(pol, b, lattice, packet))
            for pol in tomo.POLARIZATION_SET
            for b in tomo.BIN_SET
        ]
        mixed = h.DensityMatrix(
            tomo.random_density_matrix(4, np.random.default_rng(seed)), lattice, packet
        )
        self.pairings = [(f"{e}|{a}", named(e), named(a)) for e, a in CANONICAL_PAIRINGS]
        for t in TARGETS:
            self.pairings += [(f"{t}|{lab}", named(t), anc) for lab, anc in ancillas]
        self.pairings += [(f"mixed|{lab}", mixed, anc) for lab, anc in ancillas]
        self.cycle = len(self.pairings)
        if smoke:
            self.prefix = NOISELESS_EVERY

    def inputs(self, i):
        label, encoded, ancilla = self.pairings[i % self.cycle]
        cfg = self.pt.experiment.ScanConfig(
            delays=self.delays,
            baseline_counts=BASELINE,
            seed=self.seed_of(i),
            visibility=VISIBILITY,
        )
        return label, encoded, ancilla, cfg, i % NOISELESS_EVERY == NOISELESS_EVERY - 1

    def run(self, inp):
        _, encoded, ancilla, cfg, noiseless = inp
        exp = self.pt.experiment
        plan = self.pt.optics.compile_preparation(ancilla)
        trace = exp.sample_scan(encoded, ancilla, cfg, noiseless)
        n0 = exp.estimate_baseline(trace)
        readings = exp.extract_projections(trace, exp.occupied_bins(ancilla))
        return plan, trace, n0, readings

    def check(self, inp, out):
        label, _, _, cfg, noiseless = inp
        plan, trace, n0, readings = out
        problems = count_problems(trace)
        if not plan.exactly_encodable:
            problems.append(f"ancilla of {label} not exactly encodable")
        if not n0 > 0:
            problems.append(f"baseline estimate {n0!r}")
        if not readings or any(not 0.0 <= r.p_hat <= 1.0 for r in readings):
            problems.append("projection readings missing or outside [0, 1]")
        digest = None if noiseless else trace.counts.tobytes()
        return problems, digest, {"pairing": label, "seed": cfg.seed, "noiseless": noiseless}


WORKLOADS = {w.name: w for w in (TomographyRun, SeedSweep, ScanSweep)}


def roundtrip_check(pt, seed: int, n_random: int = 2) -> tuple[int, float, list[str]]:
    """Noiseless round trip: fits of exact counts must match linear inversion.

    Returns (fits made, worst trace distance, problems).
    """
    h, tomo = pt.hilbert, pt.tomography
    lattice = h.TimeBinLattice(bin_count=2, tau=TAU)
    packet = h.Wavepacket(sigma_t=SIGMA_ACCEPTANCE)
    tset = tomo.default_tomography_set(lattice, packet, with_plans=False)
    projs = tomo.projector_stack(tset)
    truths = []
    for name in TARGETS:
        vec = h.logical_vector(h.named_state(name, lattice, packet))
        truths.append(np.outer(vec, vec.conj()))
    rng = np.random.default_rng(seed)
    truths += [tomo.random_density_matrix(4, rng) for _ in range(n_random)]
    worst = 0.0
    problems = []
    for k, rho_true in enumerate(truths):
        expect = np.real(np.einsum("iab,ba->i", projs, rho_true))
        counts = np.stack([BASELINE * (1.0 - expect), np.full(len(expect), BASELINE)], axis=1)
        rho_hat = tomo.logical_rho(tomo.mle_reconstruct(counts, tset, seed=k))
        rho_li, _ = tomo.linear_inversion(1.0 - counts[:, 0] / counts[:, 1], tset)
        dist = 0.5 * float(np.abs(np.linalg.eigvalsh(rho_hat - rho_li)).sum())
        worst = max(worst, dist)
        fid = tomo.fidelity(rho_hat, rho_true)
        if not dist <= ROUNDTRIP_TOL or not fid >= 0.999:
            problems.append(f"round trip {k}: trace distance {dist:.2e}, fidelity {fid:.7f}")
    return len(truths), worst, problems
