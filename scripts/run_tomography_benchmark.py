#!/usr/bin/env python3
"""Benchmark the reconstruction pipeline at realistic count budgets.

For each of the three reference targets, runs the full scan-and-reconstruct
pipeline over many master seeds and reports the fidelity distribution plus a
bootstrap error bar computed at the expected (noise-free) counts.
"""

import argparse
import time

import numpy as np

from poltime import experiment, hilbert, tomography

TARGETS = ("phi_plus", "p+", "rl_bell")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--replicas", type=int, default=100)
    ap.add_argument("--baseline", type=float, default=1000.0)
    ap.add_argument("--visibility", type=float, default=0.94)
    ap.add_argument("--tau", type=float, default=2.3e-12)
    ap.add_argument("--sigma-t", type=float, default=1.2677e-13)
    args = ap.parse_args()

    lattice = hilbert.TimeBinLattice(bin_count=2, tau=args.tau)
    packet = hilbert.Wavepacket(sigma_t=args.sigma_t)
    tset = tomography.default_tomography_set(lattice, packet)
    delays = experiment.compact_delay_grid(args.tau, args.sigma_t)

    for name in TARGETS:
        target = hilbert.named_state(name, lattice, packet)
        fids = []
        t0 = time.perf_counter()
        for seed in range(args.seeds):
            bundle = tomography.simulate_counts(
                target,
                tset,
                baseline_counts=args.baseline,
                visibility=args.visibility,
                master_seed=seed,
                delays=delays,
                calibrate=False,
            )
            result = tomography.mle_reconstruct(
                bundle.counts,
                tset,
                visibility=args.visibility,
                target=target,
            )
            fids.append(result.fidelity_vs_target)
        fids = np.array(fids)

        ideal = tomography.simulate_counts(
            target,
            tset,
            baseline_counts=args.baseline,
            visibility=args.visibility,
            master_seed=0,
            delays=delays,
            noiseless=True,
            calibrate=False,
        )
        boot = tomography.bootstrap_errors(
            ideal.counts,
            tset,
            args.visibility,
            target,
            replicas=args.replicas,
            seed=0,
        )
        dt = time.perf_counter() - t0
        print(
            f"{name:9s} median F = {np.median(fids):.4f}  "
            f"[q10 {np.quantile(fids, 0.1):.4f}, q90 {np.quantile(fids, 0.9):.4f}]  "
            f"bootstrap std = {boot.fidelity_std:.4f}  ({dt:.1f} s)"
        )


if __name__ == "__main__":
    main()
