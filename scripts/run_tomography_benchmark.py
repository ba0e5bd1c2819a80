#!/usr/bin/env python3
"""Benchmark the reconstruction pipeline at realistic count budgets.

For each of the three reference targets, runs `tomography.run`, the
sequence of `poltime tomography` (self-calibrated scans, likelihood fit and
bootstrap), over many master seeds on the compact grid, and reports the
median fidelity with its q10 and q90 and the median reported bootstrap std.
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
    delays = experiment.compact_delay_grid(args.tau, args.sigma_t)

    for name in TARGETS:
        target = hilbert.named_state(name, lattice, packet)
        t0 = time.perf_counter()
        runs = [
            tomography.run(target, delays, args.baseline, args.visibility, seed, args.replicas)[2]
            for seed in range(args.seeds)
        ]
        dt = time.perf_counter() - t0
        fids = np.array([errors.estimate.fidelity_vs_target for errors in runs])
        stds = [errors.fidelity_std for errors in runs]
        print(
            f"{name:9s} median F = {np.median(fids):.4f}  "
            f"[q10 {np.quantile(fids, 0.1):.4f}, q90 {np.quantile(fids, 0.9):.4f}]  "
            f"median bootstrap std = {np.median(stds):.4f}  ({dt:.1f} s)"
        )


if __name__ == "__main__":
    main()
