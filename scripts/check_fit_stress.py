#!/usr/bin/env python3
"""Run the likelihood solver over a stress grid and report its convergence.

The grid crosses both tomography sets (mutually unbiased and product), pure
and Ginibre-mixed truths, true visibilities 1, 0.94 and 0.8, a fitted
visibility mis-set by 0, -3% and +3% of the true one (capped at 1, the
largest value a fit accepts), and baselines N0 = 1, 10, ..., 1e8.  Each
reading's count is a Poisson draw at N0 (1 - V tr(P rho)) with baseline N0,
so zero-count dips appear at small N0 and for pure truths at V = 1.  All
rows of one set, N0 and fitted visibility are fitted as one stack.

For every N0 it prints the rows that the solver reports converged, each to
its own count-scaled duality-gap tolerance, and the mean, median and largest
numbers of Newton passes among them; the total line gives the mean over all
converged rows, and the last line how many of all rows' steps the solver
rejected.  The script exits 1 if any row did not converge:

    PYTHONPATH=src python scripts/check_fit_stress.py
"""

import argparse
import sys
import time

import numpy as np

from poltime import hilbert, tomography

VISIBILITIES = (1.0, 0.94, 0.8)
MIS_SET = (0.0, -0.03, 0.03)
TAU = 2.3e-12


def truths(per_kind: int, rng: np.random.Generator) -> list[np.ndarray]:
    """`per_kind` Haar-random pure and Ginibre-mixed 4x4 density matrices."""
    out = []
    for _ in range(per_kind):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        out.append(np.outer(vec, vec.conj()))
    for _ in range(per_kind):
        out.append(tomography.random_density_matrix(4, rng))
    return out


def stacks(per_kind: int, max_exponent: int):
    """Yield (N0, fitted V, n, baseline, projectors) for each fit stack,
    with one row per truth and true visibility whose clipped mis-set V is
    the fitted one."""
    lattice = hilbert.TimeBinLattice(bin_count=2, tau=TAU)
    packet = hilbert.Wavepacket(sigma_t=TAU / 10.0)
    rng = np.random.default_rng(20261018)
    rhos = truths(per_kind, rng)
    sets = (
        tomography.default_tomography_set(lattice, packet),
        tomography.product_tomography_set(lattice, packet),
    )
    for tset in sets:
        projs = tomography.projector_stack(tset)
        expect = np.real(np.einsum("iab,rba->ri", projs, np.array(rhos)))
        for n0 in 10.0 ** np.arange(max_exponent + 1):
            by_fit = {}
            for v_true in VISIBILITIES:
                mean = n0 * np.clip(1.0 - v_true * expect, 0.0, None)
                n = rng.poisson(mean).astype(float)
                for delta in MIS_SET:
                    v_fit = min(1.0, v_true * (1.0 + delta))
                    by_fit.setdefault(v_fit, []).append(n)
            for v_fit, rows in by_fit.items():
                n = np.concatenate(rows)
                yield n0, v_fit, n, np.full_like(n, n0), projs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--truths", type=int, default=2, help="truths of each kind")
    ap.add_argument("--max-exponent", type=int, default=8, help="largest N0 is 10**this")
    args = ap.parse_args()
    if args.truths < 1 or args.max_exponent < 0:
        ap.error("--truths must be at least 1 and --max-exponent at least 0")

    table: dict[float, list] = {}
    steps, rejected = 0, 0
    t0 = time.perf_counter()
    for n0, v_fit, n, baseline, projs in stacks(args.truths, args.max_exponent):
        fit = tomography._fit(n, baseline, tomography._fit_tables(projs), v_fit)
        row = table.setdefault(n0, [0, []])
        row[0] += len(n)
        row[1].extend(fit.iterations[fit.converged])
        steps += fit.iterations.sum()
        rejected += fit.rejected.sum()
    dt = time.perf_counter() - t0

    print(
        f"{'N0':>8} {'rows':>5} {'converged':>9} {'mean passes':>11} {'median passes':>13}"
        f" {'max passes':>10}"
    )
    for n0, (rows, passes) in table.items():
        stats = (np.mean(passes), np.median(passes), max(passes)) if passes else (0, 0, 0)
        mean, median, most = stats
        print(f"{n0:8.0e} {rows:5d} {len(passes):9d} {mean:11.2f} {median:13.1f} {most:10d}")
    total = sum(row[0] for row in table.values())
    passes = [k for row in table.values() for k in row[1]]
    mean = np.mean(passes) if passes else 0.0
    print(f"{len(passes)} of {total} rows converged, mean passes {mean:.2f} ({dt:.1f} s)")
    print(f"{rejected} of {steps} steps rejected")
    return 0 if len(passes) == total else 1


if __name__ == "__main__":
    sys.exit(main())
