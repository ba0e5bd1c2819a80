#!/usr/bin/env python3
"""Generate the four canonical dip-scan traces side by side.

Writes one CSV per panel (encoded vs ancilla pairing) plus a small JSON
summary of the dip depths at lags 0 and +-1, each 1 - n / N0 clipped to
[0, 1] by `experiment.dip_depths` as `poltime scan` reports it.  Noiseless
by default so the dip structure is exact; pass --counts to sample Poisson
data instead.
"""

import argparse
import json
from pathlib import Path

from poltime import experiment, hilbert

LAGS = (-1, 0, 1)
PAIRINGS = [
    ("phi_plus", "phi_plus"),
    ("phi_plus", "phi_minus"),
    ("p+", "p+"),
    ("p+", "p-"),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="dip_scans", help="output directory")
    ap.add_argument("--tau", type=float, default=2.3e-12)
    ap.add_argument("--sigma-t", type=float, default=1.2677e-13)
    ap.add_argument("--visibility", type=float, default=1.0)
    ap.add_argument("--baseline", type=float, default=1000.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--counts", action="store_true", help="Poisson-sample the traces")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lattice = hilbert.TimeBinLattice(bin_count=2, tau=args.tau)
    packet = hilbert.Wavepacket(sigma_t=args.sigma_t)
    delays = experiment.default_delay_grid(args.tau)

    seeds = experiment.derive_seeds(args.seed, range(len(PAIRINGS))).tolist()
    summary = {}
    for seed, (enc_name, anc_name) in zip(seeds, PAIRINGS):
        enc = hilbert.named_state(enc_name, lattice, packet)
        anc = hilbert.named_state(anc_name, lattice, packet)
        cfg = experiment.ScanConfig(
            delays=delays,
            baseline_counts=args.baseline,
            seed=seed,
            visibility=args.visibility,
        )
        trace = experiment.sample_scan(enc, anc, cfg, noiseless=not args.counts)
        stem = f"{enc_name}_vs_{anc_name}".replace("+", "plus").replace("-", "minus")
        experiment.write_trace_csv(trace, out / f"{stem}.csv")
        depths = experiment.dip_depths(*experiment.read_dips(trace, LAGS))
        summary[f"{enc_name} vs {anc_name}"] = {
            str(lag): round(float(d), 6) for lag, d in zip(LAGS, depths)
        }

    (out / "dip_depths.json").write_text(json.dumps(summary, indent=2) + "\n")
    for pairing, depths in summary.items():
        print(f"{pairing:24s} dip depths {depths}")


if __name__ == "__main__":
    main()
