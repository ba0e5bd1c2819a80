#!/usr/bin/env python3
"""Check the array Poisson draws against their definition, draw for draw.

Every scan count is defined as `experiment.point_rng(seed, i).poisson(mean)`;
`experiment._draw_counts` of the means' `experiment._draw_plan`, the draw
every run makes, computes the same counts in array code and leaves the rest
to numpy's sampler (`experiment._reset_draws`).  This script draws N counts
both ways and exits 1 on any mismatch.  The means cover every regime of
numpy's sampler: 0, the multiplication method below 10, both sides of the
switch at 10, transformed rejection from 10 to 60 and from 60 to 1e4 (each
drawn log-uniformly) and 1e7.  The rows' seeds include 0 and 2**64 - 1.

A run draws only the grid points it reads, each keyed by its grid index,
so the script also draws every STRIDE-th point of each row, from point
STRIDE // 2 on, through that index path and exits 1 if a count differs
from the row's.  It reports the share of the draws at mean >= 10, of
both kinds, that reached numpy's sampler, counted by wrapping
`_reset_draws` here.

Scan seeds come from `experiment.derive_seeds`, defined as numpy's
`SeedSequence((master, stream))` read as one uint64.  The script compares
the two over about N / 100 random (master, stream) pairs, whose values
take one or two 32-bit words, and exits 1 on any mismatch there too.

numpy does not promise that Generator streams stay the same across its
versions, so rerun this after upgrading numpy:

    PYTHONPATH=src python scripts/check_keyed_draws.py --draws 1000000
"""

import argparse
import sys
import time

import numpy as np

from poltime import experiment

ROWS = 20
STRIDE = 7  # of the grid-index subsets
SEED_BATCH = 20  # streams derived per master
FIXED_MEANS = (0.0, 1e-3, 5.0, np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 20.0), 1e7)


def row_means(rng: np.random.Generator, points: int) -> np.ndarray:
    """Means of one row: points 0, 4, 8, ... take the fixed means in turn,
    the odd points are log-uniform in [10, 60), the rest in [60, 1e4]."""
    means = np.exp(rng.uniform(np.log(60.0), np.log(1e4), size=points))
    means[1::2] = np.exp(rng.uniform(np.log(10.0), np.log(60.0), size=means[1::2].size))
    means[::4] = np.resize(np.array(FIXED_MEANS), means[::4].size)
    return means


def keyed_draws(seed: int, means: np.ndarray, points=None) -> np.ndarray:
    """The draws of one row of means at one scan seed, as a run draws them:
    _draw_counts of their _draw_plan, points the columns' grid indices."""
    plan = experiment._draw_plan(means[None], points)
    return experiment._draw_counts(plan, np.array([seed], dtype=np.uint64))[0]


def count_fallback() -> list:
    """Wrap experiment._reset_draws so that it adds the number of points at
    mean >= 10 it draws to counter[0]; returns the counter."""
    counter = [0]
    reset = experiment._reset_draws

    def counting(keys, means):
        counter[0] += sum(1 for m in means if m >= 10.0)
        return reset(keys, means)

    experiment._reset_draws = counting
    return counter


def check_stream_seeds(rng: np.random.Generator, masters: int) -> int:
    """Mismatches of derive_seeds against SeedSequence for `masters` random
    masters with SEED_BATCH random streams each; each value is a random
    uint64 shifted right by 0 to 63 bits."""
    mismatches = 0
    for _ in range(masters):
        values = rng.integers(0, 2**64, size=SEED_BATCH + 1, dtype=np.uint64)
        master, *streams = (int(v) >> int(rng.integers(64)) for v in values)
        got = experiment.derive_seeds(master, streams).tolist()
        for stream, seed in zip(streams, got):
            want = np.random.SeedSequence((master, stream)).generate_state(1, np.uint64)[0]
            if seed != int(want):
                mismatches += 1
                if mismatches <= 10:
                    print(f"mismatch: master {master} stream {stream}: {seed} != {want}")
    return mismatches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--draws", type=int, default=10**6)
    args = ap.parse_args()
    if args.draws < ROWS:
        ap.error(f"--draws must be at least {ROWS}")

    rng = np.random.default_rng(20260)
    seeds = [0, 2**64 - 1, *experiment.derive_seeds(1, range(ROWS - 2)).tolist()]
    points = args.draws // ROWS
    mismatches = subset_mismatches = subset_draws = 0
    fallback, ptrs_points = count_fallback(), 0
    t0 = time.perf_counter()
    # One row per call keeps the arrays at O(points).
    for seed in seeds:
        means = row_means(rng, points)
        got = keyed_draws(seed, means)
        subset = np.arange(STRIDE // 2, points, STRIDE)
        part = keyed_draws(seed, means[subset], subset)
        ptrs_points += int(np.count_nonzero(means >= 10.0))
        ptrs_points += int(np.count_nonzero(means[subset] >= 10.0))
        subset_draws += subset.size
        subset_mismatches += int(np.count_nonzero(part != got[subset]))
        for i, mean in enumerate(means):
            want = experiment.point_rng(seed, i).poisson(mean)
            if got[i] != want:
                mismatches += 1
                if mismatches <= 10:
                    print(
                        f"mismatch: seed {seed} point {i} mean {float(mean)!r}: "
                        f"{got[i]} != {want}"
                    )
    dt = time.perf_counter() - t0
    print(
        f"{ROWS * points} draws checked, {mismatches} mismatches, "
        f"{fallback[0]} of {ptrs_points} at mean >= 10 "
        f"({fallback[0] / ptrs_points:.2%}) left to numpy's sampler, "
        f"numpy {np.__version__} ({dt:.1f} s)"
    )
    print(f"{subset_draws} draws at strided grid indices checked, {subset_mismatches} mismatches")
    masters = max(1, args.draws // (100 * SEED_BATCH))
    seed_mismatches = check_stream_seeds(rng, masters)
    print(f"{masters * SEED_BATCH} stream seeds checked, {seed_mismatches} mismatches")
    return 1 if mismatches or subset_mismatches or seed_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
