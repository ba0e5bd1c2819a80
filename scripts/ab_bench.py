#!/usr/bin/env python3
"""Paired A/B timing of one benchmark workload on a parent tree and this tree.

    python scripts/ab_bench.py --parent DIR [--workload W] [--ops N]

DIR is another checkout of the repository, say the commit before a change.
Both trees' `src/poltime` are loaded side by side in this one process, under
the package names `ab_parent` and `ab_child`, and each drives its own
instance of a workload of this tree's `perfbench/workloads.py`, at workload
seed 0.  Operation i gets the same inputs on both sides, and the two runs of
op i form pair i.  Pairs alternate their order (parent first on even pairs,
this tree first on odd ones: ABBA), so a drift of the host within two pairs
is charged to both sides alike.  Only the workload's `run` is timed, as
perfbench times it; its `check` runs on every output, untimed.

Prints each side's median op time in raw milliseconds, the median of the
per-pair ratios (this tree / parent) with a 95% bootstrap interval over the
pairs, and whether every op's digest, the bytes its check says the RNG
fixes, agreed between the sides.  Exits 1 if a digest differs or an op
fails its check.  BLAS is held to one thread, as in perfbench.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

MODULES = ("hilbert", "optics", "hom", "experiment", "tomography", "cli")
RESAMPLES = 4000  # bootstrap resamples of the pairs
SEED = 0  # the workload seed, which fixes every op's inputs


def load_tree(tree: Path, name: str):
    """The poltime package under tree/src, imported as `name` with its modules."""
    init = tree / "src" / "poltime" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_bench: no poltime sources under {tree / 'src'}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return pkg


def timed_op(w, i: int) -> tuple[float, list, bytes | None]:
    """Seconds of op i's run, then its check's problems and digest bytes."""
    inp = w.inputs(i)
    start = time.perf_counter()
    out = w.run(inp)
    seconds = time.perf_counter() - start
    problems, digest, _ = w.check(inp, out)
    return seconds, problems, digest


def median_interval(ratios: np.ndarray) -> tuple[float, float, float]:
    """The median of the ratios and a 95% percentile-bootstrap interval of it."""
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(ratios), size=(RESAMPLES, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the other checkout")
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS), default="tomography_run")
    ap.add_argument("--ops", type=int, default=200, help="pairs of ops to time")
    args = ap.parse_args(argv)
    if args.ops < 2:
        ap.error("--ops must be at least 2")
    trees = (load_tree(args.parent.resolve(), "ab_parent"), load_tree(ROOT, "ab_child"))
    seconds = np.empty((args.ops, 2))
    differ, problems = [], []
    with tempfile.TemporaryDirectory() as work:
        sides = [
            workloads.WORKLOADS[args.workload](pt, SEED, Path(work) / str(k), False)
            for k, pt in enumerate(trees)
        ]
        for w in sides:
            w.warmup()
        for i in range(args.ops):
            digests = [None, None]
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                seconds[i, k], found, digests[k] = timed_op(sides[k], i)
                problems += [f"op {i}, {('parent', 'this tree')[k]}: {p}" for p in found]
            if digests[0] != digests[1]:
                differ.append(i)
    ratio, low, high = median_interval(seconds[:, 1] / seconds[:, 0])
    print(f"workload {args.workload}, {args.ops} ABBA pairs, one BLAS thread")
    for k, label in enumerate(("parent", "this tree")):
        print(f"{label:>9}: median {1e3 * np.median(seconds[:, k]):.3f} ms")
    print(f"ratio this tree / parent: median {ratio:.3f}, 95% interval [{low:.3f}, {high:.3f}]")
    if differ:
        print(f"digests: {len(differ)} of {args.ops} ops differ, first op {differ[0]}")
    else:
        print(f"digests: all {args.ops} ops agree")
    for line in problems:
        print(line)
    return int(bool(differ or problems))


if __name__ == "__main__":
    raise SystemExit(main())
