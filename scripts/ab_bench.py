#!/usr/bin/env python3
"""Paired A/B timing of one benchmark workload on a parent tree and this tree.

    python scripts/ab_bench.py --parent DIR [--workload W] [--ops N] [--seed S] [--runs K]
    python scripts/ab_bench.py --parent DIR --cold N [--runs K]

DIR is another checkout of the repository, say the commit before a change.
Both trees' `src/poltime` are loaded side by side in this one process, under
the package names `ab_parent` and `ab_child`, and each drives its own
instance of a workload of this tree's `perfbench/workloads.py`, at workload
seed S (0 by default; a claim should also hold on a seed not used while the
change was written).  Operation i gets the same inputs on both sides, and
the two runs of op i form pair i.  Pairs alternate their order (parent
first on even pairs, this tree first on odd ones: ABBA), so a drift of the
host within two pairs is charged to both sides alike.  Only the workload's
`run` is timed, as perfbench times it; its `check` runs on every output,
untimed.

Prints each side's median op time in raw milliseconds, the median of the
per-pair ratios (this tree / parent) with a 95% bootstrap interval over the
pairs, and the median ratio of each of four consecutive blocks of pairs.
The interval covers only the noise within one run: the host drifts between
runs too, which it does not see, so repeat a run before trusting a ratio;
blocks that disagree show the drift within this one.  Then it prints
whether every op's digest, the bytes its check says the RNG fixes, agreed
between the sides, and whether every op's record did: the fidelity on
seed_sweep, and the fidelity, its bootstrap std and the dropped replicas on
tomography_run, so a fit that moves shows even where the counts do not.
Where records differ, it also prints the largest |difference| of each
numeric record field over the differing ops, such as `fidelity 3.8e-08`.
Exits 1 if a digest differs or an op fails its check; a record that differs
is reported but does not fail the run, so a change that moves fits within
their tolerance can still be timed.  BLAS is held to one thread, as in
perfbench.

With --cold N it times N ABBA pairs of cold starts instead, perfbench's
setup_s: each start is a fresh interpreter running this tree's
`perfbench/setup_probe.py` on `perfbench/run.py`'s SETUP_CONFIG, with its
side's `src` on PYTHONPATH, timed by its wall time.  It prints the same
medians, ratio and blocks, and exits 1 if a start fails.

With --runs K (1 by default) it repeats the whole paired timing in K fresh
interpreters, one after another, and prints each run's report under a
`run k of K` header.  Its last line gives the median and the range of the K
run medians, the spread between runs that one run's interval does not see.
It exits with the worst run's exit code.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402
from run import SETUP_CONFIG  # noqa: E402

MODULES = ("hilbert", "optics", "hom", "experiment", "tomography", "cli")
RESAMPLES = 4000  # bootstrap resamples of the pairs


def sources(tree: Path) -> Path:
    """tree/src, which must hold the poltime package."""
    if not (tree / "src" / "poltime" / "__init__.py").is_file():
        raise SystemExit(f"ab_bench: no poltime sources under {tree / 'src'}")
    return tree / "src"


def load_tree(tree: Path, name: str):
    """The poltime package under tree/src, imported as `name` with its modules."""
    init = sources(tree) / "poltime" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return pkg


def timed_op(w, i: int) -> tuple[float, list, bytes | None, dict]:
    """Seconds of op i's run, then its check's problems, digest bytes and record."""
    inp = w.inputs(i)
    start = time.perf_counter()
    out = w.run(inp)
    seconds = time.perf_counter() - start
    return (seconds, *w.check(inp, out))


def median_interval(ratios: np.ndarray) -> tuple[float, float, float]:
    """The median of the ratios and a 95% percentile-bootstrap interval of it."""
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(ratios), size=(RESAMPLES, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


def cold_start(tree: Path) -> float:
    """Wall seconds of one setup probe in a fresh interpreter on tree's sources."""
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), json.dumps(SETUP_CONFIG)]
    env = dict(os.environ, PYTHONPATH=str(sources(tree)))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"ab_bench: setup probe failed on {tree}:\n{proc.stderr}")
    return seconds


def report(seconds: np.ndarray) -> None:
    """Each side's median, the median pair ratio with its interval, and the
    median ratio of each of four consecutive blocks of pairs (one block per
    pair below four pairs), which shows the host's drift within the run."""
    ratios = seconds[:, 1] / seconds[:, 0]
    ratio, low, high = median_interval(ratios)
    blocks = [np.median(block) for block in np.array_split(ratios, min(4, len(ratios)))]
    for k, label in enumerate(("parent", "this tree")):
        print(f"{label:>9}: median {1e3 * np.median(seconds[:, k]):.3f} ms")
    print(f"ratio this tree / parent: median {ratio:.3f}, 95% interval [{low:.3f}, {high:.3f}]")
    print("block medians, in run order: " + ", ".join(f"{b:.3f}" for b in blocks))


def largest_moves(pairs: list[tuple[dict, dict]]) -> str:
    """The largest |difference| of each numeric field over pairs of records,
    as "field 3.8e-08, ..." in the fields' order; bools are not numbers."""
    moves: dict[str, float] = {}
    for old, new in pairs:
        for key, value in old.items():
            pair = (value, new[key])
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
                moves[key] = max(moves.get(key, 0.0), abs(new[key] - value))
    return ", ".join(f"{key} {move:.2g}" for key, move in moves.items())


def repeat(args, runs: int) -> int:
    """Runs this script on args, less --runs, `runs` times, each in a fresh
    interpreter; prints each report and the spread of the run medians."""
    argv = [sys.executable, __file__, "--parent", str(args.parent), "--workload", args.workload]
    argv += ["--ops", str(args.ops), "--seed", str(args.seed)]
    argv += [] if args.cold is None else ["--cold", str(args.cold)]
    medians, worst = [], 0
    for k in range(runs):
        proc = subprocess.run(argv, capture_output=True, text=True)
        print(f"run {k + 1} of {runs}, exit {proc.returncode}:")
        print(proc.stdout + proc.stderr, end="", flush=True)
        found = re.search(r"^ratio this tree / parent: median (\S+),", proc.stdout, re.M)
        medians += [float(found.group(1))] if found else []
        worst = max(worst, proc.returncode)
    if medians:
        print(
            f"{len(medians)} run medians: median {np.median(medians):.3f}, "
            f"range [{min(medians):.3f}, {max(medians):.3f}]"
        )
    else:
        print("no run printed a ratio")
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the other checkout")
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS), default="tomography_run")
    ap.add_argument("--ops", type=int, default=200, help="pairs of ops to time")
    ap.add_argument("--seed", type=int, default=0, help="workload seed, which fixes every op's inputs")
    ap.add_argument("--cold", type=int, metavar="N", help="time N pairs of cold starts instead")
    ap.add_argument("--runs", type=int, default=1, metavar="K", help="repeat in K fresh interpreters")
    args = ap.parse_args(argv)
    if args.ops < 2:
        ap.error("--ops must be at least 2")
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if args.runs > 1:
        return repeat(args, args.runs)
    if args.cold is not None:
        if args.cold < 2:
            ap.error("--cold must be at least 2")
        trees = (args.parent.resolve(), ROOT)
        seconds = np.empty((args.cold, 2))
        for i in range(args.cold):
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                seconds[i, k] = cold_start(trees[k])
        print(f"cold starts, {args.cold} ABBA pairs, one BLAS thread")
        report(seconds)
        return 0
    trees = (load_tree(args.parent.resolve(), "ab_parent"), load_tree(ROOT, "ab_child"))
    seconds = np.empty((args.ops, 2))
    differ, moved, moved_records, problems = [], [], [], []
    with tempfile.TemporaryDirectory() as work:
        sides = [
            workloads.WORKLOADS[args.workload](pt, args.seed, Path(work) / str(k), False)
            for k, pt in enumerate(trees)
        ]
        for w in sides:
            w.warmup()
        for i in range(args.ops):
            digests, records = [None, None], [None, None]
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                seconds[i, k], found, digests[k], records[k] = timed_op(sides[k], i)
                problems += [f"op {i}, {('parent', 'this tree')[k]}: {p}" for p in found]
            if digests[0] != digests[1]:
                differ.append(i)
            if records[0] != records[1]:
                moved.append(i)
                moved_records.append(records)
    print(f"workload {args.workload}, {args.ops} ABBA pairs, seed {args.seed}, one BLAS thread")
    report(seconds)
    for name, ops in (("digests", differ), ("records", moved)):
        if ops:
            print(f"{name}: {len(ops)} of {args.ops} ops differ, first op {ops[0]}")
        else:
            print(f"{name}: all {args.ops} ops agree")
    if moved:
        print(f"largest record moves: {largest_moves(moved_records)}")
    for line in problems:
        print(line)
    return int(bool(differ or problems))


if __name__ == "__main__":
    raise SystemExit(main())
