#!/usr/bin/env python3
"""Benchmark of the poltime pipeline: prepare, scan, fit, bootstrap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; poltime is imported from `src/`.
One process, one caller, closed loop: each operation starts when the last
has ended.  BLAS is held to one thread.  The workloads are described in
`workloads.py`.

An untraced run (`--trace 0`) warms up, then runs operations until
`--seconds` have passed and the fixed prefix of the workload is done,
always ending on a whole round of inputs.  It times each operation, checks
its outputs, repeats operation 0 to check that the same seed gives the
same bytes, checks the noiseless round trip of the fit, and times cold
starts in fresh interpreters.  Timings are normalized by the host speed
measured around them (see `hostspeed.py`); raw wall times are kept beside
them.  A traced run (`--trace 1`) runs the prefix untraced, then again
with spans around every layer, and reports per-layer numbers in raw
seconds; the difference of the two passes is the tracing overhead.

Human-readable lines come first, named per workload: setup_s, tomo_run_s,
recon_s.p50/p90, scan_s.p50/p99, fidelity.<target> (seed_sweep), fail_frac,
peak_rss_mb, and the fidelity_std scorecard (tomography_run).  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the `end_to_end` metrics of BENCHMARK.json untraced (op_s.p50 is
tomo_run_s, recon_s.p50 or scan_s.p50, by workload), its `per_layer`
metrics traced.  A result file with provenance, scorecard, digests and
per-op records goes to perfbench/out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_CONFIG = {"encoded_target": "phi_plus", "visibility": 0.94, "baseline_counts": 1000.0}
SETUP_REPS = {0: 5, 1: 3}  # cold starts per run, by --trace
REPORT_NAMES = (
    "setup_s",
    "tomo_run_s",
    "recon_s.p50",
    "recon_s.p90",
    "scan_s.p50",
    "scan_s.p99",
    "fidelity.phi_plus",
    "fidelity.p_plus",
    "fidelity.rl_bell",
    "fail_frac",
    "peak_rss_mb",
)


def import_poltime():
    """Import poltime from this checkout's sources, never from elsewhere."""
    if not (SRC / "poltime" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no poltime sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import poltime

    if Path(poltime.__file__).resolve().parent != SRC / "poltime":
        raise SystemExit(f"benchmark: imported poltime from {poltime.__file__}")
    return poltime


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, traced: bool) -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "traced": traced,
    }


def measure_setup(reps: int, speed) -> tuple[list, list, list]:
    """Cold starts in fresh interpreters: wall times, normalized times and
    normalized phase times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, normalized, phases = [], [], []
    for _ in range(reps):
        speed.sample(0.03)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(SETUP_CONFIG)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        end = time.perf_counter()
        speed.sample(0.03)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        factor = speed.factor(start, end, pad=0.05)
        walls.append(end - start)
        normalized.append((end - start) * factor)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        phases.append({k: v * factor for k, v in probe.items()})
    return walls, normalized, phases


def percentile(values, label: str) -> float:
    if label == "max":
        return max(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[int(float(label[1:]) * 10) - 1]


class Pass:
    """Operations 0..n-1 of a workload, run once in order."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.normalized: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str | None] = []
        self.records: list[dict] = []


def run_op(w, i: int, tracer=None):
    """Run and check operation i; returns (start, seconds, problems, digest, record)."""
    inp = w.inputs(i)
    ctx = tracer.op(i) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with ctx:
            out = w.run(inp)
    except Exception:
        return start, time.perf_counter() - start, [traceback.format_exc(limit=4)], None, {}
    dt = time.perf_counter() - start
    try:
        problems, digest, record = w.check(inp, out)
    except Exception:
        return start, dt, ["output check raised:\n" + traceback.format_exc(limit=4)], None, {}
    digest = hashlib.sha256(digest).hexdigest() if digest is not None else None
    return start, dt, problems, digest, record


def run_pass(w, n_min: int, deadline: float, speed, tracer=None) -> Pass:
    """Ops until n_min are done and the deadline has passed, on a whole round.

    Host speed is sampled between ops at least every 25 ms, and around a
    long op for about 2 % of its time.
    """
    p = Pass()
    i = 0
    while i < n_min or time.perf_counter() < deadline or i % w.cycle:
        speed.sample(0.02 * (p.times[-1] if p.times else 0.0), gap=0.025)
        start, dt, problems, digest, record = run_op(w, i, tracer)
        p.starts.append(start)
        p.times.append(dt)
        p.digests.append(digest)
        p.records.append(dict(record, index=i, seconds=dt))
        if problems:
            p.failed += 1
            p.problems += [f"op {i}: {msg}" for msg in problems]
        i += 1
    speed.sample(0.02 * p.times[-1])
    p.normalized = [dt * speed.factor(s, s + dt) for s, dt in zip(p.starts, p.times)]
    return p


def workload_digest(digests) -> str:
    h = hashlib.sha256()
    for d in digests:
        if d is not None:
            h.update(d.encode())
    return h.hexdigest()


def median_by_target(records, key: str) -> dict:
    out = {}
    for rec in records:
        if rec.get(key) is not None:
            out.setdefault(rec["target"], []).append(rec[key])
    return {t: statistics.median(v) for t, v in sorted(out.items())}


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False):
    """Run one workload; returns (report lines, JSON result line, result file, tracer)."""
    pt = import_poltime()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    tag = f"{'smoke-' if smoke else ''}{name}-seed{seed}-trace{int(traced)}"
    speed = hostspeed.HostSpeed()
    reps = 1 if smoke else SETUP_REPS[int(traced)]
    tracer = None
    try:
        w = workloads.WORKLOADS[name](pt, seed, work_dir, smoke)
        w.warmup()
        # Cold starts before and after the ops, so they meet different host states.
        walls, setups, phases = measure_setup((reps + 1) // 2, speed)
        if traced:
            untraced = run_pass(w, w.prefix, 0.0, speed)
            tracer = tracing.Tracer()
            modules = {m: getattr(pt, m) for m in ("cli", "tomography", "experiment", "hom", "optics")}
            with tracer.installed(modules):
                main = run_pass(w, w.prefix, 0.0, speed, tracer)
            repeat_ok = untraced.digests == main.digests
            passes = (untraced, main)
        else:
            main = run_pass(w, w.prefix, time.perf_counter() + seconds, speed)
            _, _, rep_problems, rep_digest, _ = run_op(w, 0)
            repeat_ok = not rep_problems and rep_digest == main.digests[0]
            passes = (main,)
        n_fits, worst_dist, rt_problems = workloads.roundtrip_check(pt, seed, n_random=0 if smoke else 2)
        more = measure_setup(reps // 2, speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    walls, setups, phases = walls + more[0], setups + more[1], phases + more[2]

    problems = [msg for p in passes for msg in p.problems] + rt_problems
    if not repeat_ok:
        problems.append("repeat with the same seed gave different bytes")
    attempted = sum(len(p.times) for p in passes) + (0 if traced else 1) + n_fits
    failed = sum(p.failed for p in passes) + (not repeat_ok) + len(rt_problems)
    times, raw = main.normalized, main.times  # per-op seconds
    if not smoke and not traced and w.tail != "max":
        beyond = len(times) * (1.0 - float(w.tail[1:]) / 100.0)
        if beyond < 10:
            problems.append(f"{len(times)} samples leave {beyond:.1f} beyond {w.tail}")
    correct = not problems and failed == 0

    setup_s = statistics.median(setups)
    p50, tail = statistics.median(times), percentile(times, w.tail)
    p50_name = "tomo_run_s" if w.timing == "tomo_run_s" else f"{w.timing}.p50"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = [
        ("setup_s", setup_s, "s", f"median of {len(setups)} cold starts; raw {statistics.median(walls):.4g} s"),
        (p50_name, p50, "s", f"median of {len(times)}; raw {statistics.median(raw):.4g} s"),
        (f"{w.timing}.{w.tail}", tail, "s", f"n = {len(times)}; raw {percentile(raw, w.tail):.4g} s"),
        ("fail_frac", failed / attempted, "ratio", f"{failed} of {attempted}"),
        ("peak_rss_mb", peak_rss_mb, "MB", "this process"),
    ]
    prefix = main.records[: w.prefix]
    fid_name = "fidelity" if name == "seed_sweep" else "cli_fidelity"
    for t, f in median_by_target(prefix, "fidelity").items():
        report.append((f"{fid_name}.{t}", f, "1", f"median over the first {w.prefix} ops"))
    for t, s in median_by_target(prefix, "fidelity_std").items():
        report.append((f"fidelity_std.{t}", s, "1", "scorecard, no direction"))

    phase_medians = {k: statistics.median(p[k] for p in phases) for k in phases[0]}
    if traced:
        overhead = sum(main.normalized) - sum(untraced.normalized)
        scale = sum(main.normalized) / sum(main.times)
        layer = tracing.per_layer_metrics(tracer, scale, overhead, phase_medians)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s.p50": {"value": p50, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    result = {
        "workload": name,
        "provenance": provenance(seed, traced),
        "ops": len(times),
        "prefix": w.prefix,
        "digest_sha256": workload_digest(main.digests[: w.prefix]),
        "roundtrip_worst_trace_distance": worst_dist,
        "host_factor_median": statistics.median(
            hostspeed.REF_NOMINAL_S / t for t in speed.took
        ),
        "setup_walls_s": walls,
        "setup_phases_s": phase_medians,
        "report": {n: {"value": v, "unit": u, "note": note} for n, v, u, note in report},
        "result": line,
        "problems": problems[:50],
        "records": [dict(r, normalized=n) for r, n in zip(main.records, times)],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"{tag}.spans.jsonl", "w", encoding="utf-8") as f:
            for rec in tracer.records():
                f.write(json.dumps(rec) + "\n")
    return report, line, result, tracer


def print_report(name, seed, traced, report, line, result) -> None:
    print(f"workload {name}  seed {seed}  traced {int(traced)}  ops {result['ops']}  "
          f"prefix digest {result['digest_sha256'][:16]}")
    for n, v, u, note in report:
        print(f"  {n:28s} {v:14.6g} {u:6s} {note}")
    if traced:
        for n, m in line["metrics"].items():
            print(f"  {n:44s} {m['value']:14.6g} {m['unit']}")
    for msg in result["problems"][:10]:
        print(f"  problem: {msg}", file=sys.stderr)


def smoke() -> int:
    """Tiny sizes: every metric is printed with a unit, spans link up."""
    problems = []
    printed = {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            report, line, result, tracer = run_workload(name, 1, 0.0, traced, smoke=True)
            print_report(name, 1, traced, report, line, result)
            printed.update((n, unit) for n, _, unit, _ in report if unit)
            if not line["correct"]:
                problems.append(f"{name} traced={traced}: not correct: {result['problems'][:3]}")
            got = set(line["metrics"])
            if got != want[int(traced)]:
                problems.append(f"{name} traced={traced}: metrics {sorted(got ^ want[int(traced)])} differ")
            if any(not m["unit"] for m in line["metrics"].values()):
                problems.append(f"{name}: a metric has no unit")
            if traced:
                if not tracer.spans:
                    problems.append(f"{name}: no spans")
                problems += [f"{name}: {p}" for p in tracer.check_links()]
    missing = [n for n in REPORT_NAMES if n not in printed]
    if missing:
        problems.append(f"not printed with a unit: {missing}")
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, wiring checks only")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    traced = bool(args.trace)
    report, line, result, _ = run_workload(args.workload, args.seed, args.seconds, traced)
    print_report(args.workload, args.seed, traced, report, line, result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
