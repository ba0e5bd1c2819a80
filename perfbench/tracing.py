"""Spans around the public functions of each poltime layer.

The tracer replaces functions at their module attributes while it is
installed.  The package calls across modules through those attributes
(`tomography.experiment.sample_scan`, `experiment.hom.scan_trace`, the
module global `mle_reconstruct` inside `bootstrap_errors`, ...), so nested
calls are caught as well as the benchmark's own.

A span is [id, parent id, op id, layer, start, end, leaf seconds, attrs].
Calls of a leaf layer (`experiment.point_rng`, one per scan point) are only
counted and timed, and their time is charged to the enclosing span, so a
long scan does not allocate a span per point.
"""

from __future__ import annotations

import contextlib
import time

_NOW = time.perf_counter


def _scan_points(trace) -> dict:
    return {"points": int(trace.delays.size)}


def _trace_points(points) -> dict:
    return {"points": len(points)}


def _fit_attrs(result) -> dict:
    return {"iterations": int(result.iterations)}


def _boot_attrs(result) -> dict:
    return {"used": int(result.replicas_used), "dropped": int(result.replicas_dropped)}


# (module name, attribute, layer name, attrs from the return value, leaf)
LAYERS = (
    ("cli", "main", "cli.main", None, False),
    ("tomography", "default_tomography_set", "tomography.default_tomography_set", None, False),
    ("tomography", "simulate_counts", "tomography.simulate_counts", None, False),
    ("tomography", "mle_reconstruct", "tomography.mle_reconstruct", _fit_attrs, False),
    ("tomography", "bootstrap_errors", "tomography.bootstrap_errors", _boot_attrs, False),
    ("experiment", "sample_scan", "experiment.sample_scan", _scan_points, False),
    ("experiment", "point_rng", "experiment.point_rng", None, True),
    ("experiment", "estimate_baseline", "experiment.readout", None, False),
    ("experiment", "extract_projections", "experiment.readout", None, False),
    ("experiment", "estimate_visibility", "experiment.readout", None, False),
    ("hom", "scan_trace", "hom.scan_trace", _trace_points, False),
    ("optics", "compile_preparation", "optics.compile_preparation", None, False),
)

ROOT = "bench.op"


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}
        self._stack: list[list] = []
        self._op = -1

    def _open(self, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self._op, layer, 0.0, 0.0, 0.0, {}]
        self.spans.append(span)
        self._stack.append(span)
        span[4] = _NOW()
        return span

    def _close(self, span: list) -> None:
        span[5] = _NOW()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one benchmark operation."""
        self._op = index
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, layer, attrs_of):
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[7]["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs_of is not None:
                span[7].update(attrs_of(out))
            return out

        return traced

    def _wrap_leaf(self, fn, layer):
        totals = self.leaves.setdefault(layer, [0, 0.0])

        def counted(*args, **kwargs):
            start = _NOW()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _NOW() - start
                totals[0] += 1
                totals[1] += dt
                if self._stack:
                    self._stack[-1][6] += dt

        return counted

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Patch every layer function; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, layer, attrs_of, leaf in LAYERS:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                wrapped = self._wrap_leaf(fn, layer) if leaf else self._wrap(fn, layer, attrs_of)
                setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans and charged leaf time."""
        own = [s[5] - s[4] - s[6] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def layer_totals(self) -> dict[str, dict]:
        """calls, busy (outermost spans of a layer), self and attr sums."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for s in self.spans:
            t = out.setdefault(
                s[3], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "attrs": {}}
            )
            t["calls"] += 1
            t["self_s"] += own[s[0]]
            if not self._inside_same_layer(s):
                t["busy_s"] += s[5] - s[4]
            if "error" in s[7]:
                t["errors"] += 1
            for k, v in s[7].items():
                if k != "error":
                    t["attrs"][k] = t["attrs"].get(k, 0) + v
        for layer, (calls, busy) in self.leaves.items():
            out[layer] = {"calls": calls, "busy_s": busy, "self_s": busy, "errors": 0, "attrs": {}}
        return out

    def _inside_same_layer(self, span: list) -> bool:
        parent = span[1]
        while parent is not None:
            p = self.spans[parent]
            if p[3] == span[3]:
                return True
            parent = p[1]
        return False

    def check_links(self) -> list[str]:
        """Every non-root span links to an earlier span of the same op."""
        problems = []
        for s in self.spans:
            if s[3] == ROOT:
                if s[1] is not None:
                    problems.append(f"root span {s[0]} has a parent")
                continue
            if s[1] is None:
                problems.append(f"span {s[0]} ({s[3]}) has no parent")
            elif s[1] >= s[0] or self.spans[s[1]][2] != s[2]:
                problems.append(f"span {s[0]} ({s[3]}) links outside its op")
        if not any(s[1] is not None and self.spans[s[1]][3] != ROOT for s in self.spans):
            problems.append("no span nests below another layer")
        return problems

    def records(self) -> list[dict]:
        keys = ("id", "parent", "op", "name", "start", "end", "leaf_s", "attrs")
        return [dict(zip(keys, s)) for s in self.spans]


def per_layer_metrics(tracer: Tracer, scale: float, overhead_s: float, setup: dict) -> dict:
    """The per-layer metric set, zero for layers a workload never enters.

    Span times are multiplied by `scale`, the host-speed factor of the
    traced pass; `overhead_s` and the `setup` phases come normalized.
    """
    t = tracer.layer_totals()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "attrs": {}}

    def get(layer):
        return t.get(layer, empty)

    main = get("cli.main")
    boot = get("tomography.bootstrap_errors")
    fit = get("tomography.mle_reconstruct")
    sim = get("tomography.simulate_counts")
    scan = get("experiment.sample_scan")
    rng = get("experiment.point_rng")
    trace = get("hom.scan_trace")
    prep = get("optics.compile_preparation")
    root = get(ROOT)
    used = boot["attrs"].get("used", 0)
    dropped = boot["attrs"].get("dropped", 0)
    wall = root["busy_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    def sec(layer_totals, key="busy_s"):
        return (layer_totals[key] * scale, "s")

    return {
        "cli.import_s": (setup["import_s"], "s"),
        "tomography.default_tomography_set.busy_s": (setup["tset_s"], "s"),
        "cli.main.busy_s": sec(main),
        "cli.self_s": sec(main, "self_s"),
        "tomography.bootstrap_errors.busy_s": sec(boot),
        "tomography.bootstrap_errors.self_s": sec(boot, "self_s"),
        "tomography.bootstrap_errors.replicas_used": (used, "count"),
        "tomography.bootstrap_errors.replicas_dropped": (dropped, "count"),
        "tomography.bootstrap_errors.used_ratio": (ratio(used, used + dropped), "ratio"),
        "tomography.mle_reconstruct.calls": (fit["calls"], "count"),
        "tomography.mle_reconstruct.busy_s": sec(fit),
        "tomography.mle_reconstruct.s_per_fit": (scale * ratio(fit["busy_s"], fit["calls"]), "s"),
        "tomography.mle_reconstruct.iterations": (fit["attrs"].get("iterations", 0), "count"),
        "tomography.mle_reconstruct.failed": (fit["errors"], "count"),
        "tomography.simulate_counts.calls": (sim["calls"], "count"),
        "tomography.simulate_counts.self_s": sec(sim, "self_s"),
        "experiment.sample_scan.calls": (scan["calls"], "count"),
        "experiment.sample_scan.points": (scan["attrs"].get("points", 0), "count"),
        "experiment.sample_scan.self_s": sec(scan, "self_s"),
        "experiment.point_rng.calls": (rng["calls"], "count"),
        "experiment.point_rng.busy_s": sec(rng),
        "experiment.readout.busy_s": sec(get("experiment.readout")),
        "hom.scan_trace.calls": (trace["calls"], "count"),
        "hom.scan_trace.points": (trace["attrs"].get("points", 0), "count"),
        "hom.scan_trace.busy_s": sec(trace),
        "hom.scan_trace.us_per_point": (
            1e6 * scale * ratio(trace["busy_s"], trace["attrs"].get("points", 0)),
            "us",
        ),
        "optics.compile_preparation.calls": (prep["calls"], "count"),
        "optics.compile_preparation.busy_s": sec(prep),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.wall_s": (wall * scale, "s"),
        "trace.attributed_frac": (ratio(wall - root["self_s"], wall), "ratio"),
    }
