"""The benchmark under `perfbench/` still runs against the package.

Its tracer patches poltime's layer functions by name, and its workloads call
the package through module attributes, so a renamed or removed function
breaks the benchmark without failing any other test.  This loads
`perfbench/tracing.py` and `perfbench/workloads.py` from their files, as
they are, and runs each workload's smoke prefix untraced and traced.
"""

import importlib.util
from pathlib import Path

import pytest

import poltime

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("cli", "tomography", "experiment", "hom", "optics")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, workloads = load("tracing"), load("workloads")


def test_every_traced_layer_is_a_callable_of_the_package():
    for module, attribute, *_ in tracing.LAYERS:
        assert callable(getattr(getattr(poltime, module), attribute)), (module, attribute)


def run_prefix(w, tracer=None):
    """Digests of the workload's prefix, asserting each op checks clean."""
    digests = []
    for i in range(w.prefix):
        inp = w.inputs(i)
        if tracer is None:
            out = w.run(inp)
        else:
            with tracer.op(i):
                out = w.run(inp)
        problems, digest, _ = w.check(inp, out)
        assert problems == [], (w.name, i, problems)
        digests.append(digest)
    return digests


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_prefix_runs_untraced_and_traced(tmp_path, name):
    w = workloads.WORKLOADS[name](poltime, 1, tmp_path, True)
    untraced = run_prefix(w)
    tracer = tracing.Tracer()
    with tracer.installed({m: getattr(poltime, m) for m in MODULES}):
        traced = run_prefix(w, tracer)
    assert traced == untraced
    assert tracer.spans


def test_noiseless_round_trip_of_the_benchmark():
    fits, _, problems = workloads.roundtrip_check(poltime, 1, n_random=0)
    assert fits == len(workloads.TARGETS)
    assert problems == []
