"""One cold start of poltime, as every CLI invocation pays it.

Run in a fresh interpreter with poltime on the path:

    python3 perfbench/setup_probe.py '<config json>'

Imports poltime, resolves the config, builds the default tomography set
and fits the expected counts of the configured target once.  Prints one
JSON line with the time of each phase in seconds.
"""

import json
import sys
import time

t0 = time.perf_counter()
from poltime import cli, hilbert, tomography  # noqa: E402

t1 = time.perf_counter()
cfg = cli.resolve_config(json.loads(sys.argv[1]))
t2 = time.perf_counter()
tset = tomography.default_tomography_set(cfg.lattice, cfg.packet, with_plans=False)
t3 = time.perf_counter()
vec = hilbert.logical_vector(cfg.encoded)
p = [abs(complex(v.conj() @ vec)) ** 2 for v in map(hilbert.logical_vector, tset.states())]
counts = [[cfg.baseline_counts * (1.0 - cfg.visibility * pi), cfg.baseline_counts] for pi in p]
tomography.mle_reconstruct(counts, tset, visibility=cfg.visibility, seed=cfg.seed)
t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "tset_s": t3 - t2, "fit_s": t4 - t3}))
