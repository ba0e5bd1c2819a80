"""Smoke runs of the command-line scripts under `scripts/` at tiny sizes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )


def test_tomography_benchmark_script_runs():
    proc = run_script("run_tomography_benchmark.py", "--seeds", "2", "--replicas", "2")
    assert proc.returncode == 0, proc.stderr
    assert "median F" in proc.stdout
    assert "median bootstrap std" in proc.stdout


def test_dip_scan_script_writes_its_traces(tmp_path):
    """The paper's four panels: dip depths at lags -1, 0 and +1."""
    proc = run_script("run_dip_scans.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "dip_depths.json").read_text()) == {
        "phi_plus vs phi_plus": {"-1": 0.0, "0": 1.0, "1": 0.0},
        "phi_plus vs phi_minus": {"-1": 0.0, "0": 0.0, "1": 0.0},
        "p+ vs p+": {"-1": 0.25, "0": 1.0, "1": 0.25},
        "p+ vs p-": {"-1": 0.25, "0": 0.0, "1": 0.25},
    }
    assert len(list(tmp_path.glob("*.csv"))) == 4


def test_dip_scan_script_clips_sampled_depths(tmp_path):
    """Sampled depths are read as `poltime scan` reads them, 1 - n / N0
    clipped to [0, 1]; at seed 5 a count above the baseline at lag -1 of
    phi_plus vs phi_plus would otherwise read -0.067437."""
    proc = run_script("run_dip_scans.py", "--out", str(tmp_path), "--counts", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "dip_depths.json").read_text())
    depths = [depth for pairing in summary.values() for depth in pairing.values()]
    assert len(depths) == 12
    assert all(0.0 <= depth <= 1.0 for depth in depths)
    assert summary["phi_plus vs phi_plus"]["-1"] == 0.0


def test_keyed_draw_check_passes():
    proc = run_script("check_keyed_draws.py", "--draws", "20000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "20000 draws checked, 0 mismatches, " in proc.stdout
    assert "at mean >= 10" in proc.stdout and "left to numpy's sampler" in proc.stdout
    assert "2860 draws at strided grid indices checked, 0 mismatches" in proc.stdout
    assert "200 stream seeds checked, 0 mismatches" in proc.stdout


def test_fit_stress_check_runs():
    """Every row of the full default grid converges, up to N0 = 1e8 where
    the gap tolerance is count-scaled, and the rejected steps are reported."""
    proc = run_script("check_fit_stress.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "648 of 648 rows converged, mean passes " in proc.stdout
    assert re.search(r"^\d+ of \d+ steps rejected$", proc.stdout, re.MULTILINE)
    header, *rows = proc.stdout.splitlines()[:10]
    assert header.split()[3:5] == ["mean", "passes"]
    for line in rows:
        n0, count, converged, mean, median, most = line.split()
        assert 1.0 <= float(mean) <= int(most) and int(converged) == int(count)


def test_ab_bench_reads_its_own_tree_as_equal():
    """Both sides load the same sources, so every op's digest agrees."""
    args = ["--parent", str(ROOT), "--workload", "seed_sweep", "--ops", "4"]
    proc = run_script("ab_bench.py", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "workload seed_sweep, 4 ABBA pairs" in proc.stdout
    assert "ratio this tree / parent: median " in proc.stdout
    blocks = r"^block medians, in run order: (\d\.\d{3}, ){3}\d\.\d{3}$"
    assert re.search(blocks, proc.stdout, re.M), proc.stdout
    assert "digests: all 4 ops agree" in proc.stdout


def test_ab_bench_takes_a_workload_seed():
    args = ["--parent", str(ROOT), "--workload", "seed_sweep", "--ops", "2", "--seed", "5"]
    proc = run_script("ab_bench.py", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "workload seed_sweep, 2 ABBA pairs, seed 5" in proc.stdout
    assert "digests: all 2 ops agree" in proc.stdout


def test_ab_bench_times_cold_starts():
    proc = run_script("ab_bench.py", "--parent", str(ROOT), "--cold", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cold starts, 2 ABBA pairs" in proc.stdout
    assert "this tree: median " in proc.stdout
    assert "ratio this tree / parent: median " in proc.stdout


def test_ab_bench_reads_equal_records_on_its_own_tree():
    args = ["--parent", str(ROOT), "--workload", "tomography_run", "--ops", "2"]
    proc = run_script("ab_bench.py", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "digests: all 2 ops agree" in proc.stdout
    assert "records: all 2 ops agree" in proc.stdout


def test_ab_bench_reports_moved_fits_without_failing(tmp_path):
    """A parent whose fits stop at a looser gap draws the same counts but
    lands elsewhere: the records differ, which is reported, not an error."""
    shutil.copytree(ROOT / "src" / "poltime", tmp_path / "src" / "poltime")
    source = tmp_path / "src" / "poltime" / "tomography.py"
    text = source.read_text()
    assert "\n_GAP_TOL = 1e-9 " in text
    source.write_text(text.replace("\n_GAP_TOL = 1e-9 ", "\n_GAP_TOL = 1e-2 ", 1))
    args = ["--parent", str(tmp_path), "--workload", "seed_sweep", "--ops", "4"]
    proc = run_script("ab_bench.py", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "digests: all 4 ops agree" in proc.stdout
    assert re.search(r"records: [1-4] of 4 ops differ, first op \d", proc.stdout), proc.stdout
    moves = re.search(r"^largest record moves: seed 0, fidelity (\S+)$", proc.stdout, re.M)
    assert moves and 0.0 < float(moves.group(1)) < 1.0, proc.stdout


def test_ab_bench_repeats_its_timing_in_fresh_interpreters():
    """--runs K gives K reports, then the median and range of their medians."""
    args = ["--parent", str(ROOT), "--workload", "seed_sweep", "--ops", "2", "--runs", "2"]
    proc = run_script("ab_bench.py", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("workload seed_sweep, 2 ABBA pairs") == 2
    assert "run 1 of 2, exit 0:" in proc.stdout and "run 2 of 2, exit 0:" in proc.stdout
    assert proc.stdout.count("digests: all 2 ops agree") == 2
    medians = re.findall(r"^ratio this tree / parent: median (\d\.\d{3}),", proc.stdout, re.M)
    last = proc.stdout.splitlines()[-1]
    found = re.fullmatch(r"2 run medians: median (\d\.\d{3}), range \[(\S+), (\S+)\]", last)
    assert len(medians) == 2 and found, proc.stdout
    assert found.group(2, 3) == tuple(sorted(medians, key=float))
