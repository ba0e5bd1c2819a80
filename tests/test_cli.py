"""Command-line front end: config validation, exit codes, artifact shapes,
byte-stable reruns.  The bandwidth conversion is cross-checked against a
numerical Fourier transform of the filter's spectral amplitude."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poltime import cli, experiment, hilbert, hom, tomography
from poltime.cli import (
    EXIT_BEST_EFFORT,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_BASELINE_COUNTS,
    MAX_BINS,
    MAX_GRID_POINTS,
    MAX_REPLICAS,
    MAX_TAU_OVER_SIGMA,
    ConfigError,
    bandwidth_to_sigma,
    load_config,
    resolve_config,
)


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


# ---------------------------------------------------------------------------
# Bandwidth conversion
# ---------------------------------------------------------------------------


def fourier_sigma(bandwidth_nm, wavelength_nm):
    """Envelope width from an explicit FFT of the spectral amplitude."""
    from scipy import constants

    dnu = constants.c * (bandwidth_nm * 1e-9) / (wavelength_nm * 1e-9) ** 2
    sigma_nu = dnu / (2.0 * np.sqrt(2.0 * np.log(2.0)))  # intensity std
    n = 4096
    dstep = sigma_nu / 50.0
    freqs = (np.arange(n) - n / 2) * dstep
    amp = np.exp(-(freqs**2) / (4.0 * sigma_nu**2))
    envelope = np.fft.fft(np.fft.ifftshift(amp))
    times = np.fft.fftfreq(n, d=dstep)
    weights = np.abs(envelope) ** 2
    return float(np.sqrt(np.sum(weights * times**2) / np.sum(weights)))


def test_bandwidth_to_sigma_matches_fourier_oracle():
    for bw, wl in [(3.0, 780.0), (1.0, 780.0), (5.0, 1550.0)]:
        assert bandwidth_to_sigma(bw, wl) == pytest.approx(
            fourier_sigma(bw, wl), rel=1e-6
        )


def test_bandwidth_to_sigma_reference_value():
    # 3 nm intensity FWHM at 780 nm center, transform limited
    assert bandwidth_to_sigma(3.0, 780.0) == pytest.approx(
        1.267637586006833e-13, rel=1e-12
    )


def test_halving_bandwidth_doubles_envelope():
    assert bandwidth_to_sigma(1.5, 780.0) == pytest.approx(
        2.0 * bandwidth_to_sigma(3.0, 780.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        bandwidth_to_sigma(-1.0, 780.0)


def test_narrow_filter_triggers_resolvability_warning():
    # 0.05 nm filter: the envelope dwarfs the bin spacing
    with pytest.warns(hilbert.ResolvabilityWarning):
        resolve_config({"bandwidth_nm": 0.05, "wavelength_nm": 780.0})


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def test_defaults_resolve_without_a_config_file():
    cfg = load_config(None)
    assert cfg.lattice.tau == 2.3e-12
    assert cfg.lattice.bin_count == 2
    assert cfg.packet.sigma_t == pytest.approx(1.267637586006833e-13, rel=1e-12)
    assert cfg.visibility == 1.0
    assert cfg.baseline_counts == 1000.0
    assert cfg.encoded_label == "phi_plus"
    grid = cfg.delays()
    for lag in (-cfg.lattice.tau, 0.0, cfg.lattice.tau):
        assert np.min(np.abs(grid - lag)) == 0.0


def test_config_problems_are_collected():
    with pytest.raises(ConfigError) as err:
        resolve_config(
            {
                "tau_s": -1.0,
                "visibility": 2.0,
                "replicas": 1,
                "bins": 1,
                "grid": {"half_span_s": None, "step_s": "abc"},
            }
        )
    text = str(err.value)
    for needle in ("tau_s", "visibility", "replicas", "bins", "half_span_s", "step_s"):
        assert needle in text


@pytest.mark.parametrize(
    "grid", [{"step_s": "abc"}, {"half_span_s": None}, {"half_span_s": "inf"}]
)
def test_bad_grid_numbers_are_config_errors(tmp_path, capsys, grid):
    path = write_config(tmp_path, grid=grid)
    assert cli.main(["scan", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_grid_too_coarse_for_the_dip_lags_writes_no_trace(tmp_path, capsys):
    """A step that would snap two dip lags onto one point is a config error
    naming the step, raised before the scan writes trace.csv."""
    path = write_config(tmp_path, grid={"half_span_s": 1e-11, "step_s": 5e-12})
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "grid step too coarse to snap the dip lags" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "overrides",
    [{"grid": {"half_span_s": 1e-9, "step_s": 1e-16}}, {"replicas": 10**9}],
)
def test_oversized_runs_are_config_errors(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    start = time.perf_counter()
    code = cli.main(["tomography", "--config", path, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "tomography"])
def test_empty_baseline_plateau_is_a_config_error(tmp_path, capsys, command):
    """A plateau that records no counts cannot estimate N0: one config
    error naming baseline_counts, no warning and no artifact with NaN."""
    path = write_config(tmp_path, baseline_counts=1e-3)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", path, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and "baseline_counts" in err[0]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_json_artifacts_refuse_non_finite_numbers(tmp_path, bad):
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError):
        cli._write_json(path, {"baseline": np.float64(bad)}, timestamp=False)
    assert not path.exists()


def test_size_caps_are_inclusive():
    half_points = (MAX_GRID_POINTS - 1) // 2
    grid = {"half_span_s": half_points * 1e-13, "step_s": 1e-13}
    cfg = resolve_config({"grid": grid, "replicas": MAX_REPLICAS})
    assert cfg.delays().size == MAX_GRID_POINTS
    assert cfg.replicas == MAX_REPLICAS


def test_bins_are_capped(tmp_path, capsys):
    assert resolve_config({"bins": MAX_BINS}).lattice.bin_count == MAX_BINS
    with pytest.raises(ConfigError, match="bins"):
        resolve_config({"bins": MAX_BINS + 1})
    path = write_config(tmp_path, bins=100_000)
    assert cli.main(["tomography", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bins:")


@pytest.mark.parametrize("argv", [["scan"], ["tomography", "--noiseless"]])
def test_baseline_counts_are_capped(tmp_path, capsys, argv):
    """Means past numpy's Poisson limit are a config error naming the key,
    also in noiseless runs, whose bootstrap still draws."""
    assert resolve_config({"baseline_counts": MAX_BASELINE_COUNTS}).baseline_counts == 1e18
    path = write_config(tmp_path, baseline_counts=1e19)
    assert cli.main([*argv, "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: baseline_counts: must be at most 1e+18\n"


def test_unknown_config_keys_are_reported_together():
    with pytest.raises(ConfigError) as err:
        resolve_config({"visiblity": 0.5, "grid": {"stepp_s": 1e-13}})
    assert len(err.value.problems) == 2
    assert "visiblity" in err.value.problems[0]
    assert "stepp_s" in err.value.problems[1]


def test_benchmark_configs_resolve():
    """Every key the benchmark harness writes is a known one."""
    resolve_config({"encoded_target": "phi_plus", "visibility": 0.94, "baseline_counts": 1e3})
    resolve_config(
        {
            "encoded_target": "rl_bell",
            "visibility": 0.94,
            "baseline_counts": 1000.0,
            "replicas": 10,
            "seed": 5,
            "grid": {"half_span_s": 8e-12, "step_s": 2e-13},
        }
    )


@pytest.mark.parametrize(
    "amps, reason",
    [
        ([[np.nan, 0], [1, 0], [0, 0], [0, 0]], "finite"),
        ([[np.inf, 0], [1, 0], [0, 0], [0, 0]], "finite"),
        ([[1e308, 0], [1e308, 0], [0, 0], [0, 0]], "cannot be normalized"),
        ([[1e-320, 0], [0, 0], [0, 0], [0, 0]], "cannot be normalized"),
    ],
)
@pytest.mark.parametrize("field", ["encoded_target", "ancilla"])
def test_unusable_amplitudes_are_config_errors(tmp_path, capsys, field, amps, reason):
    other = "ancilla" if field == "encoded_target" else "encoded_target"
    path = write_config(tmp_path, **{field: amps, other: "h0"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["scan", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {field}:") and reason in err[0]


def test_calibration_without_a_dip_is_a_config_error(tmp_path, capsys):
    """A self-scan too weak to show a dip clips visibility_hat to 0: a config
    error naming it, not the configured visibility."""
    path = write_config(tmp_path, visibility=0.05, seed=11, replicas=2)
    out = tmp_path / "out"
    assert cli.main(["tomography", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: visibility_hat:")
    assert not (out / "result.json").exists()


def test_sigma_and_bandwidth_are_mutually_exclusive():
    with pytest.raises(ConfigError):
        resolve_config({"sigma_t_s": 1e-13, "bandwidth_nm": 3.0})


def test_explicit_amplitudes_are_normalized():
    cfg = resolve_config({"encoded_target": [[1, 0], [0, 0], [0, 0], [1, 0]]})
    assert cfg.encoded_label == "custom"
    vec = hilbert.logical_vector(cfg.encoded)
    np.testing.assert_allclose(vec, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)


def test_unknown_state_name_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, encoded_target="bogus")
    assert cli.main(["prepare", "--config", path]) == EXIT_CONFIG
    assert "unknown state name" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["bogus", [[1, 0], [0, 0], [0, 0]]])
def test_bad_encoded_target_is_reported_once(tmp_path, capsys, target):
    """Without an ancilla key the ancilla is the encoded target itself, so
    a bad target is one problem, not a second one under `ancilla`."""
    path = write_config(tmp_path, encoded_target=target)
    assert cli.main(["prepare", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: encoded_target:")


@pytest.mark.parametrize("command", ["scan", "tomography"])
def test_bins_beyond_the_grid_name_the_half_span_they_need(tmp_path, capsys, command):
    """Four bins put the last side dip within 12 sigma_t of the default
    grid's edge: one config error naming bins, grid.half_span_s and the
    half span needed, (bins - 1) tau + 12 sigma_t."""
    path = write_config(tmp_path, bins=4, replicas=2)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    need = 3 * cli.DEFAULT_TAU_S + 12 * bandwidth_to_sigma(3.0, 780.0)
    assert len(err) == 1
    assert err[0].startswith("config error: bins:")
    assert "grid.half_span_s" in err[0] and f"{need:.4g} s" in err[0]
    assert list(out.iterdir()) == []
    wide = write_config(tmp_path, bins=4, replicas=2, grid={"half_span_s": 8.5e-12})
    assert cli.main([command, "--config", wide, "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("command", ["scan", "tomography"])
def test_two_bin_grids_need_one_tau_past_the_dips(tmp_path, capsys, command):
    """Two bins need the grid to reach tau + 12 sigma_t, not 2 tau + 12
    sigma_t: at sigma_t = 0.4 ps that is 7.1 ps, inside the default 8 ps
    half span, and the run completes.  At 0.6 ps it is 9.5 ps, and the one
    config error names grid.half_span_s."""
    path = write_config(tmp_path, sigma_t_s=4e-13, replicas=2)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out), "--no-timestamp"]) == EXIT_OK
    wider = write_config(tmp_path, sigma_t_s=6e-13, replicas=2)
    assert cli.main([command, "--config", wider, "--out", str(tmp_path / "no")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "grid.half_span_s" in err[0]


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; no state may leak between
    calls.  A seed override, a run without one, help and a usage error, in
    one process, each give the exit code, output and artifacts of a fresh
    interpreter."""
    monkeypatch.setenv("COLUMNS", "80")
    path = write_config(tmp_path, encoded_target="p_plus", replicas=3, seed=5)
    calls = [
        ["tomography", "--config", path, "--seed", "9", "--no-timestamp", "--out"],
        ["tomography", "--config", path, "--no-timestamp", "--out"],
        ["--help"],
        ["scan", "--seed", "x"],
    ]
    for k, argv in enumerate(calls):
        runs = []
        for where in ("inproc", "fresh"):
            out = tmp_path / f"{where}{k}"
            args = argv + [str(out)] if argv[-1] == "--out" else argv
            if where == "inproc":
                code = cli.main(args)
                std = capsys.readouterr()
                stdout, stderr = std.out, std.err
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "poltime.cli", *args], capture_output=True, text=True
                )
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
            runs.append((code, stdout, stderr, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == (EXIT_OK if k < 3 else EXIT_CONFIG)
    assert (tmp_path / "inproc0" / "result.json").read_bytes() != (
        tmp_path / "inproc1" / "result.json"
    ).read_bytes()


def test_cli_import_leaves_scipy_optimize_unloaded():
    """The package needs no scipy at run time: importing the command line and
    compiling a best-effort plan load no scipy module at all."""
    code = (
        "import sys, numpy as np, poltime.cli\n"
        "from poltime import hilbert, optics\n"
        "vec = np.array([1.0, 0.7, 0.0, 0.714142842854285])\n"
        "vec = vec / np.linalg.norm(vec)  # test_optics.UNREACHABLE\n"
        "lattice, packet = hilbert.TimeBinLattice(2, 2.3e-12), hilbert.Wavepacket(2.3e-13)\n"
        "plan = optics.compile_preparation(hilbert.from_logical(vec, lattice, packet))\n"
        "print(plan.target_class, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["general", "[]"]


def test_module_entry_point_runs_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "poltime.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: poltime" in proc.stdout


def test_package_import_loads_the_cli_on_first_use():
    code = (
        "import sys, poltime; print('poltime.cli' in sys.modules); "
        "print(poltime.cli.main is sys.modules['poltime.cli'].main)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["scan", "--config", str(path)]) == EXIT_CONFIG
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, problem",
    [
        (None, "cannot read config: "),
        ("[1, 2]", "config root must be a JSON object"),
        ('{"grid": 5}', "grid: must be an object with half_span_s / step_s"),
    ],
    ids=["unreadable", "root", "grid"],
)
def test_config_of_the_wrong_shape_is_a_config_error(tmp_path, capsys, text, problem):
    """A missing file, a JSON root that is not an object and a grid that is
    not one each end in exit 1 with one config error line, writing nothing."""
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_check_reports_a_deviation(monkeypatch, capsys):
    """The default config passes; a closed form off by 1e-6 fails the 1e-9
    tolerance with exit 3 and says so on stderr."""
    argv = ["oracle-check", "--triples", "2"]
    assert cli.main(argv) == EXIT_OK
    exact = hom.coincidence_ratio
    monkeypatch.setattr(hom, "coincidence_ratio", lambda *args: exact(*args) + 1e-6)
    capsys.readouterr()
    assert cli.main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "oracle check FAILED (tolerance 1e-9)" in captured.err
    assert "max |deviation| = 1.000e-06" in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["tomography", "--bogus"],
        ["scan", "--seed", "x"],
        ["frobnicate"],
        [],
        ["oracle-check", "--out", "x"],
        ["prepare", "--noiseless"],
    ],
)
def test_usage_errors_are_config_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "usage: poltime" in err
    assert "error:" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
def test_help_exits_ok(capsys, argv):
    assert cli.main(argv) == EXIT_OK
    assert "usage: poltime" in capsys.readouterr().out


@pytest.mark.parametrize("triples", ["0", "-5"])
def test_oracle_check_needs_a_triple(capsys, triples):
    argv = ["oracle-check", "--triples", triples]
    assert cli.main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: --triples" in captured.err
    assert captured.out == ""


def test_oracle_check_caps_its_triples(capsys):
    """One past the cap is a config error, raised before any comparison."""
    assert cli.MAX_TRIPLES == 10_000
    assert cli.main(["oracle-check", "--triples", "10001"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: --triples: must be at most 10000" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["prepare", "scan", "tomography"])
def test_seeds_past_64_bits_are_config_errors(tmp_path, capsys, command):
    target = [[1, 0], [0.7, 0], [0, 0], [0.7141, 0.01]]
    path = write_config(tmp_path, encoded_target=target)
    argv = [command, "--config", path, "--seed", str(2**64), "--out", str(tmp_path)]
    assert cli.main(argv) == EXIT_CONFIG
    assert "config error: seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        pytest.param(command, {key: value}, id=f"{command}-{key}={value:g}")
        for key, value, commands in (
            ("wavelength_nm", 1e-160, ("prepare", "scan", "tomography", "oracle-check")),
            ("wavelength_nm", 1e300, ("prepare", "scan", "tomography", "oracle-check")),
            ("tau_s", 1e300, ("prepare",)),
        )
        for command in commands
    ],
)
def test_extreme_finite_inputs_are_config_errors(tmp_path, command, overrides):
    """A squared wavelength that under- or overflows, or a crystal contrast
    that overflows, ends the run as a config error, not a traceback."""
    argv = [sys.executable, "-m", "poltime.cli", command]
    argv += ["--config", write_config(tmp_path, **overrides)]
    if command != "oracle-check":
        argv += ["--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert any(line.startswith("config error:") for line in lines), proc.stderr
    if "wavelength_nm" in overrides:
        assert lines == [
            f"config error: bandwidth_nm, wavelength_nm: 3 nm at "
            f"{overrides['wavelength_nm']:g} nm gives no positive finite envelope width"
        ]


def test_tau_far_above_the_envelope_width_is_a_config_error(tmp_path):
    """tau_s at most MAX_TAU_OVER_SIGMA envelope widths is accepted, and
    above it is a config error naming tau_s, raised before the interference
    model's tau / sigma_t overflows: oracle-check at tau_s 1e300 exits as a
    config error with no RuntimeWarning on stderr."""
    sigma = 2e-13
    resolve_config({"tau_s": MAX_TAU_OVER_SIGMA * sigma, "sigma_t_s": sigma})
    with pytest.raises(ConfigError, match="^tau_s: must be at most 1e\\+06 sigma_t"):
        resolve_config({"tau_s": np.nextafter(MAX_TAU_OVER_SIGMA * sigma, 1.0), "sigma_t_s": sigma})
    argv = [sys.executable, "-m", "poltime.cli", "oracle-check", "--triples", "3"]
    argv += ["--config", write_config(tmp_path, tau_s=1e300)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: tau_s: "), proc.stderr
    assert "Warning" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"seed": True}, "seed"),
        ({"visibility": True}, "visibility"),
        ({"tau_s": True}, "tau_s"),
        ({"sigma_t_s": True}, "sigma_t_s"),
        ({"bandwidth_nm": True}, "bandwidth_nm"),
        ({"wavelength_nm": True}, "wavelength_nm"),
        ({"baseline_counts": True}, "baseline_counts"),
        ({"grid": {"half_span_s": True}}, "half_span_s"),
        ({"grid": {"step_s": True}}, "step_s"),
        ({"bins": True}, "bins"),
        ({"replicas": True}, "replicas"),
        # JSON strings are not numbers either, although float() reads them.
        ({"seed": "0"}, "seed"),
        ({"visibility": "0.9"}, "visibility"),
        ({"tau_s": "2.3e-12"}, "tau_s"),
        ({"sigma_t_s": "1e-13"}, "sigma_t_s"),
        ({"bandwidth_nm": "3"}, "bandwidth_nm"),
        ({"wavelength_nm": "1_000"}, "wavelength_nm"),
        ({"baseline_counts": "1000"}, "baseline_counts"),
        ({"grid": {"half_span_s": "8e-12"}}, "half_span_s"),
        ({"grid": {"step_s": "5e-14"}}, "step_s"),
        ({"bins": "2"}, "bins"),
        ({"replicas": "2"}, "replicas"),
        # Nor are they amplitudes.
        ({"encoded_target": [[True, 0], [0, 0], [0, 0], [0, 0]]}, "encoded_target"),
        ({"encoded_target": [["0.5", 0], [0.5, 0], [0.5, 0], [0.5, 0]]}, "encoded_target"),
        ({"ancilla": [[1, False], [0, 0], [0, 0], [0, 0]]}, "ancilla"),
        ({"ancilla": [[0, 0], [0, 0], [0, 0], [0, "1"]]}, "ancilla"),
    ],
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, **overrides)
    argv = ["tomography", "--config", path, "--out", str(tmp_path)]
    assert cli.main(argv) == EXIT_CONFIG
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize(
    "raw, problem",
    [
        ({"tau_s": 10**400}, "tau_s: must be a number"),
        ({"grid": {"step_s": -(10**400)}}, "step_s: must be a number"),
        ({"ancilla": [[10**400, 0], [0, 0], [0, 0], [0, 0]]}, "ancilla: expected a state name"),
    ],
)
def test_integers_past_the_float_range_are_config_errors(raw, problem):
    """JSON reads a long integer literal as a Python int, which float()
    cannot convert: a config error naming its key, not an OverflowError."""
    with pytest.raises(ConfigError) as info:
        resolve_config(raw)
    assert [p[: len(problem)] for p in info.value.problems] == [problem]


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["scan", "tomography"]),
    visibility=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    sigma_per_tau=st.floats(1 / 40, 1 / 2),
    wide_grid=st.booleans(),
    log_baseline=st.floats(-3.0, 19.0),
    bins=st.integers(2, 3),
    seed=st.integers(0, 2**64 - 1),
    noiseless=st.booleans(),
)
def test_configs_never_end_in_a_traceback(
    command, visibility, sigma_per_tau, wide_grid, log_baseline, bins, seed, noiseless
):
    """Mis-set visibilities, envelopes up to beyond tau/3, grids too narrow
    for them, empty and huge baselines: every run ends in exit 0, 1 or 3."""
    tau = cli.DEFAULT_TAU_S
    sigma = sigma_per_tau * tau
    half_span = 2 * tau + 12 * sigma + 1e-12 if wide_grid else cli.DEFAULT_HALF_SPAN_S
    raw = {
        "visibility": visibility,
        "sigma_t_s": sigma,
        "baseline_counts": 10.0**log_baseline,
        "bins": bins,
        "seed": seed,
        "replicas": 2,
        "grid": {"half_span_s": half_span, "step_s": 2e-13},
    }
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", hilbert.ResolvabilityWarning)
        path = write_config(Path(out), **raw)
        argv = [command, "--config", path, "--out", out, "--no-timestamp"]
        code = cli.main(argv + ["--noiseless"] * noiseless)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()


# The robustness probe's values of each config key: a typical one first,
# then extremes.  A drawn None leaves the key at its default.
PROBE_VALUES = {
    "tau_s": [2.3e-12, 1e-12, 1e-13, 1e-14],
    "sigma_t_s": [2.3e-13, 5e-13, 1e-14, 1e-15],
    "baseline_counts": [1000.0, 1.0, 1e-300, 1e9, 1e18],
    "visibility": [0.94, 0.0, 1e-12, 0.5, 1.0],
    "bins": [2, 3, 5, 8],
    "encoded_target": ["phi_plus", "p_plus", "rl_bell"],
    "ancilla": ["phi_plus", "p_plus", "rl_bell"],
    "seed": [0, 7, 2**64 - 1],
    "grid": [
        {"half_span_s": 8e-12, "step_s": 2e-13},
        {"half_span_s": 4e-12, "step_s": 1e-13},
        {"half_span_s": 2e-11, "step_s": 5e-13},
        {"half_span_s": 1e-12, "step_s": 1e-14},
    ],
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["prepare", "scan", "tomography"]),
    config=st.fixed_dictionaries(
        {key: st.one_of(st.none(), st.sampled_from(values)) for key, values in PROBE_VALUES.items()}
    ),
    replicas=st.sampled_from([2, 3]),
    noiseless=st.booleans(),
)
def test_robustness_probe_ends_every_run_in_a_documented_code(
    command, config, replicas, noiseless
):
    """Typical and extreme values of every key, drawn together, through the
    three commands in process: each run exits 0, 1, 2 or 3 with no
    traceback, and the only warning is ResolvabilityWarning."""
    raw = {key: value for key, value in config.items() if value is not None}
    raw["replicas"] = replicas
    if command == "tomography":
        raw.pop("ancilla", None)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = [command, "--config", write_config(Path(out), **raw), "--out", out]
        code = cli.main(argv + ["--noiseless"] * (noiseless and command != "prepare"))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BEST_EFFORT, EXIT_NUMERICAL), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    assert {w.category for w in caught} <= {hilbert.ResolvabilityWarning}, caught


def test_largest_seed_resolves():
    assert resolve_config({"seed": 2**64 - 1}).seed == 2**64 - 1


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def test_prepare_bell_state(tmp_path):
    path = write_config(tmp_path, encoded_target="phi_plus")
    out = tmp_path / "out"
    code = cli.main(
        ["prepare", "--config", path, "--out", str(out), "--no-timestamp"]
    )
    assert code == EXIT_OK
    plan = json.loads((out / "plan.json").read_text())
    kinds = [el["kind"] for el in plan["elements"]]
    assert kinds == ["HWP", "CRYSTAL"]
    assert plan["elements"][0]["theta_rad"] == pytest.approx(np.pi / 8, abs=1e-9)
    assert plan["exactly_encodable"] is True
    assert plan["target"] == "phi_plus"
    assert plan["resolved_config"]["tau_s"] == 2.3e-12
    assert "generated_at" not in plan


def test_prepare_circular_bell_state(tmp_path):
    path = write_config(tmp_path, encoded_target="rl_bell")
    out = tmp_path / "out"
    assert cli.main(["prepare", "--config", path, "--out", str(out)]) == EXIT_OK
    plan = json.loads((out / "plan.json").read_text())
    assert plan["exactly_encodable"] is True
    assert plan["predicted_fidelity"] >= 1.0 - 1e-9
    assert "generated_at" in plan


def test_prepare_best_effort_exit(tmp_path, capsys):
    target = [[1, 0], [0.7, 0], [0, 0], [0.7141, 0.01]]
    path = write_config(tmp_path, encoded_target=target)
    out = tmp_path / "out"
    code = cli.main(["prepare", "--config", path, "--out", str(out)])
    assert code == EXIT_BEST_EFFORT
    assert "best-effort" in capsys.readouterr().err
    plan = json.loads((out / "plan.json").read_text())
    assert plan["exactly_encodable"] is False
    assert plan["predicted_fidelity"] < 1.0 - 1e-9


# SHA-256 of plan.json from `prepare --no-timestamp` at the default config:
# every named state, each exactly encodable (exit 0), and four explicit
# targets that no bench plan reaches (exit 2).
PLAN_SHA256 = {
    "h+": "f82ce1d64d2fe79da234495e2bdf5c0c5a097a0b31f75089eb2d417b486cfce6",
    "h-": "385febef207f25c3980068814a984ae33554768f43c5fcb5542c3902dcc74449",
    "h0": "7837c0a135e6d425d81227d216a3c4d710722ecbab8d990ba7eb3007424bd680",
    "hd": "4e0012ac7b21674faf0bdf1cf8865c610205450b8fa3fb9c70a0501c60d28765",
    "ht": "da2d120584179a1f8917ebc077a242c0fa3d6b98bea48e9165521ed1ce89b3c5",
    "hx": "855de1f957fdf82e5991a557b7f2b990426f754f03ac69bedcd41ddd68fea551",
    "l+": "f987c70c927b9bdf4585ad743a7362ef8f18f38d0b1ed7fb3055a53dfaf3d145",
    "l-": "65dc475c3d3b6704d3ad39de23e7f629eaea92a5ad405f7d00871f009e73268e",
    "l0": "0eea4b19026dbc64149116c84b4ccf050f2e57660310507c86bbe05ef8f51aea",
    "ld": "8c8be3612a6ee5a1e822af7fe3397a22ca3ed8c8d204b4a30fb65188781506db",
    "lt": "b7b325a5abdf12376d83dab0461741c6e210331489276fc3520e50a15ea6982b",
    "lx": "a41ba8801dc9e4f0201886021af34f5e918c714601f4d995240455d3e99b2643",
    "m+": "01a461339f5f8553671315412df300b0850fde7767711ed43316531d484180d6",
    "m-": "6b39463cc72d961f0016fb21a566821af6be61ac90b2a940750030eeac8cdf09",
    "m0": "9580aae0a690673a911ebf4cc1c6890470d24e066a98629721d46875dd1462b8",
    "md": "5aecba3ef94e739154b4e479647064427fa0ddb9f92a3dd58f81d3d41b9a29da",
    "mt": "6a4ca48ae53a95534eb580980f2b8005e4180305427f58197fa04755538a5a16",
    "mx": "2b95ad5437d2bdf4f14e9874528dcd4162f830b271d7b629fcd66706ef8722e5",
    "p+": "7f877f08d8d4e6cd23c90938b261c857bb39380952b4076e3be44a2abc42c713",
    "p-": "9c6a89276f0257f47f41da0c435e03c8d9868e197bea5bf293fa8bdbe563220a",
    "p0": "1fec928326fe3995f105f82312616195c006e86830681521932ce6b965092b2e",
    "p_plus": "62a5949a84e8336760b9d0fdc0e8686ae2125f06b6429ef63c89cdb82b3fbced",
    "pd": "c77035cfdc6bdb0cecefd054987c39949245b70aa221c2af74498d72acf88f37",
    "phi_minus": "1ccff1f7151a53c22afeab4681bfe115de37cf1789319cc0b9cdc143123f0e49",
    "phi_plus": "3b00181fd8f2b2c55204cdf31fad283a510901468d01df11d4cef6eea2a5f2de",
    "pt": "ad7042e96a4c9c7147c333e2fe7e2f4846454827dcd861a8ccfcdf100628c1c3",
    "px": "85fc01045b07e1bc653356e3c7db656a2494b1807cbed8d91efb7b3913b926cb",
    "r+": "dcdb167dc1b9226db930d61772c03dab86651c5d84adb6fd0cc345a5b253ed9c",
    "r-": "e369fd77e93e098b1bf97ccdd8ab55c1bc29d1b70683be781a04dc086b321b94",
    "r0": "824d2f1a9dbab4625e3bf31b594ce8e9f72f67a007f510a28bad68353b857678",
    "rd": "bfb69e23e15d31402d68d716f75eca849df96768dc361bcacfd6fdb70d0352f0",
    "rl_bell": "f1e8840959745de9db21d9c6978732fae52510172b1bafd0df661fe0f3c1f96f",
    "rt": "a51ef2944572b974608ca85bf014f91695f096761f365ef21c4ff41ed27a381b",
    "rx": "d0b582b0be126346bff2c6e682383431a86b38cf0f656bc18544bc1a1ca4dfd4",
    "v+": "7d0a73b01163f915d5ae8ebc25e523e4cca5b3d4c77bca6923c6801bc47a7608",
    "v-": "1cf6a109a7fcaf7a247da5d432b8bc20f2d41d7dc10a47d7229e099933128a5e",
    "v0": "14853bc29d0fa0c4634b8cb053ad4311653f8f75eb5ec3410742009f41532a63",
    "vd": "c06a3193c65047a2ee0176a5dc5fdfc032267d0a1d6286b32f4c7bbdea3bfd87",
    "vt": "e9f15956f7300e5c65268595712b92039bcbe9dab214193f35f8c55881911013",
    "vx": "4652c1a6c1169e78387e304ae8bd8de778934551ad90319ad86f65e64fa34841",
}
BEST_EFFORT_PLAN_SHA256 = [
    ([[1, 0], [0.7, 0], [0, 0], [0.7141, 0.01]], "293d1113d5c2829bedca415ebbf0c2b9589ba9f294c2165ebbda6045eef41e17"),
    ([[1, 0], [1, 0], [1, 0], [0, 0]], "51f819f2e88fbac52ff45b66af1dd2ba1d492ce607adefe73ddffe8187387c76"),
    ([[0.3, 0.1], [0.5, -0.2], [-0.4, 0.6], [0.2, 0.3]], "bbb730c5d855c8d5c44b6f87594642798e3e87d98fe8cd62d0a46051da00d01d"),
    ([[1, 0], [0, 0.5], [0, 0], [0.25, 0]], "1aae6b326e43d120d39a6db904233a2d2b48603cf221827a2169fed1fdecf94d"),
]


@pytest.mark.parametrize(
    "target, code, digest",
    [pytest.param(name, EXIT_OK, digest, id=name) for name, digest in PLAN_SHA256.items()]
    + [
        pytest.param(target, EXIT_BEST_EFFORT, digest, id=f"explicit{k}")
        for k, (target, digest) in enumerate(BEST_EFFORT_PLAN_SHA256)
    ],
)
def test_prepare_keeps_its_recorded_bytes(tmp_path, target, code, digest):
    path = write_config(tmp_path, encoded_target=target)
    out = tmp_path / "out"
    assert cli.main(["prepare", "--config", path, "--out", str(out), "--no-timestamp"]) == code
    assert hashlib.sha256((out / "plan.json").read_bytes()).hexdigest() == digest


def test_prepare_pins_cover_every_named_state():
    assert sorted(PLAN_SHA256) == sorted(hilbert.NAMED_STATES)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def run_scan(tmp_path, sub="scan", extra=(), **cfg):
    path = write_config(tmp_path, **cfg)
    out = tmp_path / "scan_out"
    code = cli.main(
        [sub, "--config", path, "--out", str(out), "--no-timestamp", *extra]
    )
    return code, out


def test_scan_side_dips_of_shifted_superpositions(tmp_path):
    code, out = run_scan(
        tmp_path, encoded_target="p_plus", ancilla="p-", seed=0
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert 0.15 < summary["dip_depths"]["-1"] < 0.35
    assert 0.15 < summary["dip_depths"]["1"] < 0.35
    assert summary["dip_depths"]["0"] < 0.1
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "delay_s,counts,R_hat"


def test_scan_flat_for_orthogonal_bells(tmp_path):
    code, out = run_scan(
        tmp_path, encoded_target="phi_plus", ancilla="phi_minus", seed=1
    )
    assert code == EXIT_OK
    data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert data[:, 2].min() > 0.9


def test_scan_recovers_injected_visibility(tmp_path):
    code, out = run_scan(
        tmp_path,
        encoded_target="phi_plus",
        ancilla="phi_plus",
        visibility=0.94,
        baseline_counts=10000,
        seed=2,
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert 0.92 <= summary["visibility_hat"] <= 0.96
    assert summary["resolved_config"]["visibility"] == 0.94


def test_every_dip_reading_is_dip_depths_of_read_dips(tmp_path):
    """On a low-count trace whose lag-tau count lies above its baseline,
    the scan summary, extract_projections and estimate_visibility all read
    experiment.dip_depths of read_dips, the clipped 0 included."""
    raw = {"encoded_target": "phi_plus", "ancilla": "h0", "baseline_counts": 20, "seed": 0}
    code, out = run_scan(tmp_path, **raw)
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    cfg = resolve_config(raw)
    scan = experiment.ScanConfig(cfg.delays(), cfg.baseline_counts, cfg.seed, cfg.visibility)
    trace = experiment.sample_scan(cfg.encoded, cfg.ancilla, scan)
    baseline, dips = experiment.read_dips(trace, (-1, 0, 1))
    depths = experiment.dip_depths(baseline, dips)
    assert dips[2] > baseline and depths[2] == 0.0 < depths[1]
    assert summary["dip_depths"] == {"-1": depths[0], "0": depths[1], "1": depths[2]}
    assert summary["visibility_hat"] == depths[1] == experiment.estimate_visibility(trace)
    readings = experiment.extract_projections(trace, experiment.occupied_bins(cfg.ancilla))
    assert [(r.lag, r.p_hat) for r in readings] == [(0, depths[1]), (1, depths[2])]


def test_scan_rejects_tomography_ancilla(tmp_path, capsys):
    code, _ = run_scan(tmp_path, encoded_target="phi_plus", ancilla="tomography")
    assert code == EXIT_CONFIG
    assert "tomography subcommand" in capsys.readouterr().err


def test_scan_rejects_too_narrow_grid(tmp_path, capsys):
    code, _ = run_scan(
        tmp_path,
        encoded_target="phi_plus",
        grid={"half_span_s": 1.0e-12, "step_s": 5e-14},
    )
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------


def test_tomography_noiseless_roundtrip(tmp_path):
    path = write_config(
        tmp_path, encoded_target="phi_plus", ancilla="tomography", replicas=5
    )
    out = tmp_path / "tomo"
    code = cli.main(
        [
            "tomography",
            "--config",
            path,
            "--out",
            str(out),
            "--noiseless",
            "--no-timestamp",
        ]
    )
    assert code == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    assert result["fidelity"] >= 0.999
    assert result["replicas"] == 5
    assert result["replicas_dropped"] == 0
    assert result["visibility_hat"] == pytest.approx(1.0, abs=1e-9)
    for key in ("rho", "fidelity_std", "nll", "iterations", "seed", "resolved_config"):
        assert key in result
    rho_real = np.loadtxt(out / "rho_real.csv", delimiter=",")
    assert rho_real.shape == (4, 4)
    assert np.trace(rho_real) == pytest.approx(1.0, abs=1e-9)
    projections = (out / "projections.csv").read_text().splitlines()
    assert projections[0] == "label,p_hat,dip_counts,baseline_counts"
    assert len(projections) == 21  # header + one row per member of the 20


def test_tomography_imaginary_structure_survives_noise(tmp_path):
    path = write_config(
        tmp_path, encoded_target="rl_bell", ancilla="tomography", replicas=5, seed=0
    )
    out = tmp_path / "tomo"
    code = cli.main(
        ["tomography", "--config", path, "--out", str(out), "--no-timestamp"]
    )
    assert code == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    rho = np.array([[complex(re, im) for re, im in row] for row in result["rho"]])
    assert result["fidelity"] > 0.85
    assert np.abs(rho.imag).max() > 0.15
    assert np.abs(np.diag(rho).imag).max() < 0.05  # diagonal stays real


def test_tomography_converges_at_the_largest_baseline(tmp_path):
    """At the baseline cap the gradient's rounding is far above 1e-9, and
    the fit and every bootstrap replica stop at their count-scaled gap
    tolerance instead of running into the iteration cap."""
    path = write_config(
        tmp_path,
        encoded_target="phi_plus",
        visibility=0.94,
        baseline_counts=MAX_BASELINE_COUNTS,
        replicas=100,
        seed=3,
    )
    out = tmp_path / "tomo"
    code = cli.main(["tomography", "--config", path, "--out", str(out), "--no-timestamp"])
    assert code == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    assert result["replicas"] == 100
    assert result["replicas_dropped"] == 0
    assert result["fidelity"] > 0.999


@pytest.mark.parametrize(
    "error", [np.linalg.LinAlgError("singular"), tomography.ReconstructionError("gap")]
)
def test_numerical_failures_exit_3_without_a_traceback(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(tomography, "bootstrap_errors", fail)
    path = write_config(tmp_path, replicas=2)
    argv = ["tomography", "--config", path, "--out", str(tmp_path / "tomo"), "--no-timestamp"]
    assert cli.main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"numerical failure: {error}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Determinism and self test
# ---------------------------------------------------------------------------


def test_repeat_runs_are_byte_identical(tmp_path):
    path = write_config(
        tmp_path, encoded_target="p_plus", ancilla="tomography", replicas=5, seed=7
    )
    scan_path = write_config(
        tmp_path, name="scan.json", encoded_target="p_plus", ancilla="p_plus", seed=7
    )
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert (
            cli.main(
                ["tomography", "--config", path, "--out", str(out), "--no-timestamp"]
            )
            == EXIT_OK
        )
        assert (
            cli.main(
                [
                    "scan",
                    "--config",
                    scan_path,
                    "--out",
                    str(out),
                    "--no-timestamp",
                ]
            )
            == EXIT_OK
        )
        blobs.append(
            {
                name: (out / name).read_bytes()
                for name in (
                    "result.json",
                    "projections.csv",
                    "rho_real.csv",
                    "rho_imag.csv",
                    "trace.csv",
                    "summary.json",
                )
            }
        )
    assert blobs[0] == blobs[1]


def test_shared_tomography_sets_give_cold_start_bytes(tmp_path):
    """Runs at 3 nm, then 1 nm, then 3 nm again in one process share each
    filter's tomography set, and write the bytes of a run that built its set
    afresh."""

    def run(bandwidth, tag):
        path = write_config(
            tmp_path, name=f"{tag}.json", encoded_target="rl_bell", replicas=5,
            seed=2, bandwidth_nm=bandwidth,
        )
        out = tmp_path / tag
        argv = ["tomography", "--config", path, "--out", str(out), "--no-timestamp"]
        assert cli.main(argv) == EXIT_OK
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    cold = {}
    for bandwidth in (3.0, 1.0):
        tomography._unbiased_set.cache_clear()
        cold[bandwidth] = run(bandwidth, f"cold{bandwidth}")
    assert cold[3.0] != cold[1.0]
    for k, bandwidth in enumerate((3.0, 1.0, 3.0)):
        assert run(bandwidth, f"warm{k}") == cold[bandwidth]
    assert tomography._unbiased_set.cache_info().hits >= 2


# SHA-256 of each tomography artifact at V = 0.94 with 2 replicas, keyed by
# (target, filter bandwidth in nm, seed), in ARTIFACTS order.  The unbiased
# set's 20 readings are its 20 members in member order, so the projections
# are the same bytes whether the readings are fitted one row each or pooled
# per member, as they were when first recorded.  The other three were
# re-recorded when the fit came to start at the better of two square roots
# of the projected inversion, which moved 14 of the 18 runs' fits by at
# most 5.1e-9 in fidelity, and again when its Newton step dropped the
# Hessian's rank-2 term, which moved every run's fit by at most 1.0e-8 in
# fidelity, within its gap tolerance, and took 6 of them one pass fewer.
ARTIFACTS = ("projections.csv", "result.json", "rho_real.csv", "rho_imag.csv")
ARTIFACT_SHA256 = {
    ("phi_plus", 3.0, 0): (
        "066ce506a271d9d78dd4f98e08d7551c37dccef83776d6af132868b0e3efff55",
        "96ac92d5896da35ecb34e195941a5ae49926fc7986cef1e19b328bb914f73f4d",
        "b0a76b72adb88a4e7a424d383450e25499a7265c74b54a2c5737bb70ae4bc8df",
        "79cb5422ae6270d8f8d56ac8ed77e72a11a31fa97ce009b3bd9fd80c073418c6",
    ),
    ("phi_plus", 3.0, 1): (
        "5ebe2afe15e0a0c3aafd503d3fd83bff27715c200d65ac9db90c8e9e05f537b0",
        "3337726b6354f268407240b9a3896153a30afd31845fc517288c5b7f611e21b6",
        "2f425ee39447c76e1c3292d6a6efe630b19679863c8f906ed48b21e670656136",
        "87ab16d85b41494bf10880d68b13b1a9b5f768ab6c1a8016bab7a8e0b9e071d0",
    ),
    ("phi_plus", 3.0, 2): (
        "33da6e017d49629541fe216c40cdba31d4df122043d9829e198f3e7c23f7e8f0",
        "5f4ee121ad9c696e9866865e4b5c0cfeabfb6fc75dceef07889f2a4c0c01c8c6",
        "e670d5d0113f3522197b388c9fcc0f89a93b9e2f5d59be4dada34c84ff0cb043",
        "fe602042c9f04259846aa3510e35894390793073be8b7839d0b8aac85dca8ae5",
    ),
    ("phi_plus", 1.0, 0): (
        "59e6dbd02f52cfebfe4bbd3e146dd2fafa8a6e95a5c87cb624ed913ace3da9d1",
        "2fcf437e1ccac1d6aa4b5fae5a90f3fb6e6847fedf852d783c24ed3f3ee87249",
        "e716b196d6be84c9f402d24cdb442f1d39854def23fb9477b5ec415f076605df",
        "74650191a1616f49c91148be0f2bda94811d52dddf0a0673338ad336d09b823c",
    ),
    ("phi_plus", 1.0, 1): (
        "c851fb0a79e7306c2741850523e3b36e58b14ccb5b2ac379171c7ae50d1753e2",
        "7948d8bf04bd0cb1bb744b2592af18c9f87ef976a3c1b7ac60f6bc2f8b04ffa6",
        "792304176add9a3b44b92b9d2fbd0e96bfc712d14e9a2e1b46a045407b2c6091",
        "bd7dc685cbe1f338ba0fd8e847502baeb5afb31d2ea65385896689593d8a0ecf",
    ),
    ("phi_plus", 1.0, 2): (
        "971145d569a56078d44ded002841a2b74ec1b3d6d442e396eba55ab5d1b06016",
        "ca71ce72919a29fe3fa672ec1b2a13ab9c029433118151eceefc6b059ad1b70b",
        "2ad40632e219fa8b7cfa90efcf537885d6d165258063feaebf2c349c10201615",
        "3283531879bb2c3d664cde478fd097ea5607815168840a64459155af9f8218cf",
    ),
    ("p_plus", 3.0, 0): (
        "08b65ba05cb00c73c727a760390e33f8a586926ad9d578d8d3de99e2e4e2ac73",
        "8df93acf2f7ba30eaa8f8db0f758f49dfcb699bebd053e270f2f1667e1fd7ae8",
        "3edf05c00f88f540d792fe657559f7b20f03a731ff9f0a6174cf1a60ecba0419",
        "01e9cc31b14435331a7d1562f6c229bdc134283f5a08013a3dd5f5b5f07a4dd4",
    ),
    ("p_plus", 3.0, 1): (
        "8b52e686d1e37a76447aca4bcc39457c94ce91d0814809f249cd79edadb42b49",
        "73af49aef09616a21eda30caf748834d744b4ec4cd3381679af359b88f66df28",
        "fc7e72f43ed1d48173733dea1bd9b52d421dba97ae9f1122084117ded71d0a73",
        "dbcb6f0257a6a3ad1b9e1da7f0bea4d882c11f3a0c161309fb1b000548cea630",
    ),
    ("p_plus", 3.0, 2): (
        "f6ec8705e65dd1d73183dfe5521fe4eb5a825fee6523aefeded7912515d66601",
        "1ec43719700f62c936902576ddc29601c4f63530157ff520e4a80d398ee35cfb",
        "c0715d066718c33c03ef87cd5297e61d2053946441475978a8117fff5a0e6d04",
        "209812ce8eb74d40dd275feceb63cbebad1f64c096fb87b6467372eb3077fff9",
    ),
    ("p_plus", 1.0, 0): (
        "569bbdfae7a766d9d286bf0f704bb820ee834ab1dbb1331519b081acfa2e4275",
        "eca6db9a4f7d5335ab1e3cf2ea26c23a0227a64cd5ffed84f47dbf5938c7415e",
        "03de6d4043416c438162f7beffee12c9584dddde24d9ffc6c33dd2934464ac5e",
        "692c7edd0afa3dca99e5165290822a0c9589152cb206127092abc66baa60ad09",
    ),
    ("p_plus", 1.0, 1): (
        "cbf65e1e4122631a8f6c92a204d62255cbb62e764cb67fb48fb847d47192db5f",
        "6f216348f7b509f891a1a6cba42921ee8653c6127020a96bb680902894191fa5",
        "f395488d961929983d67a450536b672755bbee2aef9f4d08c48b81e55e36e757",
        "81c8db4a0a055a50ed433d50bb15499fc9a109f823cc7eee541466605e98dffb",
    ),
    ("p_plus", 1.0, 2): (
        "5400c4568bd9a45dcf2e432398a6477f1fb53e29d2701bf72f75114eb4b6a4f9",
        "55c1be67b21e2038ef0f8e4dbe830f334a6dcdd4a1e57d25d7cb1474f03f3710",
        "63ff1510d58154f52aae23650c3b67154713be79cad1a4cce95afb83ab7042d9",
        "e44ab50a64fafd6c2cbd8dda982a3a25020f223fe561ad0faea2df317a5af3fa",
    ),
    ("rl_bell", 3.0, 0): (
        "fb1e709c945681802bbe2880080ae79f7248164f57512359f37b7ffc0eba16e0",
        "478bd369679d229a399e817a8b9e8509e98345c74d1f900d802fab7f15b52d4a",
        "41da06a5fd500e337634e5e87627e95b74c572fe415276b1bbb7f3e77cf52a56",
        "2a166916d47a1b5af60a66198fe9b5eefeffd3a091e0e211e86c49e5e87d31d8",
    ),
    ("rl_bell", 3.0, 1): (
        "e33343406b0cb606e50f4e9eeacb1334fb93de4d16265b7bb1868035e892bdf0",
        "a72c360ec395837b0ffaa196acb93fba65123320e6f960d9b0584315cf536b86",
        "94b50c7997bdfe3bafab475daa022a38da98ddec471885c961c1e40da20d0fef",
        "193999b032f517d352fd855ff8faa997d97af734e6104fc2479f4382fc168407",
    ),
    ("rl_bell", 3.0, 2): (
        "d551bd766c26c4bd0dda482e2270f73c1cdb00e0eb25a53f320c1a3998a9be04",
        "ad1d5c97d8f1e4ec4db88cc9c527d2b91d5f301bc2834b903a28807cb9e99153",
        "a531f45cbf4a97d2d5acd105196e0950336d9bb8cd4d15251ef4bc204928c134",
        "915c14769599e7caaf0134428eba55d684bdb8ca77be2069a34a2bcd17542d30",
    ),
    ("rl_bell", 1.0, 0): (
        "0c25d9a971de321d7ffe82b2005685181e7233ba7c2d22a664cdfbabd439f71b",
        "8b768e5dcdf0353e186fbda0ec3f4e038aab72eaeebbd0e90f1b2fd6dd8f55c0",
        "39c7a3d9f8b5df0f16cbd3c2c755d68cbff7f72fe66196442ba9b5f920335b78",
        "4a06c9391c58fe8261b60d22b4a3ae08989f806f2f675aa63b800953834d4e8e",
    ),
    ("rl_bell", 1.0, 1): (
        "15a734dc25e88dd8630bd8dbda202cbc8c5fa1175316f4da8457e7622252304e",
        "e7f7f0b8d2ad79cac8c7a42df3e341dcda5e89e19a95584d6c9c636e31c88b88",
        "da28f49045649212ad5184c6af11a159b0a710555b5be30181cf0a255b7643d6",
        "c55573e820e9bd5838e34abf26c3be3adcc5aa1572f26416386b333ac7f76b18",
    ),
    ("rl_bell", 1.0, 2): (
        "d8114bdd1830e57abce1f4ca638f45a18721ce2d8e83ddba6456e559aec12947",
        "f6d7dec7171af6085ff3044d2d1df458a160dd7371e0bc9c98f2fe974c0d891f",
        "1b8734ade9214b9a200610e00e491129a344ec8a9f16077c91844d6f738146a3",
        "b9d46ac9986338c462fe71551a8a331d0f68089d85b21f116511e8ae828f1e24",
    ),
}


@pytest.mark.parametrize("target, bandwidth, seed", list(ARTIFACT_SHA256))
def test_projections_keep_their_recorded_bytes(tmp_path, target, bandwidth, seed):
    path = write_config(
        tmp_path, encoded_target=target, visibility=0.94, replicas=2, seed=seed,
        bandwidth_nm=bandwidth,
    )
    out = tmp_path / "tomo"
    argv = ["tomography", "--config", path, "--out", str(out), "--no-timestamp"]
    assert cli.main(argv) == EXIT_OK
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS)
    assert digests == ARTIFACT_SHA256[target, bandwidth, seed]


def test_seed_override_changes_samples(tmp_path):
    path = write_config(tmp_path, encoded_target="phi_plus", ancilla="phi_minus")
    outs = []
    for seed in ("3", "4"):
        out = tmp_path / f"seed{seed}"
        assert (
            cli.main(
                [
                    "scan",
                    "--config",
                    path,
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                    "--no-timestamp",
                ]
            )
            == EXIT_OK
        )
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] != outs[1]


def test_oracle_check_reports_agreement(capsys):
    assert cli.main(["oracle-check", "--triples", "10"]) == EXIT_OK
    assert "max |deviation|" in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "from poltime.cli import main; raise SystemExit(main(['oracle-check', '--triples', '3']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
