"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Subcommands: `prepare` (compile a plate/crystal pipeline for a target
state), `scan` (one synthetic delay scan with summary), `tomography` (full
reconstruction from the mutually unbiased projection set, with bootstrap
errors), `oracle-check` (self-test of the interference model against the
Fock-space oracle).

Every config value that is a number, an integer or an amplitude must be a
JSON number: a JSON string or boolean is a config error, never read as one.
Everything is deterministic for a fixed config and seed; pass
`--no-timestamp` when byte-identical reruns matter.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import experiment, hilbert, hom, tomography
from .hilbert import PhotonState, StateAnnihilatedError, TimeBinLattice, Wavepacket
from .tomography import ReconstructionError

DEFAULT_TAU_S = 2.3e-12
DEFAULT_BINS = 2
DEFAULT_BANDWIDTH_NM = 3.0
DEFAULT_WAVELENGTH_NM = 780.0
DEFAULT_VISIBILITY = 1.0
DEFAULT_BASELINE_COUNTS = 1000.0
DEFAULT_HALF_SPAN_S = 8e-12
DEFAULT_STEP_S = 5e-14
DEFAULT_REPLICAS = 100
# Size caps: every scan of a run is drawn and held as one (scans, points)
# block, the bootstrap as one (replicas, readings) stack, and the scan
# model as (points, bins, bins) arrays.  numpy's Poisson sampler refuses
# means above about 9.2e18; noiseless runs draw too, in the bootstrap.
MAX_GRID_POINTS = 100_001
MAX_REPLICAS = 10_000
MAX_TRIPLES = 10_000  # oracle-check triples, one Fock enumeration each
MAX_BINS = 8
# tau_s / sigma_t: far beyond any physical filter, and far below an overflow.
MAX_TAU_OVER_SIGMA = 1e6
MAX_BASELINE_COUNTS = 1e18

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BEST_EFFORT = 2
EXIT_NUMERICAL = 3

_FWHM_TO_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


class ConfigError(ValueError):
    """Invalid configuration; collects every problem found."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def bandwidth_to_sigma(bandwidth_nm: float, wavelength_nm: float) -> float:
    """Amplitude-envelope width of a transform-limited Gaussian filter.

    The filter bandwidth (intensity FWHM in wavelength) converts to a
    frequency FWHM, then through the Gaussian time-bandwidth product
    dnu * dt_fwhm = 2 ln2 / pi to an intensity FWHM in time, and finally
    to the sigma of the amplitude envelope.  Raises ValueError, naming
    both keys, when that sigma is not a positive finite number.
    """
    if bandwidth_nm <= 0 or wavelength_nm <= 0:
        raise ValueError("bandwidth and wavelength must be positive")
    with np.errstate(all="ignore"):
        wavelength_m = np.float64(wavelength_nm) * 1e-9  # its square may under- or overflow
        dnu = hilbert.SPEED_OF_LIGHT * (bandwidth_nm * 1e-9) / wavelength_m**2
        sigma = (2.0 * np.log(2.0) / np.pi) / dnu / _FWHM_TO_SIGMA
    if not 0 < sigma < np.inf:
        raise ValueError(
            f"bandwidth_nm, wavelength_nm: {bandwidth_nm:g} nm at {wavelength_nm:g} nm "
            "gives no positive finite envelope width"
        )
    return sigma


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description; the echo of record for outputs."""

    lattice: TimeBinLattice
    packet: Wavepacket
    encoded_label: str
    encoded: PhotonState
    ancilla_label: str
    ancilla: PhotonState | None  # None only for ancilla "tomography"
    visibility: float
    baseline_counts: float
    half_span_s: float
    step_s: float
    seed: int
    replicas: int
    bandwidth_nm: float | None
    wavelength_nm: float | None

    def delays(self) -> np.ndarray:
        """The scan grid; a config error unless it reaches the baseline
        plateau beyond every dip."""
        tau, bins = self.lattice.tau, self.lattice.bin_count
        grid = experiment.default_delay_grid(tau, half_span=self.half_span_s, step=self.step_s)
        need = experiment.plateau_reach(tau, self.packet.sigma_t, bins)
        if not grid[-1] > need:
            raise ConfigError(
                f"bins: {bins} bins need grid.half_span_s above (bins - 1) tau + "
                f"{experiment.BASELINE_EXCLUSION_SIGMAS:g} sigma_t = {need:.4g} s, "
                f"got {self.half_span_s:.4g} s"
            )
        return grid

    def echo(self) -> dict:
        return {
            "tau_s": self.lattice.tau,
            "bins": self.lattice.bin_count,
            "sigma_t_s": self.packet.sigma_t,
            "bandwidth_nm": self.bandwidth_nm,
            "wavelength_nm": self.wavelength_nm,
            "encoded_target": self.encoded_label,
            "encoded_amps": hilbert._json_pairs(hilbert.logical_vector(self.encoded)),
            "ancilla": self.ancilla_label,
            "visibility": self.visibility,
            "baseline_counts": self.baseline_counts,
            "grid": {"half_span_s": self.half_span_s, "step_s": self.step_s},
            "seed": self.seed,
            "replicas": self.replicas,
        }


def _resolve_state(value, lattice, packet, field, problems) -> tuple[str, PhotonState | None]:
    if isinstance(value, str):
        try:
            return value, hilbert.named_state(value, lattice, packet)
        except KeyError:
            problems.append(f"{field}: unknown state name {value!r}")
            return value, None
    try:
        parts = [hilbert._check_real(field, part) for re, im in value for part in (re, im)]
        vec = np.array(parts).view(complex)
    except (TypeError, ValueError):
        problems.append(f"{field}: expected a state name or a list of [re, im] pairs")
        return "custom", None
    if len(vec) != 4:
        problems.append(f"{field}: explicit amplitudes need 4 logical entries")
        return "custom", None
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if not np.all(np.isfinite(vec)):
        problems.append(f"{field}: amplitudes must be finite")
    elif not vec.any():
        problems.append(f"{field}: amplitudes are all zero")
    elif not 0 < norm < np.inf:
        problems.append(f"{field}: amplitude magnitudes cannot be normalized")
    else:
        return "custom", hilbert.from_logical(vec / norm, lattice, packet)
    return "custom", None


def load_config(path: str | None, seed_override: int | None = None) -> ExperimentConfig:
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    return resolve_config(raw, seed_override)


# The keys resolve_config reads; any other key is a config error.
_KEYS = {"tau_s", "bins", "sigma_t_s", "bandwidth_nm", "wavelength_nm", "visibility", "seed"}
_KEYS |= {"baseline_counts", "grid", "replicas", "encoded_target", "ancilla"}
_GRID_KEYS = {"half_span_s", "step_s"}


def resolve_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """The run a JSON config describes, or a ConfigError listing every problem."""
    problems = [f"{key}: unknown config key" for key in raw if key not in _KEYS]

    def number(key, default, source=raw, inside=lambda v: 0 < v < np.inf,
               rule="must be positive and finite"):
        val = source.get(key, default)
        try:
            val = hilbert._check_real(key, val)
        except ValueError:
            problems.append(f"{key}: must be a number")
            return default
        if not inside(val):
            problems.append(f"{key}: {rule}")
            return default
        return val

    def integer(key, default, low, high, source=raw, high_text=None):
        val = source.get(key, default)
        if isinstance(val, bool) or not isinstance(val, int) or not low <= val <= high:
            problems.append(f"{key}: must be an integer from {low} to {high_text or high}")
            return default
        return val

    tau = number("tau_s", DEFAULT_TAU_S)
    bins = integer("bins", DEFAULT_BINS, 2, MAX_BINS)

    has_sigma = "sigma_t_s" in raw
    bandwidth = wavelength = sigma_t = None
    if has_sigma and {"bandwidth_nm", "wavelength_nm"} & raw.keys():
        problems.append("give either sigma_t_s or bandwidth_nm+wavelength_nm, not both")
    if has_sigma:
        sigma_t = number("sigma_t_s", None)
    else:
        bandwidth = number("bandwidth_nm", DEFAULT_BANDWIDTH_NM)
        wavelength = number("wavelength_nm", DEFAULT_WAVELENGTH_NM)
        try:
            sigma_t = bandwidth_to_sigma(bandwidth, wavelength)
        except ValueError as exc:
            problems.append(str(exc))
    # In Python floats an overflowing ratio is inf, with no warning.
    if sigma_t is not None and not tau / float(sigma_t) <= MAX_TAU_OVER_SIGMA:
        problems.append(f"tau_s: must be at most {MAX_TAU_OVER_SIGMA:g} sigma_t ({sigma_t:.4g} s)")

    visibility = number(
        "visibility", DEFAULT_VISIBILITY, inside=lambda v: 0 <= v <= 1, rule="must lie in [0, 1]"
    )
    baseline = number("baseline_counts", DEFAULT_BASELINE_COUNTS)
    if baseline > MAX_BASELINE_COUNTS:
        problems.append(f"baseline_counts: must be at most {MAX_BASELINE_COUNTS:g}")
    grid = raw.get("grid", {})
    if not isinstance(grid, dict):
        problems.append("grid: must be an object with half_span_s / step_s")
        grid = {}
    problems += [f"grid.{key}: unknown config key" for key in grid if key not in _GRID_KEYS]
    half_span = number("half_span_s", DEFAULT_HALF_SPAN_S, grid)
    step = number("step_s", DEFAULT_STEP_S, grid)
    if not 2 * np.round(half_span / step) + 1 <= MAX_GRID_POINTS:
        problems.append(f"grid: more than {MAX_GRID_POINTS} delay points")

    # Seeds key Philox generators, whose keys are unsigned 64-bit words.
    seeds = raw if seed_override is None else {"seed": seed_override}
    seed = integer("seed", 0, 0, 2**64 - 1, seeds, "2**64 - 1")
    replicas = integer("replicas", DEFAULT_REPLICAS, 2, MAX_REPLICAS)

    if problems:
        raise ConfigError(problems)

    lattice = TimeBinLattice(bin_count=bins, tau=tau)
    packet = Wavepacket(sigma_t=sigma_t)

    encoded_label, encoded = _resolve_state(
        raw.get("encoded_target", "phi_plus"), lattice, packet, "encoded_target", problems
    )
    if "ancilla" not in raw:
        ancilla_label, ancilla = encoded_label, encoded
    elif raw["ancilla"] == "tomography":
        ancilla_label, ancilla = "tomography", None
    else:
        ancilla_label, ancilla = _resolve_state(
            raw["ancilla"], lattice, packet, "ancilla", problems
        )
    if problems:
        raise ConfigError(problems)

    return ExperimentConfig(
        lattice=lattice,
        packet=packet,
        encoded_label=encoded_label,
        encoded=encoded,
        ancilla_label=ancilla_label,
        ancilla=ancilla,
        visibility=visibility,
        baseline_counts=baseline,
        half_span_s=half_span,
        step_s=step,
        seed=seed,
        replicas=replicas,
        bandwidth_nm=bandwidth,
        wavelength_nm=wavelength,
    )


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict, timestamp: bool) -> None:
    if timestamp:
        payload = dict(payload)
        payload["generated_at"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    # numpy arrays and scalars serialize through tolist().  NaN and Infinity
    # are not JSON: a value that would need them raises ValueError before
    # the file is written.
    text = json.dumps(
        payload, indent=2, sort_keys=True, allow_nan=False, default=lambda o: o.tolist()
    )
    path.write_text(text + "\n")


def _write_matrix_csv(path: Path, mat: np.ndarray) -> None:
    lines = [",".join(f"{x:.17g}" for x in row) for row in np.asarray(mat, dtype=float)]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_prepare(cfg: ExperimentConfig, out_dir: Path, timestamp: bool) -> int:
    from . import optics  # loaded here: no other command compiles a preparation
    plan = optics.compile_preparation(cfg.encoded)
    payload = plan.to_json_dict()
    payload["target"] = cfg.encoded_label
    payload["resolved_config"] = cfg.echo()
    _write_json(out_dir / "plan.json", payload, timestamp)
    if not plan.exactly_encodable:
        print(
            f"best-effort plan: fidelity {plan.predicted_fidelity:.6f}",
            file=sys.stderr,
        )
        return EXIT_BEST_EFFORT
    return EXIT_OK


def cmd_scan(cfg: ExperimentConfig, out_dir: Path, timestamp: bool, noiseless: bool) -> int:
    if cfg.ancilla is None:
        raise ConfigError('ancilla "tomography" belongs to the tomography subcommand')
    scan = experiment.ScanConfig(cfg.delays(), cfg.baseline_counts, cfg.seed, cfg.visibility)
    trace = experiment.sample_scan(cfg.encoded, cfg.ancilla, scan, noiseless)
    experiment.write_trace_csv(trace, out_dir / "trace.csv")

    lags = (-1, 0, 1)
    baseline, dips = experiment.read_dips(trace, lags)
    depths = experiment.dip_depths(baseline, dips)
    dip_depths = {str(lag): float(d) for lag, d in zip(lags, depths)}
    summary = {
        "baseline": float(baseline),
        "r_hat_zero": float(dips[1] / baseline),
        "visibility_hat": dip_depths["0"],
        "dip_depths": dip_depths,
        "noiseless": noiseless,
        "resolved_config": cfg.echo(),
    }
    _write_json(out_dir / "summary.json", summary, timestamp)
    return EXIT_OK


def cmd_tomography(cfg: ExperimentConfig, out_dir: Path, timestamp: bool, noiseless: bool) -> int:
    tset, bundle, boot = tomography.run(
        cfg.encoded, cfg.delays(), cfg.baseline_counts, cfg.visibility, cfg.seed, cfg.replicas,
        noiseless,
    )
    result = boot.estimate
    rho = result.rho_hat

    payload = {
        "rho": [hilbert._json_pairs(row) for row in rho],
        "fidelity": result.fidelity_vs_target,
        "fidelity_std": boot.fidelity_std,
        "nll": result.nll,
        "iterations": result.iterations,
        "replicas": boot.replicas_used,
        "replicas_dropped": boot.replicas_dropped,
        "seed": cfg.seed,
        "visibility_hat": bundle.visibility_hat,
        "rho_real_std": np.round(boot.rho_real_std, 12),
        "rho_imag_std": np.round(boot.rho_imag_std, 12),
        "resolved_config": cfg.echo(),
    }
    _write_json(out_dir / "result.json", payload, timestamp)
    _write_matrix_csv(out_dir / "rho_real.csv", rho.real)
    _write_matrix_csv(out_dir / "rho_imag.csv", rho.imag)

    p_hat = experiment.dip_depths(bundle.counts[:, 1], bundle.counts[:, 0])
    rows = ["label,p_hat,dip_counts,baseline_counts"]
    labels = tset.labels()
    for member, (n_i, big_n), p in zip(tset.reading_columns[1], bundle.counts, p_hat):
        rows.append(f"{labels[member]},{p:.17g},{n_i:.17g},{big_n:.17g}")
    (out_dir / "projections.csv").write_text("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_oracle_check(cfg: ExperimentConfig, triples: int) -> int:
    """Compare the closed-form coincidence ratio with the Fock enumeration."""
    if triples < 1:
        raise ConfigError("--triples: must be at least 1")
    if triples > MAX_TRIPLES:
        raise ConfigError(f"--triples: must be at most {MAX_TRIPLES}")
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for k in range(triples):
        bins = int(rng.integers(2, 5))
        lattice = TimeBinLattice(bin_count=bins, tau=cfg.lattice.tau)
        sigma = cfg.packet.sigma_t if k % 2 == 0 else cfg.lattice.tau / 20.0
        packet = Wavepacket(sigma_t=sigma)
        def random_state():
            amps = rng.normal(size=2 * bins) + 1j * rng.normal(size=2 * bins)
            return PhotonState(amps / np.linalg.norm(amps), lattice, packet)

        enc, anc = random_state(), random_state()
        delay = float(rng.uniform(-2.0, 2.0) * lattice.tau)
        vis = float(rng.uniform(0.5, 1.0))
        fast = hom.coincidence_ratio(enc, anc, delay, vis)
        slow = hom.fock_oracle_ratio(enc, anc, delay, vis)
        worst = max(worst, abs(fast - slow))
    print(f"oracle check: {triples} triples, max |deviation| = {worst:.3e}")
    if worst > 1e-9:
        print("oracle check FAILED (tolerance 1e-9)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls.  Each subcommand takes only the flags it reads:
    oracle-check writes nothing, and prepare samples no counts."""
    parser = argparse.ArgumentParser(
        prog="poltime",
        description="Polarization + time-bin photon encoding: simulate and reconstruct.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("prepare", "compile an optical preparation plan for the target state"),
        ("scan", "synthesize one HOM delay scan and summarize its dips"),
        (
            "tomography",
            "reconstruct from mutually unbiased projections with bootstrap errors",
        ),
        ("oracle-check", "self-test interference model against the Fock oracle"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", default=None, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "oracle-check":
            p.add_argument(
                "--triples", type=int, default=50, help="number of random comparisons"
            )
            continue
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit generated_at for byte-identical reruns",
        )
        if name != "prepare":
            p.add_argument(
                "--noiseless",
                action="store_true",
                help="emit expected counts instead of Poisson samples",
            )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed the help text or the usage error.
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        cfg = load_config(args.config, args.seed)
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg, args.triples)
        timestamp = not args.no_timestamp
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "prepare":
            return cmd_prepare(cfg, out_dir, timestamp)
        if args.command == "scan":
            return cmd_scan(cfg, out_dir, timestamp, args.noiseless)
        if args.command == "tomography":
            return cmd_tomography(cfg, out_dir, timestamp, args.noiseless)
    except (ReconstructionError, StateAnnihilatedError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # A ConfigError lists its problems; the model layer raises grid/geometry ones.
        for problem in exc.problems if isinstance(exc, ConfigError) else [exc]:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
