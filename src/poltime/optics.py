"""Optical elements acting on polarization/time-bin photon states.

Wave plates follow the Jones convention J = R(theta) D R(-theta) with
R the active rotation by theta and D the retarder diagonal: diag(1, -1)
for a half-wave plate, diag(1, i) for a quarter-wave plate, diag(1, 0)
for a polarizer.  A birefringent crystal delays the V component by an
integer number of lattice spacings (slow axis along V); the lattice grows
when amplitude is pushed past the last bin.

compile_preparation sets the fixed preparation bench

    QWP - HWP - CRYSTAL - [POL] - HWP - QWP

to turn |h,0> into a requested two-qubit target, all in closed form.  The
bench reaches two families: c0 orthogonal to c1 without the polarizer, and
products chi (x) (a|0> + b|tau>) with it.  A target outside both gets the
best-effort plan for its exact nearest member of either family.  Each plan
is pruned and scored in one walk from the source, which drops elements that
act as a global phase; a plan that annihilates the photon scores 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import SPEED_OF_LIGHT, PhotonState, StateAnnihilatedError, TimeBinLattice

DEFAULT_CRYSTAL_LENGTH = 4e-3  # meters

CRYSTAL_DELAY_RTOL = 1e-6
EXACT_PLAN_TOL = 1e-9
_PRUNE_TOL = 1e-12
_CLASS_TOL = 1e-9
# Survival this far below the input norm is rounding residue of the Jones
# product (entries like cos(pi/2) ~ 1e-16), not a physical transmission.
ANNIHILATION_RTOL = 1e-24


@dataclass(frozen=True)
class _Plate:
    """Wave plate or polarizer at angle theta, wrapped into [0, pi): all plate
    actions are pi-periodic.  Raises ValueError unless theta is a finite
    real number."""

    theta: float

    def __post_init__(self):
        t = hilbert._check_real("theta", self.theta) % np.pi  # NaN for an infinite angle
        if math.isnan(t):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        # Guard against rounding at the boundary.
        object.__setattr__(self, "theta", t - np.pi if t >= np.pi else t)


@dataclass(frozen=True)
class HalfWavePlate(_Plate):
    kind = "HWP"

    def jones(self) -> np.ndarray:
        c2, s2 = math.cos(2 * self.theta), math.sin(2 * self.theta)
        return np.array([[c2, s2], [s2, -c2]], dtype=complex)


@dataclass(frozen=True)
class QuarterWavePlate(_Plate):
    kind = "QWP"

    def jones(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        cross = c * s * (1 - 1j)
        return np.array([[c * c + 1j * s * s, cross], [cross, s * s + 1j * c * c]])


@dataclass(frozen=True)
class Polarizer(_Plate):
    kind = "POL"

    def jones(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


@dataclass(frozen=True)
class BirefringentCrystal:
    """Walk-off crystal: V is delayed by length * delta_n / c relative to H."""

    kind = "CRYSTAL"
    length: float
    delta_n: float

    def __post_init__(self):
        length = hilbert._check_real("length", self.length)
        delta_n = hilbert._check_real("delta_n", self.delta_n)
        if not (0 < length < math.inf and 0 < delta_n < math.inf):
            raise ValueError("crystal length and index contrast must be positive and finite")

    @property
    def delay(self) -> float:
        return self.length * self.delta_n / SPEED_OF_LIGHT

    def bin_shift(self, lattice: TimeBinLattice) -> int:
        ratio = self.delay / lattice.tau
        shift = int(round(ratio))
        if shift < 1 or abs(ratio - shift) > CRYSTAL_DELAY_RTOL * max(1.0, ratio):
            raise ValueError(
                f"crystal delay {self.delay:.6e} s is not a positive integer "
                f"multiple of the lattice spacing {lattice.tau:.6e} s"
            )
        return shift


def crystal_with_delay(
    delay: float, length: float = DEFAULT_CRYSTAL_LENGTH
) -> BirefringentCrystal:
    """Crystal of the given physical length tuned to the requested delay."""
    delay = hilbert._check_real("delay", delay)
    if delay <= 0:
        raise ValueError("delay must be positive")
    return BirefringentCrystal(length, delay * SPEED_OF_LIGHT / length)


OpticalElement = HalfWavePlate | QuarterWavePlate | Polarizer | BirefringentCrystal


def element_action(element: OpticalElement, state: PhotonState) -> PhotonState:
    """Apply one element.  Polarizers may annihilate the photon; crystals
    may grow the lattice."""
    hilbert._check_pure("optics.element_action", state)
    if isinstance(element, BirefringentCrystal):
        shift = element.bin_shift(state.lattice)
        mat = state.as_matrix()
        v_occupied = np.nonzero(np.abs(mat[1]) > 0.0)[0]
        grow = 0
        if v_occupied.size:
            grow = max(0, int(v_occupied.max()) + shift + 1 - state.bin_count)
        lattice = state.lattice.grown(grow) if grow else state.lattice
        n = lattice.bin_count
        out = np.zeros((2, n), dtype=complex)
        out[0, : state.bin_count] = mat[0]
        # Entries past copy_len are exactly zero by the growth rule above.
        copy_len = min(state.bin_count, n - shift)
        out[1, shift : shift + copy_len] = mat[1, :copy_len]
        return PhotonState(out.reshape(-1), lattice, state.packet)

    jones = element.jones()
    out = jones @ state.as_matrix()
    if (
        isinstance(element, Polarizer)
        and float(np.vdot(out, out).real) <= ANNIHILATION_RTOL * state.norm_squared
    ):
        raise StateAnnihilatedError("state annihilated")
    return PhotonState(out.reshape(-1), state.lattice, state.packet)


@dataclass(frozen=True)
class OpticalPipeline:
    """Ordered sequence of elements, applied left to right."""

    elements: tuple[OpticalElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def to_json_dict(self) -> dict:
        out = []
        for el in self.elements:
            if isinstance(el, BirefringentCrystal):
                out.append({"kind": el.kind, "L_m": el.length, "dn": el.delta_n})
            else:
                out.append({"kind": el.kind, "theta_rad": el.theta})
        return {"elements": out}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def apply_pipeline(pipeline: OpticalPipeline, state: PhotonState) -> PhotonState:
    for el in pipeline.elements:
        state = element_action(el, state)
    return state


# ---------------------------------------------------------------------------
# Two-bin entangling gate
# ---------------------------------------------------------------------------


def gate_matrix() -> np.ndarray:
    """Crystal action restricted to the two-bin logical subspace (h0, ht, v0, vt).

    |v,0> maps to |v,tau>; |v,tau> leaves the subspace entirely, so the map
    is non-unitary: U+U = diag(1, 1, 1, 0).
    """
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# Preparation compiler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparationPlan:
    """Element settings that turn the fixed source state into a target."""

    pipeline: OpticalPipeline
    input_state: PhotonState
    predicted_fidelity: float
    success_probability: float
    exactly_encodable: bool
    target_class: str

    def to_json_dict(self) -> dict:
        d = self.pipeline.to_json_dict()
        d.update(
            {
                "input_state": self.input_state.to_json_dict(),
                "predicted_fidelity": self.predicted_fidelity,
                "success_probability": self.success_probability,
                "exactly_encodable": self.exactly_encodable,
                "target_class": self.target_class,
            }
        )
        return d


def _stokes(v: np.ndarray) -> tuple[float, float, float]:
    x, y = v
    return (
        float(abs(x) ** 2 - abs(y) ** 2),
        float(2.0 * np.real(np.conj(x) * y)),
        float(2.0 * np.imag(np.conj(x) * y)),
    )


def _plates_to_state_pre(xi: np.ndarray) -> list[OpticalElement]:
    """QWP then HWP settings mapping |h> onto xi (up to global phase)."""
    s1, s2, s3 = _stokes(xi)
    q = 0.5 * np.arcsin(min(max(s3, -1.0), 1.0))
    lam = np.arctan2(s2, s1)
    h = 0.25 * (lam + 2.0 * q)
    return [QuarterWavePlate(q), HalfWavePlate(h)]


def _plates_from_linear_post(chi: np.ndarray, psi: float = 0.0) -> list[OpticalElement]:
    """HWP then QWP settings mapping linear polarization at angle psi onto chi."""
    s1, s2, s3 = _stokes(chi)
    phi = 0.5 * np.arcsin(min(max(s3, -1.0), 1.0))
    q = 0.5 * np.arctan2(s2, s1)
    th = 0.5 * (phi + q + psi)
    return [HalfWavePlate(th), QuarterWavePlate(q)]


def _angle_budget(elements) -> float:
    return sum(min(el.theta, np.pi - el.theta) for el in elements if isinstance(el, _Plate))


def _evaluate(elements, target_class, source: PhotonState, target: np.ndarray) -> PreparationPlan:
    """The plan of one candidate, pruned and scored against the logical 2x2
    target in one walk from the source.

    An element is kept only if its action on the running state is more than
    a global phase; the walk's last state is the plan's output.  A plan that
    annihilates the photon keeps every element and scores fidelity and
    success 0.
    """
    kept: list[OpticalElement] = []
    state, n_a = source, np.sqrt(source.norm_squared)
    try:
        for el in elements:
            nxt = element_action(el, state)
            n_b = np.sqrt(nxt.norm_squared)
            if nxt.lattice == state.lattice and abs(n_a - n_b) < _PRUNE_TOL:
                if abs(np.vdot(state.amplitudes, nxt.amplitudes)) >= n_a * n_b - _PRUNE_TOL:
                    continue
            kept.append(el)
            state, n_a = nxt, n_b
    except StateAnnihilatedError:
        kept, fidelity, success = elements, 0.0, 0.0
    else:
        success = state.norm_squared
        amps = state.amplitudes / np.sqrt(success)
        padded = np.zeros_like(amps).reshape(2, -1)
        padded[:, :2] = target
        fidelity = float(abs(np.vdot(padded.reshape(-1), amps)) ** 2)
    exact = fidelity >= 1.0 - EXACT_PLAN_TOL
    return PreparationPlan(OpticalPipeline(kept), source, fidelity, success, exact, target_class)


def _orthogonal_class_elements(
    chi0: np.ndarray, chi1: np.ndarray, n0: float, n1: float, crystal: BirefringentCrystal
) -> list[OpticalElement]:
    post = _plates_from_linear_post(chi0, 0.0)
    v_mat = post[1].jones() @ post[0].jones()
    mu = np.angle(np.vdot(chi0, v_mat[:, 0]))
    nu = np.angle(np.vdot(chi1, v_mat[:, 1]))
    xi = np.array([n0 * np.exp(-1j * mu), n1 * np.exp(-1j * nu)])
    return _plates_to_state_pre(xi) + [crystal] + post


def _equal_pol_class_elements(
    chi: np.ndarray, a: float, c1: np.ndarray, crystal: BirefringentCrystal
) -> list[OpticalElement]:
    b = complex(np.vdot(chi, c1))
    # Polarizer angle maximizing the heralding probability 1 / (|a| + |b|)^2.
    theta_p = np.arctan(np.sqrt(abs(b) / abs(a)))
    s = 1.0 / (abs(a) + abs(b)) ** 2
    xi = np.array([np.sqrt(s) * a / np.cos(theta_p), np.sqrt(s) * b / np.sin(theta_p)])
    post = _plates_from_linear_post(chi, theta_p)
    return _plates_to_state_pre(xi) + [crystal, Polarizer(theta_p)] + post


def _class_candidates(mat: np.ndarray, crystal: BirefringentCrystal) -> list[tuple[list, str]]:
    """(elements, class) of the closed-form plan for each encodable class the
    unit-norm logical state [c0 c1] (polarization x bin) is in; none when it
    is in no class."""
    c0, c1 = mat[:, 0], mat[:, 1]
    n0, n1 = np.linalg.norm(c0), np.linalg.norm(c1)

    # A unit-norm state has amplitude in at least one of the two bins.
    if n1 <= _CLASS_TOL:
        return [(_plates_to_state_pre(c0 / n0), "single_bin")]
    if n0 <= _CLASS_TOL:
        els = (
            _plates_to_state_pre(np.array([0.0, 1.0], dtype=complex))
            + [crystal]
            + _plates_from_linear_post(c1 / n1, np.pi / 2)
        )
        return [(els, "single_bin")]

    candidates: list[tuple[list, str]] = []
    chi0, chi1 = c0 / n0, c1 / n1
    cross = abs(np.vdot(chi0, chi1))
    if abs(c0[1]) <= _CLASS_TOL and abs(c1[0]) <= _CLASS_TOL:
        # Already of the form a|h,0> + b|v,tau>: pre plates plus crystal.
        xi = np.array([c0[0], c1[1]])
        candidates.append((_plates_to_state_pre(xi) + [crystal], "orthogonal"))
    if cross <= _CLASS_TOL:
        candidates.append((_orthogonal_class_elements(chi0, chi1, n0, n1, crystal), "orthogonal"))
    if cross >= 1.0 - _CLASS_TOL:
        candidates.append((_equal_pol_class_elements(chi0, n0, c1, crystal), "equal_polarization"))
    return candidates


def _nearest_encodable(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit-norm states of either bench family nearest to C = [c0 c1].

    Orthogonal family: the fidelity lambda_max(c0 c0+ - c1 c1+) + |c1|^2 is
    reached at <u|c0> u|0> + <u'|c1> u'|tau>, u the top eigenvector and u'
    the other.  Product family: sigma_max(C)^2, reached at the rank-1
    truncation of C.
    """
    c0, c1 = mat[:, 0], mat[:, 1]
    # eigh sorts ascending: the second eigenvector is the top one.
    u_perp, u = np.linalg.eigh(np.outer(c0, c0.conj()) - np.outer(c1, c1.conj()))[1].T
    orthogonal = np.column_stack([np.vdot(u, c0) * u, np.vdot(u_perp, c1) * u_perp])
    left, _, right = np.linalg.svd(mat)
    return orthogonal / np.linalg.norm(orthogonal), np.outer(left[:, 0], right[0])


def compile_preparation(target: PhotonState) -> PreparationPlan:
    """Find element settings preparing the target from the |h,0> source.

    Closed-form settings cover single-bin states, orthogonal-polarization
    two-bin superpositions, and equal-polarization two-bin superpositions
    (via the heralding polarizer).  Any other target gets the plans for its
    exact nearest orthogonal and product states, the best fidelity the bench
    can reach, and is flagged as not exactly encodable (class "general").

    Among plans of equal fidelity the one with fewer elements wins, then the
    one with the smaller total plate angle.
    """
    hilbert._check_pure("optics.compile_preparation", target)
    if abs(target.norm_squared - 1.0) > hilbert.NORM_TOL:
        raise ValueError("compile_preparation expects a unit-norm target")

    mat = hilbert.logical_vector(target).reshape(2, 2)  # raises on support outside bins 0, 1
    source = hilbert.basis_state("h", 0, target.lattice, target.packet)
    crystal = crystal_with_delay(target.lattice.tau)

    plans = [_evaluate(els, cls, source, mat) for els, cls in _class_candidates(mat, crystal)]
    if max((p.predicted_fidelity for p in plans), default=0.0) < 1.0 - EXACT_PLAN_TOL:
        for nearest in _nearest_encodable(mat):
            for elements, _ in _class_candidates(nearest, crystal):
                plans.append(_evaluate(elements, "general", source, mat))

    best = max(p.predicted_fidelity for p in plans)
    return min(
        (p for p in plans if p.predicted_fidelity >= best - EXACT_PLAN_TOL),
        key=lambda p: (len(p.pipeline), _angle_budget(p.pipeline.elements)),
    )
