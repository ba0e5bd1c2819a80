"""Core state types for a photon carrying one polarization and one time-bin qubit.

A single photon is described by complex amplitudes over the product space
(polarization) x (discrete time-bin lattice).  Every bin carries the same
Gaussian wavepacket envelope; the lattice spacing tau must be large compared
to the envelope width for the bins to act as an orthonormal basis.

Amplitude vectors are indexed polarization-major:

    (H,0), (H,1), ..., (H,n-1), (V,0), (V,1), ..., (V,n-1)

so the two-bin logical basis order is h0, h_tau, v0, v_tau.  Global phase is
never canonicalized; state comparisons go through |<a|b>| or fidelity.

PhotonState has one constructor, used for user input and for every state
the package derives alike.  It validates once and stores the squared norm,
which the optics read at every element; finiteness is read off that norm,
so a valid state costs one vdot.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-12
NORM_TOL = 1e-9
SUPPORT_TOL = 1e-9
SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre

POLARIZATIONS = ("h", "v")

_SQRT2 = np.sqrt(2.0)

# Polarization Jones vectors in the (h, v) basis.
POLARIZATION_VECTORS = {
    "h": np.array([1.0, 0.0], dtype=complex),
    "v": np.array([0.0, 1.0], dtype=complex),
    "p": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "m": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
    "r": np.array([1.0j, 1.0], dtype=complex) / _SQRT2,
    "l": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
}

# Superpositions of the first two bins, in the (|0>, |tau>) basis.
BIN_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "t": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "-": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
    "x": np.array([1.0j, 1.0], dtype=complex) / _SQRT2,
    "d": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
}


class StateAnnihilatedError(ValueError):
    """Raised when an operation leaves the photon with zero amplitude."""


class ResolvabilityWarning(UserWarning):
    """Wavepacket too wide for the bin spacing; bins are no longer resolvable."""


def _check_real(name: str, value) -> float:
    """float(value), or a ValueError naming `name` unless value is a real
    number a float holds: a bool, Python's or numpy's, a string, an array or
    an integer past the float range is not one."""
    if not (isinstance(value, float) or type(value) is int):  # skips the slow ABC check
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range; no digits in the message
        raise ValueError(f"{name} must be a real number within the float range") from None


def _check_pure(who: str, *states) -> None:
    """Raises TypeError naming `who` unless every state is a pure PhotonState."""
    for state in states:
        if not isinstance(state, PhotonState):
            raise TypeError(f"{who} expects a PhotonState, got {type(state).__name__}")


@dataclass(frozen=True)
class TimeBinLattice:
    """Evenly spaced time-bin grid: bin j sits at time j * tau."""

    bin_count: int
    tau: float

    def __post_init__(self):
        if not isinstance(self.bin_count, (int, np.integer)) or self.bin_count < 2:
            raise ValueError("bin_count must be an integer >= 2")
        if not 0.0 < _check_real("tau", self.tau) < math.inf:
            raise ValueError("tau must be a positive finite number of seconds")

    def grown(self, extra_bins: int) -> "TimeBinLattice":
        if extra_bins < 0:
            raise ValueError("cannot shrink a lattice")
        return TimeBinLattice(self.bin_count + int(extra_bins), self.tau)


@dataclass(frozen=True)
class Wavepacket:
    """Gaussian temporal envelope, amplitude profile exp(-t^2 / (4 sigma_t^2))."""

    sigma_t: float

    def __post_init__(self):
        if not 0.0 < _check_real("sigma_t", self.sigma_t) < math.inf:
            raise ValueError("sigma_t must be a positive finite number of seconds")


def _warn_if_unresolvable(lattice: TimeBinLattice, packet: Wavepacket) -> None:
    # Bin resolvability needs sigma_t << tau; warn once the ratio passes 1/3.
    if packet.sigma_t > lattice.tau / 3.0:
        warnings.warn(
            "sigma_t = %.3g s exceeds tau/3 = %.3g s; time bins overlap appreciably"
            % (packet.sigma_t, lattice.tau / 3.0),
            ResolvabilityWarning,
            stacklevel=3,
        )


def _equal_states(a, b, array: str):
    """Exact equality of type, lattice, packet and array; the generated __eq__ raises."""
    if type(b) is not type(a):
        return NotImplemented
    same = (a.lattice, a.packet) == (b.lattice, b.packet)
    return same and np.array_equal(getattr(a, array), getattr(b, array))


def _json_pairs(values) -> list[list[float]]:
    """Complex values as JSON's [re, im] float pairs."""
    return [[float(z.real), float(z.imag)] for z in values]


@dataclass(frozen=True)
class PhotonState:
    """Pure single-photon state with amplitudes over (polarization, bin).

    Construction copies the amplitudes into a read-only complex vector and
    computes norm_squared, float(np.vdot(a, a).real), once.  A finite norm
    implies finite amplitudes, so the vector itself is inspected only when
    the norm is not finite.  The squared norm may be below 1 after lossy
    elements; it records the survival probability.  Zero-norm construction
    raises StateAnnihilatedError.
    """

    amplitudes: np.ndarray
    lattice: TimeBinLattice
    packet: Wavepacket
    norm_squared: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = 2 * self.lattice.bin_count
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):
            raise ValueError(f"amplitude vector must have shape ({dim},), got {amps.shape}")
        amps.setflags(write=False)
        n2 = float(np.vdot(amps, amps).real)
        if not math.isfinite(n2) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if n2 <= 0.0:
            raise StateAnnihilatedError("state annihilated")
        if n2 > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {n2} exceeds 1")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_squared", n2)
        _warn_if_unresolvable(self.lattice, self.packet)

    def __eq__(self, other):
        return _equal_states(self, other, "amplitudes")

    @property
    def bin_count(self) -> int:
        return self.lattice.bin_count

    @property
    def tau(self) -> float:
        return self.lattice.tau

    def as_matrix(self) -> np.ndarray:
        """Amplitudes as a (2, bin_count) array indexed [polarization, bin]."""
        return self.amplitudes.reshape(2, self.bin_count)

    def to_json_dict(self) -> dict:
        return {
            "bins": self.bin_count,
            "tau_s": self.tau,
            "sigma_t_s": self.packet.sigma_t,
            "amps": _json_pairs(self.amplitudes),
        }


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state over the same (polarization, bin) index space.

    Trace may be below 1 for post-selected ensembles; it records the
    survival probability.
    """

    matrix: np.ndarray
    lattice: TimeBinLattice
    packet: Wavepacket

    def __post_init__(self):
        dim = 2 * self.lattice.bin_count
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"density matrix must have shape ({dim}, {dim}), got {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("density matrix entries must be finite")
        herm_dev = np.max(np.abs(mat - mat.conj().T))
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
        mat = 0.5 * (mat + mat.conj().T)
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -EIGENVALUE_TOL:
            raise ValueError(f"matrix has negative eigenvalue {eigs.min():.3e}")
        tr = float(np.trace(mat).real)
        if tr <= 0.0 or tr > 1.0 + TRACE_TOL:
            raise ValueError(f"trace {tr} outside (0, 1]")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        _warn_if_unresolvable(self.lattice, self.packet)

    def __eq__(self, other):
        return _equal_states(self, other, "matrix")

    @property
    def bin_count(self) -> int:
        return self.lattice.bin_count

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _require_same_arena(a, b) -> None:
    if a.lattice != b.lattice:
        raise ValueError(f"lattice mismatch: {a.lattice} vs {b.lattice}")
    if a.packet != b.packet:
        raise ValueError(f"wavepacket mismatch: {a.packet} vs {b.packet}")


def inner_product(a: PhotonState, b: PhotonState) -> complex:
    """<a|b> with the conjugate on the first argument."""
    _check_pure("hilbert.inner_product", a, b)
    _require_same_arena(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def to_density(state: PhotonState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a unit-norm pure state."""
    _check_pure("hilbert.to_density", state)
    if abs(state.norm_squared - 1.0) > NORM_TOL:
        raise ValueError(
            f"state must be normalized before to_density (norm^2 = {state.norm_squared})"
        )
    mat = np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(mat, state.lattice, state.packet)


def partial_trace_time(rho: DensityMatrix) -> np.ndarray:
    """Trace out the time-bin index, leaving a 2x2 polarization matrix."""
    if not isinstance(rho, DensityMatrix):
        raise TypeError("partial_trace_time expects a DensityMatrix")
    n = rho.bin_count
    blocks = rho.matrix.reshape(2, n, 2, n)
    return np.einsum("akbk->ab", blocks)


def logical_vector(state: PhotonState | DensityMatrix) -> np.ndarray:
    """Amplitudes on the two-bin logical subspace, order (h0, ht, v0, vt); of
    a DensityMatrix, its (4, 4) block there, in that order.

    Raises if the state leaks outside bins 0 and 1: an amplitude there, or
    an entry of a row there, above SUPPORT_TOL.  A density matrix is
    Hermitian, so its rows there also cover its columns there.
    """
    dense = isinstance(state, DensityMatrix)
    mat = state.matrix.reshape(2, state.bin_count, -1) if dense else state.as_matrix()
    if state.bin_count > 2:
        leak = np.abs(mat[:, 2:]).max()
        if leak > SUPPORT_TOL:
            raise ValueError(
                f"state has amplitude {leak:.3e} outside the two-bin logical subspace"
            )
    out = np.concatenate([mat[0, :2], mat[1, :2]])
    return out.reshape(4, 2, -1)[:, :, :2].reshape(4, 4) if dense else out


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def basis_state(
    pol: str, bin_index: int, lattice: TimeBinLattice, packet: Wavepacket
) -> PhotonState:
    """Photon in a definite polarization and a definite bin."""
    p = POLARIZATIONS.index(pol)
    if isinstance(bin_index, bool) or not isinstance(bin_index, (int, np.integer)):
        raise ValueError(f"bin_index must be an integer, got {bin_index!r}")
    if not 0 <= bin_index < lattice.bin_count:
        raise ValueError(f"bin index {bin_index} outside lattice")
    amps = np.zeros(2 * lattice.bin_count, dtype=complex)
    amps[p * lattice.bin_count + bin_index] = 1.0
    return PhotonState(amps, lattice, packet)


def product_state(
    pol, bin_part, lattice: TimeBinLattice, packet: Wavepacket
) -> PhotonState:
    """Product of a polarization vector and a two-bin superposition.

    pol and bin_part may be registry keys ('h', 'v', 'p', 'm', 'r', 'l' and
    '0', 't', '+', '-', 'x', 'd') or explicit length-2 complex vectors.
    """
    pvec = POLARIZATION_VECTORS[pol] if isinstance(pol, str) else np.asarray(pol, dtype=complex)
    bvec = BIN_VECTORS[bin_part] if isinstance(bin_part, str) else np.asarray(bin_part, dtype=complex)
    if pvec.shape != (2,) or bvec.shape != (2,):
        raise ValueError("polarization and bin parts must be length-2 vectors")
    return from_logical(np.kron(pvec, bvec), lattice, packet)


def from_logical(vec, lattice: TimeBinLattice, packet: Wavepacket) -> PhotonState:
    """Embed a 4-vector (h0, ht, v0, vt) into a full lattice state."""
    v = np.asarray(vec, dtype=complex)
    if v.shape != (4,):
        raise ValueError("logical vector must have length 4")
    n = lattice.bin_count
    amps = np.zeros(2 * n, dtype=complex)
    amps[0:2] = v[0:2]
    amps[n : n + 2] = v[2:4]
    return PhotonState(amps, lattice, packet)


def _logical_registry() -> dict[str, np.ndarray]:
    reg = {
        pk + bk: np.kron(pvec, bvec)
        for pk, pvec in POLARIZATION_VECTORS.items()
        for bk, bvec in BIN_VECTORS.items()
    }
    reg["phi_plus"] = np.array([1, 0, 0, 1], dtype=complex) / _SQRT2
    reg["phi_minus"] = np.array([1, 0, 0, -1], dtype=complex) / _SQRT2
    # Maximally entangled state pairing circular polarizations with bins:
    # (|r,0> - i|l,tau>) / sqrt(2).
    reg["rl_bell"] = np.array([0.5j, -0.5j, 0.5, 0.5], dtype=complex)
    # Alias kept stable for configs.
    reg["p_plus"] = reg["p+"]
    return reg


NAMED_STATES = _logical_registry()


def named_state(name: str, lattice: TimeBinLattice, packet: Wavepacket) -> PhotonState:
    """Build a registered two-qubit state on the given lattice."""
    try:
        vec = NAMED_STATES[name]
    except KeyError:
        raise KeyError(
            f"unknown state name {name!r}; known names: {sorted(NAMED_STATES)}"
        ) from None
    return from_logical(vec, lattice, packet)
