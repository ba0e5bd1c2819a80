"""State container behavior: norms, inner products, densities, partial trace."""

import dataclasses
import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poltime import experiment, hilbert, hom, optics, tomography
from poltime.hilbert import (
    DensityMatrix,
    PhotonState,
    StateAnnihilatedError,
    TimeBinLattice,
    Wavepacket,
    inner_product,
    named_state,
    partial_trace_time,
    to_density,
)

SQRT2 = np.sqrt(2.0)


def random_pure(rng, lattice, packet):
    amps = rng.normal(size=2 * lattice.bin_count) + 1j * rng.normal(
        size=2 * lattice.bin_count
    )
    return PhotonState(amps / np.linalg.norm(amps), lattice, packet)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_lattice_validation():
    with pytest.raises(ValueError):
        TimeBinLattice(bin_count=1, tau=1e-12)
    with pytest.raises(ValueError):
        TimeBinLattice(bin_count=2, tau=-1e-12)
    with pytest.raises(ValueError):
        Wavepacket(sigma_t=0.0)
    # A bool is not a number of seconds, although Python's bool is an int.
    for tau in (True, np.True_, "1e-12"):
        with pytest.raises(ValueError, match="^tau must be a real number"):
            TimeBinLattice(bin_count=2, tau=tau)
    for sigma_t in (True, np.True_, "1e-13"):
        with pytest.raises(ValueError, match="^sigma_t must be a real number"):
            Wavepacket(sigma_t=sigma_t)


class _Float(float):
    pass


@pytest.mark.parametrize(
    "value", [0.5, _Float(0.5), np.float64(0.5), np.float32(0.5), 3, np.int64(3),
              enum.IntEnum("Level", "LOW").LOW, np.uint8(7)],
)
def test_check_real_accepts_real_numbers(value):
    """Both sides of the fast path: a float (subclass) or a plain int skips
    the ABC check, any other numbers.Real goes through it.  Either way the
    value comes back as the float that was checked."""
    checked = hilbert._check_real("x", value)
    assert type(checked) is float and checked == value


@pytest.mark.parametrize(
    "value",
    [True, False, np.True_, np.bool_(False), "0.5", np.array(0.5), 1j, None, 10**400, -(10**400)],
)
def test_check_real_refuses_what_is_not_a_real_number(value):
    """An integer no float holds is refused too, without its 400 digits."""
    with pytest.raises(ValueError, match="^x must be a real number") as info:
        hilbert._check_real("x", value)
    assert "0" * 20 not in str(info.value)


_GRID = experiment.compact_delay_grid(2.3e-12, 2.3e-13)
_NUMBER_ENTRIES = {
    "HalfWavePlate": ("theta", lambda v, phi, tset: optics.HalfWavePlate(v)),
    "QuarterWavePlate": ("theta", lambda v, phi, tset: optics.QuarterWavePlate(v)),
    "Polarizer": ("theta", lambda v, phi, tset: optics.Polarizer(v)),
    "crystal-length": ("length", lambda v, phi, tset: optics.BirefringentCrystal(v, 1.0)),
    "crystal-delta_n": ("delta_n", lambda v, phi, tset: optics.BirefringentCrystal(4e-3, v)),
    "crystal_with_delay": ("delay", lambda v, phi, tset: optics.crystal_with_delay(v)),
    "scan_traces": ("visibility", lambda v, phi, tset: hom.scan_traces(phi, [phi], [0.0], v)),
    "scan_trace": ("visibility", lambda v, phi, tset: hom.scan_trace(phi, phi, [0.0], v)),
    "coincidence_ratio": (
        "visibility", lambda v, phi, tset: hom.coincidence_ratio(phi, phi, 0.0, v)
    ),
    "fock_oracle_ratio": (
        "visibility", lambda v, phi, tset: hom.fock_oracle_ratio(phi, phi, 0.0, v)
    ),
    "TimeBinLattice": ("tau", lambda v, phi, tset: TimeBinLattice(2, v)),
    "Wavepacket": ("sigma_t", lambda v, phi, tset: Wavepacket(v)),
    "ScanConfig-baseline": (
        "baseline_counts", lambda v, phi, tset: experiment.ScanConfig(_GRID, v, 0)
    ),
    "ScanConfig-visibility": (
        "visibility", lambda v, phi, tset: experiment.ScanConfig(_GRID, 1e3, 0, v)
    ),
    "mle_reconstruct": (
        "visibility",
        lambda v, phi, tset: tomography.mle_reconstruct(np.ones((len(tset.readings), 2)), tset, v),
    ),
    "grid-tau": ("tau", lambda v, phi, tset: experiment.default_delay_grid(v)),
    "grid-half_span": ("half_span", lambda v, phi, tset: experiment.default_delay_grid(2.3e-12, v)),
    "grid-step": ("step", lambda v, phi, tset: experiment.default_delay_grid(2.3e-12, 8e-12, v)),
}


@pytest.mark.parametrize(
    "entry, value",
    [
        *(pytest.param(entry, sign * 10**400, id=f"{entry}-{sign:+d}e400")
          for entry in _NUMBER_ENTRIES for sign in (1, -1)),
        pytest.param("grid-tau", "1e-12", id="grid-tau-string"),
        pytest.param("grid-tau", True, id="grid-tau-bool"),
    ],
)
def test_every_number_entry_refuses_what_no_float_holds(entry, value, lattice, packet, tset):
    """Each entry reads its number through hilbert._check_real: an integer
    past the float range was an OverflowError, a TypeError from np.isfinite,
    or accepted and an OverflowError later; a string or a bool tau reached
    default_delay_grid's comparisons.  Each is now a ValueError naming the
    argument.  The CLI's config errors for such integers are pinned in
    tests/test_cli.py."""
    name, call = _NUMBER_ENTRIES[entry]
    phi = named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError, match=f"^{name} must be a real number") as info:
        call(value, phi, tset)
    assert "0" * 20 not in str(info.value)


@pytest.mark.parametrize("bin_index", [True, np.True_, 0.5, 0.0, "0", None])
def test_basis_state_bin_index_must_be_an_integer(bin_index, lattice, packet):
    """True is not bin 1, and a fractional index is a ValueError, not an IndexError."""
    with pytest.raises(ValueError, match="^bin_index must be an integer"):
        hilbert.basis_state("h", bin_index, lattice, packet)


def test_basis_state_takes_numpy_integers(lattice, packet):
    assert hilbert.basis_state("v", np.int64(1), lattice, packet) == hilbert.basis_state(
        "v", 1, lattice, packet
    )


@pytest.mark.parametrize(
    "amps, error, message",
    [
        ([1, 1, 1], ValueError, "amplitude vector must have shape (4,), got (3,)"),
        ([0, 0, 0, 0], StateAnnihilatedError, "state annihilated"),
        ([2, 2, 2, 2], ValueError, "squared norm 16.0 exceeds 1"),
        ([np.nan, 0, 0, 0], ValueError, "amplitudes must be finite"),
        ([0, 0, np.inf, 0], ValueError, "amplitudes must be finite"),
        ([0, -np.inf, 0, 0], ValueError, "amplitudes must be finite"),
        ([0, 0, 0, complex(0, np.inf)], ValueError, "amplitudes must be finite"),
        ([complex(np.inf, np.inf), 0, 0, 0], ValueError, "amplitudes must be finite"),
        ([1e200, np.nan, 0, 0], ValueError, "amplitudes must be finite"),
        # Finite amplitudes whose squared norm overflows.
        ([1e200, 0, 0, 0], ValueError, "squared norm inf exceeds 1"),
        ([1e154, 1e154, 0, 0], ValueError, "squared norm inf exceeds 1"),
    ],
    ids=[
        "shape", "zero", "norm-above-1", "nan", "inf", "-inf", "complex-inf",
        "inf-inf", "nan-beside-overflow", "overflow", "overflowing-sum",
    ],
)
def test_state_shape_and_norm_validation(lattice, packet, amps, error, message):
    """Each bad amplitude vector raises the same exception type and message
    whether the check is made on the vector or derived from its norm."""
    with pytest.raises(error) as raised:
        PhotonState(np.array(amps, dtype=complex), lattice, packet)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_state_keeps_its_norm_and_its_fields(lattice, packet, rng):
    """norm_squared is float(np.vdot(a, a).real) of the stored amplitudes,
    bit for bit, and stays out of the fields that == and repr use."""
    for _ in range(50):
        state = random_pure(rng, lattice, packet)
        lossy = PhotonState(0.37 * state.amplitudes, lattice, packet)
        for s in (state, lossy):
            assert s.norm_squared == float(np.vdot(s.amplitudes, s.amplitudes).real)
            assert not s.amplitudes.flags.writeable
    assert state == state
    assert [f.name for f in dataclasses.fields(PhotonState) if f.compare] == [
        "amplitudes", "lattice", "packet",
    ]
    assert repr(state) == (
        f"PhotonState(amplitudes={state.amplitudes!r}, lattice={lattice!r}, packet={packet!r})"
    )


def test_states_and_sets_compare_by_value(lattice, packet, rng):
    """Two separately built states are equal exactly when their type,
    lattice, packet and stored array are; == neither raises on the array
    nor makes a state hashable."""
    state = random_pure(rng, lattice, packet)
    copy = PhotonState(state.amplitudes.copy(), lattice, packet)
    assert state == copy and not state != copy and state in [copy]
    changed = state.amplitudes.copy()
    changed[1] *= -1
    wider = TimeBinLattice(lattice.bin_count, 2 * lattice.tau)
    narrower = Wavepacket(packet.sigma_t / 2)
    for other in (
        PhotonState(changed, lattice, packet),
        PhotonState(state.amplitudes, wider, packet),
        PhotonState(state.amplitudes, lattice, narrower),
        to_density(state),
    ):
        assert state != other and other != state and state not in [other]
    rho = to_density(state)
    assert rho == DensityMatrix(rho.matrix.copy(), lattice, packet)
    assert rho != DensityMatrix(rho.matrix / 2, lattice, packet)
    first, second = (tomography.product_tomography_set(lattice, packet) for _ in range(2))
    assert first is not second and first == second
    for unhashable in (state, rho, first):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_state_copies_its_amplitudes(lattice, packet):
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    state = PhotonState(amps, lattice, packet)
    amps[0] = 0.5
    assert state.amplitudes[0] == 1.0
    assert state.norm_squared == 1.0


def test_resolvability_warning(lattice):
    wide = Wavepacket(sigma_t=lattice.tau)
    with pytest.warns(hilbert.ResolvabilityWarning):
        hilbert.basis_state("h", 0, lattice, wide)


def test_density_matrix_validation(lattice, packet):
    bad_herm = np.eye(4, dtype=complex)
    bad_herm[0, 1] = 0.5
    with pytest.raises(ValueError):
        DensityMatrix(bad_herm, lattice, packet)
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(neg, lattice, packet)
    with pytest.raises(ValueError):
        DensityMatrix(2.0 * np.eye(4) / 4 * 3, lattice, packet)  # trace 1.5


# ---------------------------------------------------------------------------
# inner_product
# ---------------------------------------------------------------------------


def test_bell_states_orthonormal(lattice, packet):
    plus = named_state("phi_plus", lattice, packet)
    minus = named_state("phi_minus", lattice, packet)
    assert inner_product(plus, minus) == pytest.approx(0.0, abs=1e-15)
    assert inner_product(plus, plus) == pytest.approx(1.0, abs=1e-15)


def test_diagonal_against_horizontal(lattice, packet):
    p0 = hilbert.product_state("p", "0", lattice, packet)
    h0 = hilbert.basis_state("h", 0, lattice, packet)
    assert inner_product(p0, h0) == pytest.approx(1.0 / SQRT2, abs=1e-15)


def test_inner_product_rejects_mismatched_arenas(lattice, packet):
    other = TimeBinLattice(bin_count=3, tau=lattice.tau)
    a = hilbert.basis_state("h", 0, lattice, packet)
    b = hilbert.basis_state("h", 0, other, packet)
    with pytest.raises(ValueError):
        inner_product(a, b)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_inner_product_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    lattice = TimeBinLattice(2, 2.3e-12)
    packet = Wavepacket(2.3e-13)
    a = random_pure(rng, lattice, packet)
    b = random_pure(rng, lattice, packet)
    assert inner_product(a, b) == pytest.approx(
        np.conj(inner_product(b, a)), abs=1e-14
    )


# ---------------------------------------------------------------------------
# to_density / partial_trace_time
# ---------------------------------------------------------------------------


def test_to_density_basis_state(lattice, packet):
    rho = to_density(hilbert.basis_state("h", 0, lattice, packet))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)


def test_to_density_bell_corners(lattice, packet):
    rho = to_density(named_state("phi_plus", lattice, packet))
    # 2-bin full space: h0 is index 0, v tau is index 3.
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        assert rho.matrix[i, j] == pytest.approx(0.5, abs=1e-15)
    assert np.abs(rho.matrix).sum() == pytest.approx(2.0, abs=1e-12)


def test_to_density_rejects_mixed_and_unnormalized(lattice, packet):
    rho = to_density(named_state("phi_plus", lattice, packet))
    with pytest.raises(TypeError):
        to_density(rho)
    shrunk = PhotonState(
        named_state("phi_plus", lattice, packet).amplitudes / SQRT2, lattice, packet
    )
    with pytest.raises(ValueError):
        to_density(shrunk)


def test_partial_trace_of_bell_is_maximally_mixed(lattice, packet):
    pol = partial_trace_time(to_density(named_state("phi_plus", lattice, packet)))
    np.testing.assert_allclose(pol, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_of_product_state_is_pure(lattice, packet):
    pol = partial_trace_time(to_density(hilbert.product_state("p", "+", lattice, packet)))
    p_vec = hilbert.POLARIZATION_VECTORS["p"]
    np.testing.assert_allclose(pol, np.outer(p_vec, p_vec.conj()), atol=1e-14)
    purity = np.trace(pol @ pol).real
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_of_circular_bell_is_maximally_mixed(lattice, packet):
    pol = partial_trace_time(to_density(named_state("rl_bell", lattice, packet)))
    np.testing.assert_allclose(pol, np.eye(2) / 2, atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_partial_trace_preserves_trace_and_psd(seed):
    rng = np.random.default_rng(seed)
    lattice = TimeBinLattice(2, 2.3e-12)
    packet = Wavepacket(2.3e-13)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    rho = DensityMatrix(mat, lattice, packet)
    pol = partial_trace_time(rho)
    assert np.trace(pol).real == pytest.approx(rho.trace, abs=1e-12)
    assert np.linalg.eigvalsh(pol).min() >= -1e-10
    np.testing.assert_allclose(pol, pol.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# Named states, logical embedding, serialization
# ---------------------------------------------------------------------------


def test_named_state_registry(lattice, packet):
    rl = named_state("rl_bell", lattice, packet)
    np.testing.assert_allclose(
        hilbert.logical_vector(rl), [0.5j, -0.5j, 0.5, 0.5], atol=1e-15
    )
    a = named_state("p_plus", lattice, packet)
    b = named_state("p+", lattice, packet)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes)
    with pytest.raises(KeyError):
        named_state("bogus", lattice, packet)


def test_logical_vector_roundtrip(lattice, packet, rng):
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    state = hilbert.from_logical(vec, lattice, packet)
    np.testing.assert_allclose(hilbert.logical_vector(state), vec, atol=1e-15)


def test_logical_vector_rejects_leakage(packet):
    lattice = TimeBinLattice(3, 2.3e-12)
    leaky = hilbert.basis_state("v", 2, lattice, packet)
    with pytest.raises(ValueError):
        hilbert.logical_vector(leaky)


def test_json_record_keys(lattice, packet):
    record = named_state("rl_bell", lattice, packet).to_json_dict()
    assert set(record) == {"bins", "tau_s", "sigma_t_s", "amps"}


# ---------------------------------------------------------------------------
# Documented refusals
# ---------------------------------------------------------------------------


def _h0(lattice, packet):
    return hilbert.basis_state("h", 0, lattice, packet)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda lat, pk: lat.grown(-1), ValueError, "^cannot shrink a lattice$",
                     id="grown"),
        pytest.param(lambda lat, pk: DensityMatrix(np.eye(3) / 3, lat, pk), ValueError,
                     r"^density matrix must have shape \(4, 4\), got \(3, 3\)$", id="rho-shape"),
        pytest.param(lambda lat, pk: DensityMatrix(np.diag([np.nan, 0, 0, 0]), lat, pk),
                     ValueError, "^density matrix entries must be finite$", id="rho-finite"),
        pytest.param(lambda lat, pk: inner_product(_h0(lat, pk), _h0(lat, Wavepacket(2e-13))),
                     ValueError, "^wavepacket mismatch", id="inner_product-packets"),
        pytest.param(lambda lat, pk: partial_trace_time(_h0(lat, pk)), TypeError,
                     "^partial_trace_time expects a DensityMatrix$", id="partial_trace_time"),
        pytest.param(lambda lat, pk: hilbert.basis_state("h", 2, lat, pk), ValueError,
                     "^bin index 2 outside lattice$", id="basis_state-bin"),
        pytest.param(lambda lat, pk: hilbert.product_state([1, 0, 0], "0", lat, pk), ValueError,
                     "^polarization and bin parts must be length-2 vectors$", id="product_state"),
        pytest.param(lambda lat, pk: hilbert.from_logical([1, 0, 0], lat, pk), ValueError,
                     "^logical vector must have length 4$", id="from_logical"),
    ],
)
def test_documented_refusals_raise_their_messages(call, error, message, lattice, packet):
    with pytest.raises(error, match=message):
        call(lattice, packet)
