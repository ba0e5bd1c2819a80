"""Optical elements, the two-bin gate, and the preparation compiler.

Wave-plate Jones matrices are checked against the independent construction
R(theta) D R(-theta) built from explicit rotation matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poltime import hilbert
from poltime.hilbert import PhotonState, StateAnnihilatedError, TimeBinLattice, Wavepacket
from poltime.optics import (
    BirefringentCrystal,
    HalfWavePlate,
    OpticalPipeline,
    Polarizer,
    QuarterWavePlate,
    apply_pipeline,
    compile_preparation,
    crystal_with_delay,
    element_action,
    gate_matrix,
)

SQRT2 = np.sqrt(2.0)


def rotated_retarder(theta, diag):
    """Independent Jones construction: R(theta) diag R(-theta)."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return rot @ np.diag(diag).astype(complex) @ rot.T


# ---------------------------------------------------------------------------
# Jones conventions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", np.linspace(0.0, np.pi, 13))
def test_half_wave_plate_matches_rotation_oracle(theta):
    np.testing.assert_allclose(
        HalfWavePlate(theta).jones(), rotated_retarder(theta, [1.0, -1.0]), atol=1e-14
    )


@pytest.mark.parametrize("theta", np.linspace(0.0, np.pi, 13))
def test_quarter_wave_plate_matches_rotation_oracle(theta):
    np.testing.assert_allclose(
        QuarterWavePlate(theta).jones(), rotated_retarder(theta, [1.0, 1.0j]), atol=1e-14
    )


@pytest.mark.parametrize("theta", np.linspace(0.0, np.pi, 13))
def test_polarizer_matches_rotation_oracle(theta):
    np.testing.assert_allclose(
        Polarizer(theta).jones(), rotated_retarder(theta, [1.0, 0.0]), atol=1e-14
    )


def test_hwp_at_zero_flips_vertical_sign(lattice, packet):
    v0 = hilbert.basis_state("v", 0, lattice, packet)
    out = element_action(HalfWavePlate(0.0), v0)
    np.testing.assert_allclose(out.amplitudes, -v0.amplitudes, atol=1e-15)


def test_angles_wrap_into_half_turn():
    assert HalfWavePlate(np.pi + 0.3).theta == pytest.approx(0.3)
    assert Polarizer(-0.1).theta == pytest.approx(np.pi - 0.1)


@pytest.mark.parametrize("plate", [HalfWavePlate, QuarterWavePlate, Polarizer])
@pytest.mark.parametrize(
    "theta, message",
    [
        ("1", "real number"), (True, "real number"), (np.True_, "real number"),
        (np.array(0.3), "real number"), (np.inf, "finite"), (-np.inf, "finite"),
        (np.nan, "finite"),
    ],
)
def test_plate_angle_must_be_a_finite_real_number(plate, theta, message):
    """A string or a bool is not an angle, and an infinite angle has no
    place in the half turn."""
    with pytest.raises(ValueError, match=f"^theta must be (a )?{message}"):
        plate(theta)


# ---------------------------------------------------------------------------
# Crystal
# ---------------------------------------------------------------------------


def test_crystal_entangles_diagonal_input(lattice, packet):
    p0 = hilbert.product_state("p", "0", lattice, packet)
    out = element_action(crystal_with_delay(lattice.tau), p0)
    target = hilbert.named_state("phi_plus", lattice, packet)
    assert abs(hilbert.inner_product(target, out)) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_crystal_on_antidiagonal_gives_orthogonal_bell(lattice, packet):
    m0 = hilbert.product_state("m", "0", lattice, packet)
    out = element_action(crystal_with_delay(lattice.tau), m0)
    target = hilbert.named_state("phi_minus", lattice, packet)
    assert abs(hilbert.inner_product(target, out)) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_crystal_grows_lattice_instead_of_truncating(lattice, packet):
    vt = hilbert.basis_state("v", 1, lattice, packet)
    out = element_action(crystal_with_delay(lattice.tau), vt)
    assert out.bin_count == 3
    assert out.amplitudes[out.bin_count + 2] == pytest.approx(1.0)
    assert out.norm_squared == pytest.approx(1.0, abs=1e-15)


def test_crystal_delay_must_sit_on_lattice(lattice, packet):
    """An off-lattice crystal is refused whatever the photon's polarization,
    also when it comes later in a pipeline."""
    bad = crystal_with_delay(0.4 * lattice.tau)
    message = "is not a positive integer multiple of the lattice spacing"
    with pytest.raises(ValueError, match=message):
        element_action(bad, hilbert.basis_state("v", 0, lattice, packet))
    for pipe in (OpticalPipeline((bad,)), OpticalPipeline((HalfWavePlate(0.0), bad))):
        with pytest.raises(ValueError, match=message):
            apply_pipeline(pipe, hilbert.basis_state("h", 0, lattice, packet))


@pytest.mark.parametrize(
    "length, delta_n",
    [
        (0.0, 0.17), (-1.0, 0.17), (np.nan, 0.17), (np.inf, 0.17),
        (4e-3, 0.0), (4e-3, -0.1), (4e-3, np.nan), (4e-3, np.inf),
        (True, True), (np.True_, 0.17), (4e-3, True), (4e-3, "0.17"),
    ],
)
def test_crystal_needs_positive_finite_length_and_contrast(length, delta_n):
    # A bool or a string is refused before the range check: it is not a number.
    numbers = all(isinstance(x, float) for x in (length, delta_n))
    message = "must be positive and finite" if numbers else "^(length|delta_n) must be a real number"
    with pytest.raises(ValueError, match=message):
        BirefringentCrystal(length, delta_n)


@pytest.mark.parametrize("delay", [True, np.True_, "1e-12", np.array(1e-12)])
def test_crystal_delay_must_be_a_real_number(delay):
    """True is not a delay of 1 s."""
    with pytest.raises(ValueError, match="^delay must be a real number"):
        crystal_with_delay(delay, 1.0)


@pytest.mark.parametrize("delay", [0.0, -1e-12])
def test_crystal_delay_must_be_positive(delay):
    with pytest.raises(ValueError, match="^delay must be positive$"):
        crystal_with_delay(delay)


def test_polarizer_can_annihilate(lattice, packet):
    h0 = hilbert.basis_state("h", 0, lattice, packet)
    with pytest.raises(StateAnnihilatedError):
        element_action(Polarizer(np.pi / 2), h0)


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------


def test_gate_columns():
    u = gate_matrix()
    np.testing.assert_allclose(u[:, 2], [0, 0, 0, 1])  # v0 -> v tau
    np.testing.assert_allclose(u[:, 3], [0, 0, 0, 0])  # v tau leaves the space


def test_gate_is_an_isometry_on_three_columns():
    u = gate_matrix()
    np.testing.assert_allclose(u.conj().T @ u, np.diag([1, 1, 1, 0]), atol=1e-15)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    np.testing.assert_allclose(u[:, :3], cnot[:, :3], atol=1e-15)


def test_gate_equals_projected_crystal_action(lattice, packet):
    """Column-by-column: physical crystal, then restriction to bins 0 and 1."""
    u = gate_matrix()
    crystal = crystal_with_delay(lattice.tau)
    for col, (pol, b) in enumerate([("h", 0), ("h", 1), ("v", 0), ("v", 1)]):
        state = hilbert.basis_state(pol, b, lattice, packet)
        out = element_action(crystal, state)
        projected = out.as_matrix()[:, :2].reshape(-1)
        np.testing.assert_allclose(projected, u[:, col], atol=1e-12)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def test_empty_pipeline_is_identity(lattice, packet, rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = PhotonState(amps / np.linalg.norm(amps), lattice, packet)
    out = apply_pipeline(OpticalPipeline(()), state)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


def test_hwp_crystal_encodes_bell_state(lattice, packet):
    pipe = OpticalPipeline((HalfWavePlate(np.pi / 8), crystal_with_delay(lattice.tau)))
    out = apply_pipeline(pipe, hilbert.basis_state("h", 0, lattice, packet))
    target = hilbert.named_state("phi_plus", lattice, packet)
    assert abs(hilbert.inner_product(target, out)) ** 2 >= 1.0 - 1e-12


def test_crystal_polarizer_heralds_diagonal_superposition(lattice, packet):
    pipe = OpticalPipeline((crystal_with_delay(lattice.tau), Polarizer(np.pi / 4)))
    out = apply_pipeline(pipe, hilbert.product_state("p", "0", lattice, packet))
    assert out.norm_squared == pytest.approx(0.5, abs=1e-12)
    unit = PhotonState(out.amplitudes / np.sqrt(out.norm_squared), out.lattice, out.packet)
    target = hilbert.product_state("p", "+", lattice, packet)
    assert abs(hilbert.inner_product(target, unit)) ** 2 == pytest.approx(1.0, abs=1e-12)


@given(
    theta=st.floats(0.0, np.pi, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["hwp", "qwp"]),
)
@settings(max_examples=150, deadline=None)
def test_wave_plates_preserve_norm(theta, seed, kind):
    rng = np.random.default_rng(seed)
    lattice = TimeBinLattice(2, 2.3e-12)
    packet = Wavepacket(2.3e-13)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = PhotonState(amps / np.linalg.norm(amps), lattice, packet)
    plate = HalfWavePlate(theta) if kind == "hwp" else QuarterWavePlate(theta)
    out = element_action(plate, state)
    assert out.norm_squared == pytest.approx(state.norm_squared, abs=1e-12)


@given(theta=st.floats(0.0, np.pi, allow_nan=False), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_polarizer_is_contractive(theta, seed):
    rng = np.random.default_rng(seed)
    lattice = TimeBinLattice(2, 2.3e-12)
    packet = Wavepacket(2.3e-13)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = PhotonState(amps / np.linalg.norm(amps), lattice, packet)
    try:
        out = element_action(Polarizer(theta), state)
    except StateAnnihilatedError:
        return
    assert out.norm_squared <= state.norm_squared + 1e-12


# ---------------------------------------------------------------------------
# Preparation compiler
# ---------------------------------------------------------------------------


def fidelity_to(plan, target):
    out = apply_pipeline(plan.pipeline, plan.input_state)
    survival = out.norm_squared
    tgt = hilbert.logical_vector(target)
    vec = out.as_matrix()[:, :2].reshape(-1)
    return abs(np.vdot(tgt, vec)) ** 2 / survival


def test_compile_bell_state(lattice, packet):
    plan = compile_preparation(hilbert.named_state("phi_plus", lattice, packet))
    kinds = [type(el).__name__ for el in plan.pipeline.elements]
    assert kinds == ["HalfWavePlate", "BirefringentCrystal"]
    assert plan.pipeline.elements[0].theta == pytest.approx(np.pi / 8, abs=1e-12)
    assert plan.predicted_fidelity == pytest.approx(1.0, abs=1e-12)
    assert plan.success_probability == pytest.approx(1.0, abs=1e-12)
    assert plan.exactly_encodable


def test_compile_heralded_diagonal_superposition(lattice, packet):
    plan = compile_preparation(hilbert.product_state("p", "+", lattice, packet))
    kinds = [type(el).__name__ for el in plan.pipeline.elements]
    assert "Polarizer" in kinds
    assert plan.predicted_fidelity == pytest.approx(1.0, abs=1e-9)
    assert plan.success_probability == pytest.approx(0.5, abs=1e-9)
    assert plan.exactly_encodable


def test_compile_circular_bell_state(lattice, packet):
    target = hilbert.named_state("rl_bell", lattice, packet)
    plan = compile_preparation(target)
    assert plan.exactly_encodable
    assert plan.success_probability == pytest.approx(1.0, abs=1e-9)
    assert fidelity_to(plan, target) >= 1.0 - 1e-9


@pytest.mark.parametrize("name", ["phi_plus", "p_plus", "rl_bell"])
def test_compile_named_targets_roundtrip(name, lattice, packet):
    target = hilbert.named_state(name, lattice, packet)
    plan = compile_preparation(target)
    assert fidelity_to(plan, target) >= 1.0 - 1e-9


# Non-orthogonal, unequal polarizations across the two bins sit outside
# every closed-form class; the compiler reports its best effort.
UNREACHABLE = np.array([1.0, 0.7, 0.0, 0.714142842854285], dtype=complex)
UNREACHABLE /= np.linalg.norm(UNREACHABLE)


def test_compile_flags_unreachable_target(lattice, packet):
    target = hilbert.from_logical(UNREACHABLE, lattice, packet)
    plan = compile_preparation(target)
    assert not plan.exactly_encodable
    assert plan.predicted_fidelity < 1.0 - 1e-9
    assert plan.predicted_fidelity > 0.5


@pytest.mark.parametrize(
    "name, expected",
    [
        ("h0", "single_bin"),  # compiles to the empty pipeline
        ("r0", "single_bin"),
        ("pt", "single_bin"),  # crystal branch: all amplitude in the late bin
        ("rt", "single_bin"),
        ("phi_plus", "orthogonal"),
        ("rl_bell", "orthogonal"),
        ("p+", "equal_polarization"),
        ("rx", "equal_polarization"),
        (None, "general"),
    ],
)
def test_compile_reports_target_class(name, expected, lattice, packet):
    if name is None:
        target = hilbert.from_logical(UNREACHABLE, lattice, packet)
    else:
        target = hilbert.named_state(name, lattice, packet)
    plan = compile_preparation(target)
    assert plan.target_class == expected
    assert plan.exactly_encodable == (name is not None)
    if name == "h0":
        assert len(plan.pipeline) == 0
    if name is not None:
        assert fidelity_to(plan, target) >= 1.0 - 1e-9


def test_compile_rejects_unnormalized(lattice, packet):
    shrunk = PhotonState(
        hilbert.named_state("phi_plus", lattice, packet).amplitudes / SQRT2,
        lattice,
        packet,
    )
    with pytest.raises(ValueError):
        compile_preparation(shrunk)


def test_compile_is_deterministic(lattice, packet):
    target = hilbert.named_state("rl_bell", lattice, packet)
    a = compile_preparation(target)
    b = compile_preparation(target)
    assert a.pipeline == b.pipeline
    assert a.predicted_fidelity == b.predicted_fidelity


def test_best_effort_is_the_nearest_encodable_state(lattice, packet):
    """Outside the classes the plan reaches the bench's best fidelity: the
    larger of lambda_max(c0 c0+ - c1 c1+) + |c1|^2 (orthogonal family) and
    sigma_max(C)^2 (product family), for C = [c0 c1]."""
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        target = hilbert.from_logical(vec, lattice, packet)
        plan = compile_preparation(target)
        mat = vec.reshape(2, 2)
        c0, c1 = mat[:, 0], mat[:, 1]
        orthogonal = np.linalg.eigvalsh(
            np.outer(c0, c0.conj()) - np.outer(c1, c1.conj())
        )[-1] + np.vdot(c1, c1).real
        product = np.linalg.svd(mat, compute_uv=False)[0] ** 2
        assert plan.predicted_fidelity == pytest.approx(max(orthogonal, product), abs=1e-12)
        assert fidelity_to(plan, target) == pytest.approx(plan.predicted_fidelity, abs=1e-12)
        assert not plan.exactly_encodable
        assert plan.target_class == "general"
