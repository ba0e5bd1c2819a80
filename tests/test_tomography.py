"""Reconstruction pipeline: projector set, linear inversion, likelihood fit,
fidelity, bootstrap, and the forward count simulator."""

import dataclasses
import re
import sys
import threading

import numpy as np
import pytest
from conftest import on_each_grid, wide_grid

from poltime import experiment, hilbert, hom, optics, tomography
from poltime.hilbert import DensityMatrix, TimeBinLattice, Wavepacket
from poltime.tomography import (
    CountsBundle,
    ReconstructionError,
    _design,
    bootstrap_errors,
    default_tomography_set,
    fidelity,
    linear_inversion,
    logical_rho,
    mle_reconstruct,
    projector_stack,
    random_density_matrix,
    simulate_counts,
)

TAU = 2.3e-12
SIGMA = TAU / 10

# Independently computed singular values of the product set's 16x16 design
# matrix.
DESIGN_SMIN = 0.219223593595585
DESIGN_SMAX = 2.280776406404415


def compact_delays():
    return experiment.compact_delay_grid(TAU, SIGMA)


def grid_setup(grid):
    """(packet, delays) of the compact grid at SIGMA or of a wide grid."""
    if grid == "compact":
        return Wavepacket(SIGMA), compact_delays()
    return wide_grid(grid)


def dip_depths(counts):
    """Clamped dip depths 1 - n_i / N_i of per-reading (n_i, N_i) counts."""
    return np.clip(1.0 - counts[:, 0] / counts[:, 1], 0.0, 1.0)


def exact_counts(rho_logical, tset, baseline=1000.0, visibility=1.0):
    """Noise-free (n_i, N_i) pairs straight from the forward model, one per reading."""
    projs = projector_stack(tset)[tset.reading_columns[1]]
    expect = np.real(np.einsum("iab,ba->i", projs, rho_logical))
    q = 1.0 - visibility * expect
    return np.stack([baseline * q, np.full(len(projs), baseline)], axis=1)


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def duality_gap(rho, counts, tset, visibility):
    """Frank-Wolfe gap Re tr(G rho) - lambda_min(G) of the Poisson deviance
    at rho, G its gradient.  It bounds how far the deviance is above its
    minimum over density matrices."""
    n, big_n = counts[:, 0], counts[:, 1]
    projs = projector_stack(tset)
    q = 1.0 - visibility * np.real(np.einsum("iab,ba->i", projs, rho))
    # d/dq of N q - n - n log(N q / n) is N - n / q; zero counts leave N.
    slope = big_n - np.divide(n, q, out=np.zeros_like(n), where=n > 0)
    grad = -visibility * np.einsum("i,iab->ab", slope, projs)
    return float(np.real(np.trace(grad @ rho)) - np.linalg.eigvalsh(grad)[0])


# ---------------------------------------------------------------------------
# Tomography set
# ---------------------------------------------------------------------------


def test_set_has_sixteen_distinct_members(product_tset):
    assert len(product_tset.members) == 16
    assert len(set(product_tset.labels())) == 16


def test_design_matrix_is_well_conditioned(product_tset):
    sv = np.linalg.svd(_design(projector_stack(product_tset)), compute_uv=False)
    assert sv.min() > 1e-3
    assert sv.min() == pytest.approx(DESIGN_SMIN, abs=1e-12)
    assert sv.max() == pytest.approx(DESIGN_SMAX, abs=1e-12)


def member_readings(tset, member):
    """(scan, lag) pairs of the readings table that read one member, the
    zero-lag reading first."""
    reads = [(j, lag) for j, lag, m in tset.readings if m == member]
    return sorted(reads, key=lambda read: read[1] != 0)


def scan_readings(tset, scan):
    """(member, lag) pairs of the readings table taken from one scan."""
    return [(m, lag) for j, lag, m in tset.readings if j == scan]


def test_scan_schedule_shares_single_bin_scans(product_tset):
    labels = product_tset.labels()
    for i, label in enumerate(labels):
        reads = member_readings(product_tset, i)
        assert reads[0] == (i, 0)  # own scan at zero delay first
        bin_code = label[1:]
        expected_reads = 2 if bin_code in ("0", "t") else 1
        assert len(reads) == expected_reads
    for i, ancilla in enumerate(product_tset.scans):
        assert labels[ancilla] == labels[i]
        lags = [lag for _, lag in scan_readings(product_tset, i)]
        bin_code = labels[ancilla][1:]
        if bin_code == "0":
            assert lags == [0, 1]
        elif bin_code == "t":
            assert lags == [0, -1]
        else:
            assert lags == [0]


def test_default_set_is_mutually_unbiased(tset):
    assert len(tset.members) == 20
    assert len(set(tset.labels())) == 20
    assert tset.labels()[:4] == ["h0", "ht", "v0", "vt"]
    vecs = np.array([hilbert.logical_vector(s) for s in tset.states()])
    overlaps = np.abs(vecs.conj() @ vecs.T) ** 2
    basis = np.arange(20) // 4
    same = basis[:, None] == basis[None, :]
    expected = np.where(same, np.eye(20), 0.25)
    np.testing.assert_allclose(overlaps, expected, atol=1e-12)


def test_default_design_matrix_is_a_tight_frame(tset):
    # Projectors of a complete MUB set sum to 5 I and act as a multiple of
    # the identity on the traceless operators.
    sv = np.linalg.svd(_design(projector_stack(tset)), compute_uv=False)
    np.testing.assert_allclose(sv, [np.sqrt(5.0)] + [1.0] * 15, atol=1e-12)


def test_default_schedule_reads_computational_basis_in_two_scans(tset):
    assert len(tset.scans) == 18
    labels = tset.labels()
    assert (labels[tset.scans[0]], scan_readings(tset, 0)) == ("h0", [(0, 0), (1, 1)])
    assert (labels[tset.scans[1]], scan_readings(tset, 1)) == ("v0", [(2, 0), (3, 1)])
    for j in range(2, len(tset.scans)):
        assert labels[tset.scans[j]] == labels[j + 2]
        assert scan_readings(tset, j) == [(j + 2, 0)]
    assert [member_readings(tset, i) for i in range(4)] == [
        [(0, 0)],
        [(0, 1)],
        [(1, 0)],
        [(1, 1)],
    ]


def test_every_member_has_an_exact_preparation_plan(tset):
    for state in tset.states():
        plan = optics.compile_preparation(state)
        assert plan is not None
        assert plan.exactly_encodable
        assert plan.predicted_fidelity >= 1.0 - 1e-9


def test_default_set_is_shared_per_geometry(lattice, packet):
    """Equal geometries get the same set object, whatever `with_plans` says;
    another packet or lattice gets another set."""
    tset = default_tomography_set(lattice, packet)
    equal = TimeBinLattice(lattice.bin_count, lattice.tau), Wavepacket(packet.sigma_t)
    twin = default_tomography_set(*equal, with_plans=False)
    assert twin is tset
    assert default_tomography_set(lattice, packet, with_plans=True) is tset
    other = default_tomography_set(lattice, Wavepacket(packet.sigma_t / 2))
    assert other is not tset
    assert all(state.packet == Wavepacket(packet.sigma_t / 2) for state in other.states())
    assert default_tomography_set(lattice.grown(1), packet) is not tset


def test_default_set_cache_is_bounded(lattice):
    """Building more geometries than the bound keeps at most the bound."""
    bound = tomography._unbiased_set.cache_info().maxsize
    assert bound is not None and bound <= 16
    for k in range(bound + 3):
        default_tomography_set(lattice, Wavepacket(SIGMA * (1.0 + k / 64)))
    assert tomography._unbiased_set.cache_info().currsize == bound


def test_shared_set_arrays_refuse_writes(lattice, packet):
    """A shared set is immutable: every array it hands out is read-only."""
    tset = default_tomography_set(lattice, packet)
    arrays = [tset.projectors, *tset.fit_tables, *tset.reading_columns]
    arrays += [state.amplitudes for state in tset.states()]
    assert len(arrays) == 1 + 3 + 4 + 20
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.reshape(-1)[0] = 0


@pytest.mark.parametrize("set_maker", [default_tomography_set, tomography.product_tomography_set])
def test_projector_stack_is_built_once_per_set(set_maker, lattice, packet, monkeypatch):
    """The stack is built from the members' logical vectors on first use,
    equals a fresh outer-product build, refuses writes, and is what linear
    inversion, the design matrix, the fit and the bootstrap read: none of
    them builds another."""
    tomography._unbiased_set.cache_clear()  # a fresh set, not one shared with earlier tests
    tset = set_maker(lattice, packet)
    fresh = np.array(
        [np.outer(v, v.conj()) for v in map(hilbert.logical_vector, tset.states())]
    )
    built = []
    logical_vector = hilbert.logical_vector

    def counted(state):
        built.append(state)
        return logical_vector(state)

    monkeypatch.setattr(hilbert, "logical_vector", counted)

    projs = projector_stack(tset)
    assert len(built) == len(tset.members)
    assert np.array_equal(projs, fresh)
    with pytest.raises(ValueError):
        projs[0, 0, 0] = 1.0
    assert projector_stack(tset) is projs

    vec = logical_vector(hilbert.named_state("phi_plus", lattice, packet))
    counts = exact_counts(np.outer(vec, vec.conj()), tset, visibility=0.94)
    linear_inversion(dip_depths(counts), tset)
    mle_reconstruct(counts, tset, visibility=0.94)
    bootstrap_errors(np.round(counts), tset, 0.94, vec, replicas=3)
    assert len(built) == len(tset.members)
    assert np.array_equal(projs, fresh)


# ---------------------------------------------------------------------------
# Linear inversion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["phi_plus", "p_plus", "rl_bell"])
def test_linear_inversion_roundtrip(name, lattice, packet, tset):
    target = hilbert.logical_vector(hilbert.named_state(name, lattice, packet))
    rho_true = np.outer(target, target.conj())
    p = np.real(np.einsum("iab,ba->i", projector_stack(tset), rho_true))
    rho, negative = linear_inversion(p, tset)
    assert not negative
    np.testing.assert_allclose(rho, rho_true, atol=1e-9)


def test_linear_inversion_of_maximally_mixed(product_tset):
    p = np.full(len(product_tset.readings), 0.25)
    rho, negative = linear_inversion(p, product_tset)
    assert not negative
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_linear_inversion_least_squares_of_maximally_mixed(tset):
    rho, negative = linear_inversion(np.full(20, 0.25), tset)
    assert not negative
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_linear_inversion_rejects_sets_that_do_not_span(tset):
    short = dataclasses.replace(tset, members=tset.members[:15], readings=tset.readings[:15])
    with pytest.raises(ValueError, match="span"):
        linear_inversion(np.full(15, 0.25), short)
    repeated = dataclasses.replace(tset, members=tset.members[:4] * 5)
    with pytest.raises(ValueError, match="span"):
        linear_inversion(np.full(20, 0.25), repeated)


def test_linear_inversion_flags_unphysical_noise(lattice, packet, tset):
    # Sparse counts routinely push an eigenvalue negative; nothing is clipped.
    enc = hilbert.named_state("phi_plus", lattice, packet)
    bundle = simulate_counts(
        enc, tset, 100.0, master_seed=0, delays=compact_delays(), calibrate=False
    )
    rho, negative = linear_inversion(dip_depths(bundle.counts), tset)
    assert negative
    assert np.linalg.eigvalsh(rho).min() < 0
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


def test_linear_inversion_input_length(tset):
    with pytest.raises(ValueError):
        linear_inversion(np.zeros(12), tset)


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------


def test_fidelity_pure_cases(lattice, packet, tset):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    minus = hilbert.named_state("phi_minus", lattice, packet)
    rho = np.outer(
        hilbert.logical_vector(phi), hilbert.logical_vector(phi).conj()
    )
    assert fidelity(rho, phi) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(rho, minus) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(np.eye(4) / 4, phi) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_mixed_symmetry(rng):
    a = random_density_matrix(4, rng)
    b = random_density_matrix(4, rng)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-10)
    assert 0.0 <= fidelity(a, b) <= 1.0


def test_fidelity_takes_density_matrix_targets(lattice, packet, rng):
    rho = random_density_matrix(4, rng)
    sigma = DensityMatrix(random_density_matrix(4, rng), lattice, packet)
    assert fidelity(rho, DensityMatrix(rho, lattice, packet)) == pytest.approx(
        fidelity(rho, rho), abs=1e-12
    )
    assert fidelity(rho, sigma) == fidelity(rho, sigma.matrix)
    wide = TimeBinLattice(bin_count=3, tau=TAU)
    with pytest.raises(ValueError, match="outside the two-bin logical subspace"):
        fidelity(rho, DensityMatrix(np.eye(6) / 6, wide, packet))


BAD_TARGETS = {
    "zero vector": (np.zeros(4), "pure target must be a finite, nonzero vector"),
    "nan vector": (np.array([1.0, np.nan, 0.0, 0.0]), "pure target must be a finite"),
    "short vector": (np.ones(3) / np.sqrt(3), "vector of length 4"),
    "nan matrix": (np.full((4, 4), np.nan), "mixed target must be finite"),
}


@pytest.mark.parametrize("case", BAD_TARGETS)
def test_fidelity_refuses_bad_targets(case, rng):
    """No warning, silent nan or numpy error from inside the arithmetic:
    each bad target is a ValueError naming it."""
    target, message = BAD_TARGETS[case]
    with pytest.raises(ValueError, match=f"^target: .*{message}"):
        fidelity(random_density_matrix(4, rng), target)


@pytest.mark.parametrize("case", BAD_TARGETS)
def test_reconstructions_pass_bad_target_errors_through(case, tset):
    target, message = BAD_TARGETS[case]
    counts = np.column_stack([np.full(len(tset.readings), 250.0), np.full(len(tset.readings), 1e3)])
    with pytest.raises(ValueError, match=message):
        mle_reconstruct(counts, tset, target=target)
    with pytest.raises(ValueError, match=message):
        bootstrap_errors(counts, tset, 1.0, target, replicas=2)


LATE_TARGETS = {
    **BAD_TARGETS,
    "wide matrix": (
        np.eye(6) / 6, r"^target of shape \(6, 6\) does not match the estimate's \(4, 4\)$"
    ),
    "leaking state": (
        DensityMatrix(np.eye(6) / 6, TimeBinLattice(bin_count=3, tau=TAU), Wavepacket(SIGMA)),
        "outside the two-bin logical subspace",
    ),
}


@pytest.mark.parametrize("case", LATE_TARGETS)
def test_fits_read_the_target_before_fitting(case, tset, monkeypatch):
    """A target either fit refuses is refused before the solver runs, not
    after a whole bootstrap stack has been fitted."""

    def no_fit(*args):
        raise AssertionError("the fit ran before the target was read")

    monkeypatch.setattr(tomography, "_fit", no_fit)
    target, message = LATE_TARGETS[case]
    counts = np.column_stack([np.full(len(tset.readings), 250.0), np.full(len(tset.readings), 1e3)])
    with pytest.raises(ValueError, match=message):
        mle_reconstruct(counts, tset, target=target)
    with pytest.raises(ValueError, match=message):
        bootstrap_errors(counts, tset, 1.0, target, replicas=2)


def test_wide_lattice_density_matrix_is_read_on_its_logical_block(lattice, packet, tset):
    """A DensityMatrix on a 3-bin lattice that lives in bins 0 and 1 is read
    on its (4, 4) logical block: as a target or as the estimate it gives the
    2-bin state's fidelities bit for bit, both fits take it as a target, and
    a run on it completes."""
    wide = TimeBinLattice(bin_count=3, tau=TAU)
    narrow_phi = hilbert.to_density(hilbert.named_state("phi_plus", lattice, packet))
    wide_phi = hilbert.to_density(hilbert.named_state("phi_plus", wide, packet))
    np.testing.assert_array_equal(hilbert.logical_vector(wide_phi), narrow_phi.matrix)
    rho = random_density_matrix(4, np.random.default_rng(5))
    assert fidelity(rho, wide_phi) == fidelity(rho, narrow_phi)
    assert fidelity(wide_phi, rho) == fidelity(narrow_phi, rho)
    counts = simulate_counts(
        narrow_phi, tset, 1000.0, visibility=0.94, master_seed=2, delays=compact_delays()
    ).counts
    by_wide = mle_reconstruct(counts, tset, 0.94, target=wide_phi)
    by_narrow = mle_reconstruct(counts, tset, 0.94, target=narrow_phi)
    assert by_wide.fidelity_vs_target == by_narrow.fidelity_vs_target
    boot_wide = bootstrap_errors(counts, tset, 0.94, wide_phi, replicas=5, seed=2)
    boot_narrow = bootstrap_errors(counts, tset, 0.94, narrow_phi, replicas=5, seed=2)
    assert boot_wide.fidelities.tobytes() == boot_narrow.fidelities.tobytes()
    assert boot_wide.estimate.fidelity_vs_target == boot_narrow.estimate.fidelity_vs_target
    _, _, errors = tomography.run(wide_phi, compact_delays(), 1000.0, 0.94, 3, 10)
    assert errors.replicas_used == 10 and errors.fidelities.shape == (10,)
    assert 0.9 < errors.estimate.fidelity_vs_target <= 1.0


def uhlmann_fidelity(rho, sigma):
    """The mixed fidelity of one pair as a per-matrix loop takes it: the PSD
    square root of rho, then the float (sum of root eigenvalues) ** 2."""
    evals, evecs = np.linalg.eigh(rho)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    evals = np.linalg.eigvalsh(root @ sigma @ root)
    return float(np.sum(np.sqrt(np.clip(evals, 0.0, None))) ** 2)


def test_stacked_mixed_fidelities_equal_the_per_matrix_rule():
    """The stacked mixed fidelity is the per-matrix rule bit for bit, over
    6000 states of rank 1, 2 and 4.  A float's ** 2 is libm's pow, while an
    array's is x * x; the two differ in the last bit on about 0.08% of
    values, so squaring the stack with ** 2 fails here."""
    rng = np.random.default_rng(11)
    g = rng.normal(size=(6000, 4, 4)) + 1j * rng.normal(size=(6000, 4, 4))
    g[::3, :, 1:] = 0.0
    g[1::3, :, 2:] = 0.0
    rhos = g @ g.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    sigma = random_density_matrix(4, rng)
    expected = [uhlmann_fidelity(rho, sigma) for rho in rhos]
    assert tomography._fidelities(rhos, sigma).tolist() == expected
    assert [fidelity(rho, sigma) for rho in rhos[:50]] == expected[:50]


def test_random_density_matrices_are_states(rng):
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["phi_plus", "p_plus", "rl_bell"])
def test_mle_noiseless_roundtrip(name, lattice, packet, tset):
    target = hilbert.named_state(name, lattice, packet)
    vec = hilbert.logical_vector(target)
    counts = exact_counts(np.outer(vec, vec.conj()), tset)
    result = mle_reconstruct(counts, tset, target=target)
    assert result.fidelity_vs_target >= 0.999
    rho = logical_rho(result)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_mle_agrees_with_linear_inversion_noiselessly(lattice, packet, tset):
    target = hilbert.named_state("rl_bell", lattice, packet)
    vec = hilbert.logical_vector(target)
    counts = exact_counts(np.outer(vec, vec.conj()), tset)
    result = mle_reconstruct(counts, tset)
    p = 1.0 - counts[:, 0] / counts[:, 1]
    rho_li, _ = linear_inversion(p, tset)
    assert trace_distance(logical_rho(result), rho_li) <= 1e-6


def test_mle_output_is_physical_under_noise(lattice, packet, tset):
    enc = hilbert.named_state("phi_plus", lattice, packet)
    for seed in range(5):
        bundle = simulate_counts(
            enc, tset, 200.0, master_seed=seed, delays=compact_delays(), calibrate=False
        )
        result = mle_reconstruct(bundle.counts, tset, seed=seed)
        rho = logical_rho(result)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


@pytest.mark.parametrize("name", ["phi_plus", "p_plus", "rl_bell", "mixed"])
def test_estimate_is_a_density_matrix(name, lattice, packet, tset):
    """The 4x4 estimate is exactly Hermitian, PSD and of unit trace."""
    if name == "mixed":
        rho = random_density_matrix(4, np.random.default_rng(9))
        enc = DensityMatrix(rho, lattice, packet)
    else:
        enc = hilbert.named_state(name, lattice, packet)
    bundle = simulate_counts(
        enc, tset, 1000.0, visibility=0.94, master_seed=7, delays=compact_delays()
    )
    rho_hat = mle_reconstruct(bundle.counts, tset, bundle.visibility_hat).rho_hat
    assert rho_hat.shape == (4, 4)
    assert np.array_equal(rho_hat, rho_hat.conj().T)
    assert np.linalg.eigvalsh(rho_hat).min() >= -1e-10
    assert abs(np.trace(rho_hat).real - 1.0) <= 1e-12


def test_mle_is_deterministic(lattice, packet, tset):
    enc = hilbert.named_state("p_plus", lattice, packet)
    bundle = simulate_counts(
        enc, tset, 1000.0, master_seed=3, delays=compact_delays(), calibrate=False
    )
    a = mle_reconstruct(bundle.counts, tset, seed=11)
    b = mle_reconstruct(bundle.counts, tset, seed=11)
    assert np.array_equal(a.rho_hat, b.rho_hat)
    assert a.nll == b.nll


def test_mle_input_validation(tset):
    good = exact_counts(np.eye(4) / 4, tset)
    with pytest.raises(ValueError):
        mle_reconstruct(good, tset, visibility=0.0)
    with pytest.raises(ValueError):
        mle_reconstruct(good[:10], tset)
    bad = good.copy()
    bad[0, 1] = 0.0
    with pytest.raises(ValueError):
        mle_reconstruct(bad, tset)


def test_mle_needs_count_pairs(tset):
    """A (20, 3) array is not one (n_i, N_i) pair per reading."""
    with pytest.raises(ValueError, match=r"^counts must be a sequence of \(n_i, N_i\) pairs$"):
        mle_reconstruct(np.ones((len(tset.readings), 3)), tset)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column, name", [(0, "dip counts"), (1, "baselines")])
def test_mle_rejects_non_finite_counts(tset, bad, column, name):
    counts = exact_counts(np.eye(4) / 4, tset)
    counts[3, column] = bad
    with pytest.raises(ValueError, match=f"{name} .* must be finite"):
        mle_reconstruct(counts, tset)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column, name", [(0, "dip counts"), (1, "baselines")])
def test_bootstrap_rejects_non_finite_counts(lattice, packet, tset, bad, column, name):
    counts = np.round(exact_counts(np.eye(4) / 4, tset))
    counts[3, column] = bad
    target = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError, match=f"{name} .* must be finite"):
        bootstrap_errors(counts, tset, 1.0, target, replicas=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linear_inversion_rejects_non_finite_values(tset, bad):
    p = np.full(20, 0.25)
    p[5] = bad
    with pytest.raises(ValueError, match="finite"):
        linear_inversion(p, tset)
    with pytest.raises(ValueError, match="finite"):
        linear_inversion(np.full(20, bad), tset)


@pytest.mark.parametrize("visibility, baseline", [(0.94, 1000.0), (1.0, 100.0)])
def test_mle_meets_duality_gap_tolerance(visibility, baseline, lattice, packet, tset):
    """Every fit is within 1e-9 of the optimal deviance, judged from the
    returned state and the counts alone."""
    zero_dips = 0
    for seed in range(12):
        name = ("phi_plus", "p_plus", "rl_bell")[seed % 3]
        target = hilbert.named_state(name, lattice, packet)
        bundle = simulate_counts(
            target,
            tset,
            baseline,
            visibility=visibility,
            master_seed=seed,
            delays=compact_delays(),
            calibrate=False,
        )
        zero_dips += int(np.sum(bundle.counts[:, 0] == 0))
        result = mle_reconstruct(bundle.counts, tset, visibility=visibility)
        rho = logical_rho(result)
        assert duality_gap(rho, bundle.counts, tset, visibility) <= 1e-9
    if visibility == 1.0:
        assert zero_dips > 0  # the likelihood's boundary case is covered


def test_mle_reports_the_nll_of_a_fit_that_misses_tolerance(
    monkeypatch, lattice, packet, tset
):
    target = hilbert.named_state("phi_plus", lattice, packet)
    bundle = simulate_counts(
        target, tset, 1000.0, visibility=0.94, delays=compact_delays(), calibrate=False
    )
    monkeypatch.setattr(tomography, "_MAX_ITER", 1)
    with pytest.raises(ReconstructionError, match="misses its tolerance 1e-09$") as err:
        mle_reconstruct(bundle.counts, tset, visibility=0.94)
    assert np.isfinite(err.value.best_nll)
    with pytest.raises(ReconstructionError, match="bootstrap replicas failed"):
        bootstrap_errors(bundle.counts, tset, 0.94, target, replicas=10)


@pytest.mark.parametrize("name", ["phi_plus", "p_plus", "rl_bell"])
def test_bootstrap_stacks_converge_in_few_passes_and_turn_the_range(name, lattice, packet, tset):
    """11-row stacks as bootstrap_errors fits them (the observed counts and
    10 replicas) of calibrated default-grid runs at V = 0.94 and N0 = 1000,
    20 seeds: every row converges, a stack's slowest row takes at most 12
    passes in the median (measured 6, 7 and 6), and many optima put weight
    outside the range of the projected linear inversion the fit starts from,
    which no step held to the start's range could reach."""
    state = hilbert.named_state(name, lattice, packet)
    slowest, turned = [], 0
    for seed in range(20):
        bundle = simulate_counts(
            state, tset, 1000.0, visibility=0.94, master_seed=seed,
            delays=experiment.default_delay_grid(TAU),
        )
        n, baseline, v_hat = bundle.counts[:, 0], bundle.counts[:, 1], bundle.visibility_hat
        n_star = experiment._reset_draws(((seed, r) for r in range(10)), [n] * 10)
        stack = np.array([n, *n_star], dtype=float)
        big_n = np.broadcast_to(baseline, stack.shape)
        fit = tomography._fit(stack, big_n, tset.fit_tables, v_hat)
        assert fit.converged.all()
        slowest.append(fit.iterations.max())
        p_hat = np.clip((1.0 - stack / baseline) / v_hat, 0.0, 1.0)
        start = tomography._hermitian(p_hat @ tset.fit_tables[1].T)
        weights, vectors = np.linalg.eigh(tomography._project(start))
        for w, vec, rho in zip(weights, vectors, fit.rho):
            null = vec[:, w <= hilbert.EIGENVALUE_TOL]
            turned += np.trace(null.conj().T @ rho @ null).real > 1e-4
    assert np.median(slowest) <= 12
    # Measured: 183, 85 and 73 of 220 rows.
    assert turned >= 50


def test_more_counts_reconstruct_better(lattice, packet, tset):
    """Median fidelity rises with the count budget for every reference state."""
    n_seeds = 100
    for name in ("phi_plus", "p_plus", "rl_bell"):
        target = hilbert.named_state(name, lattice, packet)
        medians = {}
        for baseline in (1e2, 1e4):
            fids = []
            for seed in range(n_seeds):
                bundle = simulate_counts(
                    target,
                    tset,
                    baseline,
                    master_seed=seed,
                    delays=compact_delays(),
                    calibrate=False,
                )
                res = mle_reconstruct(
                    bundle.counts, tset, target=target, seed=seed
                )
                fids.append(res.fidelity_vs_target)
            medians[baseline] = float(np.median(fids))
        assert medians[1e4] >= medians[1e2]
        # Boundary bias keeps pure-target medians a little below 1 even at
        # 1e4 counts; the regime floor is the meaningful bound.
        assert medians[1e4] >= 0.95


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_is_deterministic_and_nonzero(lattice, packet, tset):
    target = hilbert.named_state("p_plus", lattice, packet)
    vec = hilbert.logical_vector(target)
    counts = exact_counts(np.outer(vec, vec.conj()), tset)
    a = bootstrap_errors(counts, tset, 1.0, target, replicas=20, seed=4)
    b = bootstrap_errors(counts, tset, 1.0, target, replicas=20, seed=4)
    assert a.fidelity_std == b.fidelity_std
    np.testing.assert_array_equal(a.rho_real_std, b.rho_real_std)
    assert a.fidelity_std > 0.0
    assert a.replicas_used == 20
    assert a.replicas_dropped == 0
    assert a.rho_real_std.shape == (4, 4)


def test_bootstrap_replicas_match_single_fits(lattice, packet, tset):
    """Replicas fitted together as one stack agree with fitting each
    resampled count set on its own: no state leaks between replicas."""
    target = hilbert.named_state("phi_plus", lattice, packet)
    counts = simulate_counts(
        target,
        tset,
        1000.0,
        visibility=0.94,
        master_seed=2,
        delays=compact_delays(),
        calibrate=False,
    ).counts
    boot = bootstrap_errors(counts, tset, 0.94, target, replicas=12, seed=5)
    singles = []
    for r in range(12):
        n_star = experiment.point_rng(5, r).poisson(counts[:, 0]).astype(float)
        res = mle_reconstruct(
            np.stack([n_star, counts[:, 1]], axis=1), tset, 0.94, target=target
        )
        singles.append(res.fidelity_vs_target)
    assert boot.replicas_dropped == 0
    np.testing.assert_allclose(boot.fidelities, singles, rtol=0.0, atol=1e-6)


def test_bootstrap_estimate_matches_mle_reconstruct(lattice, packet, tset):
    """The point estimate fitted as row 0 of the replica stack is the fit
    mle_reconstruct makes on its own."""
    target = hilbert.named_state("phi_plus", lattice, packet)
    for seed in (0, 1, 2):
        counts = simulate_counts(
            target,
            tset,
            1000.0,
            visibility=0.94,
            master_seed=seed,
            delays=compact_delays(),
            calibrate=False,
        ).counts
        single = mle_reconstruct(counts, tset, 0.94, target=target)
        est = bootstrap_errors(counts, tset, 0.94, target, replicas=5, seed=seed).estimate
        assert trace_distance(logical_rho(est), logical_rho(single)) <= 1e-6
        assert est.nll == pytest.approx(single.nll, rel=0.0, abs=1e-6)
        assert est.fidelity_vs_target == pytest.approx(
            single.fidelity_vs_target, rel=0.0, abs=1e-6
        )


@pytest.mark.parametrize("name", ["phi_plus", "p_plus", "rl_bell", "h0", "ginibre 0", "ginibre 1"])
def test_bootstrap_fidelities_equal_per_replica_fidelity(name, lattice, packet, tset, monkeypatch):
    """A target's replica fidelities, pure or a Ginibre-mixed DensityMatrix,
    taken in one stacked pass, are the values `fidelity` gives each replica,
    bit for bit."""
    fits, fit = [], tomography._fit

    def recording_fit(*args):
        fits.append(fit(*args))
        return fits[-1]

    monkeypatch.setattr(tomography, "_fit", recording_fit)
    if name.startswith("ginibre"):
        rng = np.random.default_rng(int(name[-1]))
        target = DensityMatrix(random_density_matrix(4, rng), lattice, packet)
    else:
        target = hilbert.named_state(name, lattice, packet)
    for seed in range(4):
        counts = simulate_counts(
            target, tset, 1000.0, visibility=0.94, master_seed=seed, delays=compact_delays()
        ).counts
        boot = bootstrap_errors(counts, tset, 0.94, target, replicas=40, seed=seed)
        rhos = fits[-1].rho[1:][fits[-1].converged[1:]]
        expected = [fidelity(rho, target) for rho in rhos]
        assert boot.fidelities.tolist() == expected
        assert boot.fidelity_std == float(np.std(expected, ddof=1))
        assert boot.estimate.fidelity_vs_target == fidelity(fits[-1].rho[0], target)


def test_fits_take_density_matrix_targets(lattice, packet, tset, rng):
    """A DensityMatrix target gives the fidelities its matrix gives."""
    sigma = DensityMatrix(random_density_matrix(4, rng), lattice, packet)
    counts = simulate_counts(
        sigma, tset, 1000.0, visibility=0.94, master_seed=6, delays=compact_delays()
    ).counts
    by_state = mle_reconstruct(counts, tset, 0.94, target=sigma)
    by_matrix = mle_reconstruct(counts, tset, 0.94, target=sigma.matrix)
    assert by_state.fidelity_vs_target == by_matrix.fidelity_vs_target
    boot_state = bootstrap_errors(counts, tset, 0.94, sigma, replicas=5, seed=6)
    boot_matrix = bootstrap_errors(counts, tset, 0.94, sigma.matrix, replicas=5, seed=6)
    assert boot_state.estimate.fidelity_vs_target == boot_matrix.estimate.fidelity_vs_target
    np.testing.assert_array_equal(boot_state.fidelities, boot_matrix.fidelities)
    assert boot_state.fidelity_std == boot_matrix.fidelity_std


def test_bootstrap_takes_no_target(lattice, packet, tset):
    """As in mle_reconstruct, the target is optional: without one there are
    no fidelities, and the estimate and rho stds are those of a run with one."""
    target = hilbert.named_state("phi_plus", lattice, packet)
    counts = simulate_counts(
        target, tset, 1000.0, visibility=0.94, master_seed=3, delays=compact_delays()
    ).counts
    bare = bootstrap_errors(counts, tset, 0.94, None, replicas=8, seed=3)
    aimed = bootstrap_errors(counts, tset, 0.94, target, replicas=8, seed=3)
    assert bare.estimate.fidelity_vs_target is None
    assert bare.fidelity_std is None and bare.fidelities.size == 0
    assert bare.replicas_used == aimed.replicas_used == 8
    np.testing.assert_array_equal(bare.estimate.rho_hat, aimed.estimate.rho_hat)
    np.testing.assert_array_equal(bare.rho_real_std, aimed.rho_real_std)
    np.testing.assert_array_equal(bare.rho_imag_std, aimed.rho_imag_std)


def test_bootstrap_requires_replicas(tset, lattice, packet):
    target = hilbert.named_state("p_plus", lattice, packet)
    counts = exact_counts(np.eye(4) / 4, tset)
    with pytest.raises(ValueError):
        bootstrap_errors(counts, tset, 1.0, target, replicas=1)


@pytest.mark.parametrize("replicas", [10.0, np.float64(3.0), "10", True, np.bool_(True), None])
def test_bootstrap_names_a_replicas_that_is_not_an_integer(replicas, tset, lattice, packet):
    target = hilbert.named_state("p_plus", lattice, packet)
    counts = exact_counts(np.eye(4) / 4, tset)
    message = f"replicas must be an integer, got {replicas!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        bootstrap_errors(counts, tset, 1.0, target, replicas=replicas)


def test_bootstrap_accepts_numpy_integer_replicas(tset, lattice, packet):
    target = hilbert.named_state("p_plus", lattice, packet)
    counts = exact_counts(np.eye(4) / 4, tset)
    boot = bootstrap_errors(counts, tset, 1.0, target, replicas=np.int64(3), seed=2)
    same = bootstrap_errors(counts, tset, 1.0, target, replicas=3, seed=2)
    assert boot.replicas_used == 3
    np.testing.assert_array_equal(boot.fidelities, same.fidelities)


# ---------------------------------------------------------------------------
# Forward simulation
# ---------------------------------------------------------------------------


def test_simulated_counts_keep_shared_scans_apart(lattice, packet, product_tset):
    """A member read by two scans gets two rows, one per reading, each with
    its own scan's baseline."""
    enc = hilbert.named_state("phi_plus", lattice, packet)
    bundle = simulate_counts(
        enc,
        product_tset,
        1000.0,
        master_seed=0,
        delays=compact_delays(),
        noiseless=True,
    )
    assert isinstance(bundle, CountsBundle)
    assert bundle.counts.shape == (24, 2)
    labels = product_tset.labels()
    read = [labels[m] for _, _, m in product_tset.readings]
    for label in labels:
        assert read.count(label) == (2 if label[1:] in ("0", "t") else 1)
    np.testing.assert_allclose(bundle.counts[:, 1], 1000.0, rtol=1e-9)


def test_simulated_counts_read_each_default_member_once(lattice, packet, tset):
    enc = hilbert.named_state("rl_bell", lattice, packet)
    bundle = simulate_counts(
        enc, tset, 1000.0, master_seed=0, delays=compact_delays(), noiseless=True
    )
    assert bundle.counts.shape == (20, 2)
    np.testing.assert_allclose(bundle.counts[:, 1], 1000.0, rtol=1e-9)
    assert len(bundle.traces) == 18


@pytest.mark.parametrize("set_fixture", ["tset", "product_tset"])
def test_simulated_counts_follow_the_readings_table(set_fixture, request, lattice, packet):
    """The counts are the readings table applied to the scan traces, one
    (dip, baseline) pair per reading in reading order."""
    tset = request.getfixturevalue(set_fixture)
    enc = hilbert.named_state("phi_plus", lattice, packet)
    bundle = simulate_counts(
        enc, tset, 1000.0, visibility=0.94, master_seed=4, delays=compact_delays()
    )
    traces = bundle.traces
    assert len(traces) == len(tset.scans)
    expected = []
    for j, lag, _ in tset.readings:
        dip = traces[j].counts[np.argmin(np.abs(traces[j].delays - lag * TAU))]
        expected.append((dip, experiment.estimate_baseline(traces[j])))
    np.testing.assert_array_equal(bundle.counts, expected)


@pytest.mark.parametrize("set_maker", [default_tomography_set, tomography.product_tomography_set])
def test_every_reading_reads_its_members_projector(set_maker, lattice):
    """The ancilla of scan j, delayed by lag * tau, is the member the
    readings table names: its shifted vector g gives the member's projector
    g g^dag.  A narrow envelope keeps adjacent-bin tails below 1e-12."""
    tset = set_maker(lattice, Wavepacket(TAU / 16))
    projs, states = projector_stack(tset), tset.states()
    for j, lag, member in tset.readings:
        g = hom.shifted_ancilla_vector(states[tset.scans[j]], lag * TAU, 2)
        np.testing.assert_allclose(projs[member], np.outer(g, g.conj()), atol=1e-12)


SET_MAKERS = {"tset": default_tomography_set, "product_tset": tomography.product_tomography_set}


@pytest.mark.parametrize("set_name, encoded_kind, calibrate, grid", on_each_grid(
    SET_MAKERS, ["pure", "mixed"], [True, False]
))
def test_simulated_counts_equal_per_scan_samples(set_name, encoded_kind, calibrate, grid, lattice):
    """All scans drawn in one block give the traces each scan gives alone,
    on the compact grid and on the CLI's default grid, of which a run
    models and draws only the points it reads."""
    packet, delays = grid_setup(grid)
    tset = SET_MAKERS[set_name](lattice, packet)
    if encoded_kind == "pure":
        enc = hilbert.named_state("phi_plus", lattice, packet)
    else:
        rho = random_density_matrix(4, np.random.default_rng(3))
        enc = DensityMatrix(rho, lattice, packet)
    master = 8
    bundle = simulate_counts(
        enc,
        tset,
        1000.0,
        visibility=0.94,
        master_seed=master,
        delays=delays,
        calibrate=calibrate,
    )

    def alone(ancilla, stream):
        cfg = experiment.ScanConfig(
            delays=delays,
            baseline_counts=1000.0,
            seed=experiment.derive_seeds(master, [stream])[0],
            visibility=0.94,
        )
        return experiment.sample_scan(enc, ancilla, cfg)

    states = tset.states()
    assert len(bundle.traces) == len(tset.scans)
    for j, ancilla in enumerate(tset.scans):
        trace = alone(states[ancilla], j + 1)
        assert trace.seed == bundle.traces[j].seed
        assert np.array_equal(trace.counts, bundle.traces[j].counts)
        assert np.array_equal(trace.expected, bundle.traces[j].expected)
    if calibrate and encoded_kind == "pure":
        assert bundle.visibility_hat == experiment.estimate_visibility(alone(enc, 0))
    else:
        assert bundle.visibility_hat == 0.94


def test_simulated_counts_build_no_per_scan_objects(monkeypatch, lattice, packet, tset):
    """simulate_counts derives its seeds and reads its scans as arrays, so
    it builds no ScanTrace and no SeedSequence; bundle.traces builds the
    traces on first access, each equal to sample_scan's."""

    def refuse(*args, **kwargs):
        raise AssertionError("simulate_counts built a per-scan object")

    enc = hilbert.named_state("phi_plus", lattice, packet)
    with monkeypatch.context() as patch:
        patch.setattr(experiment, "ScanTrace", refuse)
        patch.setattr(np.random, "SeedSequence", refuse)
        bundle = simulate_counts(
            enc, tset, 1000.0, visibility=0.94, master_seed=6, delays=compact_delays()
        )
    states = tset.states()
    assert len(bundle.traces) == len(tset.scans) and bundle.traces is bundle.traces
    for j, ancilla in enumerate(tset.scans):
        seed = experiment.derive_seeds(6, [j + 1])[0]
        cfg = experiment.ScanConfig(compact_delays(), 1000.0, seed, 0.94)
        alone = experiment.sample_scan(enc, states[ancilla], cfg)
        for field in dataclasses.fields(alone):
            got, want = getattr(bundle.traces[j], field.name), getattr(alone, field.name)
            assert type(got) is type(want) and np.array_equal(got, want)


@pytest.mark.parametrize("set_name, grid, read", [
    ("product_tset", "compact", 43),
    ("product_tset", "3nm", 171),
    ("product_tset", "1nm", 49),
    ("tset", "compact", 42),
])
def test_simulated_counts_model_and_draw_only_read_points(
    monkeypatch, lattice, set_name, grid, read
):
    """A run hands hom.scan_traces and _draw_counts only the points it
    reads.  The product set reads the dips at 0 and +-tau: 171 and 49 of
    the default grid's 321 points, all 43 of the compact grid's; the
    unbiased set reads no dip at -tau, so 42 of the compact grid's.
    bundle.traces then model and draw the whole grid from the same per-point
    keys, and equal sample_scan's field by field."""
    packet, delays = grid_setup(grid)
    tset = SET_MAKERS[set_name](lattice, packet)
    enc = hilbert.named_state("phi_plus", lattice, packet)
    tomography._scan_models.clear()
    modelled, drawn = [], []
    scan_traces, draw_counts = hom.scan_traces, experiment._draw_counts

    def model(encoded, ancillas, grid_delays, vis=1.0):
        modelled.append(len(grid_delays))
        return scan_traces(encoded, ancillas, grid_delays, vis)

    def draw(plan, seeds):
        drawn.append(plan.means.shape[1])
        return draw_counts(plan, seeds)

    with monkeypatch.context() as patch:
        patch.setattr(hom, "scan_traces", model)
        patch.setattr(experiment, "_draw_counts", draw)
        bundle = simulate_counts(
            enc, tset, 1000.0, visibility=0.94, master_seed=6, delays=delays
        )
        assert modelled == drawn == [read]
        traces = bundle.traces
    assert modelled == drawn == [read, delays.size]
    assert len(traces) == len(tset.scans)
    for j, ancilla in enumerate(tset.scans):
        cfg = experiment.ScanConfig(delays, 1000.0, experiment.derive_seeds(6, [j + 1])[0], 0.94)
        alone = experiment.sample_scan(enc, tset.states()[ancilla], cfg)
        for field in dataclasses.fields(alone):
            got, want = getattr(traces[j], field.name), getattr(alone, field.name)
            assert type(got) is type(want) and np.array_equal(got, want)


def memo_cases(lattice):
    """simulate_counts calls that interleave three targets and a mixed state
    on both sets, both grids, with and without calibration and noise, as
    (encoded, tset, delays, keyword arguments), in call order."""
    cases = []
    for grid in ("compact", "3nm"):
        packet, delays = grid_setup(grid)
        states = [hilbert.named_state(n, lattice, packet) for n in ("phi_plus", "p_plus", "rl_bell")]
        rho = random_density_matrix(4, np.random.default_rng(5))
        states.append(DensityMatrix(rho, lattice, packet))
        sets = (default_tomography_set(lattice, packet), tomography.product_tomography_set(lattice, packet))
        for tset in sets:
            for calibrate in (True, False):
                for master, noiseless in ((0, False), (1, True), (2, False)):
                    for enc in states:
                        kwargs = dict(master_seed=master, noiseless=noiseless, calibrate=calibrate)
                        cases.append((enc, tset, delays, kwargs))
    return cases


def test_scan_model_memo_changes_no_bit(lattice):
    """Interleaved runs that reuse memoized scan models give the counts,
    visibility_hat and traces of the same runs each made with the memo
    emptied."""
    tomography._scan_models.clear()
    cases = memo_cases(lattice)
    built = []
    with pytest.MonkeyPatch.context() as patch:
        scan_traces = hom.scan_traces
        patch.setattr(hom, "scan_traces", lambda *a: built.append(1) or scan_traces(*a))
        warm = [simulate_counts(enc, tset, 1000.0, 0.94, delays=d, **kw) for enc, tset, d, kw in cases]
    # Each (target, set, grid, calibration) is modelled once, not once per
    # seed; a mixed state has no calibration scan, so 7 models per set and grid.
    assert len(built) == 4 * 7
    for (enc, tset, delays, kwargs), got in zip(cases, warm):
        tomography._scan_models.clear()
        want = simulate_counts(enc, tset, 1000.0, 0.94, delays=delays, **kwargs)
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.visibility_hat == want.visibility_hat
        for a, b in zip(got.traces, want.traces, strict=True):
            assert a.counts.tobytes() == b.counts.tobytes()
            assert a.expected.tobytes() == b.expected.tobytes()


def test_scan_model_memo_builds_only_on_new_inputs(monkeypatch, lattice, packet, tset):
    """A repeated call, with another seed, noise setting or an equal copy of
    the state, builds no model; a changed state, grid, visibility, baseline
    or calibration builds one."""
    built = []
    scan_traces = hom.scan_traces

    def model(*args):
        built.append(1)
        return scan_traces(*args)

    monkeypatch.setattr(hom, "scan_traces", model)
    tomography._scan_models.clear()
    delays = compact_delays()

    def run(name="phi_plus", baseline=1000.0, visibility=0.94, grid=delays, **kwargs):
        enc = hilbert.named_state(name, lattice, packet)
        before = len(built)
        simulate_counts(enc, tset, baseline, visibility, delays=grid, **kwargs)
        return len(built) - before

    assert run() == 1
    assert run(master_seed=9) == run(noiseless=True) == run(grid=delays.copy()) == 0
    assert run("p_plus") == 1
    assert run(grid=experiment.compact_delay_grid(TAU, SIGMA, baseline_points=42)) == 1
    assert run(visibility=0.9) == 1
    assert run(baseline=999.0) == 1
    assert run(calibrate=False) == 1
    assert run() == 0


def test_scan_model_memo_is_bounded_and_read_only(lattice, packet, tset):
    """The memo keeps the 8 models used last, and their arrays, those of
    their draw plans among them, refuse writes."""
    tomography._scan_models.clear()
    enc = hilbert.named_state("phi_plus", lattice, packet)
    delays = compact_delays()

    def run(k):
        simulate_counts(enc, tset, 1000.0, 0.5 + k / 100, delays=delays)
        return sorted(round(100 * key[-2] - 50) for key in tomography._scan_models)

    for k in range(8):
        assert run(k) == list(range(k + 1))
    run(0)  # used again, so the next new model evicts model 1 instead
    assert run(8) == [0, *range(2, 9)]
    for k in range(9, 12):
        assert len(run(k)) == 8
    for held, plan, *masks in tomography._scan_models.values():
        assert held is tset
        for arr in (*plan, *masks):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = arr


@pytest.mark.parametrize("bad", [
    {"delays": "reversed"},
    {"baseline_counts": 0.0},
    {"baseline_counts": np.nan},
    {"visibility": 1.5},
    {"master_seed": -1},
    {"master_seed": 2.5},
    {"master_seed": 2**64},
])
def test_scan_model_memo_checks_inputs_before_it_is_read(lattice, packet, tset, bad):
    """A bad grid, baseline, visibility or seed right after a good call with
    otherwise equal inputs raises the ValueError it raises on an empty memo,
    and stores nothing."""
    delays = compact_delays()
    good = dict(baseline_counts=1000.0, visibility=0.94, master_seed=3, delays=delays)
    args = dict(good, **bad)
    if bad.get("delays") == "reversed":
        args["delays"] = delays[::-1]
    enc = hilbert.named_state("phi_plus", lattice, packet)
    tomography._scan_models.clear()
    with pytest.raises(ValueError) as cold:
        simulate_counts(enc, tset, **args)
    assert not tomography._scan_models
    simulate_counts(enc, tset, **good)
    with pytest.raises(ValueError) as warm:
        simulate_counts(enc, tset, **args)
    assert str(warm.value) == str(cold.value)
    assert len(tomography._scan_models) == 1


def test_simulated_counts_refuse_an_infinite_baseline(lattice, packet, tset):
    """A noiseless run at an infinite baseline read inf / inf: a
    RuntimeWarning, and a NaN visibility_hat where warnings pass."""
    enc = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError, match="^baseline_counts must be positive and finite$"):
        simulate_counts(enc, tset, np.inf, delays=compact_delays(), noiseless=True)


@pytest.mark.parametrize("value", [True, np.True_, "0.9", None, np.array(0.9)])
def test_fits_refuse_a_boolean_or_non_number_visibility(lattice, packet, tset, value):
    """np.True_ failed inside the fit on numpy's boolean negative, "0.9" in a
    bare comparison, and True was fitted as V = 1; the fits, the bootstrap
    and the scans now refuse each with a ValueError naming visibility."""
    enc = hilbert.named_state("phi_plus", lattice, packet)
    counts = simulate_counts(enc, tset, 1000.0, 0.9, delays=compact_delays()).counts
    calls = [
        lambda: mle_reconstruct(counts, tset, value),
        lambda: bootstrap_errors(counts, tset, value, enc, replicas=2),
        lambda: simulate_counts(enc, tset, 1000.0, visibility=value, delays=compact_delays()),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^visibility must be a real number, got "):
            call()


VISIBILITY_ENTRIES = [
    "ScanConfig", "simulate_counts", "mle_reconstruct", "bootstrap_errors",
    "scan_traces", "scan_trace", "coincidence_ratio", "fock_oracle_ratio",
]


@pytest.mark.parametrize("value", [True, np.True_, "0.5", None])
@pytest.mark.parametrize("entry", VISIBILITY_ENTRIES)
def test_every_visibility_entry_refuses_a_boolean_or_non_number(lattice, packet, tset, entry, value):
    """Every public entry that takes a visibility refuses one that is not a
    real number through the library's one check: the interference model
    took True as V = 1 and "0.5" as 0.5, and failed on None with a bare
    TypeError."""
    enc = hilbert.named_state("phi_plus", lattice, packet)
    v = hilbert.logical_vector(enc)
    counts = exact_counts(np.outer(v, v.conj()), tset)
    delays = compact_delays()
    calls = {
        "ScanConfig": lambda: experiment.ScanConfig(delays, 1000.0, 0, value),
        "simulate_counts": lambda: simulate_counts(enc, tset, 1000.0, value, delays=delays),
        "mle_reconstruct": lambda: mle_reconstruct(counts, tset, value),
        "bootstrap_errors": lambda: bootstrap_errors(counts, tset, value, enc, replicas=2),
        "scan_traces": lambda: hom.scan_traces(enc, [enc], delays, value),
        "scan_trace": lambda: hom.scan_trace(enc, enc, delays, value),
        "coincidence_ratio": lambda: hom.coincidence_ratio(enc, enc, 0.0, value),
        "fock_oracle_ratio": lambda: hom.fock_oracle_ratio(enc, enc, 0.0, value),
    }
    with pytest.raises(ValueError, match="^visibility must be a real number, got "):
        calls[entry]()


@pytest.mark.parametrize("value", [True, np.True_, "1000"])
def test_simulated_counts_refuse_a_boolean_or_non_number_baseline(lattice, packet, tset, value):
    enc = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError, match="^baseline_counts must be a real number, got "):
        simulate_counts(enc, tset, value, delays=compact_delays())


@pytest.mark.parametrize("visibility", [np.float64(0.9), np.int64(1)])
def test_fits_take_numpy_visibilities(lattice, packet, tset, visibility):
    enc = hilbert.named_state("phi_plus", lattice, packet)
    counts = simulate_counts(enc, tset, 1000.0, 0.9, delays=compact_delays()).counts
    expected = mle_reconstruct(counts, tset, float(visibility)).rho_hat
    assert np.array_equal(mle_reconstruct(counts, tset, visibility).rho_hat, expected)


def test_scan_model_memo_stores_nothing_when_a_model_fails(lattice, packet, tset):
    """A grid ScanConfig accepts but the model refuses raises on every call
    and leaves the memo as it was."""
    enc = hilbert.named_state("phi_plus", lattice, packet)
    tomography._scan_models.clear()
    short = np.linspace(-TAU, TAU, 9)
    for _ in range(2):
        with pytest.raises(ValueError, match="reach past"):
            simulate_counts(enc, tset, 1000.0, delays=short)
        assert not tomography._scan_models


def test_scan_model_memo_is_shared_by_threads(lattice, packet, tset):
    """Threads that sweep seeds of three targets on one set at once, on a
    memo smaller than their inputs, get the counts a serial sweep gets."""
    delays = compact_delays()
    targets = [hilbert.named_state(n, lattice, packet) for n in ("phi_plus", "p_plus", "rl_bell")]
    jobs = [(enc, v, seed) for enc in targets for v in (0.9, 0.94, 0.97) for seed in range(4)]

    def counts(job):
        enc, visibility, seed = job
        bundle = simulate_counts(enc, tset, 1000.0, visibility, seed, delays=delays)
        return bundle.counts.tobytes(), bundle.visibility_hat

    tomography._scan_models.clear()
    want = [counts(job) for job in jobs]
    tomography._scan_models.clear()
    got = [None] * len(jobs)
    start = threading.Barrier(4)

    def work(shift):
        start.wait(timeout=60)
        for i in range(shift, shift + len(jobs)):
            got[i % len(jobs)] = counts(jobs[i % len(jobs)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
    assert len(tomography._scan_models) <= 8


@pytest.mark.parametrize("visibility", [1.0, 0.94])
def test_noiseless_dip_depths_match_projector_expectations(visibility, lattice):
    # Narrow envelope: at sigma = tau/10 adjacent-bin tails shift the dip
    # depths by a few 1e-6, which would swamp the 1e-9 identity below.
    packet = Wavepacket(TAU / 16)
    tset = default_tomography_set(lattice, packet)
    enc = hilbert.named_state("rl_bell", lattice, packet)
    vec = hilbert.logical_vector(enc)
    expect = np.real(
        np.einsum("iab,ba->i", projector_stack(tset), np.outer(vec, vec.conj()))
    )
    bundle = simulate_counts(
        enc,
        tset,
        1000.0,
        visibility=visibility,
        master_seed=0,
        delays=compact_delays(),
        noiseless=True,
    )
    np.testing.assert_allclose(dip_depths(bundle.counts), visibility * expect, atol=1e-9)
    assert bundle.visibility_hat == pytest.approx(visibility, abs=1e-9)


def test_calibration_passthrough_for_mixed_states(lattice, packet, tset):
    mixed = DensityMatrix(np.eye(4) / 4, lattice, packet)
    bundle = simulate_counts(
        mixed, tset, 500.0, visibility=0.9, master_seed=1, delays=compact_delays()
    )
    assert bundle.visibility_hat == 0.9  # no self-scan possible, config value kept


def test_end_to_end_noisy_reconstruction_regime(lattice, packet, tset):
    enc = hilbert.named_state("phi_plus", lattice, packet)
    bundle = simulate_counts(
        enc,
        tset,
        1000.0,
        visibility=0.94,
        master_seed=0,
        delays=compact_delays(),
    )
    result = mle_reconstruct(
        bundle.counts, tset, visibility=bundle.visibility_hat, target=enc, seed=0
    )
    assert result.fidelity_vs_target > 0.85
    assert result.iterations > 0



@pytest.mark.parametrize("name, visibility, seed, noiseless", [
    ("phi_plus", 0.94, 3, False),
    ("rl_bell", 1.0, 0, True),
])
def test_run_is_the_explicit_sequence_bit_for_bit(
    lattice, packet, name, visibility, seed, noiseless
):
    """tomography.run is default_tomography_set, the self-calibrated
    simulate_counts and bootstrap_errors at visibility_hat, bit for bit."""
    enc = hilbert.named_state(name, lattice, packet)
    delays = compact_delays()
    tset, bundle, boot = tomography.run(enc, delays, 1000.0, visibility, seed, 5, noiseless)
    want_tset = default_tomography_set(lattice, packet)
    want = simulate_counts(
        enc, want_tset, 1000.0, visibility, seed, delays=delays, noiseless=noiseless
    )
    want_boot = bootstrap_errors(want.counts, want_tset, want.visibility_hat, enc, 5, seed)
    assert tset is want_tset
    assert bundle.counts.tobytes() == want.counts.tobytes()
    assert bundle.visibility_hat == want.visibility_hat
    assert boot.estimate.rho_hat.tobytes() == want_boot.estimate.rho_hat.tobytes()
    assert boot.fidelity_std == want_boot.fidelity_std


def test_run_refuses_a_calibration_scan_with_no_dip(lattice, packet):
    enc = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError, match=r"^visibility_hat: .* shows no dip"):
        tomography.run(enc, compact_delays(), 1000.0, 0.0, 0, 5, noiseless=True)
