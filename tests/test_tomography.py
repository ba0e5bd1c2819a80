"""Reconstruction pipeline: projector set, linear inversion, likelihood fit,
fidelity, bootstrap, and the forward count simulator."""

import dataclasses

import numpy as np
import pytest

from poltime import experiment, hilbert, hom, optics, tomography
from poltime.hilbert import DensityMatrix, TimeBinLattice, Wavepacket
from poltime.tomography import (
    CountsBundle,
    ReconstructionError,
    bootstrap_errors,
    default_tomography_set,
    design_matrix,
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


def dip_depths(counts):
    """Clamped dip depths 1 - n_i / N_i of pooled (n_i, N_i) counts."""
    return np.clip(1.0 - counts[:, 0] / counts[:, 1], 0.0, 1.0)


def exact_counts(rho_logical, tset, baseline=1000.0, visibility=1.0):
    """Noise-free (n_i, N_i) pairs straight from the forward model."""
    projs = projector_stack(tset)
    expect = np.real(np.einsum("iab,ba->i", projs, rho_logical))
    q = 1.0 - visibility * expect
    return np.stack([baseline * q, np.full(len(tset.members), baseline)], axis=1)


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
    sv = np.linalg.svd(design_matrix(product_tset), compute_uv=False)
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
    sv = np.linalg.svd(design_matrix(tset), compute_uv=False)
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


@pytest.mark.parametrize("set_maker", [default_tomography_set, tomography.product_tomography_set])
def test_projector_stack_is_built_once_per_set(set_maker, lattice, packet, monkeypatch):
    """The stack is built from the members' logical vectors on first use,
    equals a fresh outer-product build, refuses writes, and is what linear
    inversion, the design matrix, the fit and the bootstrap read: none of
    them builds another."""
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
    design_matrix(tset)
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
    p = np.full(16, 0.25)
    rho, negative = linear_inversion(p, product_tset)
    assert not negative
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_linear_inversion_least_squares_of_maximally_mixed(tset):
    rho, negative = linear_inversion(np.full(20, 0.25), tset)
    assert not negative
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_linear_inversion_rejects_sets_that_do_not_span(tset):
    short = dataclasses.replace(tset, members=tset.members[:15])
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
    with pytest.raises(ValueError, match=r"\(6, 6\).*\(4, 4\)"):
        fidelity(rho, DensityMatrix(np.eye(6) / 6, wide, packet))


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
    with pytest.raises(ReconstructionError) as err:
        mle_reconstruct(bundle.counts, tset, visibility=0.94)
    assert np.isfinite(err.value.best_nll)
    with pytest.raises(ReconstructionError, match="bootstrap replicas failed"):
        bootstrap_errors(bundle.counts, tset, 0.94, target, replicas=10)


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


def test_bootstrap_requires_replicas(tset, lattice, packet):
    target = hilbert.named_state("p_plus", lattice, packet)
    counts = exact_counts(np.eye(4) / 4, tset)
    with pytest.raises(ValueError):
        bootstrap_errors(counts, tset, 1.0, target, replicas=1)


# ---------------------------------------------------------------------------
# Forward simulation
# ---------------------------------------------------------------------------


def test_simulated_counts_pool_shared_scans(lattice, packet, product_tset):
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
    assert bundle.counts.shape == (16, 2)
    for label, (_, big_n) in zip(product_tset.labels(), bundle.counts):
        expected_scans = 2 if label[1:] in ("0", "t") else 1
        assert big_n == pytest.approx(expected_scans * 1000.0, rel=1e-9)


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
    """Pooled counts are the readings table applied to the scan traces."""
    tset = request.getfixturevalue(set_fixture)
    enc = hilbert.named_state("phi_plus", lattice, packet)
    bundle = simulate_counts(
        enc, tset, 1000.0, visibility=0.94, master_seed=4, delays=compact_delays()
    )
    traces = bundle.traces
    assert len(traces) == len(tset.scans)
    expected = np.zeros((len(tset.members), 2))
    for j, lag, member in tset.readings:
        dip = traces[j].counts[np.argmin(np.abs(traces[j].delays - lag * TAU))]
        expected[member] += (dip, experiment.estimate_baseline(traces[j]))
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


@pytest.mark.parametrize("calibrate", [True, False])
@pytest.mark.parametrize("encoded_kind", ["pure", "mixed"])
@pytest.mark.parametrize("set_fixture", ["tset", "product_tset"])
def test_simulated_counts_equal_per_scan_samples(
    set_fixture, encoded_kind, calibrate, request, lattice, packet
):
    """All scans drawn in one block give the traces each scan gives alone."""
    tset = request.getfixturevalue(set_fixture)
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
        delays=compact_delays(),
        calibrate=calibrate,
    )

    def alone(ancilla, stream):
        cfg = experiment.ScanConfig(
            delays=compact_delays(),
            baseline_counts=1000.0,
            seed=experiment.derive_seed(master, stream),
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

