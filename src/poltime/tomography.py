"""Reconstruction of the logical two-qubit state from dip-scan projections.

Each member of a tomography set is a rank-1 projector |psi_i><psi_i| whose
dip depth estimates p_i = <psi_i| rho |psi_i>.  A scan prepares one member
as the ancilla.  The set's readings table says which dip reads which
projector: one (scan, lag, member) triple per dip at the lags of
`experiment.reading_lags`, so every scan reads its own ancilla at lag 0 and
a single-bin ancilla's scan also the bin-shifted projector at lag +-1.

The default set is the complete set of mutually unbiased two-qubit bases
(Wootters and Fields, Ann. Phys. 191, 363, 1989; Adamson and Steinberg,
PRL 105, 030406, 2010): 20 projectors read in 18 scans.  The paper's
{h, v, p, r} x {0, tau, +, x} product set stays available as
`product_tomography_set`.  Both are informationally complete, but the
product set weights operator-space directions unevenly (design singular
values 0.22 to 2.28), and at an equal count budget its bootstrap fidelity
spread on `phi_plus` is nearly twice that of the unbiased set.

Reconstruction is by maximum likelihood: the Poisson likelihood of the raw
counts is convex in rho, and one accelerated projected-gradient solver over
the unit-trace PSD matrices (Shang, Zhang and Ng, PRA 95, 062336, 2017)
fits a single count set or a whole stack of count sets to a stated
duality-gap tolerance.  Its step starts at the inverse of the deviance's
exact largest curvature along traceless directions, and its momentum
restarts on the gradient test of O'Donoghue and Candes (Found. Comput.
Math. 15, 715, 2015), so an iteration needs gradients but no deviance.
`bootstrap_errors` fits the observed counts as row 0 of its stack of
bootstrap replicas and returns that row as the point estimate, so a run
with error bars is one solve; `mle_reconstruct` fits one count set alone.
Linear inversion is kept as the unconstrained baseline and as the starting
point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import experiment, hilbert
from .hilbert import DensityMatrix, PhotonState, TimeBinLattice, Wavepacket

POLARIZATION_SET = ("h", "v", "p", "r")
BIN_SET = ("0", "t", "+", "x")

_DIM = 4
_Q_FLOOR = 1e-12
_GAP_TOL = 1e-9  # Frank-Wolfe duality gap of a fit, in deviance units
_MAX_ITER = 5000
_STEP_GROWTH = 1.25


class ReconstructionError(RuntimeError):
    """A likelihood fit missed its optimality tolerance within the iteration
    cap; `best_nll` is the negative log likelihood it reached."""

    def __init__(self, message: str, best_nll: float = np.nan):
        super().__init__(message)
        self.best_nll = best_nll


@dataclass(frozen=True)
class TomographySet:
    """Projectors, scans and the readings table that links them.

    `members` are the (label, state) pairs in fit order.  Scan j prepares
    member `scans[j]` as its ancilla.  `readings` has one (scan, lag,
    member) triple per dip read, in scan order: the count of that scan at
    delay lag * tau, with the scan's baseline, estimates that member's
    projector.  A member read by several scans pools their counts.
    """

    members: tuple[tuple[str, PhotonState], ...]
    scans: tuple[int, ...]
    readings: tuple[tuple[int, int, int], ...]

    def states(self) -> list[PhotonState]:
        return [state for _, state in self.members]

    def labels(self) -> list[str]:
        return [label for label, _ in self.members]

    @cached_property
    def projectors(self) -> np.ndarray:
        """The members' projectors, read-only and built on first use."""
        out = np.array([np.outer(v, v.conj()) for v in map(hilbert.logical_vector, self.states())])
        out.flags.writeable = False
        return out


def product_tomography_set(lattice: TimeBinLattice, packet: Wavepacket) -> TomographySet:
    """The paper's 16-state product set with its readings table.

    Members are {h, v, p, r} x {0, t, +, x}.  Member i is the ancilla of
    scan i.  The bin-0 and tau scans also read each other's member, at lag
    +1 and -1, so those projectors are sampled twice.  Compile preparations
    with `optics.compile_preparation(state)`.
    """
    members = tuple(
        (pol + b, hilbert.product_state(pol, b, lattice, packet))
        for pol in POLARIZATION_SET for b in BIN_SET
    )
    scans = tuple(range(len(members)))
    return TomographySet(members, scans, _readings(members, scans))


def _readings(members, scans) -> tuple[tuple[int, int, int], ...]:
    """The triples (j, lag, scans[j] + lag) for each lag `reading_lags`
    gives scan j.  Member order must put each bin-0 member directly before
    its bin-1 (tau) partner, so a shift by +-1 lands on the partner."""
    lags = [experiment.reading_lags(experiment.occupied_bins(members[m][1])) for m in scans]
    return tuple((j, lag, m + lag) for j, m in enumerate(scans) for lag in lags[j])


def default_tomography_set(
    lattice: TimeBinLattice,
    packet: Wavepacket,
    with_plans: bool = True,
) -> TomographySet:
    """The complete set of mutually unbiased two-qubit bases, 20 members.

    Wootters and Fields (1989): the common eigenbases of the Pauli triples
    {ZI, IZ, ZZ}, {XI, IX, XX}, {YI, IY, YY}, {XZ, ZY, YX} and {YZ, ZX, XY},
    with polarization as the first qubit and the bin as the second.  That is
    the computational basis h0, ht, v0, vt; the product bases {p, m} x {+, -}
    and {r, l} x {x, d}; and two bases of maximally entangled states
    (a0 + s i bt) / sqrt(2) with {a, b} = {p, m} or {r, l} and s = +-1,
    labelled like "p0+imt".  Every member is exactly encodable.

    The readings table has 18 scans.  Scan 0 prepares h0 and reads h0 at lag
    0 and ht at lag +1; scan 1 reads v0 and vt the same way.  Every other
    member has its own scan, read at lag 0.  The projectors form a tight
    frame: every traceless direction of the operator space is weighted
    alike.  `with_plans` is accepted for compatibility and has no effect.
    """
    members = []
    for pols, bins in (("hv", "0t"), ("pm", "+-"), ("rl", "xd")):
        for pol in pols:
            for b in bins:
                members.append((pol + b, hilbert.product_state(pol, b, lattice, packet)))
    for pair in ("pm", "rl"):
        for a, b in (pair, pair[::-1]):
            for sign in (1, -1):
                c0 = hilbert.POLARIZATION_VECTORS[a]
                c1 = sign * 1j * hilbert.POLARIZATION_VECTORS[b]
                vec = np.stack([c0, c1], axis=1).reshape(-1) / np.sqrt(2.0)
                label = f"{a}0{'+' if sign > 0 else '-'}i{b}t"
                members.append((label, hilbert.from_logical(vec, lattice, packet)))
    scans = (0, 2, *range(4, len(members)))
    return TomographySet(tuple(members), scans, _readings(members, scans))


# ---------------------------------------------------------------------------
# Linear algebra helpers
# ---------------------------------------------------------------------------


def _hermitian_basis() -> np.ndarray:
    """Orthonormal Hermitian basis of the 4x4 operator space, (16, 4, 4)."""
    basis = []
    for a in range(_DIM):
        b = np.zeros((_DIM, _DIM), dtype=complex)
        b[a, a] = 1.0
        basis.append(b)
    for a in range(_DIM):
        for b_i in range(a + 1, _DIM):
            m = np.zeros((_DIM, _DIM), dtype=complex)
            m[a, b_i] = m[b_i, a] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((_DIM, _DIM), dtype=complex)
            m[a, b_i] = 1j / np.sqrt(2.0)
            m[b_i, a] = -1j / np.sqrt(2.0)
            basis.append(m)
    return np.array(basis)


_HERM_BASIS = _hermitian_basis()
# Projector onto the traceless coordinates.  The identity's coordinates
# are tr(basis), of Frobenius norm 2, so _IDENTITY is the unit vector.
_IDENTITY = np.real(np.trace(_HERM_BASIS, axis1=1, axis2=2)) / 2.0
_TRACELESS = np.eye(_DIM * _DIM) - np.outer(_IDENTITY, _IDENTITY)


def projector_stack(tset: TomographySet) -> np.ndarray:
    """Rank-1 member projectors on the logical subspace, (members, 4, 4), built once per set."""
    return tset.projectors


def design_matrix(tset: TomographySet) -> np.ndarray:
    """Real matrix mapping Hermitian-basis coordinates to projector
    expectations.  Its smallest singular value measures informational
    completeness of the set."""
    return _design(projector_stack(tset))


def _design(projs: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("iab,mba->im", projs, _HERM_BASIS))


def linear_inversion(p_values, tset: TomographySet) -> tuple[np.ndarray, bool]:
    """Hermitian matrix reproducing the projector expectations.

    Solved by least squares, which is exact for sixteen spanning
    projectors.  Returns (rho, has_negative_eigenvalue).  Noise can push
    eigenvalues negative; nothing is clipped here.
    """
    p = np.asarray(p_values, dtype=float)
    if p.shape != (len(tset.members),):
        raise ValueError(f"expected {len(tset.members)} projection values")
    if not np.all(np.isfinite(p)):
        raise ValueError("projection values must be finite")
    rho = _inversion(p[None], projector_stack(tset))[0]
    negative = bool(np.linalg.eigvalsh(rho).min() < -hilbert.EIGENVALUE_TOL)
    return rho, negative


def _inversion(p: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """Least-squares Hermitian matrices for (B, members) values of `projs`."""
    return _least_squares(p, _design(projs))


def _least_squares(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    x, _, rank, _ = np.linalg.lstsq(a, p.T, rcond=None)
    if rank < a.shape[1]:
        raise ValueError("tomography set does not span the operator space")
    rho = np.einsum("mb,mij->bij", x, _HERM_BASIS)
    return 0.5 * (rho + rho.conj().transpose(0, 2, 1))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def _coerce_matrix(state) -> np.ndarray:
    return state.matrix if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)


def fidelity(rho, target) -> float:
    """State fidelity of a reconstruction against a pure or mixed target.

    Pure target (a PhotonState or a vector): <psi|rho|psi>.  Mixed target
    (a DensityMatrix or a matrix of rho's shape): (tr sqrt(sqrt(rho) sigma
    sqrt(rho)))^2, symmetric in its arguments.
    """
    rho_m = _coerce_matrix(rho)
    if isinstance(target, PhotonState):
        target = hilbert.logical_vector(target)
    sigma = _coerce_matrix(target)
    if sigma.ndim == 1:
        n2 = float(np.vdot(sigma, sigma).real)
        return float(np.real(np.vdot(sigma, rho_m @ sigma)) / n2)
    if sigma.shape != rho_m.shape:
        raise ValueError(
            f"target of shape {sigma.shape} does not match the estimate's {rho_m.shape}"
        )
    sr = _psd_sqrt(rho_m)
    evals = np.linalg.eigvalsh(sr @ sigma @ sr)
    return float(np.sum(np.sqrt(np.clip(evals, 0.0, None))) ** 2)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Trace-one PSD matrix drawn from the Ginibre ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------


def _project(mats: np.ndarray) -> np.ndarray:
    """Nearest unit-trace PSD matrices in Frobenius norm, for a (B, d, d) stack.

    The eigenvalues are projected onto the probability simplex and the
    eigenvectors kept.
    """
    evals, evecs = np.linalg.eigh(mats)
    desc = evals[:, ::-1]
    shifts = (desc.cumsum(axis=1) - 1.0) / np.arange(1, evals.shape[1] + 1)
    rank = (desc > shifts).sum(axis=1)
    weights = np.maximum(evals - shifts[np.arange(len(rank)), rank - 1, None], 0.0)
    return (evecs * weights[:, None, :]) @ evecs.conj().transpose(0, 2, 1)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real Frobenius inner products Re tr(a^dag b) of two stacks: the sum
    of Re a Re b + Im a Im b, taken over real views."""
    return np.einsum("bij,bij->b", a.view(float), b.view(float))


def _fit(
    n: np.ndarray, baseline: np.ndarray, projs: np.ndarray, visibility: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-likelihood states for a stack of count sets, n and baseline (B, M),
    of the (M, 4, 4) projector stack `projs`.

    Minimizes each row's Poisson deviance sum[mu - n - n log(mu / n)], with
    mu = N max(1 - V tr(P rho), _Q_FLOOR), over unit-trace PSD matrices by
    accelerated projected gradient from the projected linear inversion.
    Every row keeps its own step and momentum.  The step starts at the
    inverse of the deviance's largest curvature along traceless directions
    there, is halved when a step fails the curvature test and grows by
    _STEP_GROWTH after each accepted one.  The Nesterov momentum restarts
    whenever the gradient at the extrapolated point has a positive component
    along the step just taken (O'Donoghue and Candes, Found. Comput. Math.
    15, 715, 2015), so the loop never evaluates the deviance.  A row stops
    once its Frank-Wolfe gap Re tr(G rho) - lambda_min(G), G the gradient,
    is at most _GAP_TOL; the gap bounds the distance to the optimal deviance.
    A pass over R running rows costs one (R, 4, 4) eigh, one eigvalsh, one
    (2, R, 32) read and one span product for the gradients at x_new and
    y_new, four inner products, and merges rows only if it rejects a step.

    Returns (rho (B, 4, 4), deviance, gap, iterations), each per row;
    iterations counts the steps tried, rejected ones included.
    """
    # On the float view (B, 32) of a (B, 4, 4) stack, V tr(P rho) is one
    # real matmul with `read`, and the gradient's sum over P one with `span`.
    flat = projs.view(float).reshape(len(projs), -1)
    read = np.ascontiguousarray(visibility * flat.T)
    span = -visibility * flat

    def dip_ratio(rho):
        return np.maximum(1.0 - rho.reshape(*rho.shape[:-2], -1).view(float) @ read, _Q_FLOOR)

    def gradient(rho, n, big_n):
        slope = big_n - n / dip_ratio(rho)
        return (slope @ span).view(complex).reshape(rho.shape)

    def gap(rho, grad):
        return _inner(grad, rho) - np.linalg.eigvalsh(grad)[:, 0]

    p_hat = np.clip((1.0 - n / baseline) / visibility, 0.0, 1.0)
    a = _design(projs)
    x = _project(_least_squares(p_hat, a))
    # Curvature V^2 A^T diag(n / q^2) A of the deviance in Hermitian-basis
    # coordinates, A the design matrix with the identity coordinate
    # projected out: steps keep the trace.
    a = a @ _TRACELESS
    q = dip_ratio(x)
    curvature = visibility**2 * (a.T * (n / q**2)[:, None, :]) @ a
    step = 1.0 / np.maximum(np.linalg.eigvalsh(curvature)[:, -1], 1.0)
    g_y = gradient(x, n, baseline)
    gaps = gap(x, g_y)
    y, momentum = x, np.ones(len(n))
    rows, n_run, big_n = np.arange(len(n)), n, baseline
    rho, gap_out, iterations = np.empty_like(x), np.empty(len(n)), np.zeros(len(n), dtype=int)
    # Every running row tries one step per pass, so a row that stops at
    # pass k took k steps.  The running rows stay compacted.
    for k in range(_MAX_ITER + 1):
        done = (gaps <= _GAP_TOL) | (k == _MAX_ITER)
        if done.any():
            out = rows[done]
            rho[out], gap_out[out], iterations[out] = x[done], gaps[done], k
            rows, x, y, g_y, gaps, step, momentum, n_run, big_n = (
                arr[~done] for arr in (rows, x, y, g_y, gaps, step, momentum, n_run, big_n)
            )
            if rows.size == 0:
                break
        x_new = _project(y - step[:, None, None] * g_y)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        dx = x_new - x
        restart = _inner(g_y, dx) > 0.0
        beta = np.where(restart, 0.0, (momentum - 1.0) / t_next)
        y_new = x_new + beta[:, None, None] * dx
        g_new, g_y_new = gradient(np.array((x_new, y_new)), n_run, big_n)
        d = x_new - y
        # Curvature test on gradients: deviance differences cancel to
        # rounding near the optimum, long before the gap is small.
        ok = _inner(g_new - g_y, d) <= _inner(d, d) / step
        new = [x_new, y_new, g_y_new, gap(x_new, g_new), np.where(restart, 1.0, t_next)]
        if not ok.all():
            # A rejected step keeps the row's point, momentum and gradient.
            old, kept = (x, y, g_y, gaps, momentum), ok[:, None, None]
            new = [np.where(kept if now.ndim > 1 else ok, now, was) for now, was in zip(new, old)]
        x, y, g_y, gaps, momentum = new
        step = step * np.where(ok, _STEP_GROWTH, 0.5)
    mu = baseline * dip_ratio(rho)
    # Zero-count terms reduce to mu: n log(mu / n) -> 0.
    deviance = np.sum(mu - n - n * np.log(mu / np.where(n > 0, n, 1.0)), axis=1)
    return rho, deviance, gap_out, iterations


def _unpack_counts(
    counts, tset: TomographySet, visibility: float
) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("counts must be a sequence of (n_i, N_i) pairs")
    n, baseline = arr[:, 0], arr[:, 1]
    for name, values in (("dip counts n_i", n), ("baselines N_i", baseline)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if np.any(n < 0) or np.any(baseline <= 0):
        raise ValueError("counts must be nonnegative and baselines positive")
    if n.shape != (len(tset.members),):
        raise ValueError(f"expected counts for {len(tset.members)} projections")
    if not 0.0 < visibility <= 1.0:
        raise ValueError("visibility must lie in (0, 1]")
    return n, baseline


@dataclass(frozen=True)
class TomographyResult:
    rho_hat: np.ndarray  # 4x4 logical estimate, exactly Hermitian
    nll: float
    iterations: int
    fidelity_vs_target: float | None = None


def mle_reconstruct(
    counts,
    tset: TomographySet,
    visibility: float = 1.0,
    target=None,
    seed: int = 0,
) -> TomographyResult:
    """Maximum-likelihood density matrix from per-projection (n_i, N_i) counts.

    The Poisson likelihood of the dip counts is convex in rho, so one
    projected-gradient descent from the projected linear inversion reaches
    the optimum: it stops once the duality gap, an upper bound on the
    deviance still to gain, is at most 1e-9, and raises ReconstructionError
    if the iteration cap comes first.  The fit has no random element;
    `seed` is accepted for compatibility and does not affect the result.

    The gap tolerance is absolute, while the gradient's terms grow with the
    counts, so its rounding grows with them too.  A full-rank (mixed) state
    at baselines of 1e7 counts and more can stall above the tolerance: a
    Ginibre-mixed state at V = 1 stalls at gaps of about 4e-9 to 1.5e-8 at
    1e7 counts and 4e-8 to 1.5e-7 at 1e8, and raises ReconstructionError
    after the iteration cap.  Pure-state fits at those counts converge.
    """
    n, baseline = _unpack_counts(counts, tset, visibility)
    fit = _fit(n[None], baseline[None], projector_stack(tset), visibility)
    return _result(n, fit, target)


def _result(n: np.ndarray, fit, target) -> TomographyResult:
    """The TomographyResult of row 0 of a _fit of the counts n; raises
    ReconstructionError if that row missed the duality-gap tolerance."""
    rho, deviance, gap, iterations = fit
    # sum(mu - n log mu) = deviance + sum(n - n log n)
    nll = float(deviance[0] + np.sum(n - n * np.log(np.where(n > 0, n, 1.0))))
    if not gap[0] <= _GAP_TOL:
        raise ReconstructionError(
            f"likelihood fit stopped at duality gap {gap[0]:.3g}", best_nll=nll
        )
    fid = None if target is None else fidelity(rho[0], target)
    return TomographyResult(
        rho_hat=0.5 * (rho[0] + rho[0].conj().T),
        nll=nll,
        iterations=int(iterations[0]),
        fidelity_vs_target=fid,
    )


def logical_rho(result: TomographyResult) -> np.ndarray:
    """The 4x4 estimate of a reconstruction, `result.rho_hat`."""
    return result.rho_hat


@dataclass(frozen=True)
class BootstrapResult:
    estimate: TomographyResult
    fidelity_std: float
    rho_real_std: np.ndarray
    rho_imag_std: np.ndarray
    replicas_used: int
    replicas_dropped: int
    fidelities: np.ndarray


def bootstrap_errors(
    counts,
    tset: TomographySet,
    visibility: float,
    target,
    replicas: int = 100,
    seed: int = 0,
) -> BootstrapResult:
    """Maximum-likelihood reconstruction with a parametric bootstrap.

    Each replica redraws n_i* ~ Poisson(n_i) at the observed counts from
    its own stream `experiment.point_rng(seed, r)`, through the same
    keyed reset as the scan counts' fallback draws.  The observed counts,
    as row 0, and all replicas are then fitted in one call of the solver of
    `mle_reconstruct`, and `estimate` is row 0's result, built as
    `mle_reconstruct` builds it (it raises ReconstructionError the same
    way).  Replicas that miss the optimality tolerance are dropped; more
    than 10 percent of them failing is an error, checked first.
    """
    if replicas < 2:
        raise ValueError("bootstrap needs at least 2 replicas")
    n, baseline = _unpack_counts(counts, tset, visibility)
    keys = ((seed, r) for r in range(replicas))
    n_star = experiment._reset_draws(keys, itertools.repeat(n, replicas))
    stack = np.array([n, *n_star], dtype=float)
    fit = _fit(stack, np.broadcast_to(baseline, stack.shape), projector_stack(tset), visibility)
    rhos, _, gaps, _ = fit
    rhos = rhos[1:][gaps[1:] <= _GAP_TOL]
    dropped = replicas - len(rhos)
    if dropped > 0.1 * replicas:
        raise ReconstructionError(
            f"{dropped} of {replicas} bootstrap replicas failed to converge"
        )
    estimate = _result(n, fit, target)
    fids = np.array([fidelity(rho, target) for rho in rhos])
    return BootstrapResult(
        estimate=estimate,
        fidelity_std=float(np.std(fids, ddof=1)),
        rho_real_std=np.std(rhos.real, axis=0, ddof=1),
        rho_imag_std=np.std(rhos.imag, axis=0, ddof=1),
        replicas_used=len(rhos),
        replicas_dropped=dropped,
        fidelities=fids,
    )


# ---------------------------------------------------------------------------
# Forward simulation of a full tomography run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountsBundle:
    """Raw material of one tomography run, in member order."""

    counts: np.ndarray  # (members, 2) pairs (n_i, N_i)
    visibility_hat: float
    traces: tuple[experiment.ScanTrace, ...]


def simulate_counts(
    encoded: PhotonState | DensityMatrix,
    tset: TomographySet,
    baseline_counts: float,
    visibility: float = 1.0,
    master_seed: int = 0,
    *,
    delays,
    noiseless: bool = False,
    calibrate: bool = True,
) -> CountsBundle:
    """Run every scan of the set against an encoded state and pool its readings.

    Scan j uses stream j + 1.  The interference visibility is calibrated
    from a scan of the encoded state against itself (stream 0); mixed
    encoded states skip calibration and trust the configured value.  All
    scans, the calibration scan included, are one `experiment.sample_scans`
    call on the grid `delays`, each trace equal to `sample_scan` of its scan
    alone, and one `experiment.read_dips` call.  Each (scan, lag, member)
    reading adds the scan's count at lag * tau and its baseline to the
    member's (n_i, N_i) pair.
    """
    # With calibration, row 0 of the block is the self-scan and scan j is row j + 1.
    cal = int(calibrate and isinstance(encoded, PhotonState))
    ancillas = [encoded] * cal + [tset.members[ancilla][1] for ancilla in tset.scans]
    streams = range(1 - cal, len(tset.scans) + 1)
    seeds = [experiment.derive_seed(master_seed, stream) for stream in streams]
    traces = experiment.sample_scans(
        encoded, ancillas, seeds, delays, baseline_counts, visibility, noiseless
    )
    scan, lag, member = np.array(tset.readings).T
    # Column k of the dips is lags[k]; the last entry of `column` is lag 0.
    lags, column = np.unique(np.append(lag, 0), return_inverse=True)
    baselines, dips = experiment.read_dips(traces, lags)
    v_hat = visibility
    if cal:
        v_hat = float(np.clip(1.0 - dips[0, column[-1]] / baselines[0], 0.0, 1.0))
    # Pooled Poisson streams stay Poisson: sum dips, sum baselines, in reading order.
    weights = (dips[scan + cal, column[:-1]], baselines[scan + cal])
    counts = np.stack([np.bincount(member, w, len(tset.members)) for w in weights], axis=1)
    return CountsBundle(counts=counts, visibility_hat=v_hat, traces=tuple(traces[cal:]))
