"""Reconstruction of the logical two-qubit state from dip-scan projections.

Each member of a tomography set is a rank-1 projector |psi_i><psi_i| whose
dip depth estimates p_i = <psi_i| rho |psi_i>.  A scan prepares one member
as the ancilla.  The set's readings table says which dip reads which
projector: one (scan, lag, member) triple per dip at the lags of
`experiment.reading_lags`, so every scan reads its own ancilla at lag 0 and
a single-bin ancilla's scan also the bin-shifted projector at lag +-1.  Each
reading is one (n_i, N_i) count pair and one term of the likelihood.

The default set is the complete set of mutually unbiased two-qubit bases
(Wootters and Fields, Ann. Phys. 191, 363, 1989; Adamson and Steinberg,
PRL 105, 030406, 2010): 20 projectors read in 18 scans.  The paper's
{h, v, p, r} x {0, tau, +, x} product set stays available as
`product_tomography_set`.  Both are informationally complete, but the
product set weights operator-space directions unevenly (design singular
values 0.22 to 2.28), and at an equal count budget its bootstrap fidelity
spread on `phi_plus` is nearly twice that of the unbiased set.

Reconstruction is by maximum likelihood: the Poisson likelihood of the raw
counts is convex in rho, and one damped Newton solver on a Hermitian square
root of rho (`_fit`) fits a single count set or a whole stack of count sets
to a stated duality-gap tolerance that scales with the counts.  Each step
is a damped Newton step on the unit sphere of the root's coordinates, and
can turn the estimate's range, so a rank-deficient start costs few passes.
`bootstrap_errors` fits the observed counts as row 0 of its stack of
bootstrap replicas and returns that row as the point estimate, so a run
with error bars is one solve; `mle_reconstruct` fits one count set alone.
Linear inversion is kept as the unconstrained baseline and as the start.
`run` is the whole sequence of `poltime tomography`, from set to errors.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import experiment, hilbert
from .hilbert import DensityMatrix, PhotonState, TimeBinLattice, Wavepacket

POLARIZATION_SET = ("h", "v", "p", "r")
BIN_SET = ("0", "t", "+", "x")

_DIM = 4
_Q_FLOOR = 1e-12
_GAP_TOL = 1e-9  # Frank-Wolfe duality gap of a fit, in deviance units
# The gap sums gradient terms of up to N_i and n_i / q_i, so it carries
# rounding of about eps sum_i(n_i + N_i); stalled gaps measured at most 1.7
# times that, so a row's gap tolerance is at least _GAP_ROUNDING times it.
_GAP_ROUNDING = 4.0
_MAX_ITER = 5000


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
    projector.  Each reading is one row of the fit, so a member read by
    several scans is fitted once per reading.
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
        return _read_only(out)[0]

    @cached_property
    def fit_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The likelihood fit's `_fit_tables` of the readings' projectors, in
        reading order, read-only and built on first use."""
        return _read_only(*_fit_tables(self.projectors[self.reading_columns[1]]))

    @cached_property
    def reading_columns(self) -> tuple[np.ndarray, ...]:
        """The readings table as read-only arrays, built on first use: the
        scan and member of each reading, the sorted lags it reads (lag 0
        among them) and each reading's column in them, then lag 0's."""
        scan, lag, member = np.array(self.readings).T
        lags, column = np.unique(np.append(lag, 0), return_inverse=True)
        return _read_only(scan, member, lags, column)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


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
    lattice: TimeBinLattice, packet: Wavepacket, with_plans: bool = True
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
    The set is built once per (lattice, packet) and shared: equal geometries
    get the same immutable set, and every array it hands out refuses writes.
    """
    return _unbiased_set(lattice, packet)


# A process reads few geometries; the bound caps what a sweep over filters keeps.
@lru_cache(maxsize=8)
def _unbiased_set(lattice: TimeBinLattice, packet: Wavepacket) -> TomographySet:
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
    """Orthonormal Hermitian basis of the 4x4 operator space, (16, 4, 4): the
    diagonal units, then for each a < b the symmetric and antisymmetric pair."""
    unit = np.eye(_DIM)
    basis = [np.outer(e, e) for e in unit]
    for a, b in itertools.combinations(range(_DIM), 2):
        e = np.outer(unit[a], unit[b]) / np.sqrt(2.0)
        basis += [e + e.T, 1j * (e - e.T)]
    return np.array(basis, dtype=complex)


_HERM_BASIS = _hermitian_basis()
# The basis as real (16, 32) rows: coordinates x give the matrix
# (x @ _HERM_FLAT) viewed as complex, and a Hermitian matrix's float view
# times _HERM_FLAT.T gives its coordinates.
_HERM_FLAT = _HERM_BASIS.view(float).reshape(_DIM * _DIM, -1)
# Row (m, n) is the float view of (B_m B_n + B_n B_m) / 2, so a projector's
# float view times _HERM_PAIRS.T gives Re tr(P B_m B_n), symmetric in m, n.
_HERM_PAIRS = _HERM_BASIS[:, None] @ _HERM_BASIS[None]
_HERM_PAIRS = (0.5 * (_HERM_PAIRS + _HERM_PAIRS.transpose(1, 0, 2, 3))).view(float)
_HERM_PAIRS = _HERM_PAIRS.reshape(_DIM**4, -1)


def projector_stack(tset: TomographySet) -> np.ndarray:
    """Rank-1 member projectors on the logical subspace, (members, 4, 4), built once per set."""
    return tset.projectors


def _design(projs: np.ndarray) -> np.ndarray:
    """Real matrix mapping Hermitian-basis coordinates to the projectors'
    expectations.  Its smallest singular value measures informational
    completeness of the set."""
    return projs.reshape(len(projs), -1).view(float) @ _HERM_FLAT.T


def _fit_tables(projs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What `_fit` reads of an (M, 4, 4) projector stack: the stack, the
    (16, M) pseudo-inverse of its design matrix and the (M, 16, 16) table
    Q_i[m, n] = Re tr(P_i B_m B_n).  Raises ValueError if the projectors do
    not span the operator space."""
    quad = projs.reshape(len(projs), -1).view(float) @ _HERM_PAIRS.T
    return projs, _pseudo_inverse(_design(projs)), quad.reshape(len(projs), _DIM * _DIM, -1)


def linear_inversion(p_values, tset: TomographySet) -> tuple[np.ndarray, bool]:
    """Hermitian matrix reproducing the projector expectations, one per reading.

    Solved by least squares, which is exact for sixteen spanning
    projectors.  Returns (rho, has_negative_eigenvalue).  Noise can push
    eigenvalues negative; nothing is clipped here.
    """
    p = np.asarray(p_values, dtype=float)
    if p.shape != (len(tset.readings),):
        raise ValueError(f"expected projection values for {len(tset.readings)} readings")
    if not np.all(np.isfinite(p)):
        raise ValueError("projection values must be finite")
    rho = _hermitian(p[None] @ tset.fit_tables[1].T)[0]
    negative = bool(np.linalg.eigvalsh(rho).min() < -hilbert.EIGENVALUE_TOL)
    return rho, negative


def _pseudo_inverse(a: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    # The rank by numpy's matrix_rank cut-off must be the column count.
    if np.sum(s > s[0] * max(a.shape) * np.finfo(float).eps) < a.shape[1]:
        raise ValueError("tomography set does not span the operator space")
    return (vt.T / s) @ u.T


def _hermitian(coords: np.ndarray) -> np.ndarray:
    """The exactly Hermitian (B, 4, 4) matrices of (B, 16) basis coordinates."""
    mats = (coords @ _HERM_FLAT).view(complex).reshape(-1, _DIM, _DIM)
    return 0.5 * (mats + mats.conj().transpose(0, 2, 1))


def _read_target(target, dim: int = _DIM) -> np.ndarray:
    """A target as `_fidelities` reads it: a PhotonState as its logical
    vector, a DensityMatrix as its logical block, an array as given.  A pure
    target must be a finite, nonzero vector of length dim and a mixed one a
    finite (dim, dim) matrix, or ValueError names the target."""
    if isinstance(target, (PhotonState, DensityMatrix)):
        target = hilbert.logical_vector(target)
    sigma = np.asarray(target, dtype=complex)
    if sigma.ndim == 1:
        if sigma.shape != (dim,) or not 0.0 < float(np.vdot(sigma, sigma).real) < np.inf:
            raise ValueError(
                f"target: a pure target must be a finite, nonzero vector of length {dim}"
            )
    elif sigma.shape != (dim, dim):
        raise ValueError(
            f"target of shape {sigma.shape} does not match the estimate's {(dim, dim)}"
        )
    elif not np.isfinite(sigma).all():
        raise ValueError("target: a mixed target must be finite")
    return sigma


def _fidelities(rhos: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Fidelity of each rho of a (k, d, d) stack to a `_read_target` target:
    <v|rho|v> / |v|^2 for a vector v, (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    for a matrix sigma (Jozsa, J. Mod. Opt. 41, 2315, 1994)."""
    if sigma.ndim == 1:
        mid = np.matmul(rhos, sigma[:, None])
        norm2 = float(np.vdot(sigma, sigma).real)
        return np.matmul(sigma.conj()[None, None, :], mid)[:, 0, 0].real / norm2
    evals, vecs = np.linalg.eigh(rhos)
    roots = (vecs * np.sqrt(np.clip(evals, 0.0, None))[:, None]) @ vecs.conj().transpose(0, 2, 1)
    trace = np.sqrt(np.clip(np.linalg.eigvalsh(roots @ sigma @ roots), 0.0, None)).sum(axis=1)
    # libm's pow, as a float's ** 2; an array's ** 2, x * x, can differ in the last bit.
    return np.float_power(trace, 2.0)


def fidelity(rho, target) -> float:
    """State fidelity of rho, a matrix or a DensityMatrix read on its
    logical block, to a pure target (a PhotonState or a vector) or a mixed
    one (a DensityMatrix or a matrix), read by `_read_target`: the one-row
    case of `_fidelities`, symmetric in its arguments when mixed."""
    rho = hilbert.logical_vector(rho) if isinstance(rho, DensityMatrix) else rho
    rho_m = np.asarray(rho, dtype=complex)
    return float(_fidelities(rho_m[None], _read_target(target, len(rho_m)))[0])


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Trace-one PSD matrix drawn from the Ginibre ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------


def _project(mats: np.ndarray, power: float = 1.0) -> np.ndarray:
    """Nearest unit-trace PSD matrices in Frobenius norm, for a (B, d, d) stack,
    raised to `power`.

    The eigenvalues are projected onto the probability simplex and the
    eigenvectors kept.  It calls np.linalg.eigh's LAPACK kernel directly, so
    a failed decomposition raises only under its caller's np.errstate (`_fit`).
    """
    evals, evecs = _umath_linalg.eigh_lo(mats, signature="D->dD")
    desc = evals[:, ::-1]
    shifts = (desc.cumsum(axis=1) - 1.0) / np.arange(1, evals.shape[1] + 1)
    rank = (desc > shifts).sum(axis=1)
    weights = np.maximum(evals - shifts[np.arange(len(rank)), rank - 1, None], 0.0)
    return (evecs * weights[:, None, :] ** power) @ evecs.conj().transpose(0, 2, 1)


class _Fit(NamedTuple):
    """Per-row results of `_fit`; `converged` says whether the final gap met
    the tolerance, `iterations` counts steps tried, rejected ones included,
    and `rejected` the steps among them that were refused."""

    rho: np.ndarray
    deviance: np.ndarray
    gap: np.ndarray
    tolerance: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    rejected: np.ndarray | int = 0


def _linalg_failed(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError(f"likelihood fit: {err} value in its LAPACK kernels or counts")


@np.errstate(call=_linalg_failed, invalid="call")
def _fit(n: np.ndarray, baseline: np.ndarray, tables: tuple, visibility: float) -> _Fit:
    """Maximum-likelihood states for a stack of count sets, n and baseline (B, M),
    of the (M, 4, 4) projector stack whose `_fit_tables` are `tables`.

    Minimizes each row's Poisson deviance sum[mu - n - n log(mu / n)], mu =
    N q with q = max(1 - V tr(P rho), _Q_FLOOR), over density matrices rho =
    A^2, A Hermitian of unit norm with coordinates a in _HERM_BASIS (James,
    Kwiat, Munro and White, PRA 64, 052312, 2001), by damped Newton steps on
    a (Burer and Monteiro, Math. Program. 95, 329, 2003), which can turn the
    estimate's range.  With f_i = tr(P_i rho) = a^T Q_i a, phi_i = -V (N_i -
    n_i / q_i) and G = sum_i phi_i P_i the gradient in rho, the gradient in a
    is g = J^T phi, J_i = 2 (Q_i - f_i) a, and a step solves (H + lambda)
    delta = -g for H = J^T D J + 2 (sum_i phi_i Q_i - nu), D = diag(V^2 n /
    q^2), nu = Re tr(G rho) = sum_i phi_i f_i and lambda = 3 gap.  H is the
    Hessian without its rank-2 term -2 (g a^T + a g^T), which shapes only the
    radial part of a step: as J a = 0, H a = g and g is orthogonal to a, a +
    delta is a positive multiple of a - B^-1 g, B the tangent block of H +
    lambda, so the objective, read at a / |a|, sees the damped Newton step
    on the unit sphere's tangent space (Absil, Mahony and Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008, ch. 6).  As
    sum_i phi_i Q_i >= lambda_min(G), H + lambda >= J^T D J + gap: one
    batched 16 x 16 solve per pass gives a descent step, and lambda -> 0 at
    the optimum.  A row keeps its step unless sum(N q - n log q) rises by
    more than its rounding, _GAP_ROUNDING eps sum_i(n_i + N_i); else it
    stays put and doubles lambda.  The start is A = rho0^(1/2) or A = rho0,
    rho0 the projected linear inversion, whichever has the lower objective:
    rho0's square root carries a small spurious eigenvalue of rho0 into A,
    where each step keeps 2/3 of it, while A = rho0 squares it away.

    The tables fold V in: one matmul of a stacks V Q_i a, whose products with
    a are V f_i, so a pass never forms rho and nu needs no complex product.
    Both starts come from the one decomposition of rho0 and are scored in
    one stacked pass of 2B rows.
    The step solves the halved system (H + lambda) delta / 2 = -g / 2, built
    from V J_i / 2 = V Q_i a - V f_i a; a last row -I of the curvature table
    adds the shift lambda / 2 - nu in the one product that sums the V Q_i.
    Every trial point gets its objective and gap; only rows that go on get a
    Hessian.  rho = A^2 is formed once, for the stopped rows, and the
    deviance comes from their final q.

    A row stops once its Frank-Wolfe gap Re tr(G rho) - lambda_min(G) is at
    most its tolerance max(_GAP_TOL, _GAP_ROUNDING eps sum_i(n_i + N_i)), or
    unconverged after _MAX_ITER passes; the gap bounds the distance to the
    optimal deviance.  This is the only convergence test: callers read the
    verdict.

    The decompositions and the solve call np.linalg's LAPACK kernels
    (`_umath_linalg.eigh_lo`, `eigvalsh_lo`, `solve`) directly, with the
    signatures np.linalg passes, so they give its results bit for bit without
    its per-call wrappers; tests/test_fit_reference.py pins that.  LAPACK
    reports a failure only by the invalid flag, so the fit runs under one
    np.errstate that turns an invalid value, from a kernel or from the fit's
    own arithmetic, into np.linalg.LinAlgError (a NaN count fails the first
    decomposition); over, divide and under keep numpy's settings.
    """
    projs, inverse, quad = tables
    members, dim = quad.shape[:2]
    # V Q_i as (16, M 16) columns, so a @ pairs stacks V Q_i a, and as (M, 256)
    # rows of `curve` under a last row -I, so w @ curve is sum_i w_i V Q_i -
    # w_M I; the gradient's sum over P is one matmul with `span`.
    quad_v = visibility * quad.reshape(members, -1)
    pairs = quad_v.reshape(-1, dim).T
    curve = np.concatenate((quad_v, -np.eye(dim).reshape(1, -1)))
    span = -visibility * projs.reshape(members, -1).view(float)

    def value(a, n, big_n):
        """(a, V Q_i a, V f_i, q, N - n / q, nu, gap, sum(N q - n log q)) at a / |a|."""
        a = a / np.sqrt((a * a).sum(axis=1))[:, None]  # np.linalg.norm's sums
        qv = (a @ pairs).reshape(len(a), members, dim)
        fv = (qv @ a[:, :, None])[:, :, 0]
        q = np.maximum(1.0 - fv, _Q_FLOOR)
        slope = big_n - n / q
        nu = -(slope * fv).sum(axis=1)
        grad = (slope @ span).view(complex).reshape(-1, _DIM, _DIM)
        gap = nu - _umath_linalg.eigvalsh_lo(grad, signature="D->d")[:, 0]
        return a, qv, fv, q, slope, nu, gap, (big_n * q - n * np.log(q)).sum(axis=1)

    def newton_step(point, two_n, boost):
        """Each row's step from its point, with lambda times `boost` if given."""
        a, qv, fv, q, slope, nu, gap, _ = point
        jv = qv - fv[:, :, None] * a[:, None, :]
        jt = jv.transpose(0, 2, 1)
        # Over 10080 seeded random rows of both sets (pure and mixed truths,
        # N0 = 10 to 1e6, V mis-set by up to 3%), lambda = 3 gap rejected 9
        # of 53009 steps.  At 2 gap, the least the bound allows, 1709 were
        # rejected and one-row compact-grid fits took 5.38 passes in the
        # mean; at 2.5 gap 46 and 4.58; at 3 gap 4.77; at 4 gap 9 and 5.17.
        # The system is halved: (H + lambda) / 2, of lambda / 2 = 1.5 gap.
        half_lam = 1.5 * gap if boost is None else 1.5 * gap * boost
        weights = np.concatenate((slope, (half_lam - nu)[:, None]), axis=1)
        h = (jt * (two_n / q**2)[:, None, :]) @ jv
        h -= (weights @ curve).reshape(h.shape)
        return _umath_linalg.solve(h, jt @ slope[:, :, None], signature="dd->d")[:, :, 0]

    slack = _GAP_ROUNDING * np.finfo(float).eps * (n + baseline).sum(axis=1)
    # Rows :B start at A = rho0^(1/2), rows B: at A = rho0.  Objectives within
    # a row's rounding `slack` tie, and a tie keeps rho0^(1/2): where the two
    # agree that closely, rho0's small eigenvalues may be real, and squaring
    # them away left rows that took up to 11 more passes to grow them back.
    p_hat = np.clip(experiment.dip_depths(baseline, n) / visibility, 0.0, 1.0)
    root = _project(_hermitian(p_hat @ inverse.T), 0.5)
    starts = np.concatenate((root, root @ root)).reshape(2 * len(n), -1).view(float)
    both = value(starts @ _HERM_FLAT.T, np.concatenate((n, n)), np.concatenate((baseline,) * 2))
    lower = both[7][len(n) :] < both[7][: len(n)] - slack
    # Where every row keeps the same start, as a one-row fit does, a slice
    # picks it at a tenth of the cost of indexing the eight arrays.
    k = np.count_nonzero(lower)
    pick = slice(k, k + len(n)) if k % len(n) == 0 else np.arange(len(n)) + len(n) * lower
    point = tuple(arr[pick] for arr in both)
    tolerance = np.maximum(_GAP_TOL, slack)
    rows, n_run, two_n, big_n, tol = np.arange(len(n)), n, 2.0 * n, baseline, tolerance
    a_out, q_out, gap_out = np.empty((len(n), dim)), np.empty(n.shape), np.empty(len(n))
    iterations, rejected = np.zeros(len(n), dtype=int), np.zeros(len(n), dtype=int)
    boost = None
    # Every running row tries one step per pass, so a row that stops at
    # pass k took k steps.  The running rows stay compacted.
    for k in range(_MAX_ITER + 1):
        done = point[6] <= tol
        if k == _MAX_ITER:
            done[:] = True
        if done.any():
            out, keep = rows[done], ~done
            a_out[out], q_out[out], gap_out[out] = point[0][done], point[3][done], point[6][done]
            iterations[out] = k
            if not keep.any():
                break
            rows, n_run, two_n, big_n, tol, slack = (
                arr[keep] for arr in (rows, n_run, two_n, big_n, tol, slack)
            )
            point = tuple(arr[keep] for arr in point)
            boost = None if boost is None else boost[keep]
        new = value(point[0] + newton_step(point, two_n, boost), n_run, big_n)
        ok = new[7] <= point[7] + slack
        if ok.all():
            boost = None
        else:
            # A rejected step keeps the row's point and doubles its lambda by
            # `boost`, which an accepted step resets.  The stress grid of
            # scripts/check_fit_stress.py rejects 5 of its 3181 steps, so the
            # doubling is untuned.
            rejected[rows[~ok]] += 1
            for now, was in zip(new, point):
                now[~ok] = was[~ok]
            boost = np.where(ok, 1.0, 2.0 if boost is None else 2.0 * boost)
        point = new
    root = (a_out @ _HERM_FLAT).view(complex).reshape(-1, _DIM, _DIM)
    mu = baseline * q_out
    # Zero-count terms reduce to mu: n log(mu / n) -> 0.
    deviance = np.sum(mu - n - n * np.log(mu / np.where(n > 0, n, 1.0)), axis=1)
    # A row stopped at the cap converged only if its last gap met the tolerance.
    return _Fit(
        root @ root, deviance, gap_out, tolerance, gap_out <= tolerance, iterations, rejected
    )


def _unpack_counts(counts, tset: TomographySet, visibility: float) -> tuple[np.ndarray, ...]:
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("counts must be a sequence of (n_i, N_i) pairs")
    n, baseline = arr[:, 0], arr[:, 1]
    if not np.isfinite(arr).all():
        name = "baselines N_i" if np.isfinite(n).all() else "dip counts n_i"
        raise ValueError(f"{name} must be finite")
    if not (arr >= (0.0, 5e-324)).all():  # n_i >= 0, N_i >= the least positive float
        raise ValueError("counts must be nonnegative and baselines positive")
    if n.shape != (len(tset.readings),):
        raise ValueError(f"expected counts for {len(tset.readings)} readings")
    if not 0.0 < hilbert._check_real("visibility", visibility) <= 1.0:
        raise ValueError("visibility must lie in (0, 1]")
    return n, baseline


@dataclass(frozen=True)
class TomographyResult:
    rho_hat: np.ndarray  # 4x4 logical estimate, exactly Hermitian
    nll: float
    iterations: int  # Newton passes of the fit
    fidelity_vs_target: float | None = None


def mle_reconstruct(
    counts,
    tset: TomographySet,
    visibility: float = 1.0,
    target=None,
    seed: int = 0,
) -> TomographyResult:
    """Maximum-likelihood density matrix from per-reading (n_i, N_i) counts.

    The Poisson likelihood of the dip counts is convex in rho, and `_fit`'s
    damped Newton passes reach the optimum from the square root rho0^(1/2)
    of the projected linear inversion rho0, or from rho0 itself where that
    start has the lower objective; `iterations` counts them.  It stops once
    the duality gap, an upper bound on the deviance still to gain, is at
    most max(1e-9, 4 eps sum_i(n_i + N_i)), eps the float64 epsilon: the
    second term is the gradient's rounding, which takes over above about 3e4
    counts per baseline on the unbiased set.  ReconstructionError, naming the
    gap and its tolerance, is raised if the pass cap comes first.  A
    visibility outside (0, 1], a bool or any other value that is not a real
    number raises ValueError, as does a target `_read_target` refuses, read
    before the fit.  The fit has no random element; `seed` is accepted for
    compatibility and is not used.
    """
    n, baseline = _unpack_counts(counts, tset, visibility)
    sigma = None if target is None else _read_target(target)
    fit = _fit(n[None], baseline[None], tset.fit_tables, visibility)
    return _result(n, fit, sigma)


def _result(n: np.ndarray, fit: _Fit, sigma) -> TomographyResult:
    """Row 0 of a _fit of the counts n as a TomographyResult, with its fidelity
    to sigma (read, or None); raises ReconstructionError if it did not converge."""
    # sum(mu - n log mu) = deviance + sum(n - n log n)
    nll = float(fit.deviance[0] + np.sum(n - n * np.log(np.where(n > 0, n, 1.0))))
    if not fit.converged[0]:
        raise ReconstructionError(
            f"likelihood fit stopped at duality gap {fit.gap[0]:.3g}, "
            f"which misses its tolerance {fit.tolerance[0]:.3g}",
            best_nll=nll,
        )
    fid = None if sigma is None else float(_fidelities(fit.rho[:1], sigma)[0])
    return TomographyResult(
        rho_hat=0.5 * (fit.rho[0] + fit.rho[0].conj().T),
        nll=nll,
        iterations=int(fit.iterations[0]),
        fidelity_vs_target=fid,
    )


def logical_rho(result: TomographyResult) -> np.ndarray:
    """The 4x4 estimate of a reconstruction, `result.rho_hat`."""
    return result.rho_hat


@dataclass(frozen=True)
class BootstrapResult:
    estimate: TomographyResult
    fidelity_std: float | None
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
    way).  Each row stops at its own count-scaled gap tolerance, the
    solver's one stop rule, and the stack's Newton passes run until its
    slowest row stops.  Replicas the solver reports unconverged are
    dropped; more than 10 percent of them failing is an error, checked
    first.  The target is read before the fit, as in `mle_reconstruct`, and
    row 0's and the replicas' fidelities come from `_fidelities`; with no
    target, `fidelities` is empty and `fidelity_std` is None.  A `replicas`
    that is not an integer (a bool, a float or a string) or is below 2
    raises ValueError, as does a seed the scan seeds' check refuses.
    """
    if isinstance(replicas, bool) or not isinstance(replicas, (int, np.integer)):
        raise ValueError(f"replicas must be an integer, got {replicas!r}")
    if replicas < 2:
        raise ValueError("bootstrap needs at least 2 replicas")
    seed = experiment._check_seed(seed)
    n, baseline = _unpack_counts(counts, tset, visibility)
    sigma = None if target is None else _read_target(target)
    keys = ((seed, r) for r in range(replicas))
    n_star = experiment._reset_draws(keys, itertools.repeat(n, replicas))
    stack = np.array([n, *n_star], dtype=float)
    big_n = np.broadcast_to(baseline, stack.shape)
    fit = _fit(stack, big_n, tset.fit_tables, visibility)
    rhos = fit.rho[1:][fit.converged[1:]]
    dropped = replicas - len(rhos)
    if dropped > 0.1 * replicas:
        raise ReconstructionError(
            f"{dropped} of {replicas} bootstrap replicas failed to converge"
        )
    estimate = _result(n, fit, sigma)
    fids = np.empty(0) if sigma is None else _fidelities(rhos, sigma)
    return BootstrapResult(
        estimate=estimate,
        fidelity_std=None if sigma is None else float(np.std(fids, ddof=1)),
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
    """Raw material of one tomography run: its counts and `scans`, the
    `experiment.sample_block` arguments of its scans.  `traces` are built on
    first access from the whole grid, drawn from the same per-point keys, so
    they hold the counts the run read."""

    counts: np.ndarray  # (readings, 2) pairs (n_i, N_i), in reading order
    visibility_hat: float
    scans: tuple

    @cached_property
    def traces(self) -> tuple[experiment.ScanTrace, ...]:
        return tuple(experiment.sample_block(*self.scans))


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
    """Run every scan of the set against an encoded state and take its readings.

    Scan j uses stream j + 1.  The interference visibility is calibrated
    from a scan of the encoded state against itself (stream 0); mixed
    encoded states skip calibration and trust the configured value.  All
    scans, the calibration scan included, are one `experiment._draw_counts`
    of the memoized `_scan_model` at the points `experiment.read_points`
    says they read, each row as `sample_scan` draws its scan alone, read
    there by `experiment._read`; no per-scan object is built.  Each (scan,
    lag, member) reading is one (n_i, N_i) pair: the scan's count at lag *
    tau and its baseline.  The seed enters only the draw.  A master seed
    that `experiment.derive_seeds` refuses, not an integer in [0, 2**64),
    raises ValueError before the memo is read, as do the grid, baseline and
    visibility that `experiment.ScanConfig` refuses.
    """
    # With calibration, row 0 of the counts is the self-scan and scan j is row j + 1.
    cal = int(calibrate and isinstance(encoded, PhotonState))
    ancillas = [encoded] * cal + [tset.members[ancilla][1] for ancilla in tset.scans]
    seeds = experiment.derive_seeds(master_seed, range(1 - cal, len(tset.scans) + 1))
    grid = experiment.ScanConfig(delays, baseline_counts, 0, visibility).delays
    # Column k of the dips is lags[k]; the last entry of `column` is lag 0.
    scan, _, _, column = tset.reading_columns
    _, plan, plateau, columns = _scan_model(
        encoded, tset, ancillas, grid, float(baseline_counts), float(visibility)
    )
    drawn = plan.means.copy() if noiseless else experiment._draw_counts(plan, seeds)
    baselines, dips = experiment._read(drawn, plateau, columns)
    v_hat = visibility
    if cal:
        v_hat = float(experiment.dip_depths(baselines[0], dips[0, column[-1]]))
    counts = np.stack((dips[scan + cal, column[:-1]], baselines[scan + cal]), axis=1)
    scans = (encoded, ancillas[cal:], seeds[cal:], grid, baseline_counts, visibility, noiseless)
    return CountsBundle(counts, v_hat, scans)


def run(encoded, delays, baseline_counts, visibility, seed, replicas, noiseless=False) -> tuple:
    """One full tomography run, (tset, bundle, errors): the default set on
    the encoded state's geometry, its self-calibrated `simulate_counts` and
    `bootstrap_errors` at the calibrated visibility, with the encoded state
    as target and the same seed.  Raises ValueError, naming visibility_hat,
    when the calibration scan shows no dip."""
    tset = default_tomography_set(encoded.lattice, encoded.packet)
    bundle = simulate_counts(
        encoded, tset, baseline_counts, visibility, seed, delays=delays, noiseless=noiseless
    )
    if not bundle.visibility_hat > 0:
        raise ValueError(
            "visibility_hat: the calibration scan shows no dip; "
            "raise visibility or baseline_counts"
        )
    errors = bootstrap_errors(bundle.counts, tset, bundle.visibility_hat, encoded, replicas, seed)
    return tset, bundle, errors


# Sweeps cycle a few targets; the bound caps what a sweep over fresh states keeps.
_SCAN_MODEL_SIZE = 8
_scan_models: OrderedDict = OrderedDict()
_scan_models_lock = threading.Lock()


def _scan_model(encoded, tset, ancillas, grid, baseline_counts, visibility) -> tuple:
    """(tset, plan, plateau, columns), read-only: the `experiment._draw_plan`
    of `simulate_counts`' `experiment.block_model` of encoded against
    ancillas at the grid indices the run reads, and the plateau mask and lag
    columns within those points.  The memo holds the 8 models used last,
    keyed by the set's identity (holding tset keeps it from passing to
    another set), the encoded state's type, array bytes, lattice and packet,
    the grid's bytes, the baseline, the visibility and whether the scans
    start with the self-scan.  A model is built outside the lock and stored
    whole, so a call that raises stores nothing."""
    state = encoded.matrix if isinstance(encoded, DensityMatrix) else encoded.amplitudes
    key = (
        id(tset), type(encoded), state.tobytes(), encoded.lattice, encoded.packet,
        grid.tobytes(), baseline_counts, visibility, len(ancillas) - len(tset.scans),
    )
    with _scan_models_lock:
        model = _scan_models.get(key)
        if model is not None:
            _scan_models.move_to_end(key)
            return model
    geometry = experiment.scan_geometry(encoded, ancillas)
    plateau, columns = experiment.read_points(grid, *geometry, tset.reading_columns[2])
    read = plateau.copy()
    read[columns] = True
    points = np.flatnonzero(read)
    expected = experiment.block_model(encoded, ancillas, grid, baseline_counts, visibility, points)
    plan = experiment._draw_plan(expected, points)
    _read_only(*plan)
    model = tset, plan, *_read_only(plateau[points], points.searchsorted(columns))
    with _scan_models_lock:
        _scan_models[key] = model
        if len(_scan_models) > _SCAN_MODEL_SIZE:
            _scan_models.popitem(last=False)
    return model
