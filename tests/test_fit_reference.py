"""The likelihood solver pinned against the one it replaced.

`reference_fit` is `tomography._fit` as it was before the exact-curvature
start step, the gradient momentum restart and the real-view linear maps,
copied verbatim: it restarts the momentum whenever the deviance rises and
evaluates the deviance on every iteration.  The current solver sums in
another order and takes other steps, so the two are compared within
tolerances fixed beforehand, not bit for bit: both fits must meet the
duality-gap tolerance, their deviances must agree to that tolerance, and
their fidelities to 1e-6 wherever the likelihood is not flat.

Flat means that the weakest traceless direction of the design carries the
information of at most 10 counts, N0 s_min^2 <= 10 with s_min the smallest
singular value of the design matrix.  There the optimum is a broad valley
whose points differ in fidelity far more than in deviance.  On the unbiased
set (s_min = 1) that is N0 <= 10; on the product set (s_min = 0.22) it
includes N0 = 100, where two fits that both meet the gap tolerance were
seen 1.5e-6 apart in fidelity while their deviances agreed to 7e-10.
"""

import numpy as np
import pytest

from poltime import hilbert, tomography
from poltime.tomography import (
    _DIM,
    _GAP_TOL,
    _MAX_ITER,
    _Q_FLOOR,
    _STEP_GROWTH,
    TomographySet,
    _inner,
    _inversion,
    _project,
    projector_stack,
)

DEVIANCE_TOL = 1e-9
FIDELITY_TOL = 1e-6
FLAT_COUNTS = 10.0


def reference_fit(
    n: np.ndarray, baseline: np.ndarray, tset: TomographySet, visibility: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-likelihood states for a stack of count sets, n and baseline (B, M).

    Minimizes each row's Poisson deviance sum[mu - n - n log(mu / n)], with
    mu = N max(1 - V tr(P rho), _Q_FLOOR), over unit-trace PSD matrices by
    accelerated projected gradient: Nesterov momentum, reset whenever the
    deviance rises, from the projected linear inversion.  Every row keeps its
    own step and momentum.  A row stops once its Frank-Wolfe gap
    Re tr(G rho) - lambda_min(G), G the gradient, is at most _GAP_TOL; the
    gap bounds the distance to the optimal deviance.

    Returns (rho (B, 4, 4), deviance, gap, iterations), each per row;
    iterations counts the steps tried, rejected ones included.
    """
    projs = projector_stack(tset)
    reads = projs.transpose(0, 2, 1).reshape(len(projs), -1)  # tr(P rho)
    spans = projs.reshape(len(projs), -1)
    # Zero-count terms reduce to mu: n log(mu / n) -> 0.
    n_safe = np.where(n > 0, n, 1.0)

    def dip_ratio(rho):
        expect = np.real(rho.reshape(-1, _DIM * _DIM) @ reads.T)
        return np.maximum(1.0 - visibility * expect, _Q_FLOOR)

    def gradient(rho, q, rows):
        weights = -visibility * (baseline[rows] - n[rows] / q)
        return (weights @ spans).reshape(rho.shape)

    def deviance_and_grad(rho, rows):
        q = dip_ratio(rho)
        mu = baseline[rows] * q
        dev = np.sum(mu - n[rows] - n[rows] * np.log(mu / n_safe[rows]), axis=1)
        return dev, gradient(rho, q, rows), q

    def gap(rho, grad):
        return _inner(grad, rho) - np.linalg.eigvalsh(grad)[:, 0]

    rows = np.arange(len(n))
    p_hat = np.clip((1.0 - n / baseline) / visibility, 0.0, 1.0)
    x = _project(_inversion(p_hat, projs))
    f_x, g_y, q = deviance_and_grad(x, rows)
    gaps = gap(x, g_y)
    y = x.copy()
    momentum = np.ones(len(n))
    # Inverse of a bound on the deviance's curvature at the start.
    step = 1.0 / np.maximum(visibility**2 * np.sum(n / q**2, axis=1), 1.0)
    iterations = np.zeros(len(n), dtype=int)
    for _ in range(_MAX_ITER):
        act = rows[gaps > _GAP_TOL]
        if act.size == 0:
            break
        iterations[act] += 1
        s = step[act]
        x_new = _project(y[act] - s[:, None, None] * g_y[act])
        f_new, g_new, _ = deviance_and_grad(x_new, act)
        d = x_new - y[act]
        # Curvature test on gradients: deviance differences cancel to
        # rounding near the optimum, long before the gap is small.
        ok = _inner(g_new - g_y[act], d) <= _inner(d, d) / s
        acc = act
        if not ok.all():
            step[act[~ok]] *= 0.5
            acc = act[ok]
            x_new, f_new, g_new = x_new[ok], f_new[ok], g_new[ok]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum[acc] ** 2))
        restart = f_new > f_x[acc]
        beta = np.where(restart, 0.0, (momentum[acc] - 1.0) / t_next)
        momentum[acc] = np.where(restart, 1.0, t_next)
        y_new = x_new + beta[:, None, None] * (x_new - x[acc])
        x[acc], f_x[acc] = x_new, f_new
        gaps[acc] = gap(x_new, g_new)
        y[acc], g_y[acc] = y_new, gradient(y_new, dip_ratio(y_new), acc)
        step[acc] *= _STEP_GROWTH
    return x, f_x, gaps, iterations


def truth_stack(rng, rows):
    """Alternating Haar-random pure (as vectors) and Ginibre-mixed truths."""
    truths = []
    for r in range(rows):
        if r % 2 == 0:
            vec = rng.normal(size=_DIM) + 1j * rng.normal(size=_DIM)
            truths.append(vec / np.linalg.norm(vec))
        else:
            truths.append(tomography.random_density_matrix(_DIM, rng))
    return truths


def as_matrix(truth):
    return np.outer(truth, truth.conj()) if truth.ndim == 1 else truth


@pytest.mark.parametrize("n0", [100.0, 1e3, 1e4])
@pytest.mark.parametrize("visibility", [0.94, 1.0])
@pytest.mark.parametrize("set_fixture", ["tset", "product_tset"])
def test_fit_matches_reference_solver(set_fixture, visibility, n0, request):
    tset = request.getfixturevalue(set_fixture)
    rng = np.random.default_rng(int(n0) + int(100 * visibility))
    truths = truth_stack(rng, 12)
    projs = projector_stack(tset)
    expect = np.real(np.einsum("iab,rba->ri", projs, np.array([as_matrix(t) for t in truths])))
    n = rng.poisson(n0 * np.clip(1.0 - visibility * expect, 0.0, None)).astype(float)
    # Zero-count dips beyond those of pure truths at V = 1.
    n[2, :3] = 0.0
    n[5, -2:] = 0.0
    baseline = np.full_like(n, n0)

    rho, deviance, gap, _ = tomography._fit(n, baseline, projs, visibility)
    rho_ref, deviance_ref, gap_ref, _ = reference_fit(n, baseline, tset, visibility)

    assert np.all(gap <= _GAP_TOL) and np.all(gap_ref <= _GAP_TOL)
    np.testing.assert_allclose(deviance, deviance_ref, rtol=0.0, atol=DEVIANCE_TOL)
    s_min = np.linalg.svd(tomography.design_matrix(tset), compute_uv=False).min()
    if n0 * s_min**2 > FLAT_COUNTS:
        fid = [tomography.fidelity(r, t) for r, t in zip(rho, truths)]
        fid_ref = [tomography.fidelity(r, t) for r, t in zip(rho_ref, truths)]
        np.testing.assert_allclose(fid, fid_ref, rtol=0.0, atol=FIDELITY_TOL)
    for r in rho:
        assert abs(np.trace(r).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(r).min() > -hilbert.EIGENVALUE_TOL
