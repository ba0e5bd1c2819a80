"""The one-walk preparation compiler pinned against the two-pass compiler it
replaced.

`reference_prune_identity_elements` and `reference_evaluate` are
`optics._prune_identity_elements` and `optics._evaluate` as they were before
pruning and scoring became one walk, copied verbatim: the prune walk applied
every element to find the ones acting as a global phase (norms by
`np.linalg.norm`), then `apply_pipeline` ran the kept elements from the
source a second time to score the plan.  `reference_compile_preparation` is
the candidate loop of `optics.compile_preparation` from that time, on a
mutable candidate as that `_evaluate` needs.  The one walk must give the same
plans, bit for bit: the same elements, the same fidelity and success floats,
the same class and flag.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from poltime import hilbert, optics, tomography
from poltime.hilbert import StateAnnihilatedError, TimeBinLattice
from poltime.optics import (
    EXACT_PLAN_TOL,
    OpticalPipeline,
    PreparationPlan,
    _PRUNE_TOL,
    apply_pipeline,
    element_action,
)


def reference_prune_identity_elements(elements, source):
    """Drop elements whose action on the running state is a global phase."""
    kept = []
    state = source
    for el in elements:
        nxt = element_action(el, state)
        if nxt.lattice == state.lattice:
            ip = abs(np.vdot(state.amplitudes, nxt.amplitudes))
            n_a = np.linalg.norm(state.amplitudes)
            n_b = np.linalg.norm(nxt.amplitudes)
            if abs(n_a - n_b) < _PRUNE_TOL and ip >= n_a * n_b - _PRUNE_TOL:
                continue
        kept.append(el)
        state = nxt
    return kept


@dataclass
class ReferenceCandidate:
    elements: list
    target_class: str
    fidelity: float = 0.0
    success: float = 0.0


def reference_evaluate(cand, source, target_vec):
    """Drop cand's identity elements, then score it against the target."""
    cand.elements = reference_prune_identity_elements(cand.elements, source)
    try:
        out = apply_pipeline(OpticalPipeline(tuple(cand.elements)), source)
    except StateAnnihilatedError:
        cand.fidelity = 0.0
        cand.success = 0.0
        return
    cand.success = out.norm_squared
    amps = out.amplitudes / np.sqrt(cand.success)
    padded = np.zeros_like(amps).reshape(2, -1)
    tgt = target_vec.reshape(2, -1)
    padded[:, : tgt.shape[1]] = tgt
    cand.fidelity = float(abs(np.vdot(padded.reshape(-1), amps)) ** 2)


def reference_class_candidates(mat, crystal):
    return [
        ReferenceCandidate(list(c.elements), c.target_class)
        for c in optics._class_candidates(mat, crystal)
    ]


def reference_compile_preparation(target):
    logical = hilbert.logical_vector(target)
    lattice, packet = target.lattice, target.packet
    source = hilbert.basis_state("h", 0, lattice, packet)
    crystal = optics.crystal_with_delay(lattice.tau)
    mat = logical.reshape(2, 2)
    target_vec = np.zeros(2 * lattice.bin_count, dtype=complex)
    target_vec.reshape(2, -1)[:, :2] = mat

    candidates = reference_class_candidates(mat, crystal)
    for cand in candidates:
        reference_evaluate(cand, source, target_vec)

    if max((c.fidelity for c in candidates), default=0.0) < 1.0 - EXACT_PLAN_TOL:
        for nearest in optics._nearest_encodable(mat):
            for cand in reference_class_candidates(nearest, crystal):
                cand.target_class = "general"
                reference_evaluate(cand, source, target_vec)
                candidates.append(cand)

    best = max(c.fidelity for c in candidates)
    contenders = [c for c in candidates if c.fidelity >= best - EXACT_PLAN_TOL]
    chosen = min(
        contenders, key=lambda c: (len(c.elements), optics._angle_budget(c.elements))
    )

    return PreparationPlan(
        pipeline=OpticalPipeline(tuple(chosen.elements)),
        input_state=source,
        predicted_fidelity=chosen.fidelity,
        success_probability=chosen.success,
        exactly_encodable=chosen.fidelity >= 1.0 - EXACT_PLAN_TOL,
        target_class=chosen.target_class,
    )


def reference_targets(lattice, packet):
    """284 targets: the named states, the unbiased and product sets, 200
    complex-Gaussian states, and four states on 3- and 4-bin lattices."""
    targets = [hilbert.named_state(name, lattice, packet) for name in hilbert.NAMED_STATES]
    targets += tomography.default_tomography_set(lattice, packet).states()
    targets += tomography.product_tomography_set(lattice, packet).states()
    rng = np.random.default_rng(1)
    for _ in range(200):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        targets.append(hilbert.from_logical(vec / np.linalg.norm(vec), lattice, packet))
    for bins in (3, 4):
        wide = TimeBinLattice(bin_count=bins, tau=lattice.tau)
        for name in ("phi_plus", "rl_bell", "p+", "v0"):
            targets.append(hilbert.named_state(name, wide, packet))
    return targets


def plan_fields(plan):
    return (
        plan.pipeline.to_json(),
        plan.predicted_fidelity,
        plan.success_probability,
        plan.target_class,
        plan.exactly_encodable,
    )


def test_one_walk_plans_equal_the_two_pass_plans_bit_for_bit(lattice, packet):
    targets = reference_targets(lattice, packet)
    assert len(targets) == 284
    for target in targets:
        assert plan_fields(optics.compile_preparation(target)) == plan_fields(
            reference_compile_preparation(target)
        )


@pytest.mark.parametrize("name", ["h0", "pt", "phi_plus", "p+", "rl_bell", None])
def test_compile_applies_each_built_element_once(name, lattice, packet, monkeypatch):
    """One element_action call per element of every candidate built: the
    walk that prunes a plan also scores it, with no second pass."""
    if name is None:  # outside every class: the nearest-state plans are built too
        vec = np.array([1.0, 0.7j, 0.2, 0.5], dtype=complex)
        target = hilbert.from_logical(vec / np.linalg.norm(vec), lattice, packet)
    else:
        target = hilbert.named_state(name, lattice, packet)
    built = []
    actions = []
    class_candidates = optics._class_candidates

    def recording_class_candidates(mat, crystal):
        out = class_candidates(mat, crystal)
        built.extend(len(c.elements) for c in out)
        return out

    def counting_element_action(element, state):
        actions.append(element)
        return element_action(element, state)

    monkeypatch.setattr(optics, "_class_candidates", recording_class_candidates)
    monkeypatch.setattr(optics, "element_action", counting_element_action)
    optics.compile_preparation(target)
    assert sum(built) > 0
    assert len(actions) == sum(built)


def test_annihilating_candidate_scores_zero(lattice, packet):
    source = hilbert.basis_state("h", 0, lattice, packet)
    target_vec = hilbert.named_state("v0", lattice, packet).amplitudes
    cand = optics._Candidate([optics.Polarizer(np.pi / 2)], "x")
    scored = optics._evaluate(cand, source, target_vec)
    assert scored.fidelity == 0.0
    assert scored.success == 0.0
    assert scored.target_class == "x"
