"""Acceptance suite: nine end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines inline.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from loccdist import (
    Ensemble,
    ProductState,
    apply_local_unitaries,
    catalog,
    chain_criterion,
    decide,
    exhaustive_decide,
    random_product_basis,
    random_unitary,
)
from loccdist.distinguish import TraceLeaf, TraceSplit, TraceStuck
from loccdist.linalg import projectors
from loccdist.simulate import (
    Instrument,
    LocalOperator,
    builtin_protocol,
    lift_protocol,
    run_protocol,
    validate_instrument,
)

SWEEP_FAMILIES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))
SWEEP_SEEDS = 100


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {text}")
        raise
    print(f"[criterion {num}] PASS - {text}")


def _assert_stuck_on_everything(v, e):
    assert v.kind == "indistinguishable"
    cert = v.certificate
    assert cert is not None
    assert cert.subset == e.labels
    assert len(cert.graphs) == e.parties
    for g in cert.graphs:
        assert g.members == e.labels
        assert len(g.blocks()) == 1


def test_criterion_1_bennett9():
    with criterion(1, "bennett9 is indistinguishable, stuck on all 9 states, < 0.1 s"):
        e = catalog("bennett9")
        t0 = time.perf_counter()
        v = decide(e, "complete")
        elapsed = time.perf_counter() - t0
        _assert_stuck_on_everything(v, e)
        assert elapsed < 0.1


def test_criterion_2_grid16():
    with criterion(2, "grid16 is indistinguishable, < 0.1 s"):
        e = catalog("grid16")
        t0 = time.perf_counter()
        v = decide(e, "complete")
        elapsed = time.perf_counter() - t0
        _assert_stuck_on_everything(v, e)
        assert elapsed < 0.1


def test_criterion_3_cube64():
    with criterion(3, "cube64 splits at party 2 into 4 stuck blocks of 16, < 1 s"):
        e = catalog("cube64")
        t0 = time.perf_counter()
        v = decide(e, "complete")
        elapsed = time.perf_counter() - t0
        assert v.kind == "indistinguishable"
        root = v.trace
        assert isinstance(root, TraceSplit)
        assert root.step.party == 2
        assert len(root.step.outcomes) == 4
        for outcome, child in zip(root.step.outcomes, root.children):
            assert len(outcome.block) == 16
            assert isinstance(child, TraceStuck)
            assert child.certificate.subset == outcome.block
        assert elapsed < 1.0


def test_criterion_4_povm_protocol():
    with criterion(
        4,
        "trine POVM validates and discriminates finkelstein9; "
        "projective measurements alone stay stuck",
    ):
        e = catalog("finkelstein9")

        # the three-element POVM, built here from scratch: sqrt(2/3)|w><w|
        # over qubit directions 120 degrees apart
        s = math.sqrt(2.0 / 3.0)
        h = math.sqrt(3.0) / 2.0
        directions = [(0.0, 1.0), (h, -0.5), (h, 0.5)]
        triple = Instrument(
            2,
            tuple(
                LocalOperator(2, s * np.outer(w, np.conj(w)))
                for w in (np.array(d, dtype=np.complex128) for d in directions)
            ),
        )
        assert validate_instrument(triple, tol=1e-9)

        report = run_protocol(e, builtin_protocol("finkelstein-povm", e))
        assert report.perfect
        for label in e.labels:
            assert abs(report.totals[label] - 1.0) < 1e-9

        # psi1 survives exactly the two POVM arms not orthogonal to its
        # qubit factor, half the weight each
        arm_mass = {0: 0.0, 1: 0.0, 2: 0.0}
        for path, prob in report.branches["psi1"]:
            arm_mass[path[0]] += prob
        assert abs(arm_mass[1] - 0.5) < 1e-9
        assert abs(arm_mass[2] - 0.5) < 1e-9
        assert arm_mass[0] < 1e-9

        assert decide(e, "incomplete").kind == "unknown"


def test_criterion_5_chain_criterion():
    with criterion(
        5, "chain criterion true on bennett9/grid16, false on comp2x2, consistent"
    ):
        verdicts = {}
        for name in ("bennett9", "grid16", "comp2x2"):
            verdicts[name] = chain_criterion(catalog(name))
        assert verdicts == {"bennett9": True, "grid16": True, "comp2x2": False}

        # a positive chain answer must be backed by a stuck certificate
        # covering the whole ensemble
        for name in ("bennett9", "grid16"):
            e = catalog(name)
            v = decide(e, "complete")
            assert v.kind == "indistinguishable"
            assert v.certificate.subset == e.labels


def test_criterion_6_oracle_equivalence():
    with criterion(
        6, "decide agrees with the exhaustive oracle on 400 random bases, < 60 s"
    ):
        t0 = time.perf_counter()
        for dims in SWEEP_FAMILIES:
            for seed in range(SWEEP_SEEDS):
                e = random_product_basis(dims, seed=seed, depth=seed % 4)
                fast = decide(e, "complete")
                slow = exhaustive_decide(e)
                assert fast.kind == slow.kind, f"disagree on {e.name}"
        assert time.perf_counter() - t0 < 60.0


def _walk_projectors(e, node, scope):
    """Check the non-damaging invariant at every split, then recurse."""
    if isinstance(node, TraceLeaf):
        assert scope == (node.label,)
        return
    assert isinstance(node, TraceSplit)
    step = node.step
    for outcome, child in zip(step.outcomes, node.children):
        p = projectors(outcome.basis, [len(outcome.basis)])[0]
        for label in scope:
            kept = p @ e.party_arrays[step.party][e.index(label)]
            weight = float(np.vdot(kept, kept).real)
            if label in outcome.block:
                assert abs(weight - 1.0) <= 1e-8
            else:
                assert weight <= 1e-8
        _walk_projectors(e, child, outcome.block)


def test_criterion_7_soundness():
    with criterion(
        7,
        "every distinguishable tree simulates perfectly and never damages a state",
    ):
        cases = [catalog("comp2x2")]
        for dims in SWEEP_FAMILIES:
            for seed in range(SWEEP_SEEDS):
                cases.append(random_product_basis(dims, seed=seed, depth=seed % 4))
        checked = 0
        for e in cases:
            v = decide(e, "complete")
            if not v.distinguishable:
                continue
            checked += 1
            _walk_projectors(e, v.tree, e.labels)
            report = run_protocol(e, lift_protocol(v.tree, e))
            assert report.perfect
            for label in e.labels:
                mass = report.totals[label]
                # unit vectors carry a few ulps of norm error, so computed
                # masses can sit marginally above 1
                assert 1.0 - 1e-8 <= mass <= 1.0 + 1e-12
        assert checked > 100  # the sweep must actually exercise the invariant


def _permuted(e, rng):
    party_order = tuple(int(i) for i in rng.permutation(e.parties))
    state_order = tuple(int(i) for i in rng.permutation(len(e.states)))
    states = tuple(
        ProductState(
            e.states[i].label,
            tuple(e.states[i].locals[p] for p in party_order),
        )
        for i in state_order
    )
    dims = tuple(e.dims[p] for p in party_order)
    return Ensemble(e.name, dims, states, complete=e.complete)


def test_criterion_8_invariance():
    with criterion(
        8, "verdicts survive 20 unitary dressings and 10 reorderings per ensemble"
    ):
        rng = np.random.default_rng(20240817)
        for name in ("bennett9", "grid16", "cube64", "finkelstein9", "comp2x2"):
            e = catalog(name)
            mode = "complete" if e.complete else "incomplete"
            baseline = decide(e, mode).kind
            for _ in range(20):
                dressed = apply_local_unitaries(
                    e, tuple(random_unitary(d, rng) for d in e.dims)
                )
                assert decide(dressed, mode).kind == baseline
            for _ in range(10):
                assert decide(_permuted(e, rng), mode).kind == baseline


def test_criterion_9_svd():
    from loccdist.linalg import svd_decompose

    with criterion(
        9, "SVD reconstructs 200 random matrices; POVM elements are rank one"
    ):
        rng = np.random.default_rng(1729)
        for _ in range(200):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal(
                (rows, cols)
            )
            res = svd_decompose(a)
            assert float(np.max(np.abs(res.reconstruct() - a))) <= 1e-8

        s = math.sqrt(2.0 / 3.0)
        h = math.sqrt(3.0) / 2.0
        for d in [(0.0, 1.0), (h, -0.5), (h, 0.5)]:
            w = np.array(d, dtype=np.complex128)
            res = svd_decompose(s * np.outer(w, np.conj(w)))
            assert abs(res.sigmas[0] - s) <= 1e-9
            assert res.rank == 1
            for extra in res.sigmas[1:]:
                assert extra <= 1e-12
