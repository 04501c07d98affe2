"""Instrument trees: validation, state updates, runs, lifting, extension.

The three-element qubit POVM used against finkelstein9 is rebuilt here from
its defining directions, and its completeness and action are checked with
raw numpy before the library's own versions are trusted.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from loccdist import (
    DimensionError,
    DiscriminationReport,
    Ensemble,
    InstrumentError,
    Instrument,
    LocalOperator,
    NotFoundError,
    ProductState,
    SchemaError,
    SimLeaf,
    SimNode,
    apply_local_unitaries,
    apply_operator,
    builtin_protocol,
    canonicalize_operator,
    catalog,
    completeness_defect,
    decide,
    extend_with_projective,
    lift_protocol,
    normalize,
    phase_normalize,
    random_product_basis,
    random_unitary,
    run_protocol,
    validate_instrument,
)
from loccdist.jsonio import canonical_dumps
from loccdist.simulate import emit_sim_protocol, parse_sim_protocol, report_to_json


def _triple_matrices():
    """The rank-one qubit POVM elements, built from scratch."""
    root23 = math.sqrt(2.0 / 3.0)
    half3 = math.sqrt(3.0) / 2.0
    directions = [
        np.array([0.0, 1.0], dtype=complex),
        np.array([half3, -0.5], dtype=complex),
        np.array([half3, 0.5], dtype=complex),
    ]
    return [root23 * np.outer(w, w.conj()) for w in directions]


def _triple_instrument(party=2):
    return Instrument(party, tuple(LocalOperator(party, m) for m in _triple_matrices()))


def _wing6():
    e = catalog("bennett9")
    return Ensemble("wing6", e.dims, e.states[3:], complete=False)


def _sim_trees_equal(a, b):
    if isinstance(a, SimLeaf) or isinstance(b, SimLeaf):
        return isinstance(a, SimLeaf) and isinstance(b, SimLeaf) and a.announce == b.announce
    if a.instrument.party != b.instrument.party:
        return False
    if len(a.children) != len(b.children):
        return False
    for x, y in zip(a.instrument.operators, b.instrument.operators):
        if not np.array_equal(x.matrix, y.matrix):
            return False
    return all(_sim_trees_equal(x, y) for x, y in zip(a.children, b.children))


def _walk_nodes(root):
    if isinstance(root, SimNode):
        yield root
        for child in root.children:
            yield from _walk_nodes(child)


def _count_giveup_leaves(root):
    if isinstance(root, SimLeaf):
        return 1 if root.announce is None else 0
    return sum(_count_giveup_leaves(c) for c in root.children)


# ---------------------------------------------------------------------------
# instruments


def test_triple_povm_resolves_identity():
    # oracle: sum of M^dagger M computed directly
    total = sum(m.conj().T @ m for m in _triple_matrices())
    assert np.max(np.abs(total - np.eye(2))) < 1e-12
    ins = _triple_instrument()
    assert completeness_defect(ins) < 1e-12
    assert validate_instrument(ins)


def test_incomplete_instrument_flagged():
    ins = Instrument(0, (LocalOperator(0, 0.5 * np.eye(2)),))
    assert not validate_instrument(ins)
    assert abs(completeness_defect(ins) - 0.75) < 1e-12


def test_instrument_structural_checks():
    with pytest.raises(SchemaError):
        Instrument(0, ())
    with pytest.raises(SchemaError):
        Instrument(0, (LocalOperator(1, np.eye(2)),))
    with pytest.raises(DimensionError):
        Instrument(
            0, (LocalOperator(0, np.eye(2)), LocalOperator(0, np.eye(3)))
        )
    with pytest.raises(DimensionError):
        LocalOperator(0, np.zeros((2, 2, 2)))
    with pytest.raises(SchemaError):
        LocalOperator(0, np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_operator_matrix_is_frozen():
    op = LocalOperator(0, np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# apply_operator


def test_povm_branch_keeps_half_the_weight():
    # second POVM element against the first canned state: the qubit factor
    # is (1, 0), the element projects onto (sqrt(3)/2, -1/2), so the branch
    # probability is (2/3) * (3/4) = 1/2
    e = catalog("finkelstein9")
    psi1 = e.states[0]
    m = _triple_matrices()[1]
    image = m @ psi1.locals[2].entries
    assert abs(float(np.linalg.norm(image) ** 2) - 0.5) < 1e-12  # oracle

    op = LocalOperator(2, m)
    post, prob = apply_operator(psi1, op)
    assert abs(prob - 0.5) < 1e-12
    assert post is not None
    assert np.allclose(post.locals[2].entries, [math.sqrt(3.0) / 2.0, -0.5], atol=1e-12)
    # untouched parties keep their vectors bit for bit
    assert np.array_equal(post.locals[0].entries, psi1.locals[0].entries)
    assert np.array_equal(post.locals[1].entries, psi1.locals[1].entries)


def test_orthogonal_branch_is_annihilated():
    e = catalog("finkelstein9")
    op = LocalOperator(2, _triple_matrices()[0])
    post, prob = apply_operator(e.states[0], op)
    assert post is None and prob < 1e-12


def test_apply_operator_drops_global_phase():
    s = catalog("comp2x2").states[0]
    op = LocalOperator(0, 1.0j * np.eye(2))
    post, prob = apply_operator(s, op)
    assert abs(prob - 1.0) < 1e-12
    assert np.allclose(post.locals[0].entries, [1.0, 0.0])


def test_apply_operator_dimension_checks():
    s = catalog("comp2x2").states[0]
    with pytest.raises(DimensionError):
        apply_operator(s, LocalOperator(5, np.eye(2)))
    with pytest.raises(DimensionError):
        apply_operator(s, LocalOperator(0, np.eye(3)))


def test_rectangular_operator_shrinks_the_factor():
    s = catalog("comp2x2").states[0]
    op = LocalOperator(0, np.array([[1.0, 0.0]]))
    post, prob = apply_operator(s, op)
    assert abs(prob - 1.0) < 1e-12
    assert post.locals[0].dim == 1


# ---------------------------------------------------------------------------
# run_protocol


def test_lifted_computational_protocol_runs_perfectly():
    e = catalog("comp2x2")
    tree = lift_protocol(decide(e, "complete").tree, e)
    report = run_protocol(e, tree)
    assert report.perfect
    assert report.warnings == ()
    for label, recs in report.branches.items():
        assert len(recs) == 1
        path, prob = recs[0]
        assert abs(prob - 1.0) < 1e-12
        assert report.leaf_announce[path] == label
    for labels in report.confusion.values():
        assert len(labels) <= 1


def test_giving_up_immediately_is_not_discrimination():
    e = catalog("bennett9")
    report = run_protocol(e, SimLeaf(None))
    assert not report.perfect
    assert report.confusion[()] == e.labels
    assert all(t == 0.0 for t in report.totals.values())


def test_announcing_one_label_for_everything_fails():
    e = catalog("comp2x2")
    report = run_protocol(e, SimLeaf("s00"))
    assert not report.perfect
    assert abs(report.totals["s00"] - 1.0) < 1e-12
    assert report.totals["s11"] == 0.0
    assert len(report.confusion[()]) == 4


def test_run_rejects_incomplete_instrument():
    e = catalog("comp2x2")
    bad = SimNode(
        Instrument(0, (LocalOperator(0, 0.5 * np.eye(2)),)),
        (SimLeaf(None),),
    )
    with pytest.raises(InstrumentError):
        run_protocol(e, bad)


def test_run_rejects_unknown_announcement():
    with pytest.raises(NotFoundError):
        run_protocol(catalog("comp2x2"), SimLeaf("psi1"))


def test_povm_protocol_discriminates_finkelstein9():
    e = catalog("finkelstein9")
    tree = builtin_protocol("finkelstein-povm", e)
    report = run_protocol(e, tree)
    assert report.perfect
    assert report.warnings == ()
    # first state: annihilated on the first arm, half weight on each other
    recs = dict()
    for path, prob in report.branches["psi1"]:
        recs.setdefault(path[0], 0.0)
        recs[path[0]] += prob
    assert set(recs) == {1, 2}
    assert abs(recs[1] - 0.5) < 1e-9
    assert abs(recs[2] - 0.5) < 1e-9
    # probability is conserved for every state
    for label, branches in report.branches.items():
        assert abs(sum(p for _, p in branches) - 1.0) < 1e-9
        assert abs(report.totals[label] - 1.0) < 1e-9


def test_unknown_builtin_name():
    with pytest.raises(NotFoundError):
        builtin_protocol("nope", catalog("finkelstein9"))


def test_rectangular_instrument_runs():
    # a two-outcome instrument whose operators map the qubit onto one basis
    # ray each; on {s00, s11} it separates the two states at once
    e = Ensemble(
        "pair", (2, 2), (catalog("comp2x2").states[0], catalog("comp2x2").states[3]), False
    )
    ins = Instrument(
        0,
        (
            LocalOperator(0, np.array([[1.0, 0.0]])),
            LocalOperator(0, np.array([[0.0, 1.0]])),
        ),
    )
    assert validate_instrument(ins)
    tree = SimNode(ins, (SimLeaf("s00"), SimLeaf("s11")))
    report = run_protocol(e, tree)
    assert report.perfect


# ---------------------------------------------------------------------------
# canonicalize_operator


def test_povm_element_is_rank_one_physical():
    op = LocalOperator(2, _triple_matrices()[1])
    # oracle for the singular value: numpy's own SVD
    assert abs(np.linalg.svd(op.matrix, compute_uv=False)[0] - math.sqrt(2.0 / 3.0)) < 1e-12
    canon = canonicalize_operator(op)
    assert canon.physical
    assert canon.svd.rank == 1
    assert abs(canon.svd.sigmas[0] - math.sqrt(2.0 / 3.0)) < 1e-12


def test_amplifying_operator_is_unphysical():
    canon = canonicalize_operator(LocalOperator(0, 2.0 * np.eye(2)))
    assert not canon.physical
    assert np.allclose(canon.svd.sigmas, [2.0, 2.0])


def test_projector_is_physical():
    canon = canonicalize_operator(LocalOperator(0, np.diag([1.0, 0.0])))
    assert canon.physical
    assert np.allclose(canon.svd.sigmas, [1.0, 0.0])


# ---------------------------------------------------------------------------
# lift_protocol


def test_lift_adds_residual_arms_only_where_needed():
    e = _wing6()
    v = decide(e, "incomplete")
    assert v.kind == "distinguishable"
    lifted = lift_protocol(v.tree, e)
    # exactly two steps measure a rank-2 span inside a 3-level factor: the
    # {psi4,psi5} split and the {psi8,psi9} split; each needs a give-up arm
    assert _count_giveup_leaves(lifted) == 2
    for node in _walk_nodes(lifted):
        assert validate_instrument(node.instrument)
    report = run_protocol(e, lifted)
    assert report.perfect
    assert report.warnings == ()


def test_lift_projectors_preserve_or_annihilate_in_scope_states():
    e = _wing6()
    v = decide(e, "incomplete")

    def check(tree, scope):
        if not hasattr(tree, "step"):
            return
        for outcome in tree.step.outcomes:
            proj = np.zeros((e.dims[tree.step.party],) * 2, dtype=complex)
            for b in outcome.basis:
                proj += np.outer(b.entries, b.entries.conj())
            for label in scope:
                vec = e.vector(label, tree.step.party).entries
                p = float(np.linalg.norm(proj @ vec) ** 2)
                if label in outcome.block:
                    assert p > 1.0 - 1e-9, (label, outcome.block)
                else:
                    assert p < 1e-9, (label, outcome.block)
        for outcome, child in zip(tree.step.outcomes, tree.children):
            check(child, outcome.block)

    check(v.tree, e.labels)


def test_lift_computational_protocol_has_no_residuals():
    e = catalog("comp2x2")
    lifted = lift_protocol(decide(e, "complete").tree, e)
    assert _count_giveup_leaves(lifted) == 0
    root = lifted
    assert isinstance(root, SimNode) and root.instrument.party == 0
    assert np.allclose(root.instrument.operators[0].matrix, np.diag([1.0, 0.0]))
    assert np.allclose(root.instrument.operators[1].matrix, np.diag([0.0, 1.0]))


# ---------------------------------------------------------------------------
# extend_with_projective


def test_extension_builds_runnable_tree_for_the_povm():
    e = catalog("finkelstein9")
    node = extend_with_projective(e, _triple_instrument())
    assert isinstance(node, SimNode)
    assert len(node.children) == 3
    for child in node.children:
        assert isinstance(child, SimNode)  # six survivors always remain
    assert run_protocol(e, node).perfect


def test_extension_rejects_stuck_continuation():
    # doing nothing at the first party leaves all of bennett9 in play, and
    # no projective continuation can finish the job
    ins = Instrument(0, (LocalOperator(0, np.eye(3)),))
    with pytest.raises(InstrumentError):
        extend_with_projective(catalog("bennett9"), ins)


def test_extension_rejects_incomplete_instrument():
    ins = Instrument(0, (LocalOperator(0, 0.5 * np.eye(3)),))
    with pytest.raises(InstrumentError):
        extend_with_projective(catalog("bennett9"), ins)


def test_extension_handles_empty_and_single_survivor_arms():
    states = (catalog("comp2x2").states[0], catalog("comp2x2").states[1])
    e = Ensemble("front", (2, 2), states, complete=False)  # both sit on e0
    ins = Instrument(
        0,
        (
            LocalOperator(0, np.diag([1.0, 0.0])),
            LocalOperator(0, np.diag([0.0, 1.0])),
        ),
    )
    node = extend_with_projective(e, ins)
    assert isinstance(node.children[1], SimLeaf) and node.children[1].announce is None
    assert isinstance(node.children[0], SimNode)  # both survive, split at party 1

    pair = Ensemble(
        "diag", (2, 2), (catalog("comp2x2").states[0], catalog("comp2x2").states[3]), False
    )
    node = extend_with_projective(pair, ins)
    assert node.children[0] == SimLeaf("s00")
    assert node.children[1] == SimLeaf("s11")
    assert run_protocol(pair, node).perfect


# ---------------------------------------------------------------------------
# serialization


def test_sim_protocol_round_trip():
    e = catalog("finkelstein9")
    tree = builtin_protocol("finkelstein-povm", e)
    text = emit_sim_protocol(tree)
    again = parse_sim_protocol(text)
    assert _sim_trees_equal(tree, again)
    assert emit_sim_protocol(again) == text
    assert run_protocol(e, again).perfect


def test_sim_leaf_serialization():
    assert emit_sim_protocol(SimLeaf(None)) == '{"announce": null}'
    assert parse_sim_protocol('{"announce": null}') == SimLeaf(None)
    assert parse_sim_protocol('{"announce": "psi1"}') == SimLeaf("psi1")


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{}",
        '{"announce": 5}',
        '{"party": 0, "operators": [], "children": []}',
        '{"party": true, "operators": [{"rows": 1, "cols": 1, "entries": [[1, 0]]}],'
        ' "children": [{"announce": null}]}',
        '{"party": 0, "operators": [{"rows": 1, "cols": 1, "entries": [[1, 0]]}],'
        ' "children": []}',
        '{"party": 0, "operators": [{"rows": 1, "cols": 1}],'
        ' "children": [{"announce": null}]}',
    ],
)
def test_sim_parse_rejects_malformed(text):
    with pytest.raises(SchemaError):
        parse_sim_protocol(text)


def test_report_json_layout():
    from loccdist.jsonio import canonical_dumps
    from loccdist.simulate import report_to_json

    e = catalog("comp2x2")
    tree = lift_protocol(decide(e, "complete").tree, e)
    doc = report_to_json(run_protocol(e, tree))
    assert doc["perfect"] is True
    assert [s["label"] for s in doc["states"]] == list(e.labels)
    for s in doc["states"]:
        assert abs(s["total"] - 1.0) < 1e-12
        for b in s["branches"]:
            assert isinstance(b["path"], list) and isinstance(b["probability"], float)
    assert canonical_dumps(doc) == canonical_dumps(doc)


# ---------------------------------------------------------------------------
# lifted trees from generated instances


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_generated_protocols_lift_and_run(seed):
    e = random_product_basis((2, 2, 2), seed=seed)
    v = decide(e, "complete")
    assert v.kind == "distinguishable"
    lifted = lift_protocol(v.tree, e)
    for node in _walk_nodes(lifted):
        assert validate_instrument(node.instrument)
    report = run_protocol(e, lifted)
    assert report.perfect
    for label, recs in report.branches.items():
        for path, prob in recs:
            if report.leaf_announce[path] == label:
                assert prob > 1.0 - 1e-8


# ---------------------------------------------------------------------------
# the stacked run against a per-state reference walk


def _reference_step(s, op, tol):
    """One Kraus operator on one state, with the scalar linalg routines."""
    w = op.matrix @ s.locals[op.party].entries
    prob = float(np.linalg.norm(w) ** 2)
    if prob <= tol:
        return None, prob
    locals_ = list(s.locals)
    locals_[op.party] = phase_normalize(normalize(w, tol), tol)
    return ProductState(s.label, tuple(locals_)), prob


def _reference_report(e, root, tol):
    """run_protocol's report, walking the tree once per state."""
    leaf_announce = {}

    def leaves(node, path):
        if isinstance(node, SimLeaf):
            leaf_announce[path] = node.announce
        else:
            for i, child in enumerate(node.children):
                leaves(child, path + (i,))

    leaves(root, ())
    warnings, branches, leaf_mass = [], {}, {}

    def walk(node, state, prob, path):
        if isinstance(node, SimLeaf):
            recorded.append((path, prob))
            leaf_mass.setdefault(path, {})[state.label] = prob
            return
        for i, op in enumerate(node.instrument.operators):
            new_state, p = _reference_step(state, op, tol)
            branch_prob = prob * p
            if new_state is None or branch_prob <= tol:
                continue
            if branch_prob <= 100.0 * tol:
                warnings.append(
                    f"state {state.label} path {path + (i,)}: probability "
                    f"{branch_prob:.3e} is within 100*tol of annihilation"
                )
            walk(node.children[i], new_state, branch_prob, path + (i,))

    for s in e.states:
        recorded = []
        walk(root, s, 1.0, ())
        branches[s.label] = tuple(recorded)
    totals = {
        label: sum(prob for path, prob in recs if leaf_announce[path] == label)
        for label, recs in branches.items()
    }
    confusion = {
        path: tuple(label for label in e.labels if mass.get(label, 0.0) > tol)
        for path, mass in sorted(leaf_mass.items())
    }
    perfect = all(abs(t - 1.0) <= tol for t in totals.values()) and all(
        len(labels) < 2 for labels in confusion.values()
    )
    return DiscriminationReport(
        perfect, branches, leaf_announce, confusion, totals, tuple(warnings)
    )


def _report_bytes(report):
    return canonical_dumps(report_to_json(report))


def _giving_up_beyond(tree, labels):
    """The tree with every leaf that announces a label outside labels giving up."""
    if isinstance(tree, SimLeaf):
        return tree if tree.announce in labels else SimLeaf(None)
    return SimNode(tree.instrument, tuple(_giving_up_beyond(c, labels) for c in tree.children))


def _dressed(e, seed):
    rng = np.random.default_rng(seed)
    return apply_local_unitaries(e, [random_unitary(d, rng) for d in e.dims])


REFERENCE_DIMS = [(2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2), (3, 3, 3), (4, 4, 4),
                  (5, 5, 5), (6, 6, 6), (2, 2, 2, 2)]
REFERENCE_TOLS = [1e-9, 1e-3, 0.05, 0.3]


@pytest.mark.parametrize("dims", REFERENCE_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_stacked_run_matches_reference_walk(dims):
    # The protocol is also run on another dressing of the basis, so steps
    # damage states, branches carry every kind of probability, and the
    # larger tolerances prune branches and raise warnings.  There every
    # state spreads over every leaf, so at most 8 states take part.
    n = math.prod(dims)
    warned = pruned = 0
    for depth in range(0, 11, 1 if n <= 16 else 2 if n <= 64 else 5):
        seed = 7 * depth + len(dims)
        e = _dressed(random_product_basis(dims, seed, depth=depth), seed)
        lifted = lift_protocol(decide(e, "complete").tree, e)
        other = _dressed(e, seed + 1)
        sample = Ensemble("sample", dims, other.states[:: -(-n // 8)], complete=False)
        runs = ((e, lifted), (sample, _giving_up_beyond(lifted, sample.labels)))
        for (target, tree), tol in itertools.product(runs, REFERENCE_TOLS):
            ref = _reference_report(target, tree, tol)
            assert _report_bytes(run_protocol(target, tree, tol)) == _report_bytes(ref)
            warned += len(ref.warnings)
            pruned += sum(sum(p for _, p in recs) < 1.0 - 1e-6 for recs in ref.branches.values())
    assert warned > 0
    assert pruned > 0


@pytest.mark.parametrize("tol", REFERENCE_TOLS)
def test_stacked_povm_run_matches_reference_walk(tol):
    e = catalog("finkelstein9")
    tree = builtin_protocol("finkelstein-povm", e)
    for target in (e, _dressed(e, 3)):
        ref = _reference_report(target, tree, tol)
        assert _report_bytes(run_protocol(target, tree, tol)) == _report_bytes(ref)


@pytest.mark.parametrize("tol", REFERENCE_TOLS)
def test_stacked_rectangular_run_matches_reference_walk(tol):
    # a qutrit factor squeezed to a qubit, then measured in a rotated basis
    e = _dressed(random_product_basis((3, 2), 4, depth=3), 4)
    squeeze = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8j]])
    rest = np.array([[0.0, 0.8, -0.6j]])
    half = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    measure = SimNode(
        Instrument(0, (LocalOperator(0, np.diag([1.0, 0.0]) @ half),
                       LocalOperator(0, np.diag([0.0, 1.0]) @ half))),
        (SimLeaf("s1"), SimLeaf(None)),
    )
    tree = SimNode(
        Instrument(0, (LocalOperator(0, squeeze), LocalOperator(0, rest))),
        (measure, SimLeaf("s2")),
    )
    assert validate_instrument(tree.instrument)
    ref = _reference_report(e, tree, tol)
    assert _report_bytes(run_protocol(e, tree, tol)) == _report_bytes(ref)


def test_confusion_lists_labels_in_ensemble_order():
    # labels run against sorted order; one give-up leaf collects two states
    comp = catalog("comp2x2")
    e = Ensemble("reversed", (2, 2), comp.states[::-1], complete=True)
    tree = SimNode(
        Instrument(0, (LocalOperator(0, np.diag([1.0, 0.0])),
                       LocalOperator(0, np.diag([0.0, 1.0])))),
        (SimLeaf(None), SimLeaf("s10")),
    )
    report = run_protocol(e, tree)
    assert report.confusion[(0,)] == ("s01", "s00")
    assert report.confusion[(1,)] == ("s11", "s10")
    assert not report.perfect


def test_lifted_protocol_is_sound_at_n512():
    e = random_product_basis((8, 8, 8), 1, depth=12)
    v = decide(e, "complete")
    assert v.kind == "distinguishable"
    report = run_protocol(e, lift_protocol(v.tree, e))
    assert report.perfect
    assert report.warnings == ()
