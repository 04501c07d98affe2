"""Instrument trees: validation, state updates, runs, lifting, extension.

The three-element qubit POVM used against finkelstein9 is rebuilt here from
its defining directions, and its completeness and action are checked with
raw numpy before the library's own versions are trusted.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

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
    ZeroVectorError,
    apply_local_unitaries,
    builtin_protocol,
    catalog,
    decide,
    extend_with_projective,
    lift_protocol,
    normalize,
    random_product_basis,
    random_unitary,
    run_protocol,
    validate_instrument,
)
from loccdist.distinguish import protocol_from_json, verdict_to_json
from loccdist.jsonio import canonical_dumps, parse_json
from loccdist import simulate
from loccdist.linalg import emit_matrix
from loccdist.simulate import emit_sim_protocol, parse_sim_protocol, report_to_json
from test_linalg import _phase_normalize


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
    assert simulate._defects((ins,))[0] < 1e-12
    assert validate_instrument(ins)


def test_incomplete_instrument_flagged():
    ins = Instrument(0, (LocalOperator(0, 0.5 * np.eye(2)),))
    assert not validate_instrument(ins)
    assert abs(simulate._defects((ins,))[0] - 0.75) < 1e-12


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


def test_bool_party_is_refused_at_construction():
    # True == 1, but the protocol format refuses "party": true, so a tree
    # holding it could be emitted and never read back
    with pytest.raises(SchemaError, match="party must be a non-negative integer"):
        LocalOperator(True, np.eye(2))
    one = (LocalOperator(1, np.eye(2)),)
    with pytest.raises(SchemaError, match="party must be a non-negative integer"):
        Instrument(True, one)
    tree = SimNode(Instrument(1, one), (SimLeaf(None),))
    text = emit_sim_protocol(tree)
    assert '"party": 1' in text
    again = parse_sim_protocol(text)
    assert type(again.instrument.party) is int and type(again.instrument.operators[0].party) is int
    assert _sim_trees_equal(tree, again) and emit_sim_protocol(again) == text


@pytest.mark.parametrize("children", [0, 2])
def test_a_node_needs_one_child_per_operator(children):
    identity = Instrument(0, (LocalOperator(0, np.eye(2)),))
    with pytest.raises(SchemaError, match=f"^node has {children} children for 1 operators$"):
        SimNode(identity, [SimLeaf(None)] * children)


def test_defect_matches_the_sum_over_operators():
    # one product A†A over the stacked rows, against sum(M†M) one operator
    # at a time; the order of the additions differs, so within 1e-12
    rng = np.random.default_rng(4)
    for shapes in [[(2, 2)] * 3, [(1, 3), (2, 3), (3, 3)], [(4, 4), (1, 4), (4, 4), (2, 4)]]:
        ms = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        ins = Instrument(0, tuple(LocalOperator(0, m) for m in ms))
        d = shapes[0][1]
        loop = np.max(np.abs(sum(m.conj().T @ m for m in ms) - np.eye(d)))
        assert abs(simulate._defects((ins,))[0] - loop) <= 1e-12 * max(1.0, loop)


@np.errstate(over="ignore", invalid="ignore")
def _defect_2d(ins):
    """The completeness defect as one 2-D product, rows grouped by output dimension."""
    mats = [op.matrix for op in ins.operators]
    outs = dict.fromkeys(m.shape[0] for m in mats)
    a = np.concatenate([m for d in outs for m in mats if len(m) == d])
    g = a.conj().T @ a
    g.flat[:: len(g) + 1] -= 1.0
    return float(np.abs(g).max())


def _random_instruments(rng, count):
    """Instruments over a few operator shapes, square and ragged, some overflowing to inf or NaN."""
    kinds = [[(2, 2)] * 3, [(3, 3)] * 2, [(1, 3), (2, 3), (3, 3)], [(2, 4), (4, 4), (1, 4), (4, 4)],
             [(5, 5)] * 6]
    out = []
    for _ in range(count):
        shapes = kinds[rng.integers(len(kinds))]
        ms = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        k, draw = rng.integers(len(ms)), rng.random()
        if draw < 0.1:  # huge complex entries: A†A overflows to inf - inf, a NaN defect
            ms[k] *= 1e155 * rng.choice([1.0, 1e3])
        elif draw < 0.2:  # a huge real diagonal: an inf defect
            ms[k] = 1e200 * np.eye(*ms[k].shape)
        out.append(Instrument(0, tuple(LocalOperator(0, m) for m in ms)))
    return out


def test_stacked_defects_are_those_of_one_product_per_instrument():
    # the replay's pre-order check takes every instrument's defect in stacked
    # products, one per shape of A and chunk; each must be bit for bit the
    # 2-D product's, NaN and inf included
    rng = np.random.default_rng(11)
    instruments = _random_instruments(rng, 3000)  # some groups span several chunks
    stacked = simulate._defects(instruments)
    expected = [_defect_2d(ins) for ins in instruments]
    assert np.array(stacked).tobytes() == np.array(expected).tobytes()
    assert any(np.isnan(stacked)) and any(np.isinf(stacked))
    alone = [simulate._defects((ins,))[0] for ins in instruments[:300]]
    assert np.array(alone).tobytes() == np.array(stacked[:300]).tobytes()


def test_replay_raises_the_first_incomplete_instrument_in_pre_order_before_unknown_labels():
    # an incomplete instrument deep in the first subtree comes before a
    # shallower one in the second, and before the leaf's unknown label
    e = catalog("comp2x2")
    half = (LocalOperator(0, np.diag([1.0, 0.0])), LocalOperator(0, np.diag([0.0, 1.0])))
    short = lambda k: SimNode(Instrument(1, (LocalOperator(1, k * np.eye(2)),)), (SimLeaf("nobody"),))
    deep = SimNode(Instrument(1, (LocalOperator(1, np.eye(2)),)), (short(0.5),))
    tree = SimNode(Instrument(0, half), (deep, short(0.25)))
    with pytest.raises(InstrumentError, match="defect 7.500e-01"):
        run_protocol(e, tree)
    fixed = SimNode(Instrument(0, half), (SimLeaf("nobody"), SimLeaf(None)))
    with pytest.raises(NotFoundError, match="unknown label 'nobody'"):
        run_protocol(e, fixed)


def test_operator_matrix_is_frozen():
    op = LocalOperator(0, np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# one instrument on every state


def _one_instrument(e, ins, tol=1e-9):
    """Each state's branch probabilities by path after ``ins`` alone, every outcome giving up."""
    report = run_protocol(e, SimNode(ins, tuple(SimLeaf(None) for _ in ins.operators)), tol)
    return {label: dict(recs) for label, recs in report.branches.items()}


def test_povm_branch_keeps_half_the_weight():
    # second POVM element against the first canned state: the qubit factor
    # is (1, 0), the element projects onto (sqrt(3)/2, -1/2), so the branch
    # probability is (2/3) * (3/4) = 1/2
    e = catalog("finkelstein9")
    psi1 = e.states[0]
    m = _triple_matrices()[1]
    image = m @ psi1.locals[2]
    assert abs(float(np.linalg.norm(image) ** 2) - 0.5) < 1e-12  # oracle

    assert abs(_one_instrument(e, _triple_instrument())["psi1"][(1,)] - 0.5) < 1e-12
    # the branch's factor is (sqrt(3)/2, -1/2): measured in a basis that
    # holds it, all of the branch's weight stays on that vector
    half3 = math.sqrt(3.0) / 2.0
    after = _projective(2, [[half3, -0.5], [0.5, half3]], [SimLeaf("psi1"), SimLeaf(None)])
    tree = SimNode(_triple_instrument(), (SimLeaf(None), after, SimLeaf(None)))
    recs = dict(run_protocol(e, tree).branches["psi1"])
    assert abs(recs[(1, 0)] - 0.5) < 1e-12 and (1, 1) not in recs


def test_orthogonal_branch_is_annihilated():
    # the first POVM element is orthogonal to psi1's qubit factor (1, 0), so
    # that branch is pruned and the other two keep all of the weight
    probs = _one_instrument(catalog("finkelstein9"), _triple_instrument())["psi1"]
    assert (0,) not in probs and abs(sum(probs.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("runner", [_one_instrument, extend_with_projective], ids=["run", "extend"])
def test_an_instrument_that_does_not_fit_the_states_is_refused(runner):
    e = catalog("comp2x2")
    with pytest.raises(DimensionError, match="state has no party 5"):
        runner(e, Instrument(5, (LocalOperator(5, np.eye(2)),)))
    with pytest.raises(DimensionError, match="operator expects dimension 3, state party 0 has 2"):
        runner(e, Instrument(0, (LocalOperator(0, np.eye(3)),)))


def test_rectangular_operator_shrinks_the_factor():
    # the two rows of the identity cut party 0 to dimension 1: below them a
    # 1 x 1 operator fits the factor, and a 2 x 2 one does not
    e = catalog("comp2x2")
    rows = Instrument(0, (LocalOperator(0, [[1.0, 0.0]]), LocalOperator(0, [[0.0, 1.0]])))
    line = SimNode(Instrument(0, (LocalOperator(0, [[1.0]]),)), (SimLeaf(None),))
    report = run_protocol(e, SimNode(rows, (line, SimLeaf(None))))
    assert dict(report.branches) == {"s00": (((0, 0), 1.0),), "s01": (((0, 0), 1.0),),
                                     "s10": (((1,), 1.0),), "s11": (((1,), 1.0),)}
    square = SimNode(Instrument(0, (LocalOperator(0, np.eye(2)),)), (SimLeaf(None),))
    with pytest.raises(DimensionError, match="operator expects dimension 2, state party 0 has 1"):
        run_protocol(e, SimNode(rows, (square, SimLeaf(None))))


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


def test_an_empty_ensemble_reaches_no_leaf():
    e = Ensemble("empty", (2, 2), (), complete=False)
    tree = SimNode(_triple_instrument(0), (SimLeaf(None),) * 3)
    report = run_protocol(e, tree)
    assert report.perfect and report.branches == {} and report.confusion == {}
    assert set(report.leaf_announce) == {(0,), (1,), (2,)}


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
                proj += np.outer(b, b.conj())
            for label in scope:
                vec = e.party_arrays[tree.step.party][e.index(label)]
                p = float(np.linalg.norm(proj @ vec) ** 2)
                if label in outcome.block:
                    assert p > 1.0 - 1e-9, (label, outcome.block)
                else:
                    assert p < 1e-9, (label, outcome.block)
        for outcome, child in zip(tree.step.outcomes, tree.children):
            check(child, outcome.block)

    check(v.tree, e.labels)


@pytest.mark.parametrize("depth", [0, 1])
def test_lift_refuses_an_outcome_block_with_an_unknown_label(depth):
    # the first outcome of the root, or of the root's first child, names
    # "zzz" instead of "s00"; only its block, not a leaf, holds the label
    e = catalog("comp2x2")
    doc = parse_json(canonical_dumps(verdict_to_json(decide(e, "complete"))["protocol"]))
    node = doc
    for _ in range(depth):
        node = node["children"][0]
    block = node["outcomes"][0]["block"]
    block[block.index("s00")] = "zzz"
    tree = protocol_from_json(doc)
    with pytest.raises(NotFoundError, match="'zzz'"):
        lift_protocol(tree, e)


@pytest.mark.parametrize("name", ["bennett9", "cube64"])
def test_lift_refuses_a_trace_with_a_stuck_block(name):
    e = catalog(name)
    with pytest.raises(SchemaError, match="cannot lift a stuck block of"):
        lift_protocol(decide(e, "complete").trace, e)


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


def _reference_extension(e, ins, tol):
    """extend_with_projective as it was: each survivor rebuilt by :func:`_reference_step`."""
    children = []
    for i, op in enumerate(ins.operators):
        survivors = [t for t, _ in (_reference_step(s, op, tol) for s in e.states) if t is not None]
        if len(survivors) < 2:
            children.append(SimLeaf(survivors[0].label if survivors else None))
            continue
        dims = tuple(op.out_dim if p == ins.party else d for p, d in enumerate(e.dims))
        sub = Ensemble(f"{e.name}.outcome{i}", dims, tuple(survivors), complete=False)
        children.append(lift_protocol(decide(sub, "incomplete", tol).tree, sub, tol))
    return SimNode(ins, tuple(children))


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_extension_is_bit_identical_to_the_per_survivor_reference(tol):
    # the sub-ensembles are built from the stacked images and rows
    f9 = catalog("finkelstein9")
    rng = np.random.default_rng(8)
    dressed = apply_local_unitaries(f9, [random_unitary(3, rng), random_unitary(3, rng), np.eye(2)])
    # a qutrit factor cut into a qubit and a one-dimensional factor, on a
    # basis whose qutrit vectors the cut does not damage
    cut = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8j], [0.0, 0.8, -0.6j]])
    squeeze = Instrument(0, (LocalOperator(0, cut[:2]), LocalOperator(0, cut[2:])))
    grid = apply_local_unitaries(
        random_product_basis((3, 2), 4, depth=0), [cut.conj().T, random_unitary(2, rng)]
    )
    cases = [(f9, _triple_instrument()), (dressed, _triple_instrument()), (grid, squeeze)]
    for e, ins in cases:
        got = emit_sim_protocol(extend_with_projective(e, ins, tol))
        assert got == emit_sim_protocol(_reference_extension(e, ins, tol))


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


# factored operators that parse_sim_protocol refuses with SchemaError
FACTORED_MALFORMED = {
    "complement-first":
        '{"party": 0, "operators": [{"complement": true}, {"basis": [[[1, 0], [0, 0]]]}],'
        ' "children": [{"announce": null}, {"announce": null}]}',
    "complement-not-last":
        '{"party": 0, "operators": [{"basis": [[[1, 0], [0, 0]]]}, {"complement": true},'
        ' {"basis": [[[0, 0], [1, 0]]]}],'
        ' "children": [{"announce": null}, {"announce": null}, {"announce": null}]}',
    "complement-after-dense":
        '{"party": 0, "operators": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0],'
        ' [0, 0]]}, {"complement": true}], "children": [{"announce": null}, {"announce": null}]}',
    "complement-false":
        '{"party": 0, "operators": [{"basis": [[[1, 0], [0, 0]]]}, {"complement": false}],'
        ' "children": [{"announce": null}, {"announce": null}]}',
    "empty-basis":
        '{"party": 0, "operators": [{"basis": []}], "children": [{"announce": null}]}',
    "basis-vector-wrong-dimension":
        '{"party": 0, "operators": [{"basis": [[[1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}],'
        ' "children": [{"announce": null}]}',
    "basis-wrong-dimension-for-instrument":
        '{"party": 0, "operators": [{"basis": [[[1, 0], [0, 0]]]},'
        ' {"basis": [[[0, 0], [0, 0], [1, 0]]]}], "children": [{"announce": null}, {"announce": null}]}',
}


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
        *FACTORED_MALFORMED.values(),
    ],
)
def test_sim_parse_rejects_malformed(text):
    with pytest.raises(SchemaError):
        parse_sim_protocol(text)


def _factored(vectors):
    basis = json.dumps(vectors)
    return (f'{{"party": 0, "operators": [{{"basis": {basis}}}, {{"complement": true}}],'
            ' "children": [{"announce": null}, {"announce": null}]}')


@pytest.mark.parametrize("d", [2, 7])  # 7: three vectors take the whole-list passes
@pytest.mark.parametrize(
    "fault,error,message",
    [
        ("entry", SchemaError,
         r"protocol: operator 0: basis vector 1: entry 1 must be a [re, im] pair of finite numbers"),
        ("not-a-list", SchemaError,
         r"protocol: operator 0: basis vector 1: expected a non-empty list of [re, im] pairs"),
        ("dimension", SchemaError, "protocol: operator 0: basis vectors must have dimension {d}"),
        ("zero", ZeroVectorError,
         "protocol: operator 0: basis vector 1: cannot normalize a vector of norm 0.0"),
        ("overflow", SchemaError, "protocol: operator 0: basis vector 1: "
         "cannot normalize a vector whose squared norm overflows a double"),
    ],
)
def test_factored_basis_errors_name_the_vector_and_entry(d, fault, error, message):
    # each basis is decoded in one pass, and normalized in one, yet reports
    # what decoding and normalizing vector by vector reported
    vectors = [[[1.0 if i == j else 0.0, 0.0] for i in range(d)] for j in range(min(d, 3))]
    vectors[1] = {
        "entry": vectors[1][:1] + [[True, 0]] + vectors[1][2:],
        "not-a-list": {"re": 1},
        "dimension": vectors[1] + [[0.0, 0.0]],
        "zero": [[0.0, 0.0]] * d,
        "overflow": [[1e308, 1e308]] * d,
    }[fault]
    with pytest.raises(error) as info:
        parse_sim_protocol(_factored(vectors))
    assert str(info.value) == message.format(d=d)


def _instrument(operators):
    children = ", ".join(['{"announce": null}'] * len(operators))
    return f'{{"party": 0, "operators": {json.dumps(operators)}, "children": [{children}]}}'


@pytest.mark.parametrize(
    "fault,message",
    [
        ("entry", "protocol: operator 2: basis vector 1: entry 2 must be a [re, im] pair of finite numbers"),
        ("not-a-list", "protocol: operator 2: basis vector 1: expected a non-empty list of [re, im] pairs"),
        ("dimension", "protocol: operator 2: basis vectors must have dimension 4"),
    ],
)
def test_instrument_basis_errors_name_the_operator(fault, message):
    # all of an instrument's basis vectors are decoded in one codec call,
    # yet an error names the operator, the vector and the entry
    unit = [[[1.0 if i == j else 0.0, 0.0] for i in range(4)] for j in range(4)]
    vectors = [unit[0], unit[1]]
    vectors[1] = {
        "entry": unit[1][:2] + [[0.0, float("inf")]] + unit[1][3:],
        "not-a-list": 7,
        "dimension": unit[1][:3],
    }[fault]
    ops = [{"basis": [unit[2]]}, {"basis": [unit[3]]}, {"basis": vectors}, {"complement": True}]
    with pytest.raises(SchemaError) as info:
        parse_sim_protocol(_instrument(ops).replace("Infinity", "1e999"))
    assert str(info.value) == message


def test_instrument_layout_fault_is_reported_before_an_earlier_entry_fault():
    # the layout of every operator is checked before any basis vector is
    # decoded, so of two faults the layout one is reported
    ops = [{"basis": [[[True, 0], [0, 0]]]}, {"basis": [[[0, 0], [1, 0], [0, 0]]]}]
    with pytest.raises(SchemaError, match="operator 1: basis vectors must have dimension 2"):
        parse_sim_protocol(_instrument(ops))
    ops = [{"basis": [[[True, 0], [0, 0]]]}, {"basis": [[[0, 0], [1, 0]]]}]
    with pytest.raises(SchemaError, match=r"operator 0: basis vector 0: entry 0 must be"):
        parse_sim_protocol(_instrument(ops))


def test_instrument_bases_decode_like_one_basis_at_a_time():
    e = random_product_basis((3, 4), 5, depth=4)
    root = lift_protocol(decide(e, "complete").tree, e)
    text = emit_sim_protocol(root)
    parsed = parse_sim_protocol(text)
    assert emit_sim_protocol(parsed) == text
    todo = [(root, parsed)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, SimNode):
            for x, y in zip(a.instrument.operators, b.instrument.operators):
                assert x.matrix.tobytes() == y.matrix.tobytes()
                assert (x.basis is None) == (y.basis is None) and x.complement == y.complement
            todo.extend(zip(a.children, b.children))


@pytest.mark.parametrize("runner", [_one_instrument, extend_with_projective], ids=["run", "extend"])
def test_overflow_is_refused_without_a_warning(monkeypatch, runner):
    # pytest turns numpy's RuntimeWarning into an error, so a warning from
    # the image's squared norm fails this test before SchemaError is seen;
    # a scaled identity is not complete, so the completeness check is lifted
    monkeypatch.setattr("loccdist.simulate._require_complete", lambda ins, tol: None)
    e = catalog("comp2x2")
    with pytest.raises(SchemaError, match="probability overflows"):
        runner(e, Instrument(0, (LocalOperator(0, 1e200 * np.eye(2)),)))
    # a norm near the overflow edge, with a finite probability, still works
    runner(e, Instrument(0, (LocalOperator(0, 1e150 * np.eye(2)),)))


def test_a_probability_near_the_overflow_edge_keeps_the_unit_factor(monkeypatch):
    # each image is its state's basis vector times 1e150: renormalized, it
    # puts all of the branch's weight on one outcome of the basis below
    monkeypatch.setattr("loccdist.simulate._require_complete", lambda ins, tol: None)
    measure = _projective(0, np.eye(2), [SimLeaf(None), SimLeaf(None)])
    tree = SimNode(Instrument(0, (LocalOperator(0, 1e150 * np.eye(2)),)), (measure,))
    for label, recs in run_protocol(catalog("comp2x2"), tree).branches.items():
        ((path, prob),) = recs
        assert path == (0, int(label[1])) and math.isclose(prob, 1e300)


def test_factored_basis_is_normalized_as_one_vector_at_a_time():
    raw = [[[3.0, 0.0], [0.0, 4.0]], [[0.0, -4.0], [3.0, 0.0]]]
    root = parse_sim_protocol(_factored(raw))
    for v, entries in zip(root.instrument.operators[0].basis, raw):
        expected = normalize(np.array([complex(re, im) for re, im in entries]))
        assert v.tobytes() == expected.tobytes()


def test_non_orthonormal_basis_is_an_incomplete_instrument():
    # |0> and (0.6, 0.8) are unit vectors but not orthogonal, so the
    # "projector" and its complement do not resolve the identity
    tree = parse_sim_protocol(
        '{"party": 0, "operators": [{"basis": [[[1, 0], [0, 0]], [[0.6, 0], [0.8, 0]]]},'
        ' {"complement": true}], "children": [{"announce": null}, {"announce": null}]}'
    )
    with pytest.raises(InstrumentError):
        run_protocol(catalog("comp2x2"), tree)


def _dense_json(root):
    """The instrument tree with every operator written as a dense matrix."""
    if isinstance(root, SimLeaf):
        return {"announce": root.announce}
    return {
        "party": root.instrument.party,
        "operators": [emit_matrix(op.matrix) for op in root.instrument.operators],
        "children": [_dense_json(c) for c in root.children],
    }


def _factored_cases():
    for dims in [(2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2), (3, 3, 3), (4, 4, 4), (6, 6, 6)]:
        for depth in (0, 3, 8):
            seed = 3 * depth + len(dims)
            e = _dressed(random_product_basis(dims, seed, depth=depth), seed)
            yield e, lift_protocol(decide(e, "complete").tree, e)
    f9 = catalog("finkelstein9")
    yield f9, builtin_protocol("finkelstein-povm", f9)


def test_factored_protocol_replays_like_the_dense_one():
    # Projective operators are written as their basis vectors, the give-up
    # remainder as a complement marker; parsing rebuilds every matrix bit
    # for bit, so the replay report is byte-identical to the dense file's.
    for e, tree in _factored_cases():
        text = emit_sim_protocol(tree)
        again = parse_sim_protocol(text)
        assert _sim_trees_equal(tree, again)
        assert emit_sim_protocol(again) == text
        dense = parse_sim_protocol(canonical_dumps(_dense_json(tree)))
        assert _sim_trees_equal(dense, again)
        for tol in (1e-9, 1e-3):
            assert _report_bytes(run_protocol(e, again, tol)) == _report_bytes(
                run_protocol(e, dense, tol)
            )


def test_only_general_kraus_operators_stay_dense():
    f9 = catalog("finkelstein9")
    doc = json.loads(emit_sim_protocol(builtin_protocol("finkelstein-povm", f9)))
    assert all(set(op) == {"rows", "cols", "entries"} for op in doc["operators"])
    for child in doc["children"]:
        kinds = [next(iter(op)) for op in child["operators"]]
        assert set(kinds) <= {"basis", "complement"} and kinds[0] == "basis"
    wing = _wing6()
    text = emit_sim_protocol(lift_protocol(decide(wing, "incomplete").tree, wing))
    assert '"rows"' not in text
    assert text.count('{"complement": true}') == 2  # the two give-up arms


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
    w = op.matrix @ s.locals[op.party]
    prob = float(np.linalg.norm(w) ** 2)
    if prob <= tol:
        return None, prob
    locals_ = list(s.locals)
    locals_[op.party] = _phase_normalize(normalize(w, tol), tol)
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


REFERENCE_DIMS = [(2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2), (2, 1, 2), (3, 3, 3), (4, 4, 4),
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


def _projective(party, basis, children):
    """The node measuring ``party`` in the rows of ``basis``, one child per row."""
    ops = tuple(LocalOperator(party, np.outer(b, b.conj())) for b in np.asarray(basis, complex))
    return SimNode(Instrument(party, ops), tuple(children))


@pytest.mark.parametrize("tol", REFERENCE_TOLS)
def test_mixed_shape_levels_match_reference_walk(tol):
    # the second level holds square images at both parties and a qutrit
    # squeezed to a qubit and to a line, so its buffers split into several
    # dims, and two of them meet again as one group on the third level
    e = _dressed(random_product_basis((3, 2), 4, depth=3), 4)
    labels = e.labels
    half = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rotated = random_unitary(3, np.random.default_rng(5))
    leaves = [SimLeaf(label) for label in labels] + [SimLeaf(None)]
    squeeze = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8j]])
    rest = np.array([[0.0, 0.8, -0.6j]])
    a = _projective(1, half, [_projective(0, np.eye(3), leaves[:3]), leaves[3]])
    b = SimNode(Instrument(0, (LocalOperator(0, squeeze), LocalOperator(0, rest))),
                (_projective(0, half, leaves[4:6]), _projective(1, np.eye(2), leaves[1:3])))
    c = _projective(0, rotated, [_projective(1, half, leaves[i : i + 2]) for i in range(3)])
    tree = _projective(0, np.eye(3), [a, b, c])
    ref = _reference_report(e, tree, tol)
    assert _report_bytes(run_protocol(e, tree, tol)) == _report_bytes(ref)


def _failing(kind, depth):
    """A chain of ``depth`` identities at party 1 above an operator that fails on comp2x2's states.

    A misfit is the identity on a qutrit or a ququart; "fit", the identity
    on a qubit, fails nowhere.  The overflowing operator is not complete,
    so a run reaches it only with the completeness check lifted.
    """
    matrix = {"fit": np.eye(2), "overflow": 1e200 * np.eye(2), "misfit3": np.eye(3),
              "misfit4": np.eye(4)}[kind]
    node = SimNode(Instrument(0, (LocalOperator(0, matrix),)), (SimLeaf(None),))
    for _ in range(depth):
        node = SimNode(Instrument(1, (LocalOperator(1, np.eye(2)),)), (node,))
    return node


def _halves(first, second):
    """The root measuring party 0 in the standard basis, above the two given subtrees."""
    halves = (LocalOperator(0, np.diag([1.0, 0.0])), LocalOperator(0, np.diag([0.0, 1.0])))
    return SimNode(Instrument(0, halves), (_failing(*first), _failing(*second)))


@pytest.mark.parametrize(
    "first, second, expected",
    [(("misfit3", 4), ("misfit4", 0), 3), (("misfit4", 1), ("misfit3", 1), 4),
     (("misfit3", 0), ("misfit4", 3), 3), (("misfit4", 4), ("overflow", 0), 4),
     (("overflow", 0), ("misfit3", 3), 3)],
)
def test_the_first_misfit_in_pre_order_is_raised_before_any_state_runs(
    monkeypatch, first, second, expected
):
    # each subtree of the root holds two of comp2x2's states and fails at
    # the given depth below it; the first misfit in pre-order is raised,
    # however deep it lies, and a misfit anywhere comes before an overflow
    monkeypatch.setattr("loccdist.simulate._require_complete", lambda ins, tol: None)
    monkeypatch.setattr("loccdist.simulate._images", None)  # no state runs
    with pytest.raises(DimensionError, match=f"expects dimension {expected},"):
        run_protocol(catalog("comp2x2"), _halves(first, second))


def test_an_overflow_with_no_misfit_is_a_schema_error(monkeypatch):
    monkeypatch.setattr("loccdist.simulate._require_complete", lambda ins, tol: None)
    with pytest.raises(SchemaError, match="an outcome probability overflows a double"):
        run_protocol(catalog("comp2x2"), _halves(("fit", 1), ("overflow", 2)))


def _unreached_misfit():
    """comp2x2's protocol with a third root outcome, the zero operator, above a qutrit identity.

    Every instrument is complete and every label known, but no state
    reaches the qutrit identity, which does not fit party 0's qubits.
    """
    measure = [_projective(1, np.eye(2), [SimLeaf(f"s{i}0"), SimLeaf(f"s{i}1")]) for i in (0, 1)]
    qutrit = SimNode(Instrument(0, (LocalOperator(0, np.eye(3)),)), (SimLeaf(None),))
    mats = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)))
    ops = [LocalOperator(0, m) for m in mats]
    return SimNode(Instrument(0, tuple(ops)), (*measure, qutrit))


def test_a_misfit_no_state_reaches_is_refused():
    e, tree = catalog("comp2x2"), _unreached_misfit()
    # without the unreached branch the protocol is perfect
    ops = tree.instrument.operators
    assert run_protocol(e, SimNode(Instrument(0, ops[:2]), tree.children[:2])).perfect
    with pytest.raises(DimensionError, match="operator expects dimension 3, state party 0 has 2"):
        run_protocol(e, tree)
    # an empty ensemble has dims too, though no state reaches any node
    empty = Ensemble("empty", (2, 2), (), complete=False)
    far = SimNode(Instrument(10**30, (LocalOperator(10**30, np.eye(2)),)), (SimLeaf(None),))
    with pytest.raises(DimensionError, match=f"state has no party {10**30}"):
        run_protocol(empty, far)


def test_run_walks_a_chain_deeper_than_the_recursion_limit():
    # 2,000 instruments in a chain, built directly: the identity on either
    # party above the lifted protocol, which then tells the states apart
    e = catalog("comp2x2")
    tree = lift_protocol(decide(e, "complete").tree, e)
    steps = [Instrument(p, (LocalOperator(p, np.eye(2)),)) for p in (0, 1)]
    for i in range(2000):
        tree = SimNode(steps[i % 2], (tree,))
    assert 2000 > sys.getrecursionlimit()
    report = run_protocol(e, tree)
    assert report.perfect and report.warnings == ()
    for recs in report.branches.values():
        assert len(recs) == 1 and recs[0][0][:2000] == (0,) * 2000 and recs[0][1] == 1.0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_finished_images_are_those_of_one_image_at_a_time(d):
    # a stack of 1 to 64 images comes out of _finish as each image alone
    # comes out of normalize and the one-row phase rule, bit for bit: one-entry
    # images, as of a factor cut to dimension 1, and wider ones as a control
    rng, tol = np.random.default_rng(d), 1e-9
    for _ in range(1000):
        k = int(rng.integers(1, 65))
        w = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
        w *= 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        w.imag[rng.random(k) < 0.2] = 0.0  # real leads, positive or negative
        expected = b"".join(_phase_normalize(normalize(v, tol), tol).tobytes() for v in w)
        norms, _ = simulate._probabilities(w)
        assert simulate._finish(w, norms, tol).tobytes() == expected


def test_stacks_group_operators_by_output_dimension():
    # a qutrit cut into a qubit and a one-dimensional factor, operators interleaved
    cut = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8j], [0.0, 0.8, -0.6j]])
    ins = Instrument(0, (LocalOperator(0, cut[2:]), LocalOperator(0, cut[:2]),
                         LocalOperator(0, np.zeros((1, 3)))))
    assert [(ix, ms.shape) for ix, ms in ins.stacks] == [((0, 2), (2, 1, 3)), ((1,), (1, 2, 3))]
    for ix, ms in ins.stacks:
        for i, m in zip(ix, ms):
            assert m.tobytes() == ins.operators[i].matrix.tobytes()
    assert simulate._defects((ins,))[0] < 1e-12


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
