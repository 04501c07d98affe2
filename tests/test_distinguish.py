"""The greedy finest-split decision procedure and its witnesses."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdist import (
    Ensemble,
    InvalidModeError,
    LoccError,
    NumericalInstabilityError,
    ProductState,
    SchemaError,
    StuckCertificate,
    TraceLeaf,
    TraceSplit,
    TraceStuck,
    Verdict,
    apply_local_unitaries,
    basis_vector,
    catalog,
    decide,
    emit_ensemble,
    exhaustive_decide,
    finest_step,
    normalize,
    overlap_graph,
    parse_ensemble,
    parse_protocol,
    random_product_basis,
    random_unitary,
    stuck_certificate,
    verdict_to_json,
)
from loccdist import distinguish, ensemble, linalg, oracle, relativity, simulate
from loccdist.jsonio import canonical_dumps, parse_json


def _wing6():
    """The six outer states of bennett9 as a standalone sub-ensemble."""
    e = catalog("bennett9")
    return Ensemble("wing6", e.dims, e.states[3:], complete=False)


def _protocol_text(tree):
    """A protocol tree's JSON, as ``check --json`` writes it."""
    return canonical_dumps(verdict_to_json(Verdict("distinguishable", tree=tree))["protocol"])


def _leaf_labels(tree):
    if isinstance(tree, TraceLeaf):
        return [tree.label]
    out = []
    for child in tree.children:
        out.extend(_leaf_labels(child))
    return out


def _tree_shape(tree):
    """Party/block skeleton, ignoring the numerical projector bases."""
    if isinstance(tree, TraceLeaf):
        return ("leaf", tree.label)
    return (
        "node",
        tree.step.party,
        tuple(o.block for o in tree.step.outcomes),
        tuple(_tree_shape(c) for c in tree.children),
    )


def _permute_parties(e, perm):
    dims = tuple(e.dims[p] for p in perm)
    states = tuple(
        ProductState(s.label, tuple(s.locals[p] for p in perm)) for s in e.states
    )
    return Ensemble(e.name, dims, states, e.complete)


def _permute_states(e, perm):
    return Ensemble(e.name, e.dims, tuple(e.states[i] for i in perm), e.complete)


# ---------------------------------------------------------------------------
# finest_step


def test_no_step_on_full_bennett9():
    e = catalog("bennett9")
    assert finest_step(e, e.labels) is None


def test_first_step_on_computational_basis():
    e = catalog("comp2x2")
    step = finest_step(e, e.labels)
    assert step is not None and step.party == 0
    assert tuple(o.block for o in step.outcomes) == (("s00", "s01"), ("s10", "s11"))
    assert np.allclose(step.outcomes[0].basis, [[1.0, 0.0]])
    assert np.allclose(step.outcomes[1].basis, [[0.0, 1.0]])


def test_cube64_root_step_splits_third_party_into_four():
    e = catalog("cube64")
    step = finest_step(e, e.labels)
    assert step is not None and step.party == 2
    assert len(step.outcomes) == 4
    for c, outcome in enumerate(step.outcomes):
        assert outcome.block == tuple(f"psi{c * 16 + i + 1}" for i in range(16))
        assert outcome.basis.shape == (1, 4)
        assert np.allclose(outcome.basis[0], np.eye(4)[c])


def test_step_projectors_resolve_the_subset_span():
    # the outcome projectors must add up to the projector onto everything
    # the subset occupies at that party
    e = catalog("bennett9")
    subset = tuple(e.labels[3:])
    step = finest_step(e, subset)
    assert step is not None and step.party == 1
    total = np.zeros((3, 3), dtype=np.complex128)
    for outcome in step.outcomes:
        for b in outcome.basis:
            total += np.outer(b, b.conj())
    stack = np.array([e.vector(label, 1).entries for label in subset]).T
    q, _ = np.linalg.qr(stack)
    r = np.linalg.matrix_rank(stack, tol=1e-9)
    expected = q[:, :r] @ q[:, :r].conj().T
    assert np.max(np.abs(total - expected)) < 1e-10


def test_step_requires_at_least_two_outcomes():
    with pytest.raises(SchemaError):
        from loccdist import MeasurementStep, StepOutcome
        from loccdist import basis_vector

        MeasurementStep(0, (StepOutcome(("a",), (basis_vector(2, 0),)),))


def test_split_needs_one_child_per_outcome():
    step = decide(catalog("comp2x2"), "complete").tree.step
    with pytest.raises(SchemaError, match="node has 1 children for 2 outcomes"):
        TraceSplit(step=step, children=(TraceLeaf("s00"),))


# ---------------------------------------------------------------------------
# decide: catalog verdicts


def test_computational_basis_is_distinguishable():
    v = decide(catalog("comp2x2"), "complete")
    assert v.kind == "distinguishable" and v.distinguishable
    assert v.certificate is None
    tree = v.tree
    assert isinstance(tree, TraceSplit) and tree.step.party == 0
    for child in tree.children:
        assert isinstance(child, TraceSplit) and child.step.party == 1
        for leaf in child.children:
            assert isinstance(leaf, TraceLeaf)
    assert sorted(_leaf_labels(tree)) == ["s00", "s01", "s10", "s11"]


def test_bennett9_is_indistinguishable_with_root_certificate():
    e = catalog("bennett9")
    v = decide(e, "complete")
    assert v.kind == "indistinguishable"
    assert v.tree is None
    cert = v.certificate
    assert cert is not None and cert.subset == e.labels
    assert len(cert.graphs) == 2
    for g in cert.graphs:
        assert len(g.blocks()) == 1
    assert isinstance(v.trace, TraceStuck)


def test_grid16_is_indistinguishable():
    e = catalog("grid16")
    v = decide(e, "complete")
    assert v.kind == "indistinguishable"
    assert v.certificate.subset == e.labels


def _preorder(node):
    yield node
    for child in getattr(node, "children", ()):
        yield from _preorder(child)


@pytest.mark.parametrize("name", ["bennett9", "grid16", "cube64", "finkelstein9", "comp2x2"])
def test_certificate_is_the_first_stuck_block_and_a_protocol_is_the_trace(name):
    e = catalog(name)
    v = decide(e, "complete" if e.complete else "incomplete")
    stuck = [n.certificate for n in _preorder(v.trace) if isinstance(n, TraceStuck)]
    if stuck:
        assert v.kind != "distinguishable" and v.tree is None
        assert v.certificate is stuck[0]
    else:
        assert v.kind == "distinguishable" and v.certificate is None
        assert v.tree is v.trace


def test_cube64_splits_once_then_sticks_everywhere():
    v = decide(catalog("cube64"), "complete")
    assert v.kind == "indistinguishable"
    trace = v.trace
    assert isinstance(trace, TraceSplit) and trace.step.party == 2
    assert len(trace.children) == 4
    for child in trace.children:
        assert isinstance(child, TraceStuck)
        assert len(child.certificate.subset) == 16
    # the reported certificate is the first stuck block
    assert v.certificate.subset == trace.children[0].certificate.subset


def test_finkelstein9_is_unknown_in_incomplete_mode():
    e = catalog("finkelstein9")
    v = decide(e, "incomplete")
    assert v.kind == "unknown"
    assert v.tree is None
    assert v.certificate.subset == e.labels


def test_complete_basis_run_in_incomplete_mode_degrades_to_unknown():
    e = catalog("grid16")
    downgraded = Ensemble(e.name, e.dims, e.states, complete=False)
    assert decide(downgraded, "incomplete").kind == "unknown"


# ---------------------------------------------------------------------------
# decide: the six-state wing sub-ensemble, fully pinned down


def test_wing6_protocol_structure():
    v = decide(_wing6(), "incomplete")
    assert v.kind == "distinguishable"
    root = v.tree
    assert isinstance(root, TraceSplit)
    assert root.step.party == 1
    assert tuple(o.block for o in root.step.outcomes) == (
        ("psi4", "psi5", "psi6", "psi7"),
        ("psi8", "psi9"),
    )
    # left branch: the first party separates {4,5} from the isolated 6 and 7
    left = root.children[0]
    assert isinstance(left, TraceSplit) and left.step.party == 0
    assert tuple(o.block for o in left.step.outcomes) == (
        ("psi4", "psi5"),
        ("psi6",),
        ("psi7",),
    )
    pair, leaf6, leaf7 = left.children
    assert isinstance(pair, TraceSplit) and pair.step.party == 1
    assert tuple(o.block for o in pair.step.outcomes) == (("psi4",), ("psi5",))
    assert leaf6 == TraceLeaf("psi6") and leaf7 == TraceLeaf("psi7")
    # right branch: the first party separates 8 from 9
    right = root.children[1]
    assert isinstance(right, TraceSplit) and right.step.party == 0
    assert tuple(o.block for o in right.step.outcomes) == (("psi8",), ("psi9",))
    assert sorted(_leaf_labels(root)) == sorted(_wing6().labels)


# ---------------------------------------------------------------------------
# decide: modes and failure cases


def test_unknown_mode_rejected():
    with pytest.raises(InvalidModeError):
        decide(catalog("comp2x2"), "bogus")


def test_complete_mode_rejects_incomplete_ensemble():
    with pytest.raises(InvalidModeError):
        decide(catalog("finkelstein9"), "complete")
    with pytest.raises(InvalidModeError):
        decide(_wing6(), "complete")


def test_non_orthogonal_ensemble_rejected_in_both_modes():
    e = catalog("bennett9")
    bad = Ensemble(
        e.name,
        e.dims,
        (ProductState("psi1", e.states[3].locals),) + e.states[1:],
        complete=e.complete,
    )
    for mode in ("complete", "incomplete"):
        with pytest.raises(InvalidModeError):
            decide(bad, mode)


def test_empty_ensemble_rejected():
    empty = Ensemble("empty", (2,), (), complete=False)
    with pytest.raises(InvalidModeError):
        decide(empty, "incomplete")


@pytest.mark.parametrize("seed", range(6))
def test_complete_mode_never_returns_unknown(seed):
    v = decide(random_product_basis((2, 3), seed=seed), "complete")
    assert v.kind in ("distinguishable", "indistinguishable")


@pytest.mark.parametrize("seed", range(6))
def test_distinguishable_tree_reaches_each_state_once(seed):
    e = random_product_basis((3, 3), seed=seed)
    v = decide(e, "complete")
    assert v.kind == "distinguishable"
    assert sorted(_leaf_labels(v.tree)) == sorted(e.labels)


# ---------------------------------------------------------------------------
# order independence and unitary invariance


@pytest.mark.parametrize("name", ["bennett9", "grid16", "cube64", "comp2x2"])
def test_verdict_survives_reordering_catalog(name):
    e = catalog(name)
    base = decide(e, "complete")
    rng = np.random.default_rng(17)
    for _ in range(10):
        party_perm = tuple(rng.permutation(e.parties))
        state_perm = tuple(rng.permutation(len(e.states)))
        shuffled = _permute_states(_permute_parties(e, party_perm), state_perm)
        v = decide(shuffled, "complete")
        assert v.kind == base.kind
        if base.kind == "distinguishable":
            assert sorted(_leaf_labels(v.tree)) == sorted(_leaf_labels(base.tree))


@pytest.mark.parametrize("seed", range(10))
def test_verdict_survives_reordering_generated(seed):
    e = random_product_basis((2, 2, 2), seed=seed)
    base = decide(e, "complete")
    rng = np.random.default_rng(1000 + seed)
    for _ in range(5):
        shuffled = _permute_states(
            _permute_parties(e, tuple(rng.permutation(3))),
            tuple(rng.permutation(len(e.states))),
        )
        v = decide(shuffled, "complete")
        assert v.kind == base.kind
        if base.kind == "distinguishable":
            assert sorted(_leaf_labels(v.tree)) == sorted(_leaf_labels(base.tree))


def _bennett9_beside(k, position):
    """bennett9 once per state of a k-dimensional party inserted at ``position``.

    The new party splits the basis into k copies of bennett9, each stuck.
    """
    states = []
    for c in range(k):
        for s in catalog("bennett9").states:
            local = (*s.locals[:position], basis_vector(k, c), *s.locals[position:])
            states.append(ProductState(f"{s.label}-{c}", local))
    dims = (3, 3)[:position] + (k,) + (3, 3)[position:]
    return Ensemble(f"bennett9x{k}", dims, states, complete=True)


def _stuck_blocks(v):
    stuck = (n for n in _preorder(v.trace) if isinstance(n, TraceStuck))
    return {frozenset(n.certificate.subset) for n in stuck}


@st.composite
def _small_bases(draw):
    """A basis over at most three parties of dimension at most 3, in new local bases."""
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        e = random_product_basis(dims, seed, draw(st.integers(0, 6)))
    else:
        e = _bennett9_beside(draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    rng = np.random.default_rng(seed)
    return apply_local_unitaries(e, [random_unitary(d, rng) for d in e.dims])


@settings(max_examples=200, deadline=None)
@given(e=_small_bases(), data=st.data())
def test_stuck_blocks_do_not_depend_on_party_or_state_order(e, data):
    """The greedy search's stuck blocks, as label sets, are the same in every order.

    Reordering parties changes which party splits first, and reordering
    states changes the indices, but not the blocks that end up stuck.  A
    block S that is connected at every party stays inside one component of
    any superset T at every party, because restricting T's graph to S only
    removes edges.  So every split of a subset that holds S, in any order,
    keeps S within one block, and S lies inside a stuck block S' of any other
    run.  By the same argument S' lies inside a stuck block of the first
    run, which meets S and so is S: S' = S.  A state that ends in a leaf in
    one run cannot lie in a stuck block of another for the same reason.
    Where n <= 12 the exhaustive oracle must agree with both runs.
    """
    parties = data.draw(st.permutations(range(e.parties)))
    states = data.draw(st.permutations(range(len(e.labels))))
    shuffled = _permute_states(_permute_parties(e, parties), states)
    base, moved = decide(e, "complete"), decide(shuffled, "complete")
    assert moved.kind == base.kind
    assert _stuck_blocks(moved) == _stuck_blocks(base)
    assert bool(_stuck_blocks(base)) == (base.kind == "indistinguishable")
    if len(e.labels) <= oracle.MAX_ORACLE_STATES:
        assert exhaustive_decide(e).kind == exhaustive_decide(shuffled).kind == base.kind


@pytest.mark.parametrize("name", ["bennett9", "comp2x2", "cube64"])
def test_verdict_survives_local_unitaries(name):
    e = catalog(name)
    base = decide(e, "complete")
    rng = np.random.default_rng(23)
    dressed = apply_local_unitaries(e, [random_unitary(d, rng) for d in e.dims])
    v = decide(dressed, "complete")
    assert v.kind == base.kind
    if base.kind == "distinguishable":
        assert _tree_shape(v.tree) == _tree_shape(base.tree)


# ---------------------------------------------------------------------------
# certificates


def test_stuck_certificate_for_full_bennett9():
    e = catalog("bennett9")
    cert = stuck_certificate(e, e.labels)
    assert cert.subset == e.labels
    assert tuple(g.party for g in cert.graphs) == (0, 1)
    for g in cert.graphs:
        assert g.edges == overlap_graph(e, e.labels, g.party).edges


def test_certificate_rejects_splittable_subset():
    e = catalog("comp2x2")
    with pytest.raises(SchemaError):
        stuck_certificate(e, e.labels)
    graphs = tuple(overlap_graph(e, e.labels, p) for p in range(2))
    with pytest.raises(SchemaError):
        StuckCertificate(subset=e.labels, graphs=graphs)


# ---------------------------------------------------------------------------
# serialization


def test_protocol_round_trip_identity_comp2x2():
    tree = decide(catalog("comp2x2"), "complete").tree
    assert parse_protocol(_protocol_text(tree)) == tree


@pytest.mark.parametrize("seed", [0, 4, 7])
def test_protocol_round_trip_identity_generated(seed):
    e = random_product_basis((2, 3), seed=seed)
    v = decide(e, "complete")
    assert v.kind == "distinguishable"
    tree = v.tree
    assert parse_protocol(_protocol_text(tree)) == tree


def test_protocol_json_layout():
    doc = parse_json(_protocol_text(decide(catalog("comp2x2"), "complete").tree))
    assert doc["party"] == 0
    assert doc["outcomes"][0]["block"] == ["s00", "s01"]
    assert doc["outcomes"][0]["basis"] == [[[1, 0], [0, 0]]]
    assert doc["outcomes"][1]["basis"] == [[[0, 0], [1, 0]]]
    assert doc["children"][0]["outcomes"][0]["block"] == ["s00"]
    assert doc["children"][0]["children"][0] == {"leaf": "s00"}


def test_leaf_serialization():
    assert _protocol_text(TraceLeaf("psi1")) == '{"leaf": "psi1"}'
    assert parse_protocol('{"leaf": "psi1"}') == TraceLeaf("psi1")


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{}",
        '{"leaf": 3}',
        '{"party": 0, "outcomes": [], "children": [{"leaf": "a"}]}',
        '{"party": -1, "outcomes": [], "children": []}',
        '{"party": 0, "outcomes": [{"block": ["a"]}], "children": [{"leaf": "a"}]}',
        '{"party": 0, "outcomes": [{"block": ["a"], "basis": []}],'
        ' "children": [{"leaf": "a"}]}',
        '{"party": 0, "outcomes": [{"block": ["a"], "basis": [[[NaN, 0], [1, 0]]]},'
        ' {"block": ["b"], "basis": [[[0, 0], [1, 0]]]}],'
        ' "children": [{"leaf": "a"}, {"leaf": "b"}]}',
    ],
)
def test_protocol_parse_rejects_malformed(text):
    with pytest.raises(SchemaError):
        parse_protocol(text)


@pytest.mark.parametrize(
    "second,message",
    [
        ([[0, 0], [True, 0]],
         "protocol: outcome 0 basis vector 1: entry 1 must be a [re, im] pair of finite numbers"),
        ([[0, 0], [0, 0]], "cannot normalize a vector of norm 0.0"),
        ([[0, 0], [0, 0], [1, 0]], "protocol: outcome 0: basis vectors must have dimension 2"),
    ],
)
def test_protocol_basis_errors_name_the_vector_and_entry(second, message):
    outcome = {"block": ["a"], "basis": [[[1, 0], [0, 0]], second]}
    other = {"block": ["b"], "basis": [[[0, 0], [1, 0]]]}
    text = json.dumps({"party": 0, "outcomes": [outcome, other],
                       "children": [{"leaf": "a"}, {"leaf": "b"}]})
    with pytest.raises(LoccError) as info:
        parse_protocol(text)
    assert str(info.value) == message


def test_verdict_json_layouts():
    dist = verdict_to_json(decide(catalog("comp2x2"), "complete"))
    assert dist["verdict"] == "distinguishable"
    assert "protocol" in dist and "certificate" not in dist

    indist = verdict_to_json(decide(catalog("bennett9"), "complete"))
    assert indist["verdict"] == "indistinguishable"
    assert "certificate" in indist and "protocol" not in indist
    cert = indist["certificate"]
    assert cert["subset"] == [f"psi{i}" for i in range(1, 10)]
    assert [g["party"] for g in cert["graphs"]] == [0, 1]
    for g in cert["graphs"]:
        assert g["members"] == cert["subset"]
        assert all(isinstance(pair, list) and len(pair) == 2 for pair in g["edges"])

    unknown = verdict_to_json(decide(catalog("finkelstein9"), "incomplete"))
    assert unknown["verdict"] == "unknown"
    assert "certificate" in unknown


def test_verdict_json_is_deterministic():
    from loccdist.jsonio import canonical_dumps

    a = canonical_dumps(verdict_to_json(decide(catalog("cube64"), "complete")))
    b = canonical_dumps(verdict_to_json(decide(catalog("cube64"), "complete")))
    assert a == b


# ---------------------------------------------------------------------------
# noise robustness


def test_noisy_sweep_is_refused_or_keeps_its_verdict():
    # The 400 acceptance-sweep bases, each copied at four noise scales with
    # complex Gaussian noise on every local vector.  A copy that keeps
    # overlapping at every party must be refused as non-orthogonal, not
    # certified stuck.  One copy still flips: its decisive overlaps lie so
    # close to tol that only a gap check (exit 70 near tol) would refuse it.
    known_flip = ((2, 2, 2), 0, 3e-10)
    rng = np.random.default_rng(0)
    counts = {"invalid": 0, "unstable": 0, "kept": 0}
    flipped = []
    for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        for seed in range(100):
            e = random_product_basis(dims, seed=seed, depth=seed % 4)
            clean = decide(e, "complete").kind
            for scale in (3e-10, 6e-10, 1e-9, 1.5e-9):
                states = tuple(
                    ProductState(
                        s.label,
                        tuple(
                            normalize(
                                v.entries
                                + scale
                                * (rng.standard_normal(v.dim) + 1j * rng.standard_normal(v.dim))
                            )
                            for v in s.locals
                        ),
                    )
                    for s in e.states
                )
                noisy = Ensemble(e.name, e.dims, states, e.complete)
                try:
                    kind = decide(noisy, "complete").kind
                except InvalidModeError:
                    counts["invalid"] += 1
                except NumericalInstabilityError:
                    counts["unstable"] += 1
                else:
                    if kind == clean:
                        counts["kept"] += 1
                    else:
                        flipped.append((dims, seed, scale))
    assert flipped == [known_flip]
    assert counts == {"invalid": 1425, "unstable": 40, "kept": 134}


# ---------------------------------------------------------------------------
# the check path builds no vector wrappers


@pytest.mark.parametrize(
    "make",
    [lambda: catalog("bennett9"), lambda: random_product_basis((2, 2, 3), 4, depth=5)],
    ids=["bennett9", "random-2x2x3"],
)
def test_check_path_builds_no_vector_wrappers(monkeypatch, make):
    # spans, step bases and parsed rows stay stacked arrays from parse to
    # verdict JSON and through the oracle; no LocalVector or ProductState is
    # made, and the ensemble's states view is never built
    text = emit_ensemble(make())
    counts = {"LocalVector": 0, "ProductState": 0, "unit_vectors": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for cls in (linalg.LocalVector, ensemble.ProductState):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    for module in (linalg, ensemble, relativity, distinguish, simulate, oracle):
        if hasattr(module, "unit_vectors"):
            monkeypatch.setattr(module, "unit_vectors", counted("unit_vectors", module.unit_vectors))
    e = parse_ensemble(text)
    verdict = decide(e, "complete")
    doc = verdict_to_json(verdict)
    assert exhaustive_decide(e).kind == verdict.kind
    assert counts == {"LocalVector": 0, "ProductState": 0, "unit_vectors": 0}
    assert "states" not in e.__dict__
    assert doc["verdict"] == verdict.kind
