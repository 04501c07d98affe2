"""The greedy finest-split decision procedure and its witnesses."""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdist import (
    CATALOG_NAMES,
    Ensemble,
    InvalidModeError,
    LoccError,
    MeasurementStep,
    NumericalInstabilityError,
    ProductState,
    SchemaError,
    StepOutcome,
    StuckCertificate,
    TraceLeaf,
    TraceSplit,
    TraceStuck,
    Verdict,
    apply_local_unitaries,
    basis_vector,
    catalog,
    components,
    decide,
    emit_ensemble,
    exhaustive_decide,
    normalize,
    overlap_graph,
    parse_ensemble,
    parse_protocol,
    random_product_basis,
    random_unitary,
    stuck_certificate,
    verdict_to_json,
)
from loccdist import ensemble, oracle
from loccdist.cli import main
from loccdist.jsonio import canonical_dumps, parse_json
from loccdist.linalg import DEFAULT_TOL
from test_acceptance import SWEEP_FAMILIES, SWEEP_SEEDS


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
# the finest split


def test_no_step_on_full_bennett9():
    # the certificate raises SchemaError unless every party's graph is connected
    e = catalog("bennett9")
    assert stuck_certificate(e, e.labels).subset == e.labels


def test_first_step_on_computational_basis():
    e = catalog("comp2x2")
    step = decide(e, "complete").trace.step
    assert step.party == 0
    assert tuple(o.block for o in step.outcomes) == (("s00", "s01"), ("s10", "s11"))
    assert np.allclose(step.outcomes[0].basis, [[1.0, 0.0]])
    assert np.allclose(step.outcomes[1].basis, [[0.0, 1.0]])


def test_cube64_root_step_splits_third_party_into_four():
    e = catalog("cube64")
    step = decide(e, "complete").trace.step
    assert step.party == 2
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
    graphs = [overlap_graph(e, subset, party) for party in range(e.parties)]
    g = next(g for g in graphs if len(g.blocks()) >= 2)
    part = components(g)
    assert part.party == 1
    total = np.zeros((3, 3), dtype=np.complex128)
    for span in part.spans:
        for b in span:
            total += np.outer(b, b.conj())
    stack = np.array([e.party_arrays[1][e.index(label)] for label in subset]).T
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


def _kron(e, f):
    """The product basis of ``e`` and ``f``: state ``a.b`` holds ``u_a (x) v_b`` at each party."""
    arrays = [np.einsum("ni,mj->nmij", a, b).reshape(len(a) * len(b), -1)
              for a, b in zip(e.party_arrays, f.party_arrays)]
    labels = [f"{a}.{b}" for a in e.labels for b in f.labels]
    return ensemble._from_rows(f"{e.name}*{f.name}", labels, arrays, e.complete and f.complete)


def test_kronecker_product_is_distinguishable_iff_both_factors_are():
    # a product of two complete bases can be told apart iff each factor can;
    # up to n = 256, with many stuck blocks wherever a factor is one of the
    # tile bases of Bennett et al. (PRA 59, 1070, 1999)
    pool = [catalog(name) for name in ("bennett9", "grid16", "comp2x2")]
    pool += [random_product_basis(dims, seed, depth=seed % 4)
             for dims in [(2, 2), (3, 3), (2, 3), (2, 4)] for seed in range(6)]
    alone = [decide(e, "complete").distinguishable for e in pool]
    assert True in alone and False in alone
    mismatches = []
    for (e, x), (f, y) in itertools.product(zip(pool, alone), repeat=2):
        k = _kron(e, f)
        assert k.dims == tuple(a * b for a, b in zip(e.dims, f.dims))
        if decide(k, "complete").distinguishable != (x and y):
            mismatches.append(k.name)
    assert len(pool) ** 2 == 729 and mismatches == []


def _merge(e, group):
    """``e`` with the parties in ``group`` held as one, at the first one's place.

    The merged party's row for each state is the Kronecker product of the
    group's rows, in party order.
    """
    rows = functools.reduce(
        lambda a, b: np.einsum("ni,nj->nij", a, b).reshape(len(a), -1),
        [e.party_arrays[p] for p in group],
    )
    arrays = [rows if p == group[0] else a
              for p, a in enumerate(e.party_arrays) if p == group[0] or p not in group]
    return ensemble._from_rows(f"{e.name}/{group}", e.labels, arrays, e.complete)


def test_merging_parties_keeps_a_distinguishable_basis_distinguishable():
    # coarse-graining: parties that pool their systems can run any protocol
    # the separate parties could, so a basis told apart by local measurements
    # stays so when any group of its parties is merged into one party
    # (the per-bipartition law behind Halder et al., PRL 122, 040403, 2019)
    pool = [random_product_basis(dims, seed, depth)
            for dims in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2), (2, 3, 3)]
            for depth in (2, 4, 6) for seed in range(8)]
    cube = catalog("cube64")
    rng = np.random.default_rng(5)
    pool += [cube] + [apply_local_unitaries(cube, [random_unitary(d, rng) for d in cube.dims])
                      for _ in range(3)]
    merges = violations = 0
    verdicts = set()
    for e in pool:
        alone = decide(e, "complete").distinguishable
        for size in range(2, e.parties):
            for group in itertools.combinations(range(e.parties), size):
                merged = _merge(e, group)
                assert len(merged.dims) == e.parties - size + 1
                together = decide(merged, "complete").distinguishable
                verdicts.add((alone, together))
                merges += 1
                violations += alone and not together
    assert (len(pool), merges, violations) == (148, 612, 0)
    # the random bases are all distinguishable; cube64 gives the other two pairs
    assert verdicts == {(True, True), (False, True), (False, False)}
    # cube64 is grid16 on A and B times the standard basis on C: told apart
    # once A and B pool their systems, not when C joins either of them
    assert [decide(_merge(cube, g), "complete").kind for g in [(0, 1), (0, 2), (1, 2)]] == [
        "distinguishable", "indistinguishable", "indistinguishable"]


# ---------------------------------------------------------------------------
# certificates


def test_stuck_certificate_for_full_bennett9():
    e = catalog("bennett9")
    cert = stuck_certificate(e, e.labels)
    assert cert.subset == e.labels
    assert tuple(g.party for g in cert.graphs) == (0, 1)
    for g in cert.graphs:
        assert g.edges == overlap_graph(e, e.labels, g.party).edges


@pytest.mark.parametrize("name", ["cube64", "comp2x2"])
def test_traces_compare_and_hash_by_value(name):
    # two separately built copies: their graphs, spans and bases are equal
    # values in distinct objects, so the comparison reads every field
    a, b = (decide(catalog(name), "complete").trace for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a, b} == {a} and b in {a}


def _tilted9():
    """bennett9 with its two party-1 tiles turned by unequal angles, still a complete basis.

    Four overlaps at party 1 become products of the angles' sines and
    cosines, each unlike every other overlap of the basis.
    """
    t, f = 0.80, 0.75
    k = lambda i: basis_vector(3, i)
    parts = [
        (k(0), k(0)),
        (k(2), math.cos(t) * k(2) + math.sin(t) * k(0)),
        (k(2), math.sin(t) * k(2) - math.cos(t) * k(0)),
        (k(1), math.cos(f) * k(0) + math.sin(f) * k(1)),
        (k(1), math.sin(f) * k(0) - math.cos(f) * k(1)),
    ] + [tuple(s.locals) for s in catalog("bennett9").states[5:]]
    states = [ProductState(f"psi{i + 1}", p) for i, p in enumerate(parts)]
    return Ensemble("tilted9", (3, 3), states, complete=True)


def test_stuck_traces_differ_by_one_certificate_edge():
    # at 0.48 only psi3-psi5 at party 1, overlap cos(t) * sin(f) = 0.475,
    # leaves the graphs; the trace is still stuck on all nine states
    e = _tilted9()
    low, high = (decide(e, "complete", tol).trace for tol in (1e-9, 0.48))
    assert isinstance(low, TraceStuck) and isinstance(high, TraceStuck)
    g, h = low.certificate.graphs, high.certificate.graphs
    assert low.certificate.subset == high.certificate.subset == e.labels
    assert g[0] == h[0] and g[1] != h[1]
    assert h[1].edges < g[1].edges and g[1].edges - h[1].edges == {("psi3", "psi5")}
    assert hash(low) == hash(high) and low != high


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
        ([[0, 0], [0, 0]], "protocol: outcome 0 basis vector 1: cannot normalize a vector of norm 0.0"),
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
                                v
                                + scale
                                * (rng.standard_normal(len(v)) + 1j * rng.standard_normal(len(v)))
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
    # verdict JSON and through the oracle; no ProductState is made, and the
    # ensemble's states view is never built
    text = emit_ensemble(make())
    counts = {"ProductState": 0}
    init = ensemble.ProductState.__init__

    def counted(*args, **kwargs):
        counts["ProductState"] += 1
        return init(*args, **kwargs)

    monkeypatch.setattr(ensemble.ProductState, "__init__", counted)
    e = parse_ensemble(text)
    verdict = decide(e, "complete")
    doc = verdict_to_json(verdict)
    assert exhaustive_decide(e).kind == verdict.kind
    assert counts == {"ProductState": 0}
    assert "states" not in e.__dict__
    assert doc["verdict"] == verdict.kind


def _two_unstable_subtrees(first):
    """Two subtrees under a root split at party 0, each with an unstable split.

    In subtree A the graph splits first at party 2, in B at party 1: b's
    sliver of 1.5 * tol puts a whole second direction into the span of
    {a, b}, which c (0.5 along it in A, 0.3 in B) overlaps while staying
    below tol against a and b.  Party 3 makes a and b orthogonal.
    ``first`` names the subtree whose states come first, and so which
    split comes first in pre-order.
    """
    tol = 1e-3
    e0 = basis_vector(3, 0)
    a, b = normalize([1.0, 0.0, 0.0]), normalize([1.0, 1.5 * tol, 0.0])
    c_a, c_b = normalize([0.0, 0.5, np.sqrt(0.75)]), normalize([0.0, 0.3, np.sqrt(0.91)])
    ket = [basis_vector(2, 0), basis_vector(2, 1)]
    subtree = {
        "A": [(ket[0], e0, a, ket[0]), (ket[0], e0, b, ket[1]), (ket[0], e0, c_a, ket[0])],
        "B": [(ket[1], a, e0, ket[0]), (ket[1], b, e0, ket[1]), (ket[1], c_b, e0, ket[0])],
    }
    order = [first, "B" if first == "A" else "A"]
    states = [ProductState(f"{name}{i}", vs) for name in order for i, vs in enumerate(subtree[name])]
    return Ensemble("two-unstable", (2, 3, 3, 2), tuple(states), complete=False), tol


@pytest.mark.parametrize("first, message", [
    ("A", "blocks 0 and 1 at party 2 have span overlap 5.000e-01, beyond 10*tol"),
    ("B", "blocks 0 and 1 at party 1 have span overlap 3.000e-01, beyond 10*tol"),
])
def test_decide_raises_the_instability_of_the_first_split_in_pre_order(first, message):
    # both subtrees hold an unstable split; the one met first in pre-order is
    # reported, whichever party it measures, and no check that raised is kept
    e, tol = _two_unstable_subtrees(first)
    for _ in range(2):
        with pytest.raises(NumericalInstabilityError) as info:
            decide(e, "incomplete", tol)
        assert str(info.value) == message
    # each subtree's one split is its unstable one
    assert not [key for key in e._memo if key[0] == "checked" and key[2] in (0b000111, 0b111000)]


# ---------------------------------------------------------------------------
# the trace is built on first read

TRACE_TYPES = (TraceSplit, TraceLeaf, TraceStuck, MeasurementStep, StepOutcome)


@pytest.fixture
def trace_nodes_made(monkeypatch):
    """The names of the trace node types constructed while the test runs, in order."""
    made: list[str] = []

    def counted(cls, init):
        def wrapped(self, *args, **kwargs):
            made.append(cls.__name__)
            init(self, *args, **kwargs)
        return wrapped

    for cls in TRACE_TYPES:
        monkeypatch.setattr(cls, "__init__", counted(cls, cls.__init__))
    return made


def _catalog_and_random():
    return [catalog(name) for name in CATALOG_NAMES] + [
        random_product_basis(dims, seed, depth=seed % 4)
        for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)) for seed in range(5)
    ]


def test_reading_kind_and_certificate_builds_no_trace(trace_nodes_made):
    cases = [(e, "complete" if e.complete else "incomplete") for e in _catalog_and_random()]
    verdicts = [decide(e, mode) for e, mode in cases]
    kinds = {v.kind for v in verdicts}
    certificates = [v.certificate for v in verdicts]
    assert trace_nodes_made == []
    assert kinds == {"distinguishable", "indistinguishable", "unknown"}
    assert sum(c is not None for c in certificates) >= 4
    for v in verdicts:
        v.trace
    assert {"TraceSplit", "TraceLeaf", "TraceStuck", "StepOutcome"} <= set(trace_nodes_made)


def test_plain_check_and_the_oracle_sweep_build_no_trace(tmp_path, trace_nodes_made):
    paths = []
    for e in (catalog("bennett9"), catalog("comp2x2"), random_product_basis((3, 3), 2, depth=3)):
        paths.append(tmp_path / f"{e.name}.json")
        paths[-1].write_text(emit_ensemble(e), encoding="utf-8")
    assert [main(["check", str(path)]) for path in paths] == [1, 0, 0]
    assert main(["oracle", "--seed-sweep=20", "--dims=2,3"]) == 0
    assert main(["oracle", str(paths[0])]) == 0
    assert trace_nodes_made == []
    assert main(["check", "--json", str(paths[1])]) == 0
    assert "TraceSplit" in trace_nodes_made


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_the_trace_is_built_once_and_is_the_tree_of_a_protocol(name):
    e = catalog(name)
    v = decide(e, "complete" if e.complete else "incomplete")
    trace = v.trace
    assert v.trace is trace
    if v.distinguishable:
        assert v.tree is trace and v.certificate is None
    else:
        assert v.tree is None
        first = next(node for node in _preorder(trace) if isinstance(node, TraceStuck))
        assert first.certificate is v.certificate
    w = decide(e, "complete" if e.complete else "incomplete")
    if w.distinguishable:
        assert w.tree is w.trace  # read in the other order
    assert w.trace == trace


def _acceptance_bases():
    """The 400 bases of the acceptance sweep."""
    return [random_product_basis(dims, seed=seed, depth=seed % 4)
            for dims in SWEEP_FAMILIES for seed in range(SWEEP_SEEDS)]


def test_an_unread_verdict_equals_its_eager_rebuild():
    bases = [catalog(name) for name in CATALOG_NAMES] + _acceptance_bases()
    assert len(bases) == 405
    for e in bases:
        mode = "complete" if e.complete else "incomplete"
        read = decide(e, mode)
        eager = Verdict(read.kind, read.tree, read.certificate, read.trace)
        # each comparison meets a verdict whose trace is not built yet
        assert decide(e, mode) == eager
        assert hash(decide(e, mode)) == hash(eager)
        assert repr(decide(e, mode)) == repr(eager)


def test_an_unread_distinguishable_verdict_keeps_no_ensemble():
    e = random_product_basis((3, 3, 2), 1, depth=4)
    v = decide(e, "complete")
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert v.distinguishable and ref() is None
    assert len(_leaf_labels(v.tree)) == 18


def test_a_stuck_verdict_keeps_its_ensemble_for_the_later_certificates():
    # cube64 splits once, then sticks in each of its four blocks
    e = catalog("cube64")
    v = decide(e, "complete")
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is not None
    stuck = [node for node in _preorder(v.trace) if isinstance(node, TraceStuck)]
    assert len(stuck) == 4 and stuck[0].certificate is v.certificate
    fresh = decide(catalog("cube64"), "complete").trace
    assert v.trace == fresh


def _failing_cases():
    b9 = catalog("bennett9")
    overlapping = Ensemble(b9.name, b9.dims, (ProductState("psi1", b9.states[3].locals),)
                           + b9.states[1:], complete=True)
    return [
        (catalog("comp2x2"), "bogus", DEFAULT_TOL, InvalidModeError),
        (catalog("finkelstein9"), "complete", DEFAULT_TOL, InvalidModeError),
        (overlapping, "incomplete", DEFAULT_TOL, InvalidModeError),
        (Ensemble("empty", (2,), (), complete=False), "incomplete", DEFAULT_TOL,
         InvalidModeError),
    ] + [(e, "incomplete", tol, NumericalInstabilityError)
         for e, tol in map(_two_unstable_subtrees, "AB")]


def test_every_error_raises_from_decide_itself(trace_nodes_made):
    # mode errors and a split's span check are eager: none waits for the trace
    for e, mode, tol, error in _failing_cases():
        with pytest.raises(error):
            decide(e, mode, tol)
    assert trace_nodes_made == []


def test_decide_and_the_oracle_look_up_no_label(monkeypatch):
    # a certificate's graphs come from its mask's rows, not from its labels
    looked_up = []
    index = Ensemble.index
    monkeypatch.setattr(Ensemble, "index",
                        lambda self, label: looked_up.append(label) or index(self, label))
    bases = [catalog("bennett9"), catalog("cube64"), catalog("grid16")]
    verdicts = [decide(e, "complete") for e in bases] + [exhaustive_decide(bases[0])]
    assert looked_up == []
    for e, v in zip(bases + bases[:1], verdicts):
        again = stuck_certificate(e, v.certificate.subset)
        assert v.certificate == again
        doc = verdict_to_json(Verdict(v.kind, certificate=again))
        assert canonical_dumps(doc) == canonical_dumps(verdict_to_json(v))
