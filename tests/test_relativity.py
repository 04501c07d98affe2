"""Overlap graphs, component partitions, and chain searches.

Edge sets are recomputed here with raw numpy inner products before being
compared against the library.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdist import (
    DimensionError,
    Ensemble,
    InvalidModeError,
    NotFoundError,
    NumericalInstabilityError,
    ProductState,
    TooLargeError,
    basis_vector,
    catalog,
    chain_criterion,
    components,
    decide,
    emit_ensemble,
    normalize,
    overlap_graph,
    parse_ensemble,
    random_product_basis,
    random_unitary,
    relativity_chain,
    apply_local_unitaries,
    validate,
    verdict_to_json,
)
from loccdist.jsonio import canonical_dumps
from loccdist.linalg import span_basis
from loccdist.oracle import exhaustive_decide
from loccdist import relativity
from loccdist.relativity import block_span

TOL = 1e-9


def _oracle_edges(e, subset, party, tol=TOL):
    members = [label for label in e.labels if label in set(subset)]
    edges = set()
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            va = e.vector(a, party).entries
            vb = e.vector(b, party).entries
            if abs(np.vdot(va, vb)) > tol:
                edges.add((a, b))
    return frozenset(edges)


# ---------------------------------------------------------------------------
# overlap_graph


@pytest.mark.parametrize("name", ["bennett9", "grid16", "comp2x2", "finkelstein9"])
def test_graph_edges_match_oracle_on_catalog(name):
    e = catalog(name)
    for party in range(e.parties):
        g = overlap_graph(e, e.labels, party)
        assert g.party == party
        assert g.members == e.labels
        assert g.edges == _oracle_edges(e, e.labels, party)


@pytest.mark.parametrize("seed", range(4))
def test_graph_edges_match_oracle_on_generated(seed):
    e = random_product_basis((2, 3), seed=seed)
    for party in range(2):
        g = overlap_graph(e, e.labels, party)
        assert g.edges == _oracle_edges(e, e.labels, party)


def test_overlap_at_tol_is_not_an_edge():
    # |<u|at>| is exactly tol and |<u|above>| one ulp more: both fall in the
    # band the bulk products recompute pairwise, and only "above" is relative
    above = float(np.nextafter(TOL, 1.0))
    vectors = {"u": (1.0, 0.0), "at": (TOL, 1.0), "above": (above, 1.0)}
    states = []
    for label, (x, y) in vectors.items():
        v = normalize(np.array([x, np.sqrt(1.0 - x * x) * y]))
        states.append(ProductState(label, (v,)))
    e = Ensemble("boundary", (2,), tuple(states), complete=False)
    g = overlap_graph(e, e.labels, 0)
    assert g.edges == _oracle_edges(e, e.labels, 0)
    assert g.edges == frozenset({("u", "above"), ("at", "above")})
    assert [(a, b) for a, b, _ in validate(e).offending_pairs] == [
        ("u", "above"),
        ("at", "above"),
    ]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tol=st.floats(0.05, 0.5),
)
def test_validate_offends_exactly_on_edges_at_every_party(seed, tol):
    # four random, mostly non-orthogonal product states: a pair is
    # orthogonal iff some party's graph separates it
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    states = tuple(
        ProductState(
            f"s{i}",
            tuple(normalize(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for d in dims),
        )
        for i in range(4)
    )
    e = Ensemble("random", dims, states, complete=False)
    common = frozenset.intersection(
        *(overlap_graph(e, e.labels, p, tol).edges for p in range(e.parties))
    )
    report = validate(e, tol)
    assert {(a, b) for a, b, _ in report.offending_pairs} == common
    for a, b, mag in report.offending_pairs:
        assert mag > tol
    assert report.pairwise_orthogonal == (not common)


def test_full_bennett9_graphs_are_connected():
    e = catalog("bennett9")
    for party in range(2):
        g = overlap_graph(e, e.labels, party)
        assert len(g.blocks()) == 1


def test_comp2x2_first_party_graph():
    g = overlap_graph(catalog("comp2x2"), ("s00", "s01", "s10", "s11"), 0)
    assert g.edges == frozenset({("s00", "s01"), ("s10", "s11")})
    assert g.blocks() == (("s00", "s01"), ("s10", "s11"))


def test_subset_graph_second_party_splits_four_two():
    # the six wing states of bennett9, seen by the second party
    e = catalog("bennett9")
    subset = ("psi4", "psi5", "psi6", "psi7", "psi8", "psi9")
    g = overlap_graph(e, subset, 1)
    assert g.edges == _oracle_edges(e, subset, 1)
    assert g.blocks() == (("psi4", "psi5", "psi6", "psi7"), ("psi8", "psi9"))
    assert ("psi4", "psi5") not in g.edges  # |1+2> vs |1-2> are orthogonal
    assert ("psi4", "psi6") in g.edges
    assert g.neighbors("psi6") == ("psi4", "psi5", "psi7")


def test_members_follow_ensemble_order_not_input_order():
    e = catalog("bennett9")
    g = overlap_graph(e, ("psi9", "psi4", "psi6"), 1)
    assert g.members == ("psi4", "psi6", "psi9")


def test_graph_input_validation():
    e = catalog("comp2x2")
    with pytest.raises(NotFoundError):
        overlap_graph(e, ("s00", "nope"), 0)
    with pytest.raises(DimensionError):
        overlap_graph(e, ("s00",), 2)


def test_edgeless_graph_gives_singleton_blocks():
    e = catalog("comp2x2")
    g = overlap_graph(e, ("s00", "s11"), 0)
    assert g.edges == frozenset()
    assert g.blocks() == (("s00",), ("s11",))


@pytest.mark.parametrize("seed", range(4))
def test_subset_graph_is_induced_subgraph(seed):
    rng = np.random.default_rng(seed)
    e = catalog("bennett9")
    labels = list(e.labels)
    size = int(rng.integers(2, 8))
    subset = sorted(rng.choice(len(labels), size=size, replace=False))
    chosen = tuple(labels[i] for i in subset)
    for party in range(2):
        full = overlap_graph(e, e.labels, party)
        sub = overlap_graph(e, chosen, party)
        induced = frozenset(
            (a, b) for a, b in full.edges if a in set(chosen) and b in set(chosen)
        )
        assert sub.edges == induced


def _reference_blocks(members, adjacency):
    # plain depth-first search over the edge list, in member order
    seen, out = set(), []
    for start in range(len(members)):
        if start in seen:
            continue
        seen.add(start)
        block, todo = [start], [start]
        while todo:
            for j in np.flatnonzero(adjacency[todo.pop()]).tolist():
                if j not in seen:
                    seen.add(j)
                    block.append(j)
                    todo.append(j)
        out.append(tuple(members[i] for i in sorted(block)))
    return tuple(out)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 130])
@pytest.mark.parametrize("density", [0.0, 0.01, 0.05, 0.3])
def test_blocks_match_reference_search(m, density):
    # a random graph, seeded into a one-party ensemble's memo as the party
    # adjacency, so overlap_graph packs its bit rows from it
    rng = np.random.default_rng(m * 1000 + int(density * 100))
    upper = np.triu(rng.random((m, m)) < density, 1)
    adjacency = upper | upper.T
    adjacency.setflags(write=False)
    e = random_product_basis((m,), 0, 0)
    assert e.memo(("adjacency", 0, TOL), lambda: adjacency) is adjacency
    g = overlap_graph(e, e.labels, 0, TOL)
    assert g.blocks() == _reference_blocks(e.labels, adjacency)


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(0, 6),
    data=st.data(),
)
def test_subset_graphs_match_the_sliced_adjacency(dims, seed, depth, data):
    e = random_product_basis(tuple(dims), seed, depth)
    n = len(e.labels)
    picked = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    subset = tuple(e.labels[i] for i in picked)  # in drawn order
    rows = sorted(picked)
    members = tuple(e.labels[i] for i in rows)
    for party in range(e.parties):
        sliced = e.adjacency(party)[np.ix_(rows, rows)]
        g = overlap_graph(e, subset, party)
        assert g.members == members
        assert g.blocks() == _reference_blocks(members, sliced)
        assert g.adjacency.dtype == sliced.dtype and g.adjacency.shape == sliced.shape
        assert g.adjacency.tobytes() == sliced.tobytes()
        i, j = np.nonzero(np.triu(sliced, 1))
        assert g.edges == frozenset((members[a], members[b]) for a, b in zip(i, j))
        assert g.edges == _oracle_edges(e, subset, party)


# ---------------------------------------------------------------------------
# components


def test_component_partition_of_wing_subset():
    e = catalog("bennett9")
    subset = ("psi4", "psi5", "psi6", "psi7", "psi8", "psi9")
    part = components(overlap_graph(e, subset, 1), e)
    assert part.blocks == (("psi4", "psi5", "psi6", "psi7"), ("psi8", "psi9"))
    assert part.spans[0].shape == (2, 3)  # span{e1, e2}
    assert part.spans[1].shape == (1, 3)  # span{e3}
    # spans are orthonormal and mutually orthogonal
    all_vecs = [v for span in part.spans for v in span]
    gram = np.array([[np.vdot(a, b) for b in all_vecs] for a in all_vecs])
    assert np.max(np.abs(gram - np.eye(len(all_vecs)))) < 1e-12


def test_block_spans_cover_their_members():
    e = catalog("grid16")
    part = components(overlap_graph(e, e.labels, 0), e)
    for block, span in zip(part.blocks, part.spans):
        mat = span.T
        proj = mat @ mat.conj().T
        for label in block:
            v = e.vector(label, 0).entries
            assert np.linalg.norm(proj @ v - v) < 1e-10


def test_component_instability_detected():
    # b carries a barely-above-tol sliver along e2, so the block span of
    # {a, b} picks up the whole e2 direction; c leans on e2 heavily yet its
    # overlaps with a and b both stay below tol.  The edge test then says
    # "disconnected" while the spans overlap massively, which must surface
    # as instability, not silence.
    a = normalize(np.array([1.0, 0.0, 0.0]))
    b = normalize(np.array([1.0, 5e-9, 0.0]))
    c = normalize(np.array([0.0, 0.19, 1.0]))
    e = Ensemble(
        "unstable",
        (3,),
        (
            ProductState("a", (a,)),
            ProductState("b", (b,)),
            ProductState("c", (c,)),
        ),
        complete=False,
    )
    g = overlap_graph(e, e.labels, 0)
    assert g.blocks() == (("a", "b"), ("c",))  # c is ruled disconnected
    with pytest.raises(NumericalInstabilityError):
        components(g, e)


# ---------------------------------------------------------------------------
# relativity_chain


def test_chain_through_bennett9_first_party():
    e = catalog("bennett9")
    chain = relativity_chain(e, 0, "psi1", 2)
    assert chain is not None and len(chain) == 3
    assert chain[0] == "psi1"
    assert len(set(chain)) == 3
    # consecutive links overlap and the party vectors are independent
    for a, b in zip(chain, chain[1:]):
        va = e.vector(a, 0).entries
        vb = e.vector(b, 0).entries
        assert abs(np.vdot(va, vb)) > TOL
    stack = np.array([e.vector(label, 0).entries for label in chain])
    assert np.linalg.matrix_rank(stack, tol=1e-6) == 3


def test_chain_exists_from_every_state_of_bennett9():
    e = catalog("bennett9")
    for party in range(2):
        for label in e.labels:
            assert relativity_chain(e, party, label, 2) is not None


def test_chain_length_zero_is_the_start():
    assert relativity_chain(catalog("comp2x2"), 0, "s00", 0) == ("s00",)


def test_no_chain_in_computational_basis():
    # s00's only neighbor shares the same first-party vector, so the rank
    # can never reach 2
    assert relativity_chain(catalog("comp2x2"), 0, "s00", 1) is None


def test_chain_argument_validation():
    e = catalog("comp2x2")
    with pytest.raises(DimensionError):
        relativity_chain(e, 0, "s00", -1)
    with pytest.raises(NotFoundError):
        relativity_chain(e, 0, "nope", 1)
    with pytest.raises(DimensionError):
        relativity_chain(e, 9, "s00", 1)


# ---------------------------------------------------------------------------
# chain_criterion


def test_criterion_on_catalog():
    assert chain_criterion(catalog("bennett9")) is True
    assert chain_criterion(catalog("grid16")) is True
    assert chain_criterion(catalog("comp2x2")) is False
    # the third party of cube64 sees four disconnected plateaus of rank 1
    assert chain_criterion(catalog("cube64")) is False


def test_criterion_requires_complete_ensemble():
    with pytest.raises(InvalidModeError):
        chain_criterion(catalog("finkelstein9"))


@pytest.mark.parametrize("seed", range(5))
def test_criterion_false_on_generated_bases(seed):
    # generated bases are distinguishable by construction, and the criterion
    # is sufficient for indistinguishability, so it must come out False
    assert chain_criterion(random_product_basis((3, 3), seed=seed)) is False


# ---------------------------------------------------------------------------
# invariance


@pytest.mark.parametrize("name", ["bennett9", "grid16"])
@pytest.mark.parametrize("seed", range(3))
def test_edges_invariant_under_local_unitaries(name, seed):
    e = catalog(name)
    rng = np.random.default_rng(seed)
    dressed = apply_local_unitaries(
        e, [random_unitary(d, rng) for d in e.dims]
    )
    for party in range(e.parties):
        assert (
            overlap_graph(e, e.labels, party).edges
            == overlap_graph(dressed, dressed.labels, party).edges
        )


def test_criterion_invariant_under_local_unitaries():
    rng = np.random.default_rng(31)
    e = catalog("bennett9")
    dressed = apply_local_unitaries(e, [random_unitary(3, rng), random_unitary(3, rng)])
    assert chain_criterion(dressed) is True


# ---------------------------------------------------------------------------
# the per-(party, tol) adjacency cache


def _tilted_pair_text():
    # party 0 holds b, b-perp and c, c-perp, with c tilted from b by 1e-6:
    # at tol 1e-9 the party-0 graph is connected and party 1 measures first;
    # at tol 1e-5 it falls into {b, c} and {b-perp, c-perp} and party 0 does
    theta = 1e-6
    b, bp = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    c = np.array([np.cos(theta), np.sin(theta)])
    cp = np.array([-np.sin(theta), np.cos(theta)])
    a, ap = basis_vector(2, 0), basis_vector(2, 1)
    e = Ensemble(
        "tilted",
        (2, 2),
        (
            ProductState("s1", (normalize(b), a)),
            ProductState("s2", (normalize(bp), a)),
            ProductState("s3", (normalize(c), ap)),
            ProductState("s4", (normalize(cp), ap)),
        ),
        complete=True,
    )
    return emit_ensemble(e)


def _verdict_bytes(e, tol):
    return canonical_dumps(verdict_to_json(decide(e, "complete", tol)))


@pytest.mark.parametrize("tols", [(1e-9, 1e-5), (1e-5, 1e-9)])
def test_one_ensemble_decided_at_two_tolerances(tols):
    text = _tilted_pair_text()
    shared = parse_ensemble(text)
    fresh = {tol: _verdict_bytes(parse_ensemble(text), tol) for tol in tols}
    assert fresh[tols[0]] != fresh[tols[1]]
    for tol in tols:
        assert _verdict_bytes(shared, tol) == fresh[tol]
    for tol in tols:
        assert overlap_graph(shared, shared.labels, 0, tol).edges == _oracle_edges(
            shared, shared.labels, 0, tol
        )


def test_stacked_arrays_and_adjacency_are_read_only():
    e = catalog("cube64")
    for party in range(e.parties):
        arrays = (
            e.party_arrays[party],
            e.adjacency(party),
            overlap_graph(e, e.labels, party).adjacency,
            overlap_graph(e, e.labels[:10], party).adjacency,
        )
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = arr[0, 0]
        assert e.adjacency(party) is e.adjacency(party)
        assert np.array_equal(
            e.party_arrays[party], np.array([s.locals[party].entries for s in e.states])
        )


def test_adjacency_size_guard(monkeypatch):
    e = catalog("bennett9")
    monkeypatch.setattr("loccdist.ensemble.MAX_GRAPH_STATES", 8)
    with pytest.raises(TooLargeError):
        decide(e, "complete")
    monkeypatch.setattr("loccdist.ensemble.MAX_GRAPH_STATES", 9)
    assert decide(e, "complete").kind == "indistinguishable"


# ---------------------------------------------------------------------------
# the per-ensemble memo of graphs and block spans


def test_blocks_are_found_once_per_party_subset_and_tol():
    e = catalog("bennett9")
    subset = e.labels[1:7]
    mask = sum(1 << i for i in range(1, 7))
    blocks = overlap_graph(e, subset, 1).row_blocks
    assert e._memo[("blocks", 1, mask, TOL)] is blocks
    assert overlap_graph(e, tuple(reversed(subset)), 1).row_blocks is blocks
    assert overlap_graph(e, set(subset) | {subset[0]}, 1, TOL).row_blocks is blocks
    assert overlap_graph(e, subset, 0).row_blocks is e._memo[("blocks", 0, mask, TOL)]
    other = overlap_graph(e, subset, 1, 1e-5).row_blocks
    assert other is e._memo[("blocks", 1, mask, 1e-5)] is not blocks
    assert not [key for key in e._memo if key[0] == "graph"]
    # the checks run before the memo is read
    with pytest.raises(DimensionError):
        overlap_graph(e, subset, 2)
    with pytest.raises(NotFoundError):
        overlap_graph(e, (*subset, "nope"), 1)


def _built_graphs(monkeypatch):
    """Every OverlapGraph constructed from here on, in order."""
    made = []
    init = relativity.OverlapGraph.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(relativity.OverlapGraph, "__init__", counting)
    return made


def _packings(monkeypatch):
    """The number of np.packbits calls from here on, one per party's bit rows."""
    calls = []
    packbits = np.packbits

    def counting(*args, **kwargs):
        calls.append(1)
        return packbits(*args, **kwargs)

    monkeypatch.setattr(np, "packbits", counting)
    return calls


def test_search_graphs_hold_no_matrix_of_their_own(monkeypatch):
    # both searches walk bit masks: on a distinguishable basis neither builds
    # an OverlapGraph, and each party's bit rows are packed once
    e = random_product_basis((2, 2, 3), 4, depth=5)
    made, packed = _built_graphs(monkeypatch), _packings(monkeypatch)
    assert decide(e, "complete").kind == exhaustive_decide(e).kind == "distinguishable"
    assert made == [] and len(packed) == e.parties
    assert sorted(k for k in e._memo if k[0] == "bits") == [("bits", p, TOL) for p in range(3)]
    assert {k[0] for k in e._memo} == {"adjacency", "validate", "bits", "blocks", "span"}


def test_stuck_searches_build_only_the_certificate_graphs(monkeypatch):
    # on bennett9 the only graphs are those of the two certificates, one per
    # party each, and none slices the adjacency until it is read
    e = catalog("bennett9")
    made, packed = _built_graphs(monkeypatch), _packings(monkeypatch)
    greedy, thorough = decide(e, "complete"), exhaustive_decide(e)
    assert greedy.kind == thorough.kind == "indistinguishable"
    assert made == [*greedy.certificate.graphs, *thorough.certificate.graphs]
    assert [g.party for g in made] == [0, 1, 0, 1]
    assert all(g.members == e.labels and "adjacency" not in g.__dict__ for g in made)
    assert len(packed) == e.parties


@pytest.mark.parametrize("seed", range(4))
def test_memoized_spans_equal_span_basis(seed):
    e = random_product_basis((3, 4), seed, depth=seed + 1)
    for tol in (TOL, 1e-6):
        for party in range(e.parties):
            for block in overlap_graph(e, e.labels, party, tol).blocks() + (e.labels,):
                rows = e.party_arrays[party][[e.index(label) for label in block]]
                expected = span_basis(rows, tol)
                got = block_span(e, block, party, tol)
                assert block_span(e, block, party, tol) is got
                assert got.shape == expected.shape and not got.flags.writeable
                assert got.tobytes() == expected.tobytes()
            part = components(overlap_graph(e, e.labels, party, tol), e, tol)
            for block, span in zip(part.blocks, part.spans):
                assert span is block_span(e, block, party, tol)


def test_span_memo_keys_on_tol():
    # s1 and s3 hold b and c at party 0, 1e-6 apart: two dimensions at
    # tol 1e-9, one at tol 1e-5
    e = parse_ensemble(_tilted_pair_text())
    assert len(block_span(e, ("s1", "s3"), 0, 1e-9)) == 2
    assert len(block_span(e, ("s1", "s3"), 0, 1e-5)) == 1
    assert len(block_span(e, ("s1", "s3"), 0, 1e-9)) == 2


def _memo_cases():
    yield parse_ensemble(_tilted_pair_text())  # its verdict moves with tol
    yield from (catalog(name) for name in ("comp2x2", "bennett9"))
    for dims, seed in [((2, 2), 0), ((2, 3), 1), ((3, 3), 2), ((2, 2, 2), 3), ((2, 2, 3), 4)]:
        yield random_product_basis(dims, seed, depth=seed + 2)


@pytest.mark.parametrize("oracle_first", [False, True])
def test_shared_ensemble_gives_the_verdicts_of_fresh_copies(oracle_first):
    runs = [
        lambda e, tol: verdict_to_json(decide(e, "complete", tol)),
        lambda e, tol: verdict_to_json(exhaustive_decide(e, tol)),
    ]
    if oracle_first:
        runs.reverse()
    for e in _memo_cases():
        text = emit_ensemble(e)
        shared = parse_ensemble(text)
        for tol in (TOL, 1e-5):
            for run in runs:
                fresh = canonical_dumps(run(parse_ensemble(text), tol))
                assert canonical_dumps(run(shared, tol)) == fresh


def _unstable_ensemble():
    # one party: b's sliver along e2 is just above tol, so the span of the
    # block {a, b} holds all of e2, while c, half along e2, stays below tol
    # against a and b: two blocks whose spans overlap by 0.5
    tol = 1e-3
    a = normalize(np.array([1.0, 0.0, 0.0]))
    b = normalize(np.array([1.0, 1.5 * tol, 0.0]))
    c = normalize(np.array([0.0, 0.5, np.sqrt(0.75)]))
    states = tuple(ProductState(label, (v,)) for label, v in zip("abc", (a, b, c)))
    return Ensemble("unstable-tilt", (3,), states, complete=False), tol


def test_repeated_components_call_raises_instability_again():
    e, tol = _unstable_ensemble()
    g = overlap_graph(e, e.labels, 0, tol)
    assert g.blocks() == (("a", "b"), ("c",))
    messages = []
    for _ in range(2):
        with pytest.raises(NumericalInstabilityError) as info:
            components(overlap_graph(e, e.labels, 0, tol), e, tol)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] == "blocks 0 and 1 at party 0 have span overlap 5.000e-01, beyond 10*tol"


def _sliver_ensemble(labeled):
    """A one-party ensemble over 5 dimensions from (label, raw vector) pairs."""
    states = tuple(
        ProductState(label, (normalize(np.array(raw, dtype=complex)),)) for label, raw in labeled
    )
    return Ensemble("slivers", (5,), states, complete=False)


def _nudged(lead, axis, tol):
    """Axis ``lead`` nudged by 1.2 * tol along ``axis``.

    It stays relative to the plain ``lead`` axis, and the span of the two
    holds all of ``axis``.
    """
    v = np.eye(5)[lead].copy()
    v[axis] = 1.2 * tol
    return v


def _cross_block_message(e, tol):
    with pytest.raises(NumericalInstabilityError) as info:
        components(overlap_graph(e, e.labels, 0, tol), e, tol)
    return str(info.value)


def test_cross_block_check_reports_the_one_offending_pair():
    # blocks {x}, {a, b} and {c}: span{a, b} holds all of e1, and c sits half
    # on e1 while its overlap with b stays below tol; only pair (1, 2) offends
    tol = 1e-3
    e = _sliver_ensemble([
        ("x", np.eye(5)[4]),
        ("a", np.eye(5)[0]),
        ("b", _nudged(0, 1, tol)),
        ("c", [0.0, 0.5, np.sqrt(0.75), 0.0, 0.0]),
    ])
    g = overlap_graph(e, e.labels, 0, tol)
    assert g.blocks() == (("x",), ("a", "b"), ("c",))
    assert _cross_block_message(e, tol) == (
        "blocks 1 and 2 at party 0 have span overlap 5.000e-01, beyond 10*tol"
    )


def test_cross_block_check_reports_the_first_offence_in_loop_order():
    # block 0 spans e0, e1, e2; block 1 spans e4, e3; block 2 is c.  Pairs
    # (0, 2) and (1, 2) both offend, and within (0, 2) span rows 1 and 2 do:
    # the report is pair (0, 2), row 1 (0.3), not the largest overlap (0.742)
    tol = 1e-3
    e = _sliver_ensemble([
        ("a0", np.eye(5)[0]),
        ("b0", _nudged(0, 1, tol)),
        ("b0p", _nudged(0, 2, tol)),
        ("a1", np.eye(5)[4]),
        ("b1", _nudged(4, 3, tol)),
        ("c", [0.0, 0.3, 0.6, np.sqrt(0.55), 0.0]),
    ])
    blocks = overlap_graph(e, e.labels, 0, tol).blocks()
    assert blocks == (("a0", "b0", "b0p"), ("a1", "b1"), ("c",))
    assert [len(block_span(e, block, 0, tol)) for block in blocks] == [3, 2, 1]
    assert _cross_block_message(e, tol) == (
        "blocks 0 and 2 at party 0 have span overlap 3.000e-01, beyond 10*tol"
    )
