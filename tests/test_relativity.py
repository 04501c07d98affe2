"""Overlap graphs, component partitions, and chain searches.

Edge sets are recomputed here with raw numpy inner products before being
compared against the library.
"""

from __future__ import annotations

import tracemalloc

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
from loccdist.ensemble import _BLOCK_ENTRIES, _CHUNK_ENTRIES, _bit_rows
from loccdist.jsonio import canonical_dumps
from loccdist.linalg import span_basis
from loccdist.oracle import exhaustive_decide
from oracle_protocol import oracle_verdict
from loccdist import relativity

TOL = 1e-9


def _oracle_edges(e, subset, party, tol=TOL):
    members = [label for label in e.labels if label in set(subset)]
    edges = set()
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            va = e.party_arrays[party][e.index(a)]
            vb = e.party_arrays[party][e.index(b)]
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


def test_row_blocks_recheck_near_tol_pairs_across_the_boundary():
    # n = 300 states split into row blocks of 218.  At party 0 the standard
    # basis of C^300, turned by a random unitary, has a few states tilted by
    # 1e-6 toward an earlier one, some of the pairs straddling the block
    # boundary; party 1 is one-dimensional, so every pair overlaps there.
    # tol is set to each tilted overlap and one ulp below it, where the bulk
    # products must defer to the pairwise np.vdot, earlier state first.
    n = 300
    b = _BLOCK_ENTRIES // n
    assert b < n
    pairs = [(3, 4), (5, 6), (5, n - 1), (10, b + 32), (100, b + 42)]
    pairs += [(b - 1, b), (b + 1, b + 3), (b + 2, b + 12)]
    rows = np.eye(n, dtype=np.complex128)
    for i, j in pairs:
        rows[j] = np.sqrt(1.0 - 1e-12) * rows[j] + 1e-6 * rows[i]
    rows = rows @ random_unitary(n, np.random.default_rng(7)).T
    one = basis_vector(1, 0)
    states = tuple(ProductState(f"s{i}", (normalize(r), one)) for i, r in enumerate(rows))
    e = Ensemble("tilted", (n, 1), states, complete=False)
    a = e.party_arrays[0]
    mags = {(i, j): abs(complex(np.vdot(a[i], a[j]))) for i in range(n) for j in range(i + 1, n)}
    tols = [mags[pair] for pair in pairs]
    for tol in tols + [float(np.nextafter(t, 0.0)) for t in tols]:
        bits = _bit_rows(e, 0, tol)
        assert not any(bits[i] >> i & 1 for i in range(n))
        for (i, j), mag in mags.items():
            assert bits[i] >> j & 1 == bits[j] >> i & 1 == (mag > tol)
        expected = [(f"s{i}", f"s{j}", mag) for (i, j), mag in mags.items() if mag > tol]
        assert list(validate(e, tol).offending_pairs) == expected
    # below every tilt all eight pairs offend, in state order across the boundary
    low = float(np.nextafter(min(tols), 0.0))
    assert [(e.index(x), e.index(y)) for x, y, _ in validate(e, low).offending_pairs] == pairs


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
    psi6 = {pair for pair in g.edges if "psi6" in pair}
    assert psi6 == {("psi4", "psi6"), ("psi5", "psi6"), ("psi6", "psi7")}


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


def _reference_adjacency(e, party, tol=TOL):
    # pairwise np.vdot, earlier state first, without self-loops
    a = e.party_arrays[party]
    adjacency = np.zeros((len(a), len(a)), dtype=bool)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            adjacency[i, j] = adjacency[j, i] = abs(np.vdot(a[i], a[j])) > tol
    return adjacency


def _packed(adjacency):
    # bit j of row i set iff adjacency[i, j]
    return tuple(sum(1 << j for j in np.flatnonzero(row).tolist()) for row in adjacency)


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
    # a random graph, seeded into a one-party ensemble's memo as the party's
    # bit rows, so overlap_graph searches it
    rng = np.random.default_rng(m * 1000 + int(density * 100))
    upper = np.triu(rng.random((m, m)) < density, 1)
    adjacency = upper | upper.T
    bits = _packed(adjacency)
    e = random_product_basis((m,), 0, 0)
    assert e.memo(("bits", 0, TOL), lambda: bits) is bits
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
        full = _reference_adjacency(e, party)
        assert _bit_rows(e, party, TOL) == _packed(full)
        sliced = full[np.ix_(rows, rows)]
        g = overlap_graph(e, subset, party)
        assert g.members == members
        assert g.blocks() == _reference_blocks(members, sliced)
        i, j = np.nonzero(np.triu(sliced, 1))
        assert g.edges == frozenset((members[a], members[b]) for a, b in zip(i, j))
        assert g.edges == _oracle_edges(e, subset, party)
        for tol in (1e-12, 1e-14):  # where the pairwise band and tol are a few ulps apart
            assert _bit_rows(e, party, tol) == _packed(_reference_adjacency(e, party, tol))


def test_bit_rows_recheck_pairwise_only_entries_within_rounding_of_tol(monkeypatch):
    # the pairwise band scales with the party's dimension: a fixed band of
    # 1e-12 took every near-zero overlap of this basis at tol = 1e-12 to
    # np.vdot, 4,160 calls, and none is needed
    e = random_product_basis((8, 8), 1, depth=4)
    calls, vdot = [], np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(1) or vdot(a, b))
    bits = [_bit_rows(e, party, 1e-12) for party in range(e.parties)]
    monkeypatch.undo()
    assert calls == []
    assert bits == [_packed(_reference_adjacency(e, party, 1e-12)) for party in range(e.parties)]


# ---------------------------------------------------------------------------
# components


def test_component_partition_of_wing_subset():
    e = catalog("bennett9")
    subset = ("psi4", "psi5", "psi6", "psi7", "psi8", "psi9")
    part = components(overlap_graph(e, subset, 1))
    assert part.blocks == (("psi4", "psi5", "psi6", "psi7"), ("psi8", "psi9"))
    assert part.spans[0].shape == (2, 3)  # span{e1, e2}
    assert part.spans[1].shape == (1, 3)  # span{e3}
    # spans are orthonormal and mutually orthogonal
    all_vecs = [v for span in part.spans for v in span]
    gram = np.array([[np.vdot(a, b) for b in all_vecs] for a in all_vecs])
    assert np.max(np.abs(gram - np.eye(len(all_vecs)))) < 1e-12


def test_component_spans_cover_their_members():
    e = catalog("grid16")
    part = components(overlap_graph(e, e.labels, 0))
    for block, span in zip(part.blocks, part.spans):
        mat = span.T
        proj = mat @ mat.conj().T
        for label in block:
            v = e.party_arrays[0][e.index(label)]
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
        components(g)


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
        va = e.party_arrays[0][e.index(a)]
        vb = e.party_arrays[0][e.index(b)]
        assert abs(np.vdot(va, vb)) > TOL
    stack = np.array([e.party_arrays[0][e.index(label)] for label in chain])
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


@pytest.mark.parametrize("name", ["bennett9", "comp2x2"])
def test_criterion_passes_over_a_one_dimensional_party(name):
    # every state has the one vector at a party of dimension 1, which asks
    # for no chain: appending such a party leaves the criterion as it was
    e, one = catalog(name), np.ones(1, dtype=complex)
    states = tuple(ProductState(s.label, (*s.locals, one)) for s in e.states)
    wider = Ensemble(f"{name}-x1", (*e.dims, 1), states, complete=True)
    assert chain_criterion(wider) is chain_criterion(e) is (name == "bennett9")


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


def test_stacked_arrays_are_read_only_and_bit_rows_are_kept():
    e = catalog("cube64")
    for party in range(e.parties):
        arr = e.party_arrays[party]
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = arr[0, 0]
        bits = _bit_rows(e, party, TOL)
        assert type(bits) is tuple and all(type(row) is int for row in bits)
        assert _bit_rows(e, party, TOL) is bits is e._memo[("bits", party, TOL)]
        assert bits == _packed(_reference_adjacency(e, party))
        assert np.array_equal(
            e.party_arrays[party], np.array([s.locals[party] for s in e.states])
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
    """The number of np.packbits calls from here on, one per row block of a party's bit rows."""
    calls = []
    packbits = np.packbits

    def counting(*args, **kwargs):
        calls.append(1)
        return packbits(*args, **kwargs)

    monkeypatch.setattr(np, "packbits", counting)
    return calls


def _made_spans(monkeypatch):
    """Every block span the checks make from here on, as ``(party, rows, span)`` in order."""
    made = []
    new_spans = relativity._new_spans

    def recording(e, new, tol):
        spans = new_spans(e, new, tol)
        made.extend((party, rows, span) for (party, rows), span in zip(new, spans))
        return spans

    monkeypatch.setattr(relativity, "_new_spans", recording)
    return made


def test_search_graphs_hold_no_matrix_of_their_own(monkeypatch):
    # both searches walk bit masks: on a distinguishable basis neither builds
    # an OverlapGraph, and each party's bit rows, one row block of 12 states,
    # are packed once
    e = random_product_basis((2, 2, 3), 4, depth=5)
    made, packed = _built_graphs(monkeypatch), _packings(monkeypatch)
    assert decide(e, "complete").kind == exhaustive_decide(e).kind == "distinguishable"
    assert made == [] and len(packed) == e.parties
    assert sorted(k for k in e._memo if k[0] == "bits") == [("bits", p, TOL) for p in range(3)]
    kinds = {"validate", "bits", "blocks", "checked"}
    assert {k[0] for k in e._memo} == kinds


def test_stuck_searches_build_only_the_certificate_graphs(monkeypatch):
    # on bennett9 the only graphs are those of the two certificates, one per
    # party each, and none lists its edges until they are read
    e = catalog("bennett9")
    made, packed = _built_graphs(monkeypatch), _packings(monkeypatch)
    greedy, thorough = decide(e, "complete"), exhaustive_decide(e)
    assert greedy.kind == thorough.kind == "indistinguishable"
    assert made == [*greedy.certificate.graphs, *thorough.certificate.graphs]
    assert [g.party for g in made] == [0, 1, 0, 1]
    assert all(g.members == e.labels and "edges" not in g.__dict__ for g in made)
    assert len(packed) == e.parties


def _labelled_span(e, block, party, tol):
    """span_basis of ``block``'s rows at ``party``, in the order given."""
    return span_basis(e.party_arrays[party][[e.index(label) for label in block]], tol)


@pytest.mark.parametrize("seed", range(4))
def test_memoized_spans_equal_span_basis(monkeypatch, seed):
    # the checked spans of a partition are the bytes of span_basis on each
    # block's rows, made once and kept with the split
    e = random_product_basis((3, 4), seed, depth=seed + 1)
    made = _made_spans(monkeypatch)
    for tol in (TOL, 1e-6):
        for party in range(e.parties):
            g = overlap_graph(e, e.labels, party, tol)
            before = len(made)
            part = components(g)
            assert len(made) - before == len(part.blocks)
            assert components(g).spans is part.spans  # kept, and made no more
            assert len(made) - before == len(part.blocks)
            for block, span in zip(part.blocks, part.spans):
                rows = e.party_arrays[party][[e.index(label) for label in block]]
                _assert_is_span_basis(span, rows, tol)


def test_span_memo_keys_on_tol():
    # s1 and s3 hold b and c at party 0, 1e-6 apart: two dimensions at
    # tol 1e-9, one at tol 1e-5
    e = parse_ensemble(_tilted_pair_text())
    assert len(_labelled_span(e, ("s1", "s3"), 0, 1e-9)) == 2
    assert len(_labelled_span(e, ("s1", "s3"), 0, 1e-5)) == 1
    assert len(_labelled_span(e, ("s1", "s3"), 0, 1e-9)) == 2


def _memo_cases():
    yield parse_ensemble(_tilted_pair_text())  # its verdict moves with tol
    yield from (catalog(name) for name in ("comp2x2", "bennett9"))
    for dims, seed in [((2, 2), 0), ((2, 3), 1), ((3, 3), 2), ((2, 2, 2), 3), ((2, 2, 3), 4)]:
        yield random_product_basis(dims, seed, depth=seed + 2)


@pytest.mark.parametrize("oracle_first", [False, True])
def test_shared_ensemble_gives_the_verdicts_of_fresh_copies(oracle_first):
    runs = [
        lambda e, tol: verdict_to_json(decide(e, "complete", tol)),
        lambda e, tol: verdict_to_json(oracle_verdict(e, tol)),
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
            components(overlap_graph(e, e.labels, 0, tol))
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
        components(overlap_graph(e, e.labels, 0, tol))
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
    assert [len(_labelled_span(e, block, 0, tol)) for block in blocks] == [3, 2, 1]
    assert _cross_block_message(e, tol) == (
        "blocks 0 and 2 at party 0 have span overlap 3.000e-01, beyond 10*tol"
    )


# ---------------------------------------------------------------------------
# the stacked span pass against span_basis and the pairwise check


def _near_tol_ensemble(seed, dims, n, tol):
    """``n`` states whose rows at each party lie near a few orthonormal directions.

    Each row is a random direction of a random unitary, turned by a random
    phase, and most rows add a nudge of tol/2, tol or 2*tol along a random
    vector: blocks of one direction have rank one or two by a hair, and the
    rank-two spans can lean into another block.
    """
    rng = np.random.default_rng(seed)
    arrays = []
    for d in dims:
        axes = random_unitary(d, rng)
        rows = []
        for _ in range(n):
            v = axes[:, rng.integers(d)] * np.exp(2j * np.pi * rng.random())
            if rng.random() < 0.7:
                w = rng.normal(size=d) + 1j * rng.normal(size=d)
                v = v + rng.choice([0.5, 1.0, 2.0]) * tol * w / np.linalg.norm(w)
            rows.append(normalize(v))
        arrays.append(rows)
    states = [ProductState(f"s{i}", tuple(rows[i] for rows in arrays)) for i in range(n)]
    return Ensemble("near-tol", dims, states, complete=False)


def _pairwise_check(party, spans, tol):
    """The span check as a loop over pairs of spans: the first overlap past 10 * tol, or None."""
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            overlaps = np.abs(spans[i].conj() @ spans[j].T)
            if overlaps.size and overlaps.max() > 10.0 * tol:
                first = overlaps.flat[np.flatnonzero(overlaps > 10.0 * tol)[0]]
                return (f"blocks {i} and {j} at party {party} have span overlap "
                        f"{first:.3e}, beyond 10*tol")
    return None


def _assert_is_span_basis(got, rows, tol):
    expected = span_basis(rows, tol)
    assert got.shape == expected.shape and not got.flags.writeable
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2,), (3,), (4,), (2, 3), (4, 2, 3), (1, 3), (2, 64)]),
    n=st.integers(2, 12),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
    data=st.data(),
)
def test_stacked_spans_and_checks_are_those_of_span_basis_and_the_pairwise_loop(
    seed, dims, n, tol, data
):
    # every split of random subsets, and random blocks of up to n rows: the
    # passing splits, all handed over at once, have each block's span made
    # once and keep exactly the spans made for their blocks; every split,
    # handed over in order, raises the first failing split's error, and no
    # failing split keeps an entry
    e = _near_tol_ensemble(seed, dims, n, tol)
    masks = data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=6))
    splits = [(party, mask, relativity._blocks(e, party, mask, tol))
              for mask in masks for party in range(len(dims))]
    splits = [split for split in splits if len(split[2]) >= 2]
    errors = [_pairwise_check(party, [span_basis(e.party_arrays[party][list(rows)], tol)
                                      for rows in blocks], tol)
              for party, _, blocks in splits]
    passing = [split for split, error in zip(splits, errors) if error is None]
    fresh = _near_tol_ensemble(seed, dims, n, tol)
    with pytest.MonkeyPatch.context() as mp:
        made = _made_spans(mp)
        got = relativity._check_splits(fresh, passing, tol)
    spans = {(party, rows): span for party, rows, span in made}
    assert len(spans) == len(made)
    assert set(spans) == {(party, rows) for party, _, blocks in passing for rows in blocks}
    for (party, mask, blocks), result in zip(passing, got):
        a = e.party_arrays[party]
        for rows in blocks:
            _assert_is_span_basis(spans[party, rows], a[list(rows)], tol)
        assert result is fresh.cached(("checked", party, mask, tol))
        assert all(s is spans[party, rows] for s, rows in zip(result, blocks))
    first = next((x for x, error in enumerate(errors) if error is not None), None)
    if first is not None:
        again = _near_tol_ensemble(seed, dims, n, tol)
        with pytest.raises(NumericalInstabilityError) as raised:
            relativity._check_splits(again, splits, tol)
        assert str(raised.value) == errors[first]
        for x, ((party, mask, _), error) in enumerate(zip(splits, errors)):
            kept = again.cached(("checked", party, mask, tol))
            if error is not None:
                assert kept is None
            elif x < first:
                assert kept is not None
    new = sorted({(party, tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))))
                  for party in range(len(dims))})
    for (party, rows), span in zip(new, relativity._new_spans(fresh, new, tol)):
        _assert_is_span_basis(span, fresh.party_arrays[party][list(rows)], tol)


def _rank_mix_ensemble(seed, dims, n, tol):
    """``n`` states whose rows at each party make rank-one, rank-two and near-tol blocks.

    Each row lies along a random axis of a random unitary, turned by a random
    phase.  A third of the rows tilt by 30 degrees toward the next axis, so
    blocks can hold two axes, and a third take a nudge of tol/2, tol or
    2*tol along a random vector, so blocks have rank two by a hair and may
    lean into other blocks.
    """
    rng = np.random.default_rng(seed)
    arrays = []
    for d in dims:
        axes = random_unitary(d, rng)
        rows = []
        for _ in range(n):
            k, kind = rng.integers(d), rng.integers(3)
            v = axes[:, k].copy()
            if kind == 1:
                v = np.cos(np.pi / 6) * v + np.sin(np.pi / 6) * axes[:, (k + 1) % d]
            elif kind == 2:
                w = rng.normal(size=d) + 1j * rng.normal(size=d)
                v = v + rng.choice([0.5, 1.0, 2.0]) * tol * w / np.linalg.norm(w)
            rows.append(normalize(v * np.exp(2j * np.pi * rng.random())))
        arrays.append(rows)
    states = [ProductState(f"s{i}", tuple(rows[i] for rows in arrays)) for i in range(n)]
    return Ensemble("rank-mix", dims, states, complete=False)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2,), (3,), (4,), (2, 3), (4, 4), (8,), (3, 64)]),
    n=st.integers(2, 12),
    tol=st.sampled_from([1e-15, 1e-12, 1e-9, 1e-3]),
    data=st.data(),
)
def test_skipping_pairs_of_rank_one_spans_gives_the_errors_of_checking_every_pair(
    seed, dims, n, tol, data
):
    # the check skips pairs of two one-row spans, which cannot fail, and at
    # tol 1e-15 a party of dimension 64 is past the bound and has every
    # pair checked: each split, checked on its own, raises, with the same
    # message, exactly when the loop over every pair of its spans fails
    e = _rank_mix_ensemble(seed, dims, n, tol)
    masks = data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=6))
    splits = [(party, mask, relativity._blocks(e, party, mask, tol))
              for mask in masks for party in range(len(dims))]
    splits = [split for split in splits if len(split[2]) >= 2]
    for split in splits:
        party, _, blocks = split
        a = e.party_arrays[party]
        error = _pairwise_check(party, [span_basis(a[list(rows)], tol) for rows in blocks], tol)
        if error is None:
            relativity._check_splits(e, [split], tol)
            continue
        with pytest.raises(NumericalInstabilityError) as raised:
            relativity._check_splits(e, [split], tol)
        assert str(raised.value) == error


def _rotated_basis(seed, d):
    """The columns of a random ``d x d`` unitary as a one-party basis."""
    u = random_unitary(d, np.random.default_rng(seed))
    states = [ProductState(f"s{i}", (u[:, i],)) for i in range(d)]
    return Ensemble("rotated", (d,), states, complete=True)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "make, stable",
    [(lambda seed: _rotated_basis(seed, 64), True),
     (lambda seed: _near_tol_ensemble(seed, (64,), 64, 1e-6), False)],
)
def test_a_split_wider_than_a_chunk_is_decided_as_the_pairwise_loop_decides_it(
    monkeypatch, seed, make, stable
):
    # the root split has more pairs of span rows than a chunk holds, and
    # its spans are still checked one pair at a time: a stable split of
    # rank-one spans never reaches the pairwise check, and an unstable one
    # raises the error of the loop over every pair
    e, tol = make(seed), 1e-6
    mask = (1 << len(e.labels)) - 1
    blocks = relativity._blocks(e, 0, mask, tol)
    spans = [span_basis(e.party_arrays[0][list(rows)], tol) for rows in blocks]
    sizes = [len(span) for span in spans]
    assert (sum(sizes) ** 2 - sum(k * k for k in sizes)) // 2 * 64 > _CHUNK_ENTRIES
    calls, cross_check = [], relativity._cross_check
    monkeypatch.setattr(
        relativity, "_cross_check", lambda *args: calls.append(1) or cross_check(*args)
    )
    error = _pairwise_check(0, spans, tol)
    assert (error is None) == stable
    if stable:
        (result,) = relativity._check_splits(e, [(0, mask, blocks)], tol)
        assert calls == [] and all(a.tobytes() == b.tobytes() for a, b in zip(result, spans))
    else:
        with pytest.raises(NumericalInstabilityError) as raised:
            relativity._check_splits(e, [(0, mask, blocks)], tol)
        assert str(raised.value) == error


def test_the_span_check_of_a_wide_split_keeps_its_temporaries_small():
    # party 0 of the standard basis over (128, 2) splits into 128 one-row
    # blocks: 8,128 pairs of rows of 128 entries, about 16 MiB in each
    # pairwise temporary if they were all stacked at once
    labels = [(i, j) for i in range(128) for j in range(2)]
    states = [ProductState(f"s{i}_{j}", (basis_vector(128, i), basis_vector(2, j)))
              for i, j in labels]
    e = Ensemble("standard", (128, 2), states, complete=True)
    _bit_rows(e, 0, 1e-9), _bit_rows(e, 1, 1e-9)
    tracemalloc.start()
    try:
        verdict = decide(e, "complete", 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind == "distinguishable"
    assert peak < 4 * 2**20


def _span_basis_calls(monkeypatch):
    calls = []
    kernel = relativity.span_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(relativity, "span_basis", counting)
    return calls


@pytest.mark.parametrize(
    "make", [lambda: random_product_basis((2, 2, 3), 0, depth=4),
             lambda: random_product_basis((2, 2, 3), 2, depth=5)]
)
def test_rank_one_spans_take_one_stacked_pass_per_party(monkeypatch, make):
    # every block span of these bases has one row: decide makes them all in
    # one call of the stacked pass per party, none through span_basis, and
    # the checked spans are the bytes of span_basis on each block
    e = make()
    made = _made_spans(monkeypatch)
    spans, passes = _span_basis_calls(monkeypatch), []
    first_vectors = relativity._first_vectors

    def counting(*args):
        passes.append(1)
        return first_vectors(*args)

    monkeypatch.setattr(relativity, "_first_vectors", counting)
    verdict = decide(e, "complete")
    assert verdict.kind == "distinguishable"
    assert spans == [] and 1 <= len(passes) <= e.parties
    assert made and all(len(span) == 1 for _, _, span in made)
    checked = [key for key in e._memo if key[0] == "checked"]
    assert checked
    for _, party, mask, tol in checked:
        blocks = overlap_graph(e, [e.labels[i] for i in range(len(e.labels)) if mask >> i & 1],
                               party, tol).blocks()
        for block, span in zip(blocks, e._memo[("checked", party, mask, tol)]):
            assert span.tobytes() == _labelled_span(e, block, party, tol).tobytes()


def test_first_vectors_decide_rank_one_alike_at_every_tol(monkeypatch):
    # the stacked pass keeps a block as rank one within the rounding band
    # of the bit rows, which scales with the party's dimension: at tol
    # 1e-12 and 1e-14 as many blocks go through span_basis as at 1e-9, and
    # every checked span is the bytes of span_basis on its block
    made = _made_spans(monkeypatch)
    calls = _span_basis_calls(monkeypatch)
    counts, digests = [], []
    for tol in (1e-9, 1e-12, 1e-14):
        e = random_product_basis((8, 8, 8), 1, depth=12)
        del made[:], calls[:]
        assert decide(e, "complete", tol).kind == "distinguishable"
        counts.append(len(calls))
        digests.append(b"".join(span.tobytes() for _, _, span in made))
        for party, rows, span in made:
            _assert_is_span_basis(span, e.party_arrays[party][list(rows)], tol)
    assert counts[0] > 0 and counts == [counts[0]] * 3
    assert digests == [digests[0]] * 3


def _rank_two_staircase(m, tol, perturbed=None):
    """States ``e_2i ⊗ |0>`` and ``(e_2i + e_2i+1)/√2 ⊗ |1>`` over dims (2m, 2).

    Party 0 splits into m blocks of rank two.  With ``perturbed = (k, j)``,
    block k's second row is ``e_2k`` nudged by 1.2 * tol along
    ``(e_2j - e_2j+1)/√2``: it keeps no edge to block j, while block k's
    span holds that direction and so overlaps block j's by 1/√2.
    """
    zero, one = np.array([1, 0j]), np.array([0j, 1])
    states = []
    for i in range(m):
        a, b = np.zeros(2 * m, complex), np.zeros(2 * m, complex)
        a[2 * i], b[2 * i : 2 * i + 2] = 1.0, 1.0
        if perturbed is not None and i == perturbed[0]:
            j = perturbed[1]
            b = a.copy()
            b[2 * j], b[2 * j + 1] = 1.2 * tol / np.sqrt(2), -1.2 * tol / np.sqrt(2)
        states += [ProductState(f"a{i}", (a, zero)), ProductState(f"b{i}", (normalize(b), one))]
    return Ensemble("rank-two-staircase", (2 * m, 2), tuple(states), complete=False)


@pytest.mark.parametrize("perturbed", [None, (3, 40), (40, 3), (62, 63)])
def test_a_split_of_many_rank_two_blocks_is_checked_as_the_pairwise_loop_checks_it(perturbed):
    # 64 spans of rank two in one split: each span meets the later ones in
    # one stacked product, and only a span whose screen fails is checked
    # pair by pair, so the error is that of the loop over every pair
    tol, m = 1e-6, 64
    e = _rank_two_staircase(m, tol, perturbed)
    mask = (1 << 2 * m) - 1
    blocks = relativity._blocks(e, 0, mask, tol)
    assert len(blocks) == m
    spans = [span_basis(e.party_arrays[0][list(rows)], tol) for rows in blocks]
    assert all(len(span) == 2 for span in spans)
    error = _pairwise_check(0, spans, tol)
    assert (error is None) == (perturbed is None)
    if error is None:
        relativity._check_splits(e, [(0, mask, blocks)], tol)
    else:
        with pytest.raises(NumericalInstabilityError) as raised:
            relativity._check_splits(e, [(0, mask, blocks)], tol)
        assert str(raised.value) == error
        k, j = sorted(perturbed)
        assert error.startswith(f"blocks {k} and {j} at party 0 have span overlap 7.071e-01")
