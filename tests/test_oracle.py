"""The exhaustive search oracle and its partition enumeration.

The partition family is cross-checked against a from-scratch enumeration of
ALL set partitions filtered by a direct projector intactness test, so the
"coarsenings of components" shortcut is itself validated here.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from loccdist import (
    CATALOG_NAMES,
    Ensemble,
    InvalidModeError,
    MeasurementStep,
    ProductState,
    TooLargeError,
    TraceSplit,
    catalog,
    chain_criterion,
    components,
    decide,
    enumerate_valid_partitions,
    exhaustive_decide,
    lift_protocol,
    overlap_graph,
    random_product_basis,
    run_protocol,
    stuck_certificate,
)
from loccdist import oracle
from loccdist.errors import NumericalInstabilityError
from loccdist.linalg import basis_vector
from oracle_protocol import oracle_verdict
from test_relativity import _made_spans, _unstable_ensemble
from test_search_golden import POOL


def _all_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _intact(e, partition, party, tol=1e-9):
    """Direct check: every state is kept by its own block's span projector
    and killed by every other block's."""
    projs = []
    for block in partition:
        stack = np.column_stack([e.party_arrays[party][e.index(label)] for label in block])
        q, _ = np.linalg.qr(stack)
        r = np.linalg.matrix_rank(stack, tol=1e-7)
        projs.append(q[:, :r] @ q[:, :r].conj().T)
    for i, block in enumerate(partition):
        for j, proj in enumerate(projs):
            for label in block:
                v = e.party_arrays[party][e.index(label)]
                image = proj @ v
                if i == j:
                    if np.linalg.norm(image - v) > 1e-7:
                        return False
                elif np.linalg.norm(image) > 1e-7:
                    return False
    return True


def _canon(partitions):
    return {frozenset(frozenset(block) for block in p) for p in partitions}


# ---------------------------------------------------------------------------
# enumerate_valid_partitions


def test_single_component_admits_only_the_trivial_partition():
    e = catalog("bennett9")
    for party in range(2):
        family = enumerate_valid_partitions(e, e.labels, party)
        assert family.component_blocks == (e.labels,)
        assert family.partitions == ((e.labels,),)


def test_two_components_give_two_partitions():
    e = catalog("comp2x2")
    family = enumerate_valid_partitions(e, e.labels, 0)
    assert family.component_blocks == (("s00", "s01"), ("s10", "s11"))
    assert family.partitions == (
        (("s00", "s01"), ("s10", "s11")),
        (("s00", "s01", "s10", "s11"),),
    )


def test_four_components_give_fifteen_partitions():
    # Bell number of 4, recomputed here by brute force
    assert sum(1 for _ in _all_set_partitions(list(range(4)))) == 15
    e = catalog("cube64")
    family = enumerate_valid_partitions(e, e.labels, 2)
    assert len(family.component_blocks) == 4
    assert len(family.partitions) == 15
    assert len(_canon(family.partitions)) == 15  # all distinct
    # finest first, trivial last
    assert len(family.partitions[0]) == 4
    assert len(family.partitions[-1]) == 1


def test_family_matches_direct_intactness_enumeration():
    # every set partition of the six wing states is tested projector by
    # projector; the survivors must be exactly the component coarsenings
    bennett = catalog("bennett9")
    e = Ensemble("wing6", bennett.dims, bennett.states[3:], complete=False)
    party = 1
    family = enumerate_valid_partitions(e, e.labels, party)
    assert family.component_blocks == components(overlap_graph(e, e.labels, party)).blocks

    valid = []
    for raw in _all_set_partitions(list(e.labels)):
        partition = tuple(tuple(block) for block in raw)
        if _intact(e, partition, party):
            valid.append(partition)
    assert _canon(valid) == _canon(family.partitions)
    assert len(family.partitions) == 2  # Bell(2): {4567}/{89} merged or not


def test_family_respects_subset_argument():
    e = catalog("bennett9")
    subset = ("psi4", "psi5", "psi8", "psi9")
    family = enumerate_valid_partitions(e, subset, 1)
    assert family.subset == subset
    assert family.component_blocks == (("psi4",), ("psi5",), ("psi8", "psi9"))
    assert len(family.partitions) == 5  # Bell(3)


def test_family_of_an_unstable_split_raises():
    # two blocks whose spans overlap by 0.5: the family is refused, as the
    # component partition is
    e, tol = _unstable_ensemble()
    assert overlap_graph(e, e.labels, 0, tol).blocks() == (("a", "b"), ("c",))
    for _ in range(2):
        with pytest.raises(NumericalInstabilityError):
            enumerate_valid_partitions(e, e.labels, 0, tol)


@pytest.mark.parametrize(
    "make", [lambda: catalog("bennett9"), lambda: random_product_basis((2, 2, 3), 4, depth=5)]
)
def test_no_span_is_computed_for_a_connected_graph(monkeypatch, make):
    # neither search measures a party whose graph on the whole ensemble is
    # connected, so nobody computes that party's span of every state
    e = make()
    everything = tuple(range(len(e.labels)))
    connected = [p for p in range(e.parties) if len(overlap_graph(e, e.labels, p).blocks()) == 1]
    assert len(connected) == 2
    made = _made_spans(monkeypatch)
    verdict = decide(e, "complete")
    exhaustive_decide(e)
    spans = [(party, rows) for party, rows, _ in made]
    assert bool(spans) == verdict.distinguishable  # bennett9 never splits
    assert not [key for key in spans if key[0] in connected and key[1] == everything]
    # a one-block family offers exactly the trivial partition, still computing no span
    for party in connected:
        assert enumerate_valid_partitions(e, e.labels, party).partitions == ((e.labels,),)
    assert [(party, rows) for party, rows, _ in made] == spans


def test_family_order_is_the_stable_sort_of_every_grouping_by_block_count():
    # the order of a family built in full, as before the finest was tried first
    def reference(e, blocks):
        rows = [[e.index(label) for label in block] for block in blocks]
        merged = [
            tuple(sorted(tuple(sorted(i for block in group for i in block)) for group in raw))
            for raw in _all_set_partitions(rows)
        ]
        named = lambda p: tuple(tuple(e.labels[i] for i in block) for block in p)
        return tuple(named(p) for p in sorted(merged, key=len, reverse=True))

    cube = catalog("cube64")
    bennett = catalog("bennett9")
    for e, subset, party in [
        (cube, cube.labels, 2),
        (bennett, ("psi4", "psi5", "psi8", "psi9"), 1),
        (catalog("comp2x2"), ("s00", "s01", "s10", "s11"), 0),
    ]:
        family = enumerate_valid_partitions(e, subset, party)
        assert family.partitions == reference(e, family.component_blocks)


# ---------------------------------------------------------------------------
# exhaustive_decide


def test_oracle_agrees_on_computational_basis():
    e = catalog("comp2x2")
    v = oracle_verdict(e)
    assert v.kind == "distinguishable"
    report = run_protocol(e, lift_protocol(v.tree, e))
    assert report.perfect


def test_oracle_agrees_on_bennett9():
    e = catalog("bennett9")
    v = exhaustive_decide(e)
    assert v.kind == "indistinguishable"
    assert v.certificate.subset == e.labels
    for g in v.certificate.graphs:
        assert len(g.blocks()) == 1


def test_oracle_size_guard():
    with pytest.raises(TooLargeError):
        exhaustive_decide(catalog("grid16"))
    with pytest.raises(TooLargeError):
        exhaustive_decide(catalog("cube64"))


def test_oracle_requires_complete_mode():
    with pytest.raises(InvalidModeError):
        exhaustive_decide(catalog("finkelstein9"))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_agrees_with_greedy_on_generated_bases(dims, seed):
    e = random_product_basis(dims, seed=seed, depth=seed % 4)
    greedy = decide(e, "complete")
    thorough = oracle_verdict(e)
    assert greedy.kind == thorough.kind
    if thorough.kind == "distinguishable":
        assert run_protocol(e, lift_protocol(thorough.tree, e)).perfect
    else:  # raises SchemaError unless every party's graph on the subset is connected
        stuck_certificate(e, thorough.certificate.subset)


def test_a_pool_pass_of_the_oracle_builds_no_protocol(monkeypatch):
    # the oracle answers whether a protocol exists and decide builds it: over
    # the sweep benchmark's dims and depths and dressed bennett9 bases, after
    # decide, exhaustive_decide makes no TraceSplit or MeasurementStep
    bases = [make() for make in POOL.values()]
    greedy = [decide(e, "complete") for e in bases]
    made = []

    def recording(init):
        return lambda self, *args, **kwargs: made.append(self) or init(self, *args, **kwargs)

    for cls in (TraceSplit, MeasurementStep):
        monkeypatch.setattr(cls, "__init__", recording(cls.__init__))
    verdicts = [exhaustive_decide(e) for e in bases]
    assert made == []
    assert [v.kind for v in verdicts] == [v.kind for v in greedy]
    assert {v.kind for v in verdicts} == {"distinguishable", "indistinguishable"}
    assert all(v.tree is None and v.trace is None for v in verdicts)


def test_oracle_certificate_subset_is_stuck():
    v = exhaustive_decide(catalog("bennett9"))
    # raises SchemaError unless every party's graph on the subset is connected
    stuck_certificate(catalog("bennett9"), v.certificate.subset)


def _bennett9_beside_three():
    """bennett9 in a 3 x 4 basis: three more states carry e3 at party 1.

    Party 1 splits the whole set into bennett9, which is stuck, and the three
    new states: the finest split fails there and the oracle must try
    coarsenings.
    """
    bennett = catalog("bennett9")
    states = [
        ProductState(s.label, (s.locals[0], np.append(s.locals[1], 0.0)))
        for s in bennett.states
    ]
    states += [ProductState(f"x{i}", (basis_vector(3, i), basis_vector(4, 3))) for i in range(3)]
    return Ensemble("bennett9+3", (3, 4), tuple(states), complete=True)


def _built_keys(monkeypatch):
    """The key of every memo entry built from here on, in order."""
    built = []
    memo = Ensemble.memo

    def recording(self, key, build):
        def recorded():
            built.append(key)
            return build()

        return memo(self, key, recorded)

    monkeypatch.setattr(Ensemble, "memo", recording)
    return built


def _enumerations(monkeypatch):
    """The number of coarsening enumerations from here on."""
    calls = []
    enumerate_all = oracle._set_partitions

    def counting(items):
        calls.append(len(items))
        return enumerate_all(items)

    monkeypatch.setattr(oracle, "_set_partitions", counting)
    return calls


@pytest.mark.parametrize(
    "make, kind, enumerates",
    [
        (lambda: random_product_basis((2, 2, 3), 4, depth=5), "distinguishable", False),
        (lambda: catalog("bennett9"), "indistinguishable", False),
        (_bennett9_beside_three, "indistinguishable", True),
    ],
)
def test_each_split_is_checked_once_and_the_oracle_tries_the_finest_first(
    monkeypatch, make, kind, enumerates
):
    # decide and then the oracle check each (party, mask) split at most once,
    # and build each block span once; the oracle enumerates coarsenings only
    # where a finest split fails, which never happens on a distinguishable basis
    e = make()
    built, enumerated = _built_keys(monkeypatch), _enumerations(monkeypatch)
    made = _made_spans(monkeypatch)
    assert decide(e, "complete").kind == kind
    greedy = [key for key in built if key[0] == "checked"]
    assert exhaustive_decide(e).kind == kind
    checks = [key for key in built if key[0] == "checked"]
    spans = [(party, rows) for party, rows, _ in made]
    assert len(set(checks)) == len(checks) and checks[: len(greedy)] == greedy
    assert len(set(spans)) == len(spans) and bool(spans) == bool(checks)
    assert bool(enumerated) == enumerates
    if kind == "distinguishable":  # the oracle takes the greedy's splits and checks none anew
        assert checks == greedy and greedy


def _every_verdict(e):
    """Both searches (the oracle where it may), the chain criterion, and any protocol's replay."""
    greedy = decide(e, "complete")
    if len(e.labels) <= oracle.MAX_ORACLE_STATES:
        exhaustive_decide(e)
    chain_criterion(e)
    if greedy.tree is not None:
        run_protocol(e, lift_protocol(greedy.tree, e))


def test_verdict_paths_leave_no_reference_cycles():
    # every call's memo, search state and frontier is freed by reference
    # counting, so the collector finds nothing once they return
    bases = [catalog(name) for name in CATALOG_NAMES if catalog(name).complete]
    bases += [random_product_basis(dims, seed, depth=seed + 2)
              for dims in [(2, 3), (2, 2, 3), (3, 2)] for seed in range(3)]
    _every_verdict(bases[0])  # anything imported on first use is in place
    gc.collect()
    gc.disable()
    try:
        for e in bases:
            _every_verdict(e)
        assert gc.collect() == 0
    finally:
        gc.enable()
