"""Exhaustive cross-check for the greedy decision procedure.

Instead of always measuring the finest split, the oracle tries every
partition a non-damaging measurement could implement, at every party, in
every reachable subset.  Valid partitions are exactly the coarsenings of
the component partition of the overlap graph: any block must absorb whole
components, since splitting a component would damage the states bridging
it.  Memoized over label subsets this stays cheap for small bases and is
independent enough of the greedy path to serve as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .distinguish import (
    MeasurementStep,
    StepOutcome,
    TraceLeaf,
    TraceNode,
    TraceSplit,
    Verdict,
    finest_step,
    stuck_certificate,
)
from .ensemble import Ensemble, ensure_complete
from .errors import TooLargeError
from .linalg import DEFAULT_TOL
from .relativity import block_span, components, overlap_graph

__all__ = [
    "MAX_ORACLE_STATES",
    "PartitionFamily",
    "enumerate_valid_partitions",
    "exhaustive_decide",
]

MAX_ORACLE_STATES = 12


@dataclass(frozen=True)
class PartitionFamily:
    """All partitions a non-damaging measurement can realize on a subset."""

    party: int
    subset: tuple[str, ...]
    component_blocks: tuple[tuple[str, ...], ...]
    partitions: tuple[tuple[tuple[str, ...], ...], ...]


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_valid_partitions(
    e: Ensemble, subset: tuple[str, ...], party: int, tol: float = DEFAULT_TOL
) -> PartitionFamily:
    """Every coarsening of the component partition of ``subset`` at ``party``.

    The family always contains the trivial one-block partition; its size is
    the Bell number of the component count.  Only a graph that splits has
    its component spans computed, by :func:`components`, which raises
    NumericalInstabilityError when they are not orthogonal.
    """
    g = overlap_graph(e, subset, party, tol)
    blocks = g.blocks()
    if len(blocks) >= 2:
        components(g, e, tol)
    partitions = []
    for grouping in _set_partitions(list(g.row_blocks)):
        # disjoint ascending rows: sorting them sorts blocks by earliest state
        merged = sorted(sorted(i for block in group for i in block) for group in grouping)
        partitions.append(tuple(tuple(e.labels[i] for i in rows) for rows in merged))
    partitions.sort(key=len, reverse=True)  # finest first, trivial last
    return PartitionFamily(
        party=party,
        subset=g.members,
        component_blocks=blocks,
        partitions=tuple(partitions),
    )


def exhaustive_decide(e: Ensemble, tol: float = DEFAULT_TOL) -> Verdict:
    """Search every measurement sequence; agrees with the greedy procedure.

    Guarded to at most MAX_ORACLE_STATES states since the subset space grows
    exponentially.  Complete mode only.
    """
    ensure_complete(e, tol)
    if math.prod(e.dims) > MAX_ORACLE_STATES:
        raise TooLargeError(
            f"oracle handles at most {MAX_ORACLE_STATES} states, got {math.prod(e.dims)}"
        )
    # memo: frozenset -> ("leaf",) | ("split", party, partition) | None
    memo: dict[frozenset[str], tuple | None] = {}

    def solve(subset: tuple[str, ...]) -> bool:
        key = frozenset(subset)
        if key in memo:
            return memo[key] is not None
        if len(subset) == 1:
            memo[key] = ("leaf",)
            return True
        memo[key] = None  # pessimistic placeholder, no cycles possible
        for party in range(e.parties):
            family = enumerate_valid_partitions(e, subset, party, tol)
            for partition in family.partitions:
                if len(partition) < 2:
                    continue
                if all(solve(block) for block in partition):
                    memo[key] = ("split", party, partition)
                    return True
        memo[key] = None
        return False

    def build(subset: tuple[str, ...]) -> TraceNode:
        entry = memo[frozenset(subset)]
        assert entry is not None
        if entry[0] == "leaf":
            return TraceLeaf(subset[0])
        _, party, partition = entry
        outcomes = tuple(StepOutcome(block, block_span(e, block, party, tol)) for block in partition)
        step = MeasurementStep(party=party, outcomes=outcomes)
        return TraceSplit(step=step, children=tuple(build(block) for block in partition))

    def descend_to_stuck(subset: tuple[str, ...]) -> tuple[str, ...]:
        step = finest_step(e, subset, tol)
        if step is None:
            return subset
        for outcome in step.outcomes:
            if not solve(outcome.block):
                return descend_to_stuck(outcome.block)
        raise AssertionError("indistinguishable subset with all finest blocks distinguishable")

    if solve(e.labels):
        return Verdict(kind="distinguishable", tree=build(e.labels))
    stuck = descend_to_stuck(e.labels)
    return Verdict(kind="indistinguishable", certificate=stuck_certificate(e, stuck, tol))
