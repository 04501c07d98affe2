"""Exhaustive cross-check for the greedy decision procedure.

Instead of always measuring the finest split, the oracle tries every
partition a non-damaging measurement could implement, at every party, in
every reachable subset.  Valid partitions are exactly the coarsenings of
the component partition of the overlap graph: any block must absorb whole
components, since splitting a component would damage the states bridging
it.  Subsets are bit masks over state indices, partitions hold ascending
rows, and labels are attached only to the returned tree or certificate.
Memoized by mask this stays cheap for small bases and is independent
enough of the greedy path to serve as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .distinguish import (
    TraceLeaf,
    TraceNode,
    TraceSplit,
    Verdict,
    _split,
    _step,
    _subset,
    stuck_certificate,
)
from .ensemble import Ensemble, ensure_complete
from .errors import TooLargeError
from .linalg import DEFAULT_TOL
from .relativity import _blocks, _checked_spans, _mask, _span, overlap_graph
from .relativity import components  # noqa: F401  (perfbench/tracing.py wraps it here)

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


def _partitions(e: Ensemble, party: int, mask: int, tol: float) -> list[tuple[tuple, ...]]:
    """Every coarsening of the component partition of the states in ``mask`` at ``party``.

    Finest first, the trivial one-block partition last.  Only a graph that
    splits has its spans computed and checked, which may raise
    NumericalInstabilityError.
    """
    blocks = _blocks(e, party, mask, tol)
    if len(blocks) == 1:
        return [blocks]
    _checked_spans(e, party, blocks, tol)
    partitions = [
        # disjoint ascending rows: sorting them sorts blocks by earliest state
        tuple(sorted(tuple(sorted(i for block in group for i in block)) for group in grouping))
        for grouping in _set_partitions(list(blocks))
    ]
    partitions.sort(key=len, reverse=True)
    return partitions


def enumerate_valid_partitions(
    e: Ensemble, subset: tuple[str, ...], party: int, tol: float = DEFAULT_TOL
) -> PartitionFamily:
    """Every coarsening of the component partition of ``subset`` at ``party``.

    The family always contains the trivial one-block partition; its size is
    the Bell number of the component count.  The labelled view of what the
    exhaustive search tries, with the same span check.
    """
    g = overlap_graph(e, subset, party, tol)
    named = lambda rows: tuple(e.labels[i] for i in rows)
    partitions = tuple(tuple(map(named, p)) for p in _partitions(e, party, _mask(g.rows), tol))
    return PartitionFamily(party, g.members, g.blocks(), partitions)


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
    # memo: mask -> () for one state | (party, partition) | None
    memo: dict[int, tuple | None] = {1 << i: () for i in range(len(e.labels))}

    def solve(mask: int) -> bool:
        if mask in memo:
            return memo[mask] is not None
        memo[mask] = None  # pessimistic placeholder, no cycles possible
        for party in range(e.parties):
            for partition in _partitions(e, party, mask, tol)[:-1]:  # all but the trivial one
                if all(solve(_mask(rows)) for rows in partition):
                    memo[mask] = (party, partition)
                    return True
        return False

    def build(mask: int) -> TraceNode:
        entry = memo[mask]
        assert entry is not None
        if not entry:
            return TraceLeaf(e.labels[mask.bit_length() - 1])
        party, partition = entry
        spans = tuple(_span(e, party, rows, tol) for rows in partition)
        children = tuple(build(_mask(rows)) for rows in partition)
        return TraceSplit(step=_step(e, party, partition, spans), children=children)

    everything = (1 << len(e.labels)) - 1
    if solve(everything):
        return Verdict(kind="distinguishable", tree=build(everything))
    stuck = everything
    while (split := _split(e, stuck, tol)) is not None:
        # an unsolved subset has an unsolved finest block, or its finest split would solve it
        stuck = next(mask for mask in map(_mask, split[1]) if not solve(mask))
    certificate = stuck_certificate(e, _subset(e, stuck), tol)
    return Verdict(kind="indistinguishable", certificate=certificate)
