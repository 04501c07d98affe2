"""Exhaustive cross-check for the greedy decision procedure.

Instead of always measuring the finest split, the oracle tries every
partition a non-damaging measurement could implement, at every party, in
every reachable subset.  Valid partitions are exactly the coarsenings of
the component partition of the overlap graph: any block must absorb whole
components, since splitting a component would damage the states bridging
it.  Subsets are bit masks over state indices, partitions hold ascending
rows, and labels are attached only to a returned certificate.  Memoized
by mask this stays cheap for small bases and is independent enough of the
greedy path to serve as ground truth.  It answers whether a protocol
exists, not with one: a distinguishable verdict carries no tree, since
:func:`~loccdist.distinguish.decide` builds that protocol.
"""

from __future__ import annotations

import math
from typing import Iterator

from .distinguish import Verdict, _certificate, _finest
from .distinguish import stuck_certificate  # noqa: F401  (perfbench/tracing.py wraps it here)
from .ensemble import Ensemble, ensure_complete
from .errors import TooLargeError
from .linalg import DEFAULT_TOL
from .records import Record
from .relativity import _blocks, _check_splits, _mask, overlap_graph
from .relativity import components  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "MAX_ORACLE_STATES",
    "PartitionFamily",
    "enumerate_valid_partitions",
    "exhaustive_decide",
]

MAX_ORACLE_STATES = 12


class PartitionFamily(Record, eq=True):
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


def _partitions(e: Ensemble, party: int, mask: int, tol: float) -> Iterator[tuple[tuple, ...]]:
    """Every coarsening of the component partition of the states in ``mask`` at ``party``.

    Finest first, the trivial one-block partition last.  A graph that splits
    has its blocks' spans checked by :func:`_check_splits`, which may raise
    NumericalInstabilityError; the coarsenings are built only past the finest.
    """
    blocks = _blocks(e, party, mask, tol)
    if len(blocks) > 1:
        _check_splits(e, ((party, mask, blocks),), tol)
    yield blocks
    coarser = [
        # disjoint ascending rows: sorting them sorts blocks by earliest state
        tuple(sorted(tuple(sorted(i for block in group for i in block)) for group in grouping))
        for grouping in _set_partitions(list(blocks))
    ]
    yield from sorted(coarser, key=len, reverse=True)[1:]  # stable: the finest, the longest, leads


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


def _solve(e: Ensemble, memo: dict[int, tuple | None], mask: int, tol: float) -> bool:
    """Whether some sequence of valid partitions splits the states in ``mask`` down to single states.

    ``memo`` keeps each mask's answer: () for one state, the first
    ``(party, partition)`` that works, or None when none does.
    """
    if mask in memo:
        return memo[mask] is not None
    memo[mask] = None  # pessimistic placeholder, no cycles possible
    for party in range(e.parties):
        for partition in _partitions(e, party, mask, tol):
            if len(partition) == 1:  # the trivial one, always last
                break
            if all(_solve(e, memo, _mask(rows), tol) for rows in partition):
                memo[mask] = (party, partition)
                return True
    return False


def _require_small(states: int) -> None:
    """Raise TooLargeError past MAX_ORACLE_STATES states, as the subset space grows exponentially."""
    if states > MAX_ORACLE_STATES:
        raise TooLargeError(f"oracle handles at most {MAX_ORACLE_STATES} states, got {states}")


def exhaustive_decide(e: Ensemble, tol: float = DEFAULT_TOL) -> Verdict:
    """Search every measurement sequence; agrees with the greedy procedure.

    Guarded to at most MAX_ORACLE_STATES states.  Complete mode only.  A
    distinguishable verdict has no tree; an indistinguishable one has the
    certificate of a subset that no sequence splits.
    """
    ensure_complete(e, tol)
    _require_small(math.prod(e.dims))
    # memo: mask -> () for one state | (party, partition) | None
    memo: dict[int, tuple | None] = {1 << i: () for i in range(len(e.labels))}
    everything = (1 << len(e.labels)) - 1
    if _solve(e, memo, everything, tol):
        return Verdict(kind="distinguishable")
    stuck = everything
    while (split := _finest(e, stuck, tol)) is not None:
        # an unsolved subset has an unsolved finest block, or its finest split would solve it
        stuck = next(mask for mask in map(_mask, split[1]) if not _solve(e, memo, mask, tol))
    return Verdict(kind="indistinguishable", certificate=_certificate(e, stuck, tol))
