"""Overlap structure of an ensemble as seen by a single party.

Two states are relative at a party when that party's vectors have a nonzero
inner product (within tolerance).  The resulting graph, its connected
components, and chains of consecutively relative, linearly independent
vectors are the raw material for both the decision procedure and the
sufficient indistinguishability criterion.

Everything here depends only on the frozen ensemble, the party, the
subset and ``tol``, so each piece is built once and kept in the ensemble's
:meth:`~loccdist.ensemble.Ensemble.memo`: per ``("bits", party, tol)`` the
party's adjacency packed as one Python int per state, bit j of row i the
edge i-j; per ``("blocks", party, mask, tol)`` the components of the graph
on the states set in the bit mask, found by one search over the bit rows;
per ``("span", party, rows, tol)`` a block span, needed only where a graph
splits.  The decision procedure and the exhaustive oracle walk subsets as
masks and share these entries.  :func:`overlap_graph`, :func:`components`
and :func:`block_span` show the same entries through labels; a graph copies
no matrix, and its sliced adjacency and edges are made only when read, as
by a certificate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericalInstabilityError
from .ensemble import Ensemble, ensure_complete
from .linalg import DEFAULT_TOL, _residual, span_basis

__all__ = [
    "OverlapGraph",
    "Partition",
    "block_span",
    "chain_criterion",
    "components",
    "overlap_graph",
    "relativity_chain",
]


def _bit_rows(e: Ensemble, party: int, tol: float) -> tuple[int, ...]:
    """The party's :meth:`Ensemble.adjacency` as one int per state: bit j of row i is edge i-j."""

    def build() -> tuple[int, ...]:
        adj = e.adjacency(party, tol)
        n = len(adj)
        width = (n + 7) // 8
        packed = np.packbits(adj, axis=1, bitorder="little").tobytes()
        return tuple(
            int.from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(n)
        )

    return e.memo(("bits", party, float(tol)), build)


def _blocks(e: Ensemble, party: int, mask: int, tol: float) -> tuple[tuple[int, ...], ...]:
    """Components of ``party``'s graph on the states in ``mask``: ascending rows, earliest first."""

    def build() -> tuple[tuple[int, ...], ...]:
        # Breadth-first search with Python ints as bit sets over state
        # indices: each step ORs whole bit rows, and ANDing with the unseen
        # members keeps the search inside the subset.
        bits = _bit_rows(e, party, tol)
        unseen, out = mask, []
        while unseen:
            frontier = unseen & -unseen
            found = []
            while frontier:
                unseen ^= frontier
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    found.append(low.bit_length() - 1)
                    reach |= bits[found[-1]]
                    frontier ^= low
                frontier = reach & unseen
            out.append(tuple(sorted(found)))
        return tuple(out)

    return e.memo(("blocks", party, mask, tol), build)


def _mask(rows: Iterable[int]) -> int:
    """The bit mask with bit i set for each state index i in ``rows``."""
    mask = 0
    for i in rows:
        mask |= 1 << i
    return mask


@dataclass(frozen=True, eq=False)
class OverlapGraph:
    """Relativity graph of a state subset at one party.

    Members keep the ensemble order; ``rows`` are their ascending state
    indices.  :attr:`row_blocks` reads the memo entry of :func:`_blocks`;
    ``adjacency``, the read-only boolean matrix over members without
    self-loops, is sliced from the party's on first read, and ``edges``
    (label pairs, earlier member first) and :meth:`neighbors` read it.
    """

    party: int
    members: tuple[str, ...]
    rows: tuple[int, ...] = field(repr=False)
    ensemble: Ensemble = field(repr=False)
    tol: float = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OverlapGraph):
            return NotImplemented
        return (
            self.party == other.party
            and self.members == other.members
            and bool(np.array_equal(self.adjacency, other.adjacency))
        )

    def __hash__(self) -> int:
        return hash((self.party, self.members))

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        source = self.ensemble.adjacency(self.party, self.tol)
        if len(self.rows) == len(source):
            return source
        adj = source.take(self.rows, axis=0).take(self.rows, axis=1)
        adj.setflags(write=False)
        return adj

    @functools.cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        m = self.members
        return frozenset((m[i], m[j]) for i, j in zip(rows.tolist(), cols.tolist()))

    def neighbors(self, label: str) -> tuple[str, ...]:
        if label not in self.members:
            return ()
        row = self.adjacency[self.members.index(label)]
        return tuple(m for m, adjacent in zip(self.members, row.tolist()) if adjacent)

    @property
    def row_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as ascending state indices, ordered by earliest one."""
        return _blocks(self.ensemble, self.party, _mask(self.rows), self.tol)

    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Connected components, ordered by earliest member, members in order."""
        labels = self.ensemble.labels
        return tuple(tuple(labels[i] for i in block) for block in self.row_blocks)


def overlap_graph(
    e: Ensemble, subset: Iterable[str], party: int, tol: float = DEFAULT_TOL
) -> OverlapGraph:
    """The relativity graph of ``subset`` at ``party``, whose blocks the searches share."""
    if not 0 <= party < e.parties:
        raise DimensionError(f"party {party} out of range for {e.parties} parties")
    rows = tuple(sorted({e.index(label) for label in subset}))  # NotFoundError for unknown labels
    return OverlapGraph(party, tuple(e.labels[i] for i in rows), rows, e, float(tol))


def _span(e: Ensemble, party: int, rows: tuple[int, ...], tol: float) -> np.ndarray:
    return e.memo(
        ("span", party, rows, float(tol)),
        lambda: span_basis(e.party_arrays[party][list(rows)], tol),
    )


def block_span(
    e: Ensemble, block: Sequence[str], party: int, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of the span of ``block``'s vectors at ``party``, as rows.

    :func:`~loccdist.linalg.span_basis` on the block's rows in the order
    given, kept in :meth:`Ensemble.memo` per ``(party, rows, tol)``.
    """
    return _span(e, party, tuple(e.index(label) for label in block), tol)


@dataclass(frozen=True, eq=False)
class Partition:
    """Connected components of an overlap graph with orthonormal block spans, as rows."""

    party: int
    blocks: tuple[tuple[str, ...], ...]
    spans: tuple[np.ndarray, ...]


def _checked_spans(
    e: Ensemble, party: int, blocks: Sequence[tuple[int, ...]], tol: float
) -> tuple[np.ndarray, ...]:
    """The span of each block of rows at ``party``, checked pairwise, on every call.

    Distinct blocks have no edges between them, so their spans must come out
    orthogonal (the non-damaging condition of Walgate & Hardy, PRL 89,
    147901, 2002).  One product per pair of spans checks it; the first
    overlap beyond 10 * tol means the tolerance no longer separates signal
    from noise and is reported as instability rather than silently absorbed.
    """
    spans = tuple(_span(e, party, rows, tol) for rows in blocks)
    for i, j in itertools.combinations(range(len(spans)), 2):
        overlaps = np.abs(spans[i].conj() @ spans[j].T)
        if overlaps.size and overlaps.max() > 10.0 * tol:  # spans are finite, so no NaN
            first = overlaps.flat[np.flatnonzero(overlaps > 10.0 * tol)[0]]
            raise NumericalInstabilityError(
                f"blocks {i} and {j} at party {party} have span overlap "
                f"{first:.3e}, beyond 10*tol"
            )
    return spans


def components(g: OverlapGraph, e: Ensemble, tol: float = DEFAULT_TOL) -> Partition:
    """Component partition of ``g`` with a span basis per block, by :func:`_checked_spans`."""
    spans = _checked_spans(e, g.party, g.row_blocks, tol)
    return Partition(party=g.party, blocks=g.blocks(), spans=spans)


def relativity_chain(
    e: Ensemble,
    party: int,
    start: str,
    length: int,
    tol: float = DEFAULT_TOL,
) -> tuple[str, ...] | None:
    """Find ``length + 1`` states chained by consecutive overlaps at ``party``.

    The chain starts at ``start``, every consecutive pair is relative, and
    the party vectors of the whole chain are linearly independent.  The
    search walks simple paths depth-first in member order and prunes any
    extension that fails to raise the rank, which is sound because a
    dependent prefix can never become independent again.  Returns the first
    chain found, or None.
    """
    if length < 0:
        raise DimensionError(f"chain length must be non-negative, got {length}")
    first = e.index(start)
    bits = _bit_rows(e, party, tol)
    rows = e.party_arrays[party]
    orthobasis: list[np.ndarray] = []
    path: list[int] = []

    def extend(i: int, on_path: int) -> bool:
        r = _residual(rows[i], orthobasis, tol)
        if r is None:
            return False
        path.append(i)
        orthobasis.append(r)
        if len(path) == length + 1:
            return True
        todo = bits[i] & ~(on_path | 1 << i)  # neighbors off the path, ascending
        while todo:
            low = todo & -todo
            if extend(low.bit_length() - 1, on_path | 1 << i):
                return True
            todo ^= low
        path.pop()
        orthobasis.pop()
        return False

    return tuple(e.labels[i] for i in path) if extend(first, 0) else None


def chain_criterion(e: Ensemble, tol: float = DEFAULT_TOL) -> bool:
    """Sufficient condition for LOCC indistinguishability of a complete basis.

    True iff at every party p, every state starts a relativity chain of
    d_p - 1 further states with linearly independent party vectors.  When
    this holds, no sequence of non-damaging local measurements can ever cut
    the ensemble apart.  False proves nothing by itself.

    A component-rank pre-filter handles the easy failures: a chain from a
    state lives inside that state's component, so a component whose span
    rank falls short of d_p rules the chain out without searching.
    """
    ensure_complete(e, tol)
    for party, d in enumerate(e.dims):
        if d == 1:
            continue
        g = overlap_graph(e, e.labels, party, tol)
        if any(len(span) < d for span in components(g, e, tol).spans):
            return False
        for label in e.labels:
            if relativity_chain(e, party, label, d - 1, tol) is None:
                return False
    return True
