"""Overlap structure of an ensemble as seen by a single party.

Two states are relative at a party when that party's vectors have a nonzero
inner product (within tolerance).  The resulting graph, its connected
components, and chains of consecutively relative, linearly independent
vectors are the raw material for both the decision procedure and the
sufficient indistinguishability criterion.

Everything here depends only on the frozen ensemble, the party, the
subset and ``tol``, so each piece is built once and kept in the ensemble's
:meth:`~loccdist.ensemble.Ensemble.memo`:

- per ``("bits", party, tol)``, the party's adjacency packed as one Python
  int per state, bit j of row i the edge i-j;
- per ``("graph", party, rows, tol)``, an :class:`OverlapGraph`, with
  ``rows`` the ascending tuple of state indices.  It copies no matrix: its
  blocks come from a search over the bit rows masked to ``rows``, and its
  sliced adjacency and edges are made only when read, as by a certificate;
- per ``("span", party, rows, tol)``, a block span, which the search needs
  only where a graph splits, as the read-only rows of
  :func:`~loccdist.linalg.span_basis`.

The decision procedure and the exhaustive oracle, which walk many of the
same subsets, share them.  :func:`components` still checks the spans of
distinct blocks against each other on every call, with one product per pair
of blocks, so a repeated call raises as the first one did.
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
    """The party's adjacency as one Python int per state: bit j of row i is the edge i-j.

    Packed once per ``(party, tol)`` from :meth:`Ensemble.adjacency` and
    kept in :meth:`Ensemble.memo` under ``("bits", party, tol)``.
    """

    def build() -> tuple[int, ...]:
        adj = e.adjacency(party, tol)
        n = len(adj)
        width = (n + 7) // 8
        packed = np.packbits(adj, axis=1, bitorder="little").tobytes()
        return tuple(
            int.from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(n)
        )

    return e.memo(("bits", party, float(tol)), build)


@dataclass(frozen=True, eq=False)
class OverlapGraph:
    """Relativity graph of a state subset at one party.

    Members keep the ensemble order; ``rows`` are their ascending state
    indices.  The graph holds no matrix of its own, only references to the
    party's whole adjacency and its bit rows (:func:`_bit_rows`), so
    building one costs no copy.  :meth:`blocks` searches the bit rows masked
    to ``rows``.  ``adjacency``, the read-only boolean matrix over members
    without self-loops, is sliced from the party's on first read; ``edges``,
    the unordered label pairs with the earlier member first, and
    :meth:`neighbors` read it.
    """

    party: int
    members: tuple[str, ...]
    rows: tuple[int, ...] = field(repr=False)
    source: np.ndarray = field(repr=False)
    bits: tuple[int, ...] = field(repr=False)

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
        if len(self.rows) == len(self.source):
            return self.source
        adj = self.source.take(self.rows, axis=0).take(self.rows, axis=1)
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

    @functools.cached_property
    def row_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as ascending state indices, ordered by earliest one."""
        # Breadth-first search with Python ints as bit sets over state
        # indices: each step ORs whole bit rows, and ANDing with the unseen
        # members keeps the search inside the subset.
        bits = self.bits
        unseen = 0
        for i in self.rows:
            unseen |= 1 << i
        out = []
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

    @functools.cached_property
    def _blocks(self) -> tuple[tuple[str, ...], ...]:
        label = dict(zip(self.rows, self.members))
        return tuple(tuple(label[i] for i in block) for block in self.row_blocks)

    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Connected components, ordered by earliest member, members in order."""
        return self._blocks


def overlap_graph(
    e: Ensemble, subset: Iterable[str], party: int, tol: float = DEFAULT_TOL
) -> OverlapGraph:
    """The relativity graph of ``subset`` at ``party``.

    The graph refers to the ensemble's cached per-party adjacency and bit
    rows, and is built once per ``(party, rows, tol)`` and kept in
    :meth:`Ensemble.memo`, so every later call on the same subset, in any
    order, returns the same object with whatever it has found already.
    """
    if not 0 <= party < e.parties:
        raise DimensionError(f"party {party} out of range for {e.parties} parties")
    rows = tuple(sorted({e.index(label) for label in subset}))  # NotFoundError for unknown labels

    def build() -> OverlapGraph:
        members = tuple(e.labels[i] for i in rows)
        return OverlapGraph(
            party, members, rows, e.adjacency(party, tol), _bit_rows(e, party, tol)
        )

    return e.memo(("graph", party, rows, float(tol)), build)


def _span(e: Ensemble, party: int, rows: tuple[int, ...], tol: float) -> np.ndarray:
    return e.memo(
        ("span", party, rows, float(tol)),
        lambda: span_basis(e.party_arrays[party][list(rows)], tol),
    )


def block_span(
    e: Ensemble, block: Sequence[str], party: int, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of the span of ``block``'s vectors at ``party``, as rows.

    :func:`~loccdist.linalg.span_basis` on the block's rows of the party
    array, taken in the order given, computed once per
    ``(party, rows, tol)`` and kept in :meth:`Ensemble.memo`.
    """
    return _span(e, party, tuple(e.index(label) for label in block), tol)


@dataclass(frozen=True, eq=False)
class Partition:
    """Connected components of an overlap graph with orthonormal block spans, as rows."""

    party: int
    blocks: tuple[tuple[str, ...], ...]
    spans: tuple[np.ndarray, ...]


def components(g: OverlapGraph, e: Ensemble, tol: float = DEFAULT_TOL) -> Partition:
    """Component partition of ``g`` with a span basis per block.

    Distinct blocks have no edges between them, so their spans must come out
    orthogonal (the non-damaging condition of Walgate & Hardy, PRL 89,
    147901, 2002).  One product per pair of spans checks it; the first
    overlap beyond 10 * tol means the tolerance no longer separates signal
    from noise and is reported as instability rather than silently absorbed.
    """
    blocks = g.blocks()
    spans = tuple(_span(e, g.party, rows, tol) for rows in g.row_blocks)
    for i, j in itertools.combinations(range(len(spans)), 2):
        overlaps = np.abs(spans[i].conj() @ spans[j].T)
        over = np.flatnonzero(overlaps > 10.0 * tol)
        if over.size:
            raise NumericalInstabilityError(
                f"blocks {i} and {j} at party {g.party} have span overlap "
                f"{overlaps.flat[over[0]]:.3e}, beyond 10*tol"
            )
    return Partition(party=g.party, blocks=blocks, spans=spans)


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
    e.index(start)
    g = overlap_graph(e, e.labels, party, tol)
    neighbor_map = {m: g.neighbors(m) for m in g.members}

    rows = e.party_arrays[party]
    orthobasis: list[np.ndarray] = []
    path: list[str] = []
    visited: set[str] = set()

    def extend(label: str) -> tuple[str, ...] | None:
        r = _residual(rows[e.index(label)], orthobasis, tol)
        if r is None:
            return None
        path.append(label)
        visited.add(label)
        orthobasis.append(r)
        if len(path) == length + 1:
            return tuple(path)
        for nxt in neighbor_map[label]:
            if nxt in visited:
                continue
            found = extend(nxt)
            if found is not None:
                return found
        path.pop()
        visited.discard(label)
        orthobasis.pop()
        return None

    return extend(start)


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
