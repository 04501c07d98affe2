"""Overlap structure of an ensemble as seen by a single party.

Two states are relative at a party when that party's vectors have a nonzero
inner product (within tolerance).  The resulting graph, its connected
components, and chains of consecutively relative, linearly independent
vectors are the raw material for both the decision procedure and the
sufficient indistinguishability criterion.

Everything here depends only on the frozen ensemble, the party, the
subset and ``tol``, so each piece is built once and kept in the ensemble's
:meth:`~loccdist.ensemble.Ensemble.memo`: per ``("bits", party, tol)`` the
party's graph as one Python int per state, bit j of row i the edge i-j,
built by :func:`loccdist.ensemble._bit_rows`, which validation reads too;
per ``("blocks", party, mask, tol)`` the components of the graph on the
states set in the bit mask, found by one search over the bit rows; and per
``("checked", party, mask, tol)`` the spans of a graph that splits, checked
once.  The decision procedure and the exhaustive oracle walk subsets as
masks and share these entries.  :func:`overlap_graph` and
:func:`components` show the same entries through labels; a graph copies no
bit rows, and its edges are made only when read, as by a certificate.

The checked entries are read and filled only by :func:`_check_splits`:
:func:`~loccdist.distinguish.decide` hands it every split of its tree at
once, and the oracle and :func:`components` one split at a time, with the
blocks they already hold.  It normalizes every new block's first row and
runs the other rows' projections, one stacked pass per party dimension,
and phase-fixes them all at once; blocks of rank two or more go through
:func:`~loccdist.linalg.span_basis`.  A split whose spans all have one
row passes on the graph's missing edges alone; in every other split each
span meets the stack of its later spans in one product, and the first
split whose spans overlap raises NumericalInstabilityError.  The entries
hold the bytes ``span_basis`` gives.  The oracle's coarser partitions make
no spans: only a finest split is ever checked.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericalInstabilityError
from .ensemble import (
    _CHUNK_ENTRIES,
    Ensemble,
    _bit_rows,
    _ones,
    _rounding_band,
    ensure_complete,
)
from .linalg import DEFAULT_TOL, _phase_fixed, _residual, _row_norms, span_basis
from .records import Record

__all__ = [
    "OverlapGraph",
    "Partition",
    "chain_criterion",
    "components",
    "overlap_graph",
    "relativity_chain",
]


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


class OverlapGraph(Record, hidden=("rows", "ensemble", "tol")):
    """Relativity graph of a state subset at one party.

    Members keep the ensemble order; ``rows`` are their ascending state
    indices.  :attr:`row_blocks` reads the memo entry of :func:`_blocks`;
    ``edges`` (label pairs, earlier member first, made on first read) reads
    the party's bit rows masked to the members.
    """

    party: int
    members: tuple[str, ...]
    rows: tuple[int, ...]
    ensemble: Ensemble
    tol: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OverlapGraph):
            return NotImplemented
        return (self.party, self.members, self.edges) == (other.party, other.members, other.edges)

    def __hash__(self) -> int:
        return hash((self.party, self.members))

    @functools.cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        bits, labels = _bit_rows(self.ensemble, self.party, self.tol), self.ensemble.labels
        later, out = _mask(self.rows), set()
        for i in self.rows:
            later ^= 1 << i
            out.update((labels[i], labels[j]) for j in _ones(bits[i] & later))
        return frozenset(out)

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


class Partition(Record):
    """Connected components of an overlap graph with orthonormal block spans, as rows."""

    party: int
    blocks: tuple[tuple[str, ...], ...]
    spans: tuple[np.ndarray, ...]


def _cross_check(party: int, spans: tuple[np.ndarray, ...], tol: float) -> None:
    """Raise NumericalInstabilityError unless every two of a split's spans are orthogonal.

    Distinct blocks have no edges between them, so their spans must come out
    orthogonal (the non-damaging condition of Walgate & Hardy, PRL 89,
    147901, 2002).  Each span meets the stack of all later spans in one
    product, and that product is the check: the first pair (i, j), in loop
    order, with an entry beyond 10 * tol means the tolerance no longer
    separates signal from noise, and is raised as instability, with the
    pair's first such entry row by row, rather than silently absorbed.
    """
    later = np.concatenate(spans)
    starts = list(itertools.accumulate(map(len, spans), initial=0))
    for i, span in enumerate(spans[:-1]):
        overlaps = np.abs(span.conj() @ later[starts[i + 1] :].T)
        over = overlaps > 10.0 * tol  # finite, so no NaN
        if over.any():
            j = bisect.bisect_right(starts, starts[i + 1] + int(over.any(axis=0).argmax())) - 1
            cols = slice(starts[j] - starts[i + 1], starts[j + 1] - starts[i + 1])
            raise NumericalInstabilityError(
                f"blocks {i} and {j} at party {party} have span overlap "
                f"{overlaps[:, cols][over[:, cols]][0]:.3e}, beyond 10*tol"
            )


def _rank_one_pairs_pass(d: int, tol: float) -> bool:
    """If two rank-one spans of one split at a party of dimension ``d`` pass the check at ``tol``.

    With ``u`` = 2**-53, it holds when ``9 * tol > 4 * (d + 11) * u``: twice
    the margin the bound of :func:`_check_splits` needs.  At d = 2 that is
    tol > 6.4e-16, at d = 64 tol > 3.7e-15.
    """
    return 9.0 * tol > 4.0 * (d + 11) * 2.0**-53


def _first_vectors(e: Ensemble, blocks: list, tol: float, out: np.ndarray) -> list[bool]:
    """Each ``(party, rows)`` block's first row normalized into ``out``; if it spans the block.

    The parties of ``blocks`` share one dimension d.  The norms are
    :func:`~loccdist.linalg._row_norms`, and every other row takes one
    projection pass off its block's vector, ``np.vecdot`` on the stacked
    rows as in ``span_basis``.  A block whose first norm is at most
    ``tol + band``, or with a residual above ``tol - band``, is left to
    ``span_basis``; ``band`` is :func:`~loccdist.ensemble._rounding_band`,
    ``4 * (d + 4) * u`` with u = 2**-53.  One pass is enough for that.
    ``span_basis`` takes the same first vector and the same first pass, then
    a second pass that moves a residual of computed norm n by rounding
    alone, by less than ``n * band`` (Higham, section 3.1):

    - the exact norm of the residual w is within ``(d + 3) * u / 2`` of n,
      relatively: two real dot products of d terms, a sum and a square root;
    - the exact second pass, with ``b`` unit up to rounding, does not
      lengthen w, and its inner product ``<b|w>`` is off by at most
      ``sqrt(2) * (d + 2) * u * |w|``, its scaled ``b`` and the subtraction
      add ``(2 * sqrt(2) + 1) * u * |w|``;
    - the new norm adds ``(d + 3) * u / 2`` more, in all less than
      ``(2.5 * d + 10) * u * n``.

    So a residual of norm ``n <= tol - band`` comes out below
    ``(tol - band) * (1 + band) < tol`` for ``tol < 1``: every block kept
    here has rank one there too, and the vector is the same bytes.
    """
    first = _gather(e, [(party, rows[0]) for party, rows in blocks])
    norms = _row_norms(first)
    np.divide(first, norms[:, None], out=out)
    band = _rounding_band(out.shape[1])
    spanned = (norms > tol + band).tolist()
    owner = [j for j, (_, rows) in enumerate(blocks) for _ in rows[1:]]
    if owner:
        b = out.take(owner, 0)
        w = _gather(e, [(p, i) for p, rows in blocks for i in rows[1:]])
        w -= np.vecdot(b, w)[:, None] * b
        for x in (_row_norms(w) > tol - band).nonzero()[0].tolist():
            spanned[owner[x]] = False
    return spanned


def _gather(e: Ensemble, picks: list[tuple[int, int]]) -> np.ndarray:
    """Row ``i`` of party ``party``'s array for each ``(party, i)``, one ``take`` per party."""
    parts = [e.party_arrays[party].take([i for _, i in run], 0)
             for party, run in itertools.groupby(picks, key=operator.itemgetter(0))]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _new_spans(e: Ensemble, new: list[tuple[int, tuple[int, ...]]], tol: float) -> list:
    """:func:`span_basis` of each ``(party, rows)`` block of ``new``.

    The blocks go in chunks of about ``_CHUNK_ENTRIES`` entries, each chunk
    padded to its widest party, so no temporary grows with the ensemble.
    Blocks of parties of one dimension, and of each party, share the
    stacked products where they come together in ``new``; sorted by
    dimension, a narrow block shares no array with a much wider one.
    """
    spans: list = []
    chunk: list = []
    rows = width = 0
    for block in new:
        d = max(width, e.dims[block[0]])
        if chunk and (rows + len(block[1])) * d > _CHUNK_ENTRIES:
            spans += _chunk_spans(e, chunk, tol, width)
            chunk, rows, d = [], 0, e.dims[block[0]]
        chunk.append(block)
        rows, width = rows + len(block[1]), d
    return spans + _chunk_spans(e, chunk, tol, width) if chunk else spans


def _chunk_spans(e: Ensemble, chunk: list, tol: float, width: int) -> list:
    """The spans of one chunk of :func:`_new_spans`, ``width`` its widest party.

    The chunk's first vectors are one zeroed ``len(chunk) x width`` array:
    :func:`_first_vectors` fills the rows of each run of blocks whose
    parties have one dimension, and :func:`_phase_fixed` turns them all at
    once.  A block its first vector spans gets a read-only row view of that
    array; the others go through ``span_basis``.
    """
    u = np.zeros((len(chunk), width), np.complex128)
    spanned: list[bool] = []
    for d, group in itertools.groupby(chunk, key=lambda block: e.dims[block[0]]):
        blocks = list(group)
        at = len(spanned)
        spanned += _first_vectors(e, blocks, tol, u[at : at + len(blocks), :d])
    u = _phase_fixed(u, tol)
    u.setflags(write=False)
    spans = []
    for j, ((party, rows), one) in enumerate(zip(chunk, spanned)):
        a = e.party_arrays[party]
        spans.append(u[j : j + 1, : a.shape[1]] if one else span_basis(a[list(rows)], tol))
    return spans


def _check_splits(
    e: Ensemble, splits: Sequence[tuple[int, int, tuple]], tol: float
) -> list[tuple[np.ndarray, ...]]:
    """The checked spans of each ``(party, mask, blocks)`` split.

    ``blocks`` are :func:`_blocks` of ``party`` and ``mask``.  This is the
    one way in to the ``("checked", party, mask, tol)`` entries: pass two of
    :func:`~loccdist.distinguish.decide` hands over every split of the tree
    at once, the oracle and :func:`components` one split each.  A split
    already checked returns its entry, and when no split is new nothing is
    made.  The spans of all the new splits' blocks, each block once in the
    order first met, are made together by :func:`_new_spans` and kept only
    in the checked entries.  A split with a span of rank two or more is
    decided by :func:`_cross_check`; one whose spans all have one row
    passes unchecked, by this bound, with u = 2**-53 and d the party's
    dimension:

    - Blocks A and B of the split share no edge, so every computed
      ``|<a|b>|`` of a row of A and a row of B is at most tol (an entry
      near tol is an ``np.vdot``, as in :func:`_bit_rows`).  Its rounding
      is at most ``(d + 2) * u``, and every row is unit to within
      DEFAULT_TOL.
    - A rank-one span is one row of its block, divided by its computed norm
      and turned by a unit phase.  Two of them overlap by at most
      ``tol * (1 + 1e-8) + (d + 18) * u`` exactly, and the check's product
      adds ``(d + 3) * u``: below ``10 * tol`` when
      ``9 * tol > 2 * (d + 11) * u``.

    Below twice that bound (:func:`_rank_one_pairs_pass`) it is checked
    too; this whole-split skip is the check's one rank-one shortcut.  The
    splits are checked in the order given, and the first that fails raises
    its NumericalInstabilityError.  A split that passes keeps its spans per
    ``("checked", party, mask, tol)``; one that fails keeps nothing there,
    so it fails again on every call.
    """
    out = [e.cached(("checked", party, mask, tol)) for party, mask, _ in splits]
    if None not in out:
        return out
    todo = [(x, *split) for x, split in enumerate(splits) if out[x] is None]
    spans = dict.fromkeys((party, rows) for _, party, _, blocks in todo for rows in blocks)
    new = sorted(spans, key=lambda key: (e.dims[key[0]], key[0]))
    spans.update(zip(new, _new_spans(e, new, tol)))
    for x, party, mask, blocks in todo:
        split = tuple(spans[party, rows] for rows in blocks)
        if max(map(len, split)) > 1 or not _rank_one_pairs_pass(e.dims[party], tol):
            _cross_check(party, split, tol)
        out[x] = e.memo(("checked", party, mask, tol), lambda: split)
    return out


def components(g: OverlapGraph) -> Partition:
    """Component partition of ``g``'s states at its tol, with spans by :func:`_check_splits`."""
    e, mask = g.ensemble, _mask(g.rows)
    blocks = _blocks(e, g.party, mask, g.tol)
    (spans,) = _check_splits(e, ((g.party, mask, blocks),), g.tol)
    return Partition(g.party, tuple(tuple(e.labels[i] for i in rows) for rows in blocks), spans)


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
    path: list[int] = []
    found = _extend(bits, e.party_arrays[party], first, 0, length + 1, path, [], tol)
    return tuple(e.labels[i] for i in path) if found else None


def _extend(
    bits: list[int], rows: np.ndarray, i: int, on_path: int, size: int,
    path: list[int], orthobasis: list[np.ndarray], tol: float,
) -> bool:
    """Extend ``path`` by state i, then depth-first by adjacent states off it, to ``size`` states.

    A state joins only if its row is independent of the path's rows:
    ``orthobasis`` holds their orthonormal basis.  On success ``path`` holds
    the chain; otherwise both lists are as they were.
    """
    r = _residual(rows[i], orthobasis, tol)
    if r is None:
        return False
    path.append(i)
    orthobasis.append(r)
    if len(path) == size:
        return True
    for j in _ones(bits[i] & ~(on_path | 1 << i)):  # adjacent states off the path, ascending
        if _extend(bits, rows, j, on_path | 1 << i, size, path, orthobasis, tol):
            return True
    path.pop()
    orthobasis.pop()
    return False


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
        if any(len(span) < d for span in components(g).spans):
            return False
        for label in e.labels:
            if relativity_chain(e, party, label, d - 1, tol) is None:
                return False
    return True
