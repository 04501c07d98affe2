"""The protocol the exhaustive oracle's search finds, built for the tests.

:func:`~loccdist.oracle.exhaustive_decide` says only whether a protocol
exists.  Tests that lift, replay or digest the oracle's own protocol build
it here: :func:`loccdist.oracle._solve` on a fresh memo, then one
:class:`~loccdist.distinguish.TraceSplit` per solved mask, each step onto
the block spans of the partition the search kept there.
"""

from __future__ import annotations

from loccdist import exhaustive_decide, oracle
from loccdist.distinguish import TraceLeaf, TraceSplit, Verdict, _step
from loccdist.linalg import DEFAULT_TOL, span_basis
from loccdist.relativity import _mask


def oracle_verdict(e, tol=DEFAULT_TOL):
    """``exhaustive_decide``'s verdict, with the protocol its search found when there is one."""
    v = exhaustive_decide(e, tol)
    if not v.distinguishable:
        return v
    memo = {1 << i: () for i in range(len(e.labels))}
    everything = (1 << len(e.labels)) - 1
    assert oracle._solve(e, memo, everything, tol)
    return Verdict(v.kind, _build(e, memo, everything, tol), v.certificate, v.trace)


def _build(e, memo, mask, tol):
    """The protocol that ``_solve`` found for the states in ``mask``."""
    entry = memo[mask]
    assert entry is not None
    if not entry:
        return TraceLeaf(e.labels[mask.bit_length() - 1])
    party, partition = entry
    spans = tuple(span_basis(e.party_arrays[party][list(rows)], tol) for rows in partition)
    children = tuple(_build(e, memo, _mask(rows), tol) for rows in partition)
    return TraceSplit(step=_step(e, party, partition, spans), children=children)
