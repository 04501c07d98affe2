"""Decide distinguishability by non-damaging local projective measurements.

The procedure repeatedly looks for a party whose overlap graph on the
current subset is disconnected.  Measuring the projectors onto the component
spans leaves every state intact, announces which block the state sits in,
and recurses.  For a complete orthogonal product basis this greedy use of
the finest available split is exact: if some subset gets stuck with every
party's graph connected, no local protocol whatsoever can tell the states
apart, and the stuck subset is the certificate.  For incomplete ensembles a
stuck subset merely exhausts projective measurements, so the verdict
degrades to unknown.

:func:`decide` runs in two passes.  The first walks the split tree in
pre-order from the parties' bit rows alone, recording each node as a
leaf, a stuck block or a split with its party and blocks.  The second
hands every recorded split, in pre-order, to
:func:`loccdist.relativity._check_splits`, which makes all of their block
spans and checks every two blocks of each in stacked products, filling the
ensemble's checked memo entries; the first split in pre-order whose check
fails raises its NumericalInstabilityError there.  The verdict's kind and
the certificate of the first stuck block follow from the list; the trace is
built from it only when it is first read.

One tree type, :data:`TraceNode`, is both exploration and protocol:
:class:`TraceSplit` steps over :class:`TraceLeaf` labels and
:class:`TraceStuck` certificates.  With no stuck leaf it is a protocol, as
:func:`decide` and :func:`protocol_from_json` return it.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .ensemble import Ensemble, _ones, ensure_complete, ensure_orthogonal
from .errors import InvalidModeError, SchemaError
from .jsonio import canonical_dumps  # noqa: F401  (perfbench/tracing.py wraps it here)
from .jsonio import complex_rows_from_json, complex_to_json, parse_json
from .linalg import DEFAULT_TOL, normalize_rows
from .records import Record
from .relativity import OverlapGraph, _blocks, _check_splits, _mask
from .relativity import components  # noqa: F401  (perfbench/tracing.py wraps it here)
from .relativity import overlap_graph  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "MeasurementStep",
    "StepOutcome",
    "StuckCertificate",
    "TraceLeaf",
    "TraceNode",
    "TraceSplit",
    "TraceStuck",
    "Verdict",
    "decide",
    "parse_protocol",
    "protocol_from_json",
    "stuck_certificate",
    "verdict_to_json",
]


class StepOutcome(Record):
    """One measurement outcome: the states it keeps and, as read-only rows, its projector basis."""

    block: tuple[str, ...]
    basis: np.ndarray

    def __init__(self, block: tuple[str, ...], basis: np.ndarray) -> None:
        d = self.__dict__
        d["block"], d["basis"] = block, basis

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepOutcome):
            return NotImplemented
        return self.block == other.block and bool(np.array_equal(self.basis, other.basis))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which np.array_equal finds equal to it
        return hash((self.block, (self.basis + 0.0).tobytes()))


class MeasurementStep(Record, eq=True):
    """A projective measurement at one party, one outcome per block."""

    party: int
    outcomes: tuple[StepOutcome, ...]

    def __init__(self, party: int, outcomes: tuple[StepOutcome, ...]) -> None:
        if len(outcomes) < 2:
            raise SchemaError("a measurement step needs at least two outcomes")
        d = self.__dict__
        d["party"], d["outcomes"] = party, outcomes


class StuckCertificate(Record, eq=True):
    """A subset on which every party's overlap graph is connected.

    Carries the full per-party graphs so the claim can be audited without
    re-deriving anything.
    """

    subset: tuple[str, ...]
    graphs: tuple[OverlapGraph, ...]

    def __init__(self, subset: tuple[str, ...], graphs: tuple[OverlapGraph, ...]) -> None:
        for g in graphs:
            if len(g.row_blocks) != 1:
                raise SchemaError(
                    f"certificate graph at party {g.party} is disconnected; not stuck"
                )
        d = self.__dict__
        d["subset"], d["graphs"] = subset, graphs


class TraceLeaf(Record, eq=True):
    """Terminal point of a protocol: exactly one state remains."""

    label: str

    def __init__(self, label: str) -> None:
        self.__dict__["label"] = label


class TraceStuck(Record, eq=True):
    """A block that no party can split without damage."""

    certificate: StuckCertificate

    def __init__(self, certificate: StuckCertificate) -> None:
        self.__dict__["certificate"] = certificate


class TraceSplit(Record, eq=True):
    """Internal point of a protocol: a step and one subtree per outcome."""

    step: MeasurementStep
    children: tuple["TraceNode", ...]

    def __init__(self, step: MeasurementStep, children: tuple[TraceNode, ...]) -> None:
        if len(children) != len(step.outcomes):
            raise SchemaError(
                f"node has {len(children)} children for {len(step.outcomes)} outcomes"
            )
        d = self.__dict__
        d["step"], d["children"] = step, children


TraceNode = TraceLeaf | TraceStuck | TraceSplit


class Verdict(Record, eq=True):
    """Decision outcome plus whichever witness backs it up.

    ``trace`` is decide's whole exploration.  A distinguishable verdict's
    ``tree`` is that same object; otherwise ``certificate`` is the trace's
    first stuck block in pre-order.  The oracle's verdicts have no trace
    and no tree.

    ``Verdict(...)`` sets every field.  A verdict from :func:`decide` has
    its kind and certificate set and builds its trace, and a distinguishable
    one's tree, on first read of either.  Until then it holds what the trace
    is built from (see :func:`decide`); equality, hashing and ``repr`` read
    the fields, so they build it too.
    """

    kind: str  # "distinguishable" | "indistinguishable" | "unknown"
    tree: TraceNode | None
    certificate: StuckCertificate | None
    trace: TraceNode | None

    def __init__(
        self,
        kind: str,
        tree: TraceNode | None = None,
        certificate: StuckCertificate | None = None,
        trace: TraceNode | None = None,
    ) -> None:
        d = self.__dict__
        d["kind"], d["tree"], d["certificate"], d["trace"] = kind, tree, certificate, trace

    def __getattr__(self, name: str) -> TraceNode | None:
        # only reached for a field missing from __dict__: a trace not built yet
        d = self.__dict__
        if name not in ("tree", "trace") or "_pending" not in d:
            raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")
        d["trace"] = _trace(*d["_pending"], d["certificate"])
        d.setdefault("tree", d["trace"])  # a stuck verdict's tree is already None
        del d["_pending"]
        return d[name]

    @property
    def distinguishable(self) -> bool:
        return self.kind == "distinguishable"


def _finest(e: Ensemble, mask: int, tol: float) -> tuple[int, tuple] | None:
    """The first party whose graph on the states in ``mask`` splits, with its blocks."""
    for party in range(e.parties):
        blocks = _blocks(e, party, mask, tol)
        if len(blocks) >= 2:
            return party, blocks
    return None


def _step(labels: tuple[str, ...], party: int, blocks: tuple, spans: tuple) -> MeasurementStep:
    """The measurement onto ``spans``, its outcomes labelled by the states of ``blocks``."""
    outcomes = (StepOutcome(tuple(labels[i] for i in rows), s) for rows, s in zip(blocks, spans))
    return MeasurementStep(party=party, outcomes=tuple(outcomes))


def _certificate(e: Ensemble, mask: int, tol: float,
                 subset: tuple[str, ...] | None = None) -> StuckCertificate:
    """The certificate of the states in ``mask``, its graphs made from the mask's rows.

    ``subset`` is the certificate's subset; by default, the states' labels
    in ensemble order.
    """
    rows = tuple(_ones(mask))
    members = tuple(e.labels[i] for i in rows)
    tol = float(tol)
    graphs = tuple(OverlapGraph(party, members, rows, e, tol) for party in range(e.parties))
    return StuckCertificate(members if subset is None else subset, graphs)


def stuck_certificate(
    e: Ensemble, subset: tuple[str, ...], tol: float = DEFAULT_TOL
) -> StuckCertificate:
    """Certificate that ``subset`` admits no non-damaging split at any party."""
    return _certificate(e, _mask(map(e.index, subset)), tol, subset)  # NotFoundError if unknown


def _walk(e: Ensemble, tol: float) -> list[tuple[int, int, tuple]]:
    """Pass one: every node of the split tree in pre-order, from the bit rows alone.

    A node is ``(party, mask, blocks)``; a leaf or a stuck block has party -1
    and no blocks.
    """
    nodes: list[tuple[int, int, tuple]] = []
    todo = [(1 << len(e.labels)) - 1]
    while todo:
        mask = todo.pop()
        found = _finest(e, mask, tol) if mask & (mask - 1) else None
        nodes.append((-1, mask, ()) if found is None else (found[0], mask, found[1]))
        todo.extend(_mask(rows) for rows in reversed(nodes[-1][2]))
    return nodes


def _stuck(nodes: list[tuple[int, int, tuple]]) -> list[int]:
    """The masks of the stuck blocks among ``nodes``: no party, two states or more."""
    return [mask for party, mask, _ in nodes if party < 0 and mask & (mask - 1)]


def _trace(labels: tuple[str, ...], nodes: list, checked: list, e: Ensemble | None,
           tol: float, first: StuckCertificate | None) -> TraceNode:
    """The trace of :func:`decide`'s ``nodes``; its first stuck block takes ``first``.

    ``e`` makes the certificates of the later stuck blocks; with no stuck
    block it is None.
    """
    later = (_certificate(e, mask, tol) for mask in _stuck(nodes)[1:])  # type: ignore[arg-type]
    return _build(labels, iter(nodes), iter(checked), itertools.chain([first], later))


def _build(labels: tuple[str, ...], nodes: Iterator, checked: Iterator,
           certificates: Iterator[StuckCertificate]) -> TraceNode:
    """The trace of the next subtree in ``nodes``.

    ``checked`` holds each split's checked spans and ``certificates`` each
    stuck block's certificate, both in pre-order; a split takes its spans
    before its subtrees.
    """
    party, mask, blocks = next(nodes)
    if party < 0 and not mask & (mask - 1):
        return TraceLeaf(labels[mask.bit_length() - 1])
    if party < 0:
        return TraceStuck(next(certificates))
    spans = next(checked)
    children = tuple(_build(labels, nodes, checked, certificates) for _ in blocks)
    return TraceSplit(step=_step(labels, party, blocks, spans), children=children)


def decide(e: Ensemble, mode: str, tol: float = DEFAULT_TOL) -> Verdict:
    """Run the greedy finest-split procedure on the whole ensemble.

    ``mode`` is "complete" or "incomplete".  Complete mode demands a
    validated complete basis and may return an indistinguishability verdict;
    incomplete mode demands pairwise orthogonality only and reports a stuck
    search as unknown.  The full exploration (every block, not just the
    first stuck one) is kept on the verdict as ``trace``; with no stuck
    block it is also the verdict's ``tree``.

    Eager, so every error raises from this call: the mode's validation, the
    walk, the span check of every split, the verdict's kind and the
    certificate of the first stuck block.  The trace, and a distinguishable
    verdict's tree, are built on first read.  Until then the verdict holds
    the labels, the walk's nodes and the checked spans, and, only when some
    block is stuck, the ensemble, which the certificate's graphs hold too.
    """
    if mode == "complete":
        ensure_complete(e, tol)
    elif mode == "incomplete":
        ensure_orthogonal(e, tol)
    else:
        raise InvalidModeError(f"mode must be 'complete' or 'incomplete', got {mode!r}")
    if not e.labels:
        raise InvalidModeError("cannot decide an empty ensemble")
    nodes = _walk(e, tol)
    checked = _check_splits(e, [node for node in nodes if node[0] >= 0], tol)
    stuck = _stuck(nodes)
    v = object.__new__(Verdict)
    d = v.__dict__
    if stuck:
        d["kind"] = "indistinguishable" if mode == "complete" else "unknown"
        d["tree"], d["certificate"] = None, _certificate(e, stuck[0], tol)
    else:
        d["kind"], d["certificate"] = "distinguishable", None
    d["_pending"] = (e.labels, nodes, checked, e if stuck else None, tol)
    return v


# ---------------------------------------------------------------------------
# serialization


def _tree_to_json(t: TraceNode) -> dict:
    if isinstance(t, TraceLeaf):
        return {"leaf": t.label}
    return {
        "party": t.step.party,
        "outcomes": [
            {"block": list(o.block), "basis": complex_to_json(o.basis)}
            for o in t.step.outcomes
        ],
        "children": [_tree_to_json(c) for c in t.children],
    }


def protocol_from_json(data: object, where: str = "protocol") -> TraceNode:
    """Build a protocol tree from its decoded JSON, as in a verdict's ``protocol``."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: node must be a JSON object")
    if "leaf" in data:
        if not isinstance(data["leaf"], str):
            raise SchemaError(f"{where}: leaf label must be a string")
        return TraceLeaf(data["leaf"])
    for key in ("party", "outcomes", "children"):
        if key not in data:
            raise SchemaError(f"{where}: node is missing key {key!r}")
    party = data["party"]
    if not isinstance(party, int) or isinstance(party, bool) or party < 0:
        raise SchemaError(f"{where}: party must be a non-negative integer")
    raw_outcomes = data["outcomes"]
    raw_children = data["children"]
    if not isinstance(raw_outcomes, list) or not isinstance(raw_children, list):
        raise SchemaError(f"{where}: outcomes and children must be lists")
    if len(raw_outcomes) != len(raw_children):
        raise SchemaError(
            f"{where}: {len(raw_outcomes)} outcomes vs {len(raw_children)} children"
        )
    outcomes = []
    for i, raw in enumerate(raw_outcomes):
        if not isinstance(raw, dict) or "block" not in raw or "basis" not in raw:
            raise SchemaError(f"{where}: outcome {i} needs 'block' and 'basis'")
        block = raw["block"]
        if not isinstance(block, list) or not all(isinstance(l, str) for l in block):
            raise SchemaError(f"{where}: outcome {i} block must be a list of labels")
        basis = raw["basis"]
        if not isinstance(basis, list) or not basis:
            raise SchemaError(f"{where}: outcome {i} basis must be a non-empty list")
        at = f"{where}: outcome {i}"
        flat = complex_rows_from_json(basis, lambda j: f"{at} basis vector {j}")
        d = len(basis[0])
        if any(len(v) != d for v in basis):
            raise SchemaError(f"{at}: basis vectors must have dimension {d}")
        rows = normalize_rows(flat.reshape(-1, d))
        rows.setflags(write=False)
        outcomes.append(StepOutcome(block=tuple(block), basis=rows))
    step = MeasurementStep(party=party, outcomes=tuple(outcomes))
    children = tuple(
        protocol_from_json(raw, f"{where}.children[{i}]") for i, raw in enumerate(raw_children)
    )
    return TraceSplit(step=step, children=children)


def parse_protocol(text: str) -> TraceNode:
    """Parse the canonical protocol JSON back into a tree."""
    return protocol_from_json(parse_json(text))


def _graph_to_json(g: OverlapGraph) -> dict:
    position = {m: i for i, m in enumerate(g.members)}
    edges = sorted(g.edges, key=lambda pair: (position[pair[0]], position[pair[1]]))
    return {
        "party": g.party,
        "members": list(g.members),
        "edges": [[a, b] for a, b in edges],
    }


def _certificate_to_json(cert: StuckCertificate) -> dict:
    return {
        "subset": list(cert.subset),
        "graphs": [_graph_to_json(g) for g in cert.graphs],
    }


def verdict_to_json(v: Verdict) -> dict:
    """Verdict as a dict for canonical_dumps; protocol or certificate ride along.

    Each outcome's ``basis`` is a read-only float64 ``(k, d, 2)`` array of
    ``[re, im]`` pairs, which only :func:`~loccdist.jsonio.canonical_dumps`
    writes.
    """
    doc: dict = {"verdict": v.kind}
    if v.tree is not None:
        doc["protocol"] = _tree_to_json(v.tree)
    if v.certificate is not None:
        doc["certificate"] = _certificate_to_json(v.certificate)
    return doc
