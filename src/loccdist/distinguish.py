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

One tree type, :data:`TraceNode`, is both exploration and protocol:
:class:`TraceSplit` steps over :class:`TraceLeaf` labels and
:class:`TraceStuck` certificates.  With no stuck leaf it is a protocol, as
:func:`decide`, the oracle and :func:`protocol_from_json` return it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, ensure_complete, ensure_orthogonal
from .errors import InvalidModeError, SchemaError
from .jsonio import canonical_dumps  # noqa: F401  (perfbench/tracing.py wraps it here)
from .jsonio import complex_rows_from_json, complex_to_json, parse_json
from .linalg import DEFAULT_TOL, normalize_rows
from .relativity import OverlapGraph, _blocks, _checked_spans, _mask, overlap_graph
from .relativity import components  # noqa: F401  (perfbench/tracing.py wraps it here)

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
    "finest_step",
    "parse_protocol",
    "protocol_from_json",
    "stuck_certificate",
    "verdict_to_json",
]


@dataclass(frozen=True, eq=False)
class StepOutcome:
    """One measurement outcome: the states it keeps and, as read-only rows, its projector basis."""

    block: tuple[str, ...]
    basis: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepOutcome):
            return NotImplemented
        return self.block == other.block and bool(np.array_equal(self.basis, other.basis))

    def __hash__(self) -> int:
        return hash((self.block, self.basis.tobytes()))


@dataclass(frozen=True)
class MeasurementStep:
    """A projective measurement at one party, one outcome per block."""

    party: int
    outcomes: tuple[StepOutcome, ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) < 2:
            raise SchemaError("a measurement step needs at least two outcomes")


@dataclass(frozen=True)
class StuckCertificate:
    """A subset on which every party's overlap graph is connected.

    Carries the full per-party graphs so the claim can be audited without
    re-deriving anything.
    """

    subset: tuple[str, ...]
    graphs: tuple[OverlapGraph, ...]

    def __post_init__(self) -> None:
        for g in self.graphs:
            if len(g.blocks()) != 1:
                raise SchemaError(
                    f"certificate graph at party {g.party} is disconnected; not stuck"
                )


@dataclass(frozen=True)
class TraceLeaf:
    """Terminal point of a protocol: exactly one state remains."""

    label: str


@dataclass(frozen=True)
class TraceStuck:
    """A block that no party can split without damage."""

    certificate: StuckCertificate


@dataclass(frozen=True)
class TraceSplit:
    """Internal point of a protocol: a step and one subtree per outcome."""

    step: MeasurementStep
    children: tuple["TraceNode", ...]

    def __post_init__(self) -> None:
        if len(self.children) != len(self.step.outcomes):
            raise SchemaError(
                f"node has {len(self.children)} children for {len(self.step.outcomes)} outcomes"
            )


TraceNode = TraceLeaf | TraceStuck | TraceSplit


@dataclass(frozen=True)
class Verdict:
    """Decision outcome plus whichever witness backs it up.

    ``trace`` is decide's whole exploration.  A distinguishable verdict's
    ``tree`` is that same object; otherwise ``certificate`` is the trace's
    first stuck block in pre-order.  The oracle's verdicts have no trace.
    """

    kind: str  # "distinguishable" | "indistinguishable" | "unknown"
    tree: TraceNode | None = None
    certificate: StuckCertificate | None = None
    trace: TraceNode | None = None

    @property
    def distinguishable(self) -> bool:
        return self.kind == "distinguishable"


def _split(e: Ensemble, mask: int, tol: float) -> tuple[int, tuple, tuple] | None:
    """The first party whose graph on the states in ``mask`` splits, with its blocks and spans."""
    for party in range(e.parties):
        blocks = _blocks(e, party, mask, tol)
        if len(blocks) >= 2:
            return party, blocks, _checked_spans(e, party, blocks, tol)
    return None


def _subset(e: Ensemble, mask: int) -> tuple[str, ...]:
    """The labels of the states in ``mask``, in ensemble order."""
    return tuple(label for i, label in enumerate(e.labels) if mask >> i & 1)


def _step(e: Ensemble, party: int, blocks: tuple, spans: tuple) -> MeasurementStep:
    """The measurement onto ``spans``, its outcomes labelled by the states of ``blocks``."""
    labels = e.labels
    outcomes = (StepOutcome(tuple(labels[i] for i in rows), s) for rows, s in zip(blocks, spans))
    return MeasurementStep(party=party, outcomes=tuple(outcomes))


def finest_step(
    e: Ensemble, subset: tuple[str, ...], tol: float = DEFAULT_TOL
) -> MeasurementStep | None:
    """The component-partition measurement at the first party whose graph on ``subset`` splits."""
    split = _split(e, _mask(e.index(label) for label in set(subset)), tol)
    return None if split is None else _step(e, *split)


def stuck_certificate(
    e: Ensemble, subset: tuple[str, ...], tol: float = DEFAULT_TOL
) -> StuckCertificate:
    """Certificate that ``subset`` admits no non-damaging split at any party."""
    graphs = tuple(overlap_graph(e, subset, party, tol) for party in range(e.parties))
    return StuckCertificate(subset=subset, graphs=graphs)


def _explore(e: Ensemble, mask: int, tol: float, stuck: list[StuckCertificate]) -> TraceNode:
    """The exploration below the states in ``mask``; stuck blocks are appended in pre-order."""
    if not mask & (mask - 1):
        return TraceLeaf(e.labels[mask.bit_length() - 1])
    split = _split(e, mask, tol)
    if split is None:
        stuck.append(stuck_certificate(e, _subset(e, mask), tol))
        return TraceStuck(stuck[-1])
    children = tuple(_explore(e, _mask(rows), tol, stuck) for rows in split[1])
    return TraceSplit(step=_step(e, *split), children=children)


def decide(e: Ensemble, mode: str, tol: float = DEFAULT_TOL) -> Verdict:
    """Run the greedy finest-split procedure on the whole ensemble.

    ``mode`` is "complete" or "incomplete".  Complete mode demands a
    validated complete basis and may return an indistinguishability verdict;
    incomplete mode demands pairwise orthogonality only and reports a stuck
    search as unknown.  The full exploration (every block, not just the
    first stuck one) is kept on the verdict as ``trace``; with no stuck
    block it is also the verdict's ``tree``.
    """
    if mode == "complete":
        ensure_complete(e, tol)
    elif mode == "incomplete":
        ensure_orthogonal(e, tol)
    else:
        raise InvalidModeError(f"mode must be 'complete' or 'incomplete', got {mode!r}")
    if not e.labels:
        raise InvalidModeError("cannot decide an empty ensemble")
    stuck: list[StuckCertificate] = []
    trace = _explore(e, (1 << len(e.labels)) - 1, tol, stuck)
    if not stuck:
        return Verdict(kind="distinguishable", tree=trace, trace=trace)
    kind = "indistinguishable" if mode == "complete" else "unknown"
    return Verdict(kind=kind, certificate=stuck[0], trace=trace)


# ---------------------------------------------------------------------------
# serialization


def _tree_to_json(t: TraceNode) -> dict:
    if isinstance(t, TraceLeaf):
        return {"leaf": t.label}
    return {
        "party": t.step.party,
        "outcomes": [
            {"block": list(o.block), "basis": [complex_to_json(b) for b in o.basis]}
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
    """Verdict as a JSON-ready dict; protocol or certificate ride along."""
    doc: dict = {"verdict": v.kind}
    if v.tree is not None:
        doc["protocol"] = _tree_to_json(v.tree)
    if v.certificate is not None:
        doc["certificate"] = _certificate_to_json(v.certificate)
    return doc
