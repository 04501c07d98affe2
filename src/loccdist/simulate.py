"""Simulation of general local measurement protocols against an ensemble.

A protocol is a tree: each internal node applies one local instrument (a
family of Kraus operators summing to identity in the M†M sense) at one
party, with one subtree per outcome; each leaf either announces a state
label or gives up.  Running the tree on every ensemble member yields the
exact branch probabilities, so perfect discrimination becomes a checkable
arithmetic fact rather than a claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distinguish import ProtocolLeaf, ProtocolNode, ProtocolTree, decide
from .ensemble import Ensemble, ProductState
from .errors import DimensionError, InstrumentError, NotFoundError, SchemaError
from .jsonio import canonical_dumps, parse_json
from .linalg import (
    DEFAULT_TOL,
    LocalVector,
    SVDResult,
    emit_matrix,
    parse_matrix,
    projector_matrix,
    svd_decompose,
)

__all__ = [
    "BUILTIN_PROTOCOL_NAMES",
    "CanonicalOperator",
    "DiscriminationReport",
    "Instrument",
    "LocalOperator",
    "SimLeaf",
    "SimNode",
    "SimTree",
    "apply_operator",
    "builtin_protocol",
    "canonicalize_operator",
    "completeness_defect",
    "emit_sim_protocol",
    "extend_with_projective",
    "lift_protocol",
    "parse_sim_protocol",
    "report_to_json",
    "run_protocol",
    "validate_instrument",
]


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """One Kraus operator acting on a single party's factor."""

    party: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.party, int) or self.party < 0:
            raise SchemaError(f"party must be a non-negative integer, got {self.party!r}")
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionError(f"operator matrix must be 2-D, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise SchemaError("operator matrix entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Instrument:
    """A complete family of Kraus operators at one party."""

    party: int
    operators: tuple[LocalOperator, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", tuple(self.operators))
        if not self.operators:
            raise SchemaError("an instrument needs at least one operator")
        for op in self.operators:
            if op.party != self.party:
                raise SchemaError(
                    f"operator for party {op.party} inside instrument for party {self.party}"
                )
            if op.in_dim != self.operators[0].in_dim:
                raise DimensionError("all operators in an instrument share one input dimension")


def completeness_defect(ins: Instrument) -> float:
    """Largest entrywise deviation of sum(M†M) from the identity."""
    d = ins.operators[0].in_dim
    total = np.zeros((d, d), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as an inf or NaN defect
        for op in ins.operators:
            total += op.matrix.conj().T @ op.matrix
    return float(np.max(np.abs(total - np.eye(d))))


def validate_instrument(ins: Instrument, tol: float = DEFAULT_TOL) -> bool:
    """True iff the operators sum to identity in the M†M sense, within tol."""
    return completeness_defect(ins) <= tol


@dataclass(frozen=True)
class SimLeaf:
    """Protocol endpoint: announce one label, or None to give up."""

    announce: str | None


@dataclass(frozen=True)
class SimNode:
    """Protocol branch point: one instrument, one subtree per operator."""

    instrument: Instrument
    children: tuple["SimTree", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) != len(self.instrument.operators):
            raise SchemaError(
                f"node has {len(self.children)} children for "
                f"{len(self.instrument.operators)} operators"
            )


SimTree = SimLeaf | SimNode


def _fit(op: LocalOperator, dims: Sequence[int]) -> None:
    """Raise DimensionError unless op acts on a factor of a state with these dims."""
    if op.party >= len(dims):
        raise DimensionError(f"state has no party {op.party}")
    if op.in_dim != dims[op.party]:
        raise DimensionError(
            f"operator expects dimension {op.in_dim}, state party {op.party} has {dims[op.party]}"
        )


def _apply_rows(
    m: np.ndarray, v: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply one Kraus matrix to every row of a stacked ``k x d`` factor array.

    Returns each row's outcome probability, the indices of the rows whose
    probability exceeds tol, and those rows' images, renormalized and
    phase-fixed.  The arithmetic is that of :func:`normalize` and
    :func:`phase_normalize` on ``m @ row``, bit for bit: ``matmul`` against
    column vectors, squared norms as real dot products, the probability as
    a scalar power and entry magnitudes by ``hypot``.
    """
    w = np.matmul(m, v[:, :, None])[:, :, 0]
    re, im = w.real, w.imag
    sq = np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None])
    norms = np.sqrt(sq[:, 0, 0])
    probs = np.array([x**2 for x in norms.tolist()])
    kept = np.flatnonzero(probs > tol)
    n = norms[kept, None]
    if not np.isfinite(n).all():
        raise SchemaError("cannot normalize a vector whose squared norm overflows a double")
    w = w[kept]
    # rows already of unit norm up to a few ulps stay verbatim, as in normalize
    np.divide(w, n, out=w, where=np.abs(n - 1.0) > 64.0 * np.finfo(np.float64).eps)
    mags = np.hypot(w.real, w.imag)
    above = mags > tol
    rows = np.arange(len(w))
    first = above.argmax(axis=1)
    lead = w[rows, first]
    fix = above[rows, first] & ~((lead.imag == 0.0) & (lead.real > 0.0))
    w[fix] *= (lead[fix].conj() / mags[rows, first][fix])[:, None]
    return probs, kept, w


def _with_factor(s: ProductState, party: int, entries: np.ndarray) -> ProductState:
    locals_ = list(s.locals)
    locals_[party] = LocalVector(entries)
    return ProductState(s.label, tuple(locals_))


def apply_operator(
    s: ProductState, op: LocalOperator, tol: float = DEFAULT_TOL
) -> tuple[ProductState | None, float]:
    """Apply a Kraus operator to one party of a product state.

    Returns the renormalized post-measurement state and the outcome
    probability, or (None, prob) when the branch is annihilated
    (prob <= tol).  Global phase of the updated factor is dropped.
    """
    _fit(op, [v.dim for v in s.locals])
    probs, kept, images = _apply_rows(op.matrix, s.locals[op.party].entries[None, :], tol)
    prob = float(probs[0])
    if not kept.size:
        return None, prob
    return _with_factor(s, op.party, images[0]), prob


@dataclass(frozen=True)
class DiscriminationReport:
    """Exact branch accounting of one protocol run over one ensemble."""

    perfect: bool
    branches: dict[str, tuple[tuple[tuple[int, ...], float], ...]]
    leaf_announce: dict[tuple[int, ...], str | None]
    confusion: dict[tuple[int, ...], tuple[str, ...]]
    totals: dict[str, float]
    warnings: tuple[str, ...]


def _collect_instruments(root: SimTree, out: list[Instrument]) -> None:
    if isinstance(root, SimNode):
        out.append(root.instrument)
        for child in root.children:
            _collect_instruments(child, out)


def _collect_leaves(
    root: SimTree, path: tuple[int, ...], out: dict[tuple[int, ...], str | None]
) -> None:
    if isinstance(root, SimLeaf):
        out[path] = root.announce
    else:
        for i, child in enumerate(root.children):
            _collect_leaves(child, path + (i,), out)


def run_protocol(e: Ensemble, root: SimTree, tol: float = DEFAULT_TOL) -> DiscriminationReport:
    """Run a measurement protocol on every state and judge discrimination.

    The run is perfect iff each state lands all of its probability (within
    tol) on leaves announcing it, and no leaf collects more than tol of
    probability from two different states.  Branches whose accumulated
    probability falls to tol or below are pruned as impossible; branches
    within a factor 100 of that threshold are flagged as warnings because
    the verdict starts to hinge on the tolerance.

    The tree is walked once, not once per state: each node carries the
    stacked factor arrays of the states that reach it, and each Kraus
    operator acts on all of them at once.
    """
    instruments: list[Instrument] = []
    _collect_instruments(root, instruments)
    for ins in instruments:
        defect = completeness_defect(ins)
        if not defect <= tol:  # a NaN defect is incomplete too
            raise InstrumentError(
                f"instrument at party {ins.party} is incomplete: defect {defect:.3e}"
            )
    leaf_announce: dict[tuple[int, ...], str | None] = {}
    _collect_leaves(root, (), leaf_announce)
    labels = e.labels
    known = set(labels)
    for path, announce in leaf_announce.items():
        if announce is not None and announce not in known:
            raise NotFoundError(f"leaf {path} announces unknown label {announce!r}")

    recorded: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in labels]
    flagged: list[tuple[int, str]] = []
    reached: dict[tuple[int, ...], tuple[str, ...]] = {}

    def walk(
        node: SimTree,
        rows: np.ndarray,
        probs: np.ndarray,
        arrays: tuple[np.ndarray, ...],
        path: tuple[int, ...],
    ) -> None:
        # rows: ensemble indices, ascending; probs and arrays: one entry per row
        if not rows.size:
            return
        if isinstance(node, SimLeaf):
            pairs = list(zip(rows.tolist(), probs.tolist()))
            for i, prob in pairs:
                recorded[i].append((path, prob))
            reached[path] = tuple(labels[i] for i, prob in pairs if prob > tol)
            return
        dims = [a.shape[1] for a in arrays]
        for k, op in enumerate(node.instrument.operators):
            _fit(op, dims)
            p, kept, images = _apply_rows(op.matrix, arrays[op.party], tol)
            branch = probs[kept] * p[kept]
            live = np.flatnonzero(branch > tol)
            sel = kept[live]
            for i, b in zip(rows[sel].tolist(), branch[live].tolist()):
                if b <= 100.0 * tol:
                    flagged.append(
                        (i, f"state {labels[i]} path {path + (k,)}: probability "
                            f"{b:.3e} is within 100*tol of annihilation")
                    )
            child = tuple(
                images[live] if q == op.party else a[sel] for q, a in enumerate(arrays)
            )
            walk(node.children[k], rows[sel], branch[live], child, path + (k,))

    walk(root, np.arange(len(labels)), np.ones(len(labels)), e.party_arrays, ())
    branches = {label: tuple(recs) for label, recs in zip(labels, recorded)}
    warnings = [message for _, message in sorted(flagged, key=lambda f: f[0])]

    totals = {
        label: sum(prob for path, prob in recs if leaf_announce[path] == label)
        for label, recs in branches.items()
    }
    confusion = {path: reached[path] for path in sorted(reached)}
    perfect = all(abs(t - 1.0) <= tol for t in totals.values()) and all(
        len(names) < 2 for names in confusion.values()
    )
    return DiscriminationReport(
        perfect=perfect,
        branches=branches,
        leaf_announce=leaf_announce,
        confusion=confusion,
        totals=totals,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class CanonicalOperator:
    """SVD form of a local operator plus a physicality flag."""

    svd: SVDResult
    physical: bool


def canonicalize_operator(op: LocalOperator, tol: float = DEFAULT_TOL) -> CanonicalOperator:
    """Deterministic SVD of the operator; physical iff no sigma exceeds 1 + tol."""
    result = svd_decompose(op.matrix, tol)
    return CanonicalOperator(svd=result, physical=all(s <= 1.0 + tol for s in result.sigmas))


def lift_protocol(t: ProtocolTree, e: Ensemble, tol: float = DEFAULT_TOL) -> SimTree:
    """Turn a projective protocol tree into a runnable instrument tree.

    Each step becomes the family of projectors onto its outcome spans; when
    those do not fill the whole factor, the remainder projector is appended
    with a give-up leaf so the instrument is complete.
    """
    if isinstance(t, ProtocolLeaf):
        return SimLeaf(t.label)
    party = t.step.party
    d = e.dims[party]
    mats = [projector_matrix(o.basis) for o in t.step.outcomes]
    for o in t.step.outcomes:
        if o.basis[0].dim != d:
            raise DimensionError(
                f"outcome basis dimension {o.basis[0].dim} does not match party {party} ({d})"
            )
    residual = np.eye(d, dtype=np.complex128) - sum(mats)
    children = [lift_protocol(c, e, tol) for c in t.children]
    if float(np.max(np.abs(residual))) > tol:
        mats.append(residual)
        children.append(SimLeaf(None))
    ins = Instrument(party, tuple(LocalOperator(party, m) for m in mats))
    return SimNode(instrument=ins, children=tuple(children))


def extend_with_projective(e: Ensemble, ins: Instrument, tol: float = DEFAULT_TOL) -> SimNode:
    """Root instrument followed by derived projective continuations.

    For each operator the surviving (non-annihilated) post-measurement
    states are collected into a sub-ensemble; its projective protocol is
    derived on the spot and lifted.  Raises InstrumentError if any
    continuation gets stuck, since then the combined protocol cannot
    discriminate perfectly.
    """
    if not validate_instrument(ins, tol):
        raise InstrumentError(
            f"instrument at party {ins.party} is incomplete: "
            f"defect {completeness_defect(ins):.3e}"
        )
    children: list[SimTree] = []
    for i, op in enumerate(ins.operators):
        _fit(op, e.dims)
        _, kept, images = _apply_rows(op.matrix, e.party_arrays[op.party], tol)
        survivors = [
            _with_factor(e.states[j], op.party, row) for j, row in zip(kept.tolist(), images)
        ]
        if not survivors:
            children.append(SimLeaf(None))
            continue
        if len(survivors) == 1:
            children.append(SimLeaf(survivors[0].label))
            continue
        dims = tuple(
            op.out_dim if p == ins.party else d for p, d in enumerate(e.dims)
        )
        sub = Ensemble(f"{e.name}.outcome{i}", dims, tuple(survivors), complete=False)
        verdict = decide(sub, "incomplete", tol)
        if not verdict.distinguishable:
            raise InstrumentError(
                f"outcome {i}: surviving states are not projectively distinguishable"
            )
        assert verdict.tree is not None
        children.append(lift_protocol(verdict.tree, sub, tol))
    return SimNode(instrument=ins, children=tuple(children))


# ---------------------------------------------------------------------------
# built-in protocols


def _triple_povm_instrument(party: int) -> Instrument:
    # Three rank-one operators sqrt(2/3) |w><w| over qubit directions whose
    # pairwise overlaps are +-1/2; together they resolve the identity.
    root23 = np.sqrt(2.0 / 3.0)
    half3 = np.sqrt(3.0) / 2.0
    directions = [
        np.array([0.0, 1.0], dtype=np.complex128),
        np.array([half3, -0.5], dtype=np.complex128),
        np.array([half3, 0.5], dtype=np.complex128),
    ]
    ops = tuple(
        LocalOperator(party, root23 * np.outer(w, w.conj())) for w in directions
    )
    return Instrument(party, ops)


def _build_finkelstein_povm(e: Ensemble, tol: float) -> SimTree:
    if e.parties < 3:
        raise DimensionError("finkelstein-povm expects a three-party ensemble")
    return extend_with_projective(e, _triple_povm_instrument(2), tol)


_BUILTIN_PROTOCOLS = {
    "finkelstein-povm": _build_finkelstein_povm,
}

BUILTIN_PROTOCOL_NAMES: tuple[str, ...] = tuple(_BUILTIN_PROTOCOLS)


def builtin_protocol(name: str, e: Ensemble, tol: float = DEFAULT_TOL) -> SimTree:
    """Construct a named built-in protocol against the given ensemble."""
    try:
        builder = _BUILTIN_PROTOCOLS[name]
    except KeyError:
        known = ", ".join(BUILTIN_PROTOCOL_NAMES)
        raise NotFoundError(f"unknown builtin protocol {name!r} (known: {known})") from None
    return builder(e, tol)


# ---------------------------------------------------------------------------
# serialization


def _sim_to_json(root: SimTree) -> dict:
    if isinstance(root, SimLeaf):
        return {"announce": root.announce}
    return {
        "party": root.instrument.party,
        "operators": [emit_matrix(op.matrix) for op in root.instrument.operators],
        "children": [_sim_to_json(c) for c in root.children],
    }


def emit_sim_protocol(root: SimTree) -> str:
    """Serialize an instrument tree to canonical JSON."""
    return canonical_dumps(_sim_to_json(root))


def _sim_from_json(data: object, where: str = "protocol") -> SimTree:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: node must be a JSON object")
    if "announce" in data:
        announce = data["announce"]
        if announce is not None and not isinstance(announce, str):
            raise SchemaError(f"{where}: announce must be a label or null")
        return SimLeaf(announce)
    for key in ("party", "operators", "children"):
        if key not in data:
            raise SchemaError(f"{where}: node is missing key {key!r}")
    party = data["party"]
    if not isinstance(party, int) or isinstance(party, bool) or party < 0:
        raise SchemaError(f"{where}: party must be a non-negative integer")
    raw_ops = data["operators"]
    raw_children = data["children"]
    if not isinstance(raw_ops, list) or not raw_ops:
        raise SchemaError(f"{where}: operators must be a non-empty list")
    if not isinstance(raw_children, list) or len(raw_children) != len(raw_ops):
        raise SchemaError(
            f"{where}: {len(raw_ops)} operators need {len(raw_ops)} children"
        )
    ops = tuple(LocalOperator(party, parse_matrix(m)) for m in raw_ops)
    children = tuple(
        _sim_from_json(c, f"{where}.children[{i}]") for i, c in enumerate(raw_children)
    )
    return SimNode(instrument=Instrument(party, ops), children=children)


def parse_sim_protocol(text: str) -> SimTree:
    """Parse the instrument-tree JSON format."""
    return _sim_from_json(parse_json(text))


def report_to_json(report: DiscriminationReport) -> dict:
    """Discrimination report as a JSON-ready dict."""
    return {
        "perfect": report.perfect,
        "states": [
            {
                "label": label,
                "total": report.totals[label],
                "branches": [
                    {"path": list(path), "probability": prob} for path, prob in recs
                ],
            }
            for label, recs in report.branches.items()
        ],
        "confusion": [
            {"path": list(path), "labels": list(labels)}
            for path, labels in report.confusion.items()
        ],
        "warnings": list(report.warnings),
    }
