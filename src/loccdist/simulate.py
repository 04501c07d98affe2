"""Simulation of general local measurement protocols against an ensemble.

A protocol is a tree: each internal node applies one local instrument (a
family of Kraus operators summing to identity in the M†M sense) at one
party, with one subtree per outcome; each leaf either announces a state
label or gives up.  Running the tree on every ensemble member yields the
exact branch probabilities, so perfect discrimination becomes a checkable
arithmetic fact rather than a claim.

Replay works in stacks: :func:`run_protocol` applies an instrument's
``K x d_out x d`` operator stacks, one product each, to the stacked factors
of every state that reaches its node, and :func:`parse_sim_protocol` decodes
all basis vectors of one dimension, and builds their projectors, at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distinguish import TraceLeaf, TraceNode, TraceStuck, decide
from .ensemble import Ensemble, ProductState, _from_rows
from .errors import DimensionError, InstrumentError, NotFoundError, SchemaError
from .jsonio import (
    canonical_dumps,
    complex_from_json,
    complex_rows_from_json,
    complex_to_json,
    parse_json,
)
from .linalg import (
    DEFAULT_TOL,
    SVDResult,
    _row_norms,
    emit_matrix,
    normalize_rows,
    parse_matrix,
    projectors,
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
    """One Kraus operator acting on a single party's factor.

    ``basis`` and ``complement`` record a matrix built as the projector onto
    an orthonormal family, the rows of a ``k x d`` array, or as the identity
    minus the projectors before it in its instrument.  The protocol format
    stores that form instead of the matrix; the matrix is what every
    computation reads.
    """

    party: int
    matrix: np.ndarray
    basis: np.ndarray | None = None
    complement: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.party, int) or isinstance(self.party, bool) or self.party < 0:
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


def _built(party: int, matrix: np.ndarray, basis=None, complement=False) -> LocalOperator:
    """A LocalOperator around a finite read-only matrix built here, without a copy or a check."""
    op = object.__new__(LocalOperator)  # attributes set in field order keep the dict compact
    for name, value in dict(party=party, matrix=matrix, basis=basis, complement=complement).items():
        object.__setattr__(op, name, value)
    return op


@dataclass(frozen=True)
class Instrument:
    """A complete family of Kraus operators at one party."""

    party: int
    operators: tuple[LocalOperator, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.party, int) or isinstance(self.party, bool) or self.party < 0:
            raise SchemaError(f"party must be a non-negative integer, got {self.party!r}")
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

    @property
    def stacks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """Operator indices and ``K x d_out x d`` matrices per output dimension, built on read."""
        ops = self.operators
        groups: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            groups.setdefault(op.out_dim, []).append(i)
        return tuple((tuple(ix), np.array([ops[i].matrix for i in ix])) for ix in groups.values())


@np.errstate(over="ignore", invalid="ignore")  # overflow shows as an inf or NaN defect
def completeness_defect(ins: Instrument) -> float:
    """Largest entrywise deviation of sum(M†M) = A†A from the identity, A all stacked rows."""
    dims = dict.fromkeys(op.out_dim for op in ins.operators)
    a = np.concatenate([op.matrix for d in dims for op in ins.operators if op.out_dim == d])
    return float(np.abs(a.conj().T @ a - np.eye(a.shape[1])).max())


def validate_instrument(ins: Instrument, tol: float = DEFAULT_TOL) -> bool:
    """True iff the operators sum to identity in the M†M sense, within tol."""
    return completeness_defect(ins) <= tol


def _require_complete(ins: Instrument, tol: float) -> None:
    defect = completeness_defect(ins)
    if not defect <= tol:  # a NaN defect is incomplete too
        raise InstrumentError(f"instrument at party {ins.party} is incomplete: defect {defect:.3e}")


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
            n, k = len(self.children), len(self.instrument.operators)
            raise SchemaError(f"node has {n} children for {k} operators")


SimTree = SimLeaf | SimNode


def _fit(op: LocalOperator, dims: Sequence[int]) -> None:
    """Raise DimensionError unless op acts on a factor of a state with these dims."""
    if op.party >= len(dims):
        raise DimensionError(f"state has no party {op.party}")
    if op.in_dim != (d := dims[op.party]):
        raise DimensionError(f"operator expects dimension {op.in_dim}, "
                             f"state party {op.party} has {d}")


# An overflowing image is reported as SchemaError, not as numpy's RuntimeWarning.
@np.errstate(over="ignore", invalid="ignore")
def _apply_stack(
    ms: np.ndarray, v: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply a ``K x d_out x d`` stack of Kraus matrices to every row of a ``k x d`` array.

    Image ``j*k + r`` is matrix j on row r.  Returns every image's outcome
    probability, the ascending numbers of the images whose probability
    exceeds tol, and those images, renormalized and phase-fixed.  ``matmul``
    against column vectors, :func:`normalize_rows`, the probability as a
    scalar power and magnitudes by ``hypot`` give the bits of
    :func:`normalize` and :func:`phase_normalize` on ``m @ row``, but for
    the last bits of a one-entry image's phase fix, a contiguous complex
    product.  A probability that is not a finite double raises SchemaError.
    """
    w = np.matmul(ms[:, None], v[None, :, :, None]).reshape(len(ms) * len(v), ms.shape[1])
    norms = _row_norms(w)
    if not np.isfinite(norms).all():
        raise SchemaError("an outcome probability overflows a double")
    probs = np.array([x**2 for x in norms.tolist()])
    kept = np.flatnonzero(probs > tol)
    w = normalize_rows(w[kept], 0.0, norms[kept])
    mags = np.hypot(w.real, w.imag)
    above = mags > tol
    rows = np.arange(len(w))
    first = above.argmax(axis=1)
    lead = w[rows, first]
    fix = above[rows, first] & ~((lead.imag == 0.0) & (lead.real > 0.0))
    w[fix] *= (lead[fix].conj() / mags[rows, first][fix])[:, None]
    return probs, kept, w


def apply_operator(
    s: ProductState, op: LocalOperator, tol: float = DEFAULT_TOL
) -> tuple[ProductState | None, float]:
    """Apply a Kraus operator to one party of a product state.

    Returns the renormalized post-measurement state and the outcome
    probability, or (None, prob) when the branch is annihilated
    (prob <= tol).  Global phase of the updated factor is dropped.
    """
    _fit(op, [len(v) for v in s.locals])
    probs, kept, images = _apply_stack(op.matrix[None], s.locals[op.party][None, :], tol)
    prob = float(probs[0])
    if not kept.size:
        return None, prob
    images.setflags(write=False)
    locals_ = list(s.locals)
    locals_[op.party] = images[0]
    return ProductState(s.label, tuple(locals_)), prob


@dataclass(frozen=True)
class DiscriminationReport:
    """Exact branch accounting of one protocol run over one ensemble."""

    perfect: bool
    branches: dict[str, tuple[tuple[tuple[int, ...], float], ...]]
    leaf_announce: dict[tuple[int, ...], str | None]
    confusion: dict[tuple[int, ...], tuple[str, ...]]
    totals: dict[str, float]
    warnings: tuple[str, ...]


def run_protocol(e: Ensemble, root: SimTree, tol: float = DEFAULT_TOL) -> DiscriminationReport:
    """Run a measurement protocol on every state and judge discrimination.

    The run is perfect iff each state lands all of its probability (within
    tol) on leaves announcing it, and no leaf collects more than tol of
    probability from two different states.  Branches whose accumulated
    probability falls to tol or below are pruned as impossible; branches
    within a factor 100 of that threshold are flagged as warnings because
    the verdict starts to hinge on the tolerance.

    The tree is walked once, not once per state, from an explicit stack
    that pushes children in reverse, so leaves are reached in pre-order.
    Each node carries the stacked factor arrays of the states that reach it,
    and each of :attr:`Instrument.stacks` acts on all of them in one product.
    """
    leaf_announce: dict[tuple[int, ...], str | None] = {}
    todo: list = [(root, ())]
    while todo:  # every instrument in pre-order, and each leaf's announcement by path
        node, path = todo.pop()
        if isinstance(node, SimLeaf):
            leaf_announce[path] = node.announce
            continue
        _require_complete(node.instrument, tol)
        todo.extend((node.children[i], path + (i,)) for i in reversed(range(len(node.children))))
    labels = e.labels
    known = set(labels)
    for path, announce in leaf_announce.items():
        if announce is not None and announce not in known:
            raise NotFoundError(f"leaf {path} announces unknown label {announce!r}")

    recorded: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in labels]
    flagged: list[tuple[int, tuple[int, ...], str]] = []
    reached: dict[tuple[int, ...], tuple[str, ...]] = {}
    n = len(labels)
    todo = [(root, np.arange(n), np.ones(n), e.party_arrays, ())] if n else []
    while todo:
        node, rows, probs, arrays, path = todo.pop()
        # rows: ensemble indices, ascending; probs and arrays: one entry per row
        if isinstance(node, SimLeaf):
            pairs = list(zip(rows.tolist(), probs.tolist()))
            for i, prob in pairs:
                recorded[i].append((path, prob))
            reached[path] = tuple(labels[i] for i, prob in pairs if prob > tol)
            continue
        ins, k = node.instrument, len(rows)
        _fit(ins.operators[0], [a.shape[1] for a in arrays])
        parts = []
        for ops, ms in ins.stacks:
            p, kept, images = _apply_stack(ms, arrays[ins.party], tol)
            src = kept % k
            branch = probs[src] * p[kept]
            live = np.flatnonzero(branch > tol)
            kept, src, branch, images = kept[live], src[live], branch[live], images[live]
            for x in np.flatnonzero(branch <= 100.0 * tol).tolist():
                i, at = int(rows[src[x]]), path + (ops[kept[x] // k],)
                flagged.append((i, at, f"state {labels[i]} path {at}: probability "
                                       f"{float(branch[x]):.3e} is within 100*tol of annihilation"))
            cuts = np.searchsorted(kept, np.arange(k, len(ms) * k, k)).tolist()
            for j, a, b in zip(ops, [0, *cuts], [*cuts, len(kept)]):
                if a < b:
                    parts.append((j, src[a:b], branch[a:b], images[a:b]))
        for j, sel, branch, images in sorted(parts, key=lambda part: -part[0]):
            child = tuple(images if q == ins.party else a[sel] for q, a in enumerate(arrays))
            todo.append((node.children[j], rows[sel], branch, child, path + (j,)))

    branches = {label: tuple(recs) for label, recs in zip(labels, recorded)}
    totals = {
        label: sum(prob for path, prob in recs if leaf_announce[path] == label)
        for label, recs in branches.items()
    }
    confusion = {path: reached[path] for path in sorted(reached)}
    perfect = all(abs(t - 1.0) <= tol for t in totals.values()) and all(
        len(names) < 2 for names in confusion.values()
    )
    # sorted by state, then path: lexicographic paths are in pre-order
    warnings = tuple(message for _, _, message in sorted(flagged))
    return DiscriminationReport(perfect, branches, leaf_announce, confusion, totals, warnings)


@dataclass(frozen=True)
class CanonicalOperator:
    """SVD form of a local operator plus a physicality flag."""

    svd: SVDResult
    physical: bool


def canonicalize_operator(op: LocalOperator, tol: float = DEFAULT_TOL) -> CanonicalOperator:
    """Deterministic SVD of the operator; physical iff no sigma exceeds 1 + tol."""
    result = svd_decompose(op.matrix, tol)
    return CanonicalOperator(svd=result, physical=all(s <= 1.0 + tol for s in result.sigmas))


def _complement(party: int, mats: Sequence[np.ndarray]) -> LocalOperator:
    """The identity minus the given projector matrices, the rest of a projective instrument."""
    rest = np.eye(mats[0].shape[1], dtype=np.complex128) - sum(mats)
    rest.setflags(write=False)
    return _built(party, rest, complement=True)


def lift_protocol(t: TraceNode, e: Ensemble, tol: float = DEFAULT_TOL) -> SimTree:
    """Turn a projective protocol tree into a runnable instrument tree.

    Each step becomes the family of projectors onto its outcome spans; when
    those do not fill the whole factor, the remainder projector is appended
    with a give-up leaf so the instrument is complete.  A stuck block is
    no protocol, so a tree that holds one raises SchemaError; an outcome
    block that names a label the ensemble lacks raises NotFoundError.
    """
    if isinstance(t, TraceLeaf):
        return SimLeaf(t.label)
    if isinstance(t, TraceStuck):
        raise SchemaError(f"cannot lift a stuck block of {len(t.certificate.subset)} states")
    party = t.step.party
    if party >= e.parties:
        raise DimensionError(f"protocol measures party {party}, the ensemble has {e.parties}")
    for o in t.step.outcomes:
        for label in o.block:
            e.index(label)
    d, bases = e.dims[party], [o.basis for o in t.step.outcomes]
    for b in bases:
        if b.shape[1] != d:
            raise DimensionError(f"outcome basis dimension {b.shape[1]} does not match "
                                 f"party {party} ({d})")
    mats = projectors(np.concatenate(bases), [len(b) for b in bases])
    ops = [_built(party, m, basis=b) for m, b in zip(mats, bases)]
    rest = _complement(party, mats)
    children = [lift_protocol(c, e, tol) for c in t.children]
    if float(np.max(np.abs(rest.matrix))) > tol:
        ops.append(rest)
        children.append(SimLeaf(None))
    return SimNode(instrument=Instrument(party, tuple(ops)), children=tuple(children))


def extend_with_projective(e: Ensemble, ins: Instrument, tol: float = DEFAULT_TOL) -> SimNode:
    """Root instrument followed by derived projective continuations.

    For each operator the surviving (non-annihilated) post-measurement
    states are collected into a sub-ensemble; its projective protocol is
    derived on the spot and lifted.  Raises InstrumentError if any
    continuation gets stuck, since then the combined protocol cannot
    discriminate perfectly.
    """
    _require_complete(ins, tol)
    children: list[SimTree] = []
    for i, op in enumerate(ins.operators):
        _fit(op, e.dims)
        _, kept, images = _apply_stack(op.matrix[None], e.party_arrays[op.party], tol)
        labels = [e.labels[j] for j in kept.tolist()]
        if len(labels) < 2:
            children.append(SimLeaf(labels[0] if labels else None))
            continue
        arrays = [images if p == op.party else a[kept] for p, a in enumerate(e.party_arrays)]
        sub = _from_rows(f"{e.name}.outcome{i}", labels, arrays, complete=False)
        verdict = decide(sub, "incomplete", tol)
        if not verdict.distinguishable:
            raise InstrumentError(f"outcome {i}: surviving states are not projectively "
                                  "distinguishable")
        assert verdict.tree is not None
        children.append(lift_protocol(verdict.tree, sub, tol))
    return SimNode(instrument=ins, children=tuple(children))


# ---------------------------------------------------------------------------
# built-in protocols


def _triple_povm_instrument(party: int) -> Instrument:
    # Three rank-one operators sqrt(2/3) |w><w| over qubit directions whose
    # pairwise overlaps are +-1/2; together they resolve the identity.
    half3 = np.sqrt(3.0) / 2.0
    directions = np.array([[0.0, 1.0], [half3, -0.5], [half3, 0.5]], dtype=np.complex128)
    ops = (LocalOperator(party, np.sqrt(2.0 / 3.0) * np.outer(w, w.conj())) for w in directions)
    return Instrument(party, tuple(ops))


def _build_finkelstein_povm(e: Ensemble, tol: float) -> SimTree:
    if e.parties < 3:
        raise DimensionError("finkelstein-povm expects a three-party ensemble")
    return extend_with_projective(e, _triple_povm_instrument(2), tol)


_BUILTIN_PROTOCOLS = {"finkelstein-povm": _build_finkelstein_povm}

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


def _operator_to_json(op: LocalOperator) -> dict:
    if op.basis is not None:
        return {"basis": [complex_to_json(b) for b in op.basis]}
    if op.complement:
        return {"complement": True}
    return emit_matrix(op.matrix)


def _sim_to_json(root: SimTree) -> dict:
    if isinstance(root, SimLeaf):
        return {"announce": root.announce}
    return {
        "party": root.instrument.party,
        "operators": [_operator_to_json(op) for op in root.instrument.operators],
        "children": [_sim_to_json(c) for c in root.children],
    }


def emit_sim_protocol(root: SimTree) -> str:
    """Serialize an instrument tree to canonical JSON."""
    return canonical_dumps(_sim_to_json(root))


def _layout(raw_ops: list, where: str, queue: dict[int, tuple[list, list, list]]) -> list:
    """Check one instrument's operators and decode its dense ones.

    Basis vectors join ``queue``'s lists for their dimension: the vectors,
    each one's owner, each basis's size.  Returns per operator its matrix,
    "complement", or its basis's dimension, number and vectors among that dimension's.
    """
    layout: list = []
    d = 0
    for i, raw in enumerate(raw_ops):
        at = f"{where}: operator {i}"
        if isinstance(raw, dict) and "basis" in raw:
            basis = raw["basis"]
            if len(raw) != 1 or not isinstance(basis, list) or not basis:
                raise SchemaError(f"{at}: basis must be a non-empty list of vectors")
            for j, v in enumerate(basis):
                if not isinstance(v, list) or not v:
                    complex_from_json(v, f"{at}: basis vector {j}")
            d = d or len(basis[0])
            if any(len(v) != d for v in basis):
                raise SchemaError(f"{at}: basis vectors must have dimension {d}")
            vectors, owners, sizes = queue.setdefault(d, ([], [], []))
            layout.append((d, len(sizes), len(vectors), len(vectors) + len(basis)))
            vectors += basis
            owners += ((at, j) for j in range(len(basis)))
            sizes.append(len(basis))
        elif isinstance(raw, dict) and "complement" in raw:
            if len(raw) != 1 or raw["complement"] is not True:
                raise SchemaError(f"{at}: complement must be {{\"complement\": true}}")
            if i != len(raw_ops) - 1 or not layout or not all(isinstance(k, tuple) for k in layout):
                raise SchemaError(f"{at}: complement must come last, after basis operators")
            layout.append("complement")
        else:
            matrix = parse_matrix(raw)
            d = d or matrix.shape[1]
            layout.append(matrix)
    return layout


def parse_sim_protocol(text: str, *, decoded: bool = False) -> SimTree:
    """Parse the instrument-tree JSON format; with ``decoded``, ``text`` is its parsed document.

    An operator is a dense ``{"rows", "cols", "entries"}`` matrix, the
    projector ``{"basis": [v1, ...]}`` onto an orthonormal family, or, last
    and after basis operators only, ``{"complement": true}``: the identity
    minus the instrument's other operators.

    The whole tree's layout is checked first.  Then the basis vectors of
    each dimension go through one codec call, whose errors still name the
    operator and the vector, one :func:`normalize_rows` and one
    :func:`projectors`, and the tree is built bottom-up.
    """
    nodes: list = []  # pre-order: a SimLeaf, or a node's party and operator layout
    queue: dict[int, tuple[list, list, list]] = {}
    todo: list[tuple[object, str]] = [(text if decoded else parse_json(text), "protocol")]
    while todo:
        data, where = todo.pop()
        if not isinstance(data, dict):
            raise SchemaError(f"{where}: node must be a JSON object")
        if "announce" in data:
            announce = data["announce"]
            if announce is not None and not isinstance(announce, str):
                raise SchemaError(f"{where}: announce must be a label or null")
            nodes.append(SimLeaf(announce))
            continue
        if missing := [key for key in ("party", "operators", "children") if key not in data]:
            raise SchemaError(f"{where}: node is missing key {missing[0]!r}")
        party, raw_ops, raw_children = data["party"], data["operators"], data["children"]
        if not isinstance(party, int) or isinstance(party, bool) or party < 0:
            raise SchemaError(f"{where}: party must be a non-negative integer")
        if not isinstance(raw_ops, list) or not raw_ops:
            raise SchemaError(f"{where}: operators must be a non-empty list")
        if not isinstance(raw_children, list) or len(raw_children) != len(raw_ops):
            raise SchemaError(f"{where}: {len(raw_ops)} operators need {len(raw_ops)} children")
        nodes.append((party, _layout(raw_ops, where, queue)))
        todo.extend((c, f"{where}.children[{i}]") for i, c in reversed([*enumerate(raw_children)]))

    decoded = {}
    for d, (vectors, owners, sizes) in queue.items():
        flat = complex_rows_from_json(vectors, lambda k: "{}: basis vector {}".format(*owners[k]))
        vectors.clear()  # the last of the JSON tree goes before the projectors come
        rows = normalize_rows(flat.reshape(-1, d))
        rows.setflags(write=False)
        decoded[d] = (projectors(rows, sizes), rows)
    built: list[SimTree] = []
    for node in reversed(nodes):
        if isinstance(node, SimLeaf):
            built.append(node)
            continue
        party, layout = node
        ops: list[LocalOperator] = []
        for kind in layout:
            if isinstance(kind, np.ndarray):
                ops.append(LocalOperator(party, kind))
            elif kind == "complement":
                ops.append(_complement(party, [op.matrix for op in ops]))
            else:
                mats, rows = decoded[kind[0]]
                ops.append(_built(party, mats[kind[1]], basis=rows[kind[2] : kind[3]]))
        children = tuple(built.pop() for _ in ops)
        built.append(SimNode(instrument=Instrument(party, tuple(ops)), children=children))
    return built[0]


def report_to_json(report: DiscriminationReport) -> dict:
    """Discrimination report as a JSON-ready dict."""
    return {
        "perfect": report.perfect,
        "states": [
            {"label": label, "total": report.totals[label],
             "branches": [{"path": list(path), "probability": prob} for path, prob in recs]}
            for label, recs in report.branches.items()
        ],
        "confusion": [{"path": list(path), "labels": list(labels)}
                      for path, labels in report.confusion.items()],
        "warnings": list(report.warnings),
    }
