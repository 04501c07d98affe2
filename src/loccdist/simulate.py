"""Simulation of general local measurement protocols against an ensemble.

A protocol is a tree: each internal node applies one local instrument (a
family of Kraus operators summing to identity in the M†M sense) at one
party, with one subtree per outcome; each leaf either announces a state
label or gives up.  Running the tree on every ensemble member yields the
exact branch probabilities, so perfect discrimination becomes a checkable
arithmetic fact rather than a claim.

Replay works in stacks, one tree level at a time: :func:`run_protocol`
applies an instrument's ``K x d_out x d`` operator stacks, one product each,
to the stacked factors of every state that reaches its node, and then
measures, prunes, renormalizes and hands over the images of a whole level
at once.  :func:`parse_sim_protocol` decodes all basis vectors of one
dimension, and builds their projectors, at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .distinguish import TraceLeaf, TraceNode, TraceStuck, decide
from .ensemble import _CHUNK_ENTRIES, Ensemble, _from_rows
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
    _entries,
    _phase_fixed,
    _row_norms,
    emit_matrix,
    normalize_rows,
    parse_matrix,
    projectors,
)
from .records import Record

__all__ = [
    "BUILTIN_PROTOCOL_NAMES",
    "DiscriminationReport",
    "Instrument",
    "LocalOperator",
    "SimLeaf",
    "SimNode",
    "SimTree",
    "builtin_protocol",
    "emit_sim_protocol",
    "extend_with_projective",
    "lift_protocol",
    "parse_sim_protocol",
    "report_to_json",
    "run_protocol",
    "validate_instrument",
]


class LocalOperator(Record):
    """One Kraus operator acting on a single party's factor.

    ``basis`` and ``complement`` record a matrix built as the projector onto
    an orthonormal family, the rows of a ``k x d`` array, or as the identity
    minus the projectors before it in its instrument.  The protocol format
    stores that form instead of the matrix; the matrix is what every
    computation reads.
    """

    party: int
    matrix: np.ndarray
    basis: np.ndarray | None
    complement: bool

    def __init__(
        self,
        party: int,
        matrix: np.ndarray,
        basis: np.ndarray | None = None,
        complement: bool = False,
    ) -> None:
        if not isinstance(party, int) or isinstance(party, bool) or party < 0:
            raise SchemaError(f"party must be a non-negative integer, got {party!r}")
        m = _entries(matrix, 2).copy()
        m.setflags(write=False)
        d = self.__dict__
        d["party"], d["matrix"], d["basis"], d["complement"] = party, m, basis, complement

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]


def _built(party: int, matrix: np.ndarray, basis=None, complement=False) -> LocalOperator:
    """A LocalOperator around a finite read-only matrix built here, without a copy or a check."""
    op = object.__new__(LocalOperator)
    d = op.__dict__
    d["party"], d["matrix"], d["basis"], d["complement"] = party, matrix, basis, complement
    return op


class Instrument(Record, eq=True):
    """A complete family of Kraus operators at one party."""

    party: int
    operators: tuple[LocalOperator, ...]

    def __init__(self, party: int, operators: Sequence[LocalOperator]) -> None:
        if not isinstance(party, int) or isinstance(party, bool) or party < 0:
            raise SchemaError(f"party must be a non-negative integer, got {party!r}")
        operators = tuple(operators)
        if not operators:
            raise SchemaError("an instrument needs at least one operator")
        for op in operators:
            if op.party != party:
                raise SchemaError(
                    f"operator for party {op.party} inside instrument for party {party}"
                )
            if op.in_dim != operators[0].in_dim:
                raise DimensionError("all operators in an instrument share one input dimension")
        d = self.__dict__
        d["party"], d["operators"] = party, operators

    @property
    def stacks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """Operator indices and ``K x d_out x d`` matrices per output dimension, built on read."""
        ops = self.operators
        groups: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            groups.setdefault(op.out_dim, []).append(i)
        return tuple((tuple(ix), np.array([ops[i].matrix for i in ix])) for ix in groups.values())


@np.errstate(over="ignore", invalid="ignore")  # overflow shows as an inf or NaN defect
def _defects(instruments: Sequence[Instrument]) -> list[float]:
    """Per instrument, the largest entrywise deviation of sum(M†M) = A†A from the identity.

    ``A`` stacks an instrument's operators, those of one output dimension
    together in order of first appearance.  Instruments whose operators
    have the same shapes in the same order stack their ``A`` into one
    ``k x r x d`` array, at most about ``_CHUNK_ENTRIES`` entries at a time,
    and ``matmul`` runs the one ``A†A`` product of each, bit for bit.
    """
    groups: dict[tuple, list[int]] = {}
    for i, ins in enumerate(instruments):
        groups.setdefault(tuple(op.matrix.shape for op in ins.operators), []).append(i)
    defects = [0.0] * len(instruments)
    for shapes, members in groups.items():
        outs = dict.fromkeys(rows for rows, _ in shapes)
        order = [k for out in outs for k, (rows, _) in enumerate(shapes) if rows == out]
        d, step = shapes[0][1], max(1, _CHUNK_ENTRIES // sum(r * c for r, c in shapes))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            parts = [np.array([instruments[i].operators[k].matrix for i in chunk]) for k in order]
            a = np.concatenate(parts, axis=1)
            g = np.matmul(a.conj().transpose(0, 2, 1), a)
            g[:, range(d), range(d)] -= 1.0  # minus the identity: off its diagonal, x - 0.0 is x
            for i, defect in zip(chunk, np.abs(g).max(axis=(1, 2)).tolist()):
                defects[i] = defect
    return defects


def validate_instrument(ins: Instrument, tol: float = DEFAULT_TOL) -> bool:
    """True iff the operators sum to identity in the M†M sense, within tol."""
    return _defects((ins,))[0] <= tol


def _require_complete(instruments: Sequence[Instrument], tol: float) -> None:
    """Raise InstrumentError for the first of ``instruments`` that is incomplete."""
    for ins, defect in zip(instruments, _defects(instruments)):
        if not defect <= tol:  # a NaN defect is incomplete too
            raise InstrumentError(
                f"instrument at party {ins.party} is incomplete: defect {defect:.3e}"
            )


class SimLeaf(Record, eq=True):
    """Protocol endpoint: announce one label, or None to give up."""

    announce: str | None

    def __init__(self, announce: str | None) -> None:
        self.__dict__["announce"] = announce


class SimNode(Record, eq=True):
    """Protocol branch point: one instrument, one subtree per operator."""

    instrument: Instrument
    children: tuple["SimTree", ...]

    def __init__(self, instrument: Instrument, children: Sequence[SimTree]) -> None:
        children = tuple(children)
        if len(children) != len(instrument.operators):
            n, k = len(children), len(instrument.operators)
            raise SchemaError(f"node has {n} children for {k} operators")
        d = self.__dict__
        d["instrument"], d["children"] = instrument, children


SimTree = SimLeaf | SimNode


def _misfit(op: LocalOperator, dims: Sequence[int]) -> str | None:
    """Why op cannot act on a factor of a state with these dims, or None if it can."""
    if op.party >= len(dims):
        return f"state has no party {op.party}"
    if op.in_dim != (d := dims[op.party]):
        return f"operator expects dimension {op.in_dim}, state party {op.party} has {d}"
    return None


_OVERFLOW = "an outcome probability overflows a double"


def _images(ms: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A ``K x d_out x d`` stack of matrices on every row of a ``k x d`` array, in one ``matvec``.

    Image ``j*k + r`` is matrix j on row r, ``ms[j] @ v[r]`` bit for bit;
    with ``out``, a contiguous ``K*k x d_out`` array, the images go there.
    """
    shape = (len(ms), len(v), ms.shape[1])
    w = np.matvec(ms[:, None], v, out=None if out is None else out.reshape(shape))
    return w.reshape(len(ms) * len(v), ms.shape[1])


# An overflowing image shows as an inf or NaN norm, not as numpy's RuntimeWarning.
@np.errstate(over="ignore", invalid="ignore")
def _probabilities(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each image's norm, and its outcome probability: the norm squared as a scalar power."""
    norms = _row_norms(w)
    return norms, np.array([x**2 for x in norms.tolist()])


def _finish(w: np.ndarray, norms: np.ndarray, tol: float) -> np.ndarray:
    """Images of finite nonzero ``norms`` renormalized and phase-fixed.

    :func:`normalize_rows` in place and :func:`_phase_fixed`, both on
    stacked rows, give each image the bits of :func:`normalize` and the
    phase rule on that image alone.
    """
    return _phase_fixed(normalize_rows(w, 0.0, norms), tol)


class DiscriminationReport(Record, eq=True):
    """Exact branch accounting of one protocol run over one ensemble."""

    perfect: bool
    branches: dict[str, tuple[tuple[tuple[int, ...], float], ...]]
    leaf_announce: dict[tuple[int, ...], str | None]
    confusion: dict[tuple[int, ...], tuple[str, ...]]
    totals: dict[str, float]
    warnings: tuple[str, ...]

    def __init__(
        self,
        perfect: bool,
        branches: dict[str, tuple[tuple[tuple[int, ...], float], ...]],
        leaf_announce: dict[tuple[int, ...], str | None],
        confusion: dict[tuple[int, ...], tuple[str, ...]],
        totals: dict[str, float],
        warnings: tuple[str, ...],
    ) -> None:
        d = self.__dict__
        d["perfect"], d["branches"], d["leaf_announce"] = perfect, branches, leaf_announce
        d["confusion"], d["totals"], d["warnings"] = confusion, totals, warnings


def _joined(groups: list[tuple]) -> tuple:
    """One frontier group from several over the same dims, rows in the order given."""
    if len(groups) == 1:
        return groups[0]
    at, states, probs, arrays = zip(*groups)
    return (np.concatenate(at), np.concatenate(states), np.concatenate(probs),
            tuple(np.concatenate(qs) for qs in zip(*arrays)))


def _fan_out(dims: tuple[int, ...], arrays: tuple, src: np.ndarray, party: np.ndarray,
             images: np.ndarray, child: np.ndarray, states: np.ndarray, probs: np.ndarray):
    """The frontier groups of the rows that go on to a child, with their dims.

    Row r is state ``states[r]`` at node ``child[r]`` with probability
    ``probs[r]``; its factor is ``images[r]`` at ``party[r]`` and row
    ``src[r]`` of ``arrays`` at every other party.  A rectangular image
    changes its party's dimension, so each party it does so for gets a
    group of its own.
    """
    d_out = images.shape[1]
    keys = np.where(np.array(dims)[party] == d_out, -1, party)
    found = set(keys.tolist())  # {-1} unless an operator is rectangular
    for key in found:
        part = slice(None) if len(found) == 1 else np.flatnonzero(keys == key)
        rows, at, img = src[part], party[part], images[part]
        factors = []
        for q, a in enumerate(arrays):
            hit = at == q
            if hit.all():
                factors.append(img)
                continue
            x = a[rows]
            if hit.any():
                x[hit] = img[hit]
            factors.append(x)
        new = dims if key < 0 else dims[:key] + (d_out,) + dims[key + 1 :]
        yield new, (child[part], states[part], probs[part], tuple(factors))


_Level = dict[tuple[int, ...], list[tuple]]  # frontier groups of rows per dims of their factors


class _Replay:
    """One run of an instrument tree: the tree numbered in pre-order, and what the run found.

    A node's number is its position in pre-order.  The numbering walks an
    explicit stack with the dims of the states that reach each node, and
    checks the whole tree, as :func:`run_protocol` says, before any state runs.
    """

    def __init__(self, root: SimTree, dims: tuple[int, ...], labels: tuple[str, ...],
                 tol: float) -> None:
        self.nodes: list[SimTree] = []
        self.paths: list[tuple[int, ...]] = []
        self.kids: list = []  # each node's children's numbers
        self.leaf_announce: dict[tuple[int, ...], str | None] = {}
        misfit = None
        todo: list = [(root, (), -1, 0, dims)]
        while todo:
            node, path, parent, j, dims = todo.pop()
            if parent >= 0:
                self.kids[parent][j] = len(self.nodes)
            self.nodes.append(node)
            self.paths.append(path)
            if isinstance(node, SimLeaf):
                self.kids.append(())
                self.leaf_announce[path] = node.announce
                continue
            self.kids.append([0] * len(node.children))
            at, ops, q = len(self.nodes) - 1, node.instrument.operators, node.instrument.party
            misfit = misfit or _misfit(ops[0], dims)  # past the first, no dims is read
            for i in reversed(range(len(ops))):  # child i's states: operator i's output at q
                new = dims[:q] + (ops[i].out_dim,) + dims[q + 1 :]
                todo.append((node.children[i], path + (i,), at, i, new))
        _require_complete([n.instrument for n in self.nodes if isinstance(n, SimNode)], tol)
        known = set(labels)
        for path, announce in self.leaf_announce.items():
            if announce is not None and announce not in known:
                raise NotFoundError(f"leaf {path} announces unknown label {announce!r}")
        if misfit is not None:
            raise DimensionError(misfit)
        self.labels, self.tol = labels, tol
        self.leaf = np.array([isinstance(node, SimLeaf) for node in self.nodes])
        self.recorded: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in labels]
        self.flagged: list[tuple[int, tuple[int, ...], str]] = []
        self.reached: dict[int, list[int]] = {}  # leaf number: states landing above tol

    def land(self, child: np.ndarray, states: np.ndarray, probs: np.ndarray) -> None:
        """Record each state's arrival at its leaf with its probability."""
        for number, i, prob in zip(child.tolist(), states.tolist(), probs.tolist()):
            self.recorded[i].append((self.paths[number], prob))
            reaching = self.reached.setdefault(number, [])
            if prob > self.tol:
                reaching.append(i)

    def advance(self, level: _Level) -> _Level:
        """The frontier one level below ``level``."""
        arrivals: _Level = {}
        for dims, groups in level.items():
            group = _joined(groups)
            # each buffer of images lives in buffers alone, until handed over
            buffers = list(self.apply(dims, group).values())
            while buffers:
                for new, part in self.hand_over(dims, group, *buffers.pop()):
                    arrivals.setdefault(new, []).append(part)
        return arrivals

    def apply(self, dims: tuple[int, ...], group: tuple) -> dict[int, tuple]:
        """Every stack of every node of ``group`` on the node's rows, per output dimension.

        Each node's rows are consecutive, and its operators fit ``dims``, as
        the numbering checked.  The images of each output dimension go into
        one buffer, block after block; a block is one stack at one node,
        listed as its party, first row, number of rows, first image and
        first child in the buffer's list of the children of each block's
        operators.
        """
        at, _, _, arrays = group
        cuts = (np.flatnonzero(at[1:] != at[:-1]) + 1).tolist()
        runs, sizes = [], {}
        for number, a, b in zip(at[[0, *cuts]].tolist(), [0, *cuts], [*cuts, len(at)]):
            ins = self.nodes[number].instrument
            runs.append((number, ins, a, b))
            for op in ins.operators:
                sizes[op.out_dim] = sizes.get(op.out_dim, 0) + b - a
        buffers = {d: (np.empty((size, d), np.complex128), [], []) for d, size in sizes.items()}
        filled = dict.fromkeys(sizes, 0)
        for number, ins, a, b in runs:
            v, kids = arrays[ins.party][a:b], self.kids[number]
            for ops, ms in ins.stacks:
                d = ms.shape[1]
                w, blocks, children = buffers[d]
                first, filled[d] = filled[d], filled[d] + len(ms) * (b - a)
                _images(ms, v, out=w[first : filled[d]])
                blocks.append((ins.party, a, b - a, first, len(children)))
                children.extend(kids[j] for j in ops)
        return buffers

    def hand_over(self, dims: tuple[int, ...], group: tuple, w: np.ndarray, blocks: list,
                  children: list):
        """Measure, prune, flag, finish and pass on one buffer of images, as :meth:`apply` fills it.

        A probability that is not a finite double raises SchemaError.  Yields
        the frontier groups of the images that go on to a child.
        """
        _, states, probs, arrays = group
        norms, p = _probabilities(w)
        if not np.isfinite(norms).all():
            raise SchemaError(_OVERFLOW)
        party, first_row, rows, starts, first_child = np.array(blocks).T
        children = np.array(children)
        kept = np.flatnonzero(p > self.tol)
        blk = np.searchsorted(starts, kept, side="right") - 1
        t = kept - starts[blk]  # image j*k + r of its block
        j = t // rows[blk]
        src = first_row[blk] + t - j * rows[blk]
        branch = probs[src] * p[kept]
        live = np.flatnonzero(branch > self.tol)
        kept, blk, src, branch = kept[live], blk[live], src[live], branch[live]
        child = children[first_child[blk] + j[live]]
        for x in np.flatnonzero(branch <= 100.0 * self.tol).tolist():
            i, to = int(states[src[x]]), self.paths[child[x]]
            self.flagged.append((i, to, f"state {self.labels[i]} path {to}: probability "
                                        f"{float(branch[x]):.3e} is within 100*tol of annihilation"))
        landed = self.leaf[child]
        if landed.any():
            self.land(child[landed], states[src[landed]], branch[landed])
            go = np.flatnonzero(~landed)
            kept, blk, src, branch, child = kept[go], blk[go], src[go], branch[go], child[go]
        images = _finish(w[kept], norms[kept], self.tol)
        del w
        yield from _fan_out(dims, arrays, src, party[blk], images, child, states[src], branch)

    def report(self) -> DiscriminationReport:
        """The run's report; each state's branches sorted by path, which is pre-order."""
        labels, tol = self.labels, self.tol
        branches = {label: tuple(sorted(recs)) for label, recs in zip(labels, self.recorded)}
        totals = {
            label: sum(prob for path, prob in recs if self.leaf_announce[path] == label)
            for label, recs in branches.items()
        }
        confusion = {self.paths[number]: tuple(labels[i] for i in reaching)
                     for number, reaching in sorted(self.reached.items())}
        perfect = all(abs(t - 1.0) <= tol for t in totals.values()) and all(
            len(names) < 2 for names in confusion.values()
        )
        # sorted by state, then path: lexicographic paths are in pre-order
        warnings = tuple(message for _, _, message in sorted(self.flagged))
        return DiscriminationReport(perfect, branches, self.leaf_announce, confusion, totals,
                                    warnings)


def run_protocol(e: Ensemble, root: SimTree, tol: float = DEFAULT_TOL) -> DiscriminationReport:
    """Run a measurement protocol on every state and judge discrimination.

    The run is perfect iff each state lands all of its probability (within
    tol) on leaves announcing it, and no leaf collects more than tol of
    probability from two different states.  Branches whose accumulated
    probability falls to tol or below are pruned as impossible; branches
    within a factor 100 of that threshold are flagged as warnings because
    the verdict starts to hinge on the tolerance.

    A first pass numbers the nodes in pre-order and checks the whole tree,
    reached or not: every instrument's completeness, then every announced
    label, then every operator's fit to the dims of the states that would
    reach it, the first misfit in pre-order raised.  The states then go
    down the tree one level at a time.  A level is a flat frontier per dims
    of the states' factors: each row's node, state, probability and factor
    at every party, a node's rows consecutive and ascending by state.  Each
    node applies each of its :attr:`Instrument.stacks` to its rows in one
    product; the norms, probabilities, pruning, renormalization, phase fix,
    warnings and hand-over to the children run once over all of a level's
    images.  A probability that overflows a double raises SchemaError.
    """
    run = _Replay(root, e.dims, e.labels, tol)
    n = len(e.labels)
    level: _Level = {}
    if n and run.leaf[0]:
        run.land(np.zeros(n, np.intp), np.arange(n), np.ones(n))
    elif n:
        level[e.dims] = [(np.zeros(n, np.intp), np.arange(n), np.ones(n), e.party_arrays)]
    while level:
        level = run.advance(level)
    return run.report()


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
    _require_complete((ins,), tol)
    if (misfit := _misfit(ins.operators[0], e.dims)) is not None:
        raise DimensionError(misfit)
    children: list[SimTree] = []
    for i, op in enumerate(ins.operators):
        w = _images(op.matrix[None], e.party_arrays[op.party])
        norms, probs = _probabilities(w)
        if not np.isfinite(norms).all():
            raise SchemaError(_OVERFLOW)
        kept = np.flatnonzero(probs > tol)
        labels = [e.labels[j] for j in kept.tolist()]
        if len(labels) < 2:
            children.append(SimLeaf(labels[0] if labels else None))
            continue
        images = _finish(w[kept], norms[kept], tol)
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
        return {"basis": complex_to_json(op.basis)}
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
