"""Multipartite product-state ensembles: model, file format, catalog, generators.

An ensemble is an ordered, labeled collection of product states over fixed
local dimensions.  Everything else in the package consumes this model, so the
constructor enforces the structural invariants (matching dimensions, unique
labels, state count when the ensemble claims to be a complete basis) and the
parser normalizes every vector on the way in.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import (
    DimensionError,
    InvalidModeError,
    NotFoundError,
    SchemaError,
    TooLargeError,
    UnitarityError,
    ZeroVectorError,
)
from .jsonio import canonical_dumps, complex_rows_from_json, complex_to_json, parse_json
from .linalg import (
    DEFAULT_TOL,
    LocalVector,
    _phase_fixed,
    basis_vector,
    normalize,
    normalize_rows,
    unit_vectors,
)

__all__ = [
    "CATALOG_NAMES",
    "Ensemble",
    "MAX_GRAPH_STATES",
    "ProductState",
    "ValidationReport",
    "apply_local_unitaries",
    "catalog",
    "emit_ensemble",
    "ensure_complete",
    "ensure_orthogonal",
    "parse_ensemble",
    "random_product_basis",
    "random_unitary",
    "validate",
]

MAX_GRAPH_STATES = 8192
"""Largest state count whose per-party adjacency :meth:`Ensemble.adjacency` builds.

Each party's adjacency is an ``n x n`` boolean array, n² bytes: 64 MiB per
party at the cap, 16 MiB at n = 4096.  The graph searches add the same
adjacency packed as bit rows, about n²/8 bytes per party: 8 MiB at the cap,
2 MiB at n = 4096.  Larger ensembles raise
:class:`~loccdist.errors.TooLargeError` before anything is allocated.
"""

# Entries per row block (1 MiB of complex Gram products), so that no n x n
# array beyond the cached adjacencies is ever held whole.  Smaller blocks
# stay in cache: at n = 512 and 1000 they build faster than 4 MiB ones, and
# they leave room for the blocks and spans the memo keeps.
_BLOCK_ENTRIES = 1 << 16

T = TypeVar("T")
_MISSING = object()

# Bulk products sum in another order than a pairwise np.vdot, which moves a
# magnitude by a few ulps per party dimension.  Entries this close to tol are
# recomputed pairwise, so every pair lands on the side of tol that the
# pairwise inner product puts it on.
_ROUNDING = 1e-12


def _positive_dims(dims: Sequence[int]) -> tuple[int, ...]:
    checked = tuple(int(d) for d in dims)
    if not checked or any(d < 1 for d in checked):
        raise SchemaError(f"dims must be positive integers, got {dims!r}")
    return checked


@dataclass(frozen=True)
class ProductState:
    """One labeled product state, one unit vector per party."""

    label: str
    locals: tuple[LocalVector, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise SchemaError("state label must be a non-empty string")
        object.__setattr__(self, "locals", tuple(self.locals))
        if not self.locals:
            raise SchemaError(f"state {self.label!r} has no local vectors")


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """Ordered collection of product states over fixed local dimensions.

    Held as ``labels`` and :attr:`party_arrays`, one read-only ``n x d_p``
    array per party; ``states`` is a view built on first read.  Equality is
    identity, as each ensemble carries its own :meth:`memo`.
    """

    name: str
    dims: tuple[int, ...]
    labels: tuple[str, ...]
    party_arrays: tuple[np.ndarray, ...] = field(repr=False)
    complete: bool

    def __init__(
        self, name: str, dims: Sequence[int], states: Sequence[ProductState], complete: bool
    ) -> None:
        dims = _positive_dims(dims)
        states = tuple(states)
        for s in states:
            if len(s.locals) != len(dims):
                raise SchemaError(
                    f"state {s.label!r} has {len(s.locals)} local vectors, expected {len(dims)}"
                )
            for p, v in enumerate(s.locals):
                if v.dim != dims[p]:
                    raise SchemaError(
                        f"state {s.label!r} party {p} has dim {v.dim}, expected {dims[p]}"
                    )
        arrays = [
            np.array([s.locals[p].entries for s in states], dtype=np.complex128).reshape(-1, d)
            for p, d in enumerate(dims)
        ]
        self._set(name, [s.label for s in states], arrays, complete)
        self.__dict__["states"] = states

    def _set(self, name: str, labels: Sequence[str], arrays: list, complete: bool) -> None:
        """Check the labels and the state count, freeze the arrays and set every field."""
        dims = _positive_dims(tuple(a.shape[1] for a in arrays))
        if not all(isinstance(label, str) and label for label in labels):
            raise SchemaError("state label must be a non-empty string")
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if index.setdefault(label, i) != i:
                raise SchemaError(f"duplicate state label {label!r}")
        if complete and len(labels) != math.prod(dims):
            raise SchemaError(
                f"complete ensemble over dims {dims} needs {math.prod(dims)} states, "
                f"got {len(labels)}"
            )
        for a in arrays:
            a.setflags(write=False)
        fields = dict(name=name, dims=dims, labels=tuple(labels), party_arrays=tuple(arrays))
        self.__dict__.update(fields, complete=complete, _index=index, _memo={})

    @functools.cached_property
    def states(self) -> tuple[ProductState, ...]:
        """The states in order, built on first read; their LocalVectors view the rows."""
        columns = [unit_vectors(a) for a in self.party_arrays]
        return tuple(ProductState(label, vs) for label, vs in zip(self.labels, zip(*columns)))

    @property
    def parties(self) -> int:
        return len(self.dims)

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise NotFoundError(f"no state labeled {label!r} in ensemble {self.name!r}") from None

    def state(self, label: str) -> ProductState:
        return self.states[self.index(label)]

    def vector(self, label: str, party: int) -> LocalVector:
        if not 0 <= party < self.parties:
            raise DimensionError(f"party {party} out of range for {self.parties} parties")
        return self.state(label).locals[party]

    def memo(self, key: tuple, build: Callable[[], T]) -> T:
        """The value of ``build()`` for ``key``, computed on the first call only.

        The one cache for what is derived from the frozen ensemble, keyed by
        kind first:

        - ``("adjacency", party, tol)``: :meth:`adjacency`;
        - ``("validate", tol)``: the :func:`validate` report;
        - ``("bits", party, tol)``: the adjacency packed as one int per state;
        - ``("blocks", party, mask, tol)`` and ``("span", party, rows, tol)``:
          the graph components and block spans of :mod:`loccdist.relativity`,
          with ``mask`` an int, bit i for state i, and ``rows`` a tuple of
          state indices.

        It dies with the ensemble.  A ``build`` that raises caches nothing.
        """
        cache: dict = self._memo  # type: ignore[attr-defined]
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = build()
        return value

    def adjacency(self, party: int, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Read-only ``n x n`` boolean array: states i != j are relative at ``party``.

        Relative means ``|<u_i|u_j>| > tol`` for the party's vectors.  Built
        once per ``(party, tol)`` from row blocks of the Gram matrix and kept
        in :meth:`memo`.
        """
        if not 0 <= party < self.parties:
            raise DimensionError(f"party {party} out of range for {self.parties} parties")
        return self.memo(("adjacency", party, float(tol)), lambda: self._build_adjacency(party, tol))

    def _build_adjacency(self, party: int, tol: float) -> np.ndarray:
        n = len(self.labels)
        if n > MAX_GRAPH_STATES:
            raise TooLargeError(f"overlap graphs handle at most {MAX_GRAPH_STATES} states, got {n}")
        a = self.party_arrays[party]
        adj = np.zeros((n, n), dtype=bool)
        step = max(1, _BLOCK_ENTRIES // max(n, 1))
        for i0 in range(0, n, step):
            i1 = min(i0 + step, n)
            mags = np.abs(a[i0:i1].conj() @ a[i0:].T)
            near = np.triu(np.abs(mags - tol) <= _ROUNDING, 1)
            for k, c in zip(*np.nonzero(near)):
                mags[k, c] = abs(complex(np.vdot(a[i0 + k], a[i0 + c])))
            adj[i0:i1, i0:] = np.triu(mags > tol, 1)
        adj |= adj.T
        adj.setflags(write=False)
        return adj


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on an ensemble.

    ``offending_pairs`` lists ``(label_a, label_b, magnitude)`` for each pair
    that overlaps at every party, earlier state first, in state order.  The
    magnitude is the pair's smallest per-party overlap ``min_p |<u_p|v_p>|``,
    the number the orthogonality rule compares with ``tol``.
    """

    pairwise_orthogonal: bool
    complete_count: bool
    offending_pairs: tuple[tuple[str, str, float], ...]
    claimed_complete: bool

    @property
    def passed(self) -> bool:
        """Orthogonality holds and, if completeness was claimed, the count matches."""
        return self.pairwise_orthogonal and (self.complete_count or not self.claimed_complete)


def validate(e: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check pairwise orthogonality of the product states and the state count.

    Two product states are orthogonal iff some party's overlap is at most
    ``tol``, the rule the overlap graphs use: a pair offends iff it is an
    edge of every party's :meth:`Ensemble.adjacency`.  The frozen report is
    made once per ``tol`` and kept in :meth:`Ensemble.memo`.
    """
    return e.memo(("validate", float(tol)), lambda: _validate(e, tol))


def _validate(e: Ensemble, tol: float) -> ValidationReport:
    adjs = [e.adjacency(p, tol) for p in range(e.parties)]
    n = len(e.labels)
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    offending: list[tuple[str, str, float]] = []
    for i0 in range(0, n, step):
        rows = np.logical_and.reduce([a[i0 : i0 + step] for a in adjs])
        for k, j in zip(*np.nonzero(np.triu(rows, i0 + 1))):
            i = i0 + k
            mag = min(abs(complex(np.vdot(a[i], a[j]))) for a in e.party_arrays)
            offending.append((e.labels[i], e.labels[j], mag))
    return ValidationReport(
        pairwise_orthogonal=not offending,
        complete_count=len(e.labels) == math.prod(e.dims),
        offending_pairs=tuple(offending),
        claimed_complete=e.complete,
    )


def ensure_orthogonal(e: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Require pairwise orthogonality, as incomplete-mode analysis does."""
    report = validate(e, tol)
    if not report.pairwise_orthogonal:
        worst = max(report.offending_pairs, key=lambda t: t[2])
        raise InvalidModeError(
            f"ensemble {e.name!r} is not pairwise orthogonal: "
            f"|<{worst[0]}|{worst[1]}>| = {worst[2]:.3e}"
        )
    return report


def ensure_complete(e: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Require a validated complete orthogonal product basis."""
    report = ensure_orthogonal(e, tol)
    if not e.complete:
        raise InvalidModeError(f"ensemble {e.name!r} is not flagged complete")
    if not report.complete_count:
        raise InvalidModeError(
            f"ensemble {e.name!r} has {len(e.labels)} states but dims {e.dims} "
            f"require {math.prod(e.dims)}"
        )
    return report


# ---------------------------------------------------------------------------
# file format


def parse_ensemble(text: str, tol: float = DEFAULT_TOL) -> Ensemble:
    """Parse the ensemble JSON format, normalizing every vector on load.

    All vectors are decoded in one pass and each party's ``n x d_p`` array
    is normalized at once by :func:`~loccdist.linalg.normalize_rows`; those
    arrays become the ensemble's :attr:`~Ensemble.party_arrays`.  An error
    names the first bad vector in file order, after the layout of every
    state has been checked.
    """
    data = parse_json(text)
    if not isinstance(data, dict):
        raise SchemaError("ensemble must be a JSON object")
    for key in ("name", "dims", "complete", "states"):
        if key not in data:
            raise SchemaError(f"ensemble is missing key {key!r}")
    name = data["name"]
    if not isinstance(name, str):
        raise SchemaError("ensemble name must be a string")
    dims = data["dims"]
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise SchemaError("dims must be a non-empty list of positive integers")
    if not isinstance(data["complete"], bool):
        raise SchemaError("complete must be a boolean")
    raw_states = data["states"]
    if not isinstance(raw_states, list):
        raise SchemaError("states must be a list")
    labels = []
    for k, raw in enumerate(raw_states):
        if not isinstance(raw, dict) or "label" not in raw or "vectors" not in raw:
            raise SchemaError(f"state {k} must be an object with 'label' and 'vectors'")
        label = raw["label"]
        if not isinstance(label, str):
            raise SchemaError(f"state {k} label must be a string")
        vectors = raw["vectors"]
        if not isinstance(vectors, list) or len(vectors) != len(dims):
            raise SchemaError(f"state {label!r} needs one vector per party ({len(dims)})")
        for p, vec in enumerate(vectors):
            if not isinstance(vec, list) or len(vec) != dims[p]:
                raise SchemaError(f"state {label!r} party {p} needs {dims[p]} entries")
        labels.append(label)
    parties = len(dims)
    # One decode of every vector, state-major; then one normalize per party.
    flat = complex_rows_from_json(
        [vec for raw in raw_states for vec in raw["vectors"]],
        lambda j: f"state {labels[j // parties]!r} party {j % parties}",
    ).reshape(len(labels), sum(dims))
    starts = list(itertools.accumulate(dims, initial=0))
    arrays = [np.array(flat[:, a:b]) for a, b in zip(starts, starts[1:])]
    return _from_rows(name, labels, _normalized(arrays, tol), data["complete"])


def _normalized(arrays: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Each party's ``n x d_p`` rows normalized in place by :func:`~loccdist.linalg.normalize_rows`.

    A refusal names the first bad vector in state order, parties inner, as
    normalizing vector by vector would.
    """
    for p, a in enumerate(arrays):
        try:
            normalize_rows(a, tol)
        except (SchemaError, ZeroVectorError):
            # this array and the later ones are left as they were; the earlier
            # ones, already normalized, hold no bad vector
            for k, q in itertools.product(range(len(a)), range(p, len(arrays))):
                normalize_rows(arrays[q][k : k + 1].copy(), tol)
            raise
    return arrays


def _from_rows(
    name: str, labels: Sequence[str], arrays: Sequence[np.ndarray], complete: bool
) -> Ensemble:
    """The ensemble whose :attr:`~Ensemble.party_arrays` are ``arrays``, one per party.

    The one constructor from stacked rows, which the caller has normalized:
    it checks the labels and the state count as :class:`Ensemble` does, and
    freezes and keeps the C-contiguous ``n x d_p`` arrays, building no state.
    """
    e = object.__new__(Ensemble)
    e._set(name, labels, list(arrays), complete)
    return e


def emit_ensemble(e: Ensemble, tol: float = DEFAULT_TOL) -> str:
    """Serialize to canonical JSON: phase-normalized vectors, 17 digit floats."""
    states = [
        {
            "label": label,
            "vectors": [complex_to_json(_phase_fixed(a[i], tol)) for a in e.party_arrays],
        }
        for i, label in enumerate(e.labels)
    ]
    doc = {
        "name": e.name,
        "dims": list(e.dims),
        "complete": e.complete,
        "states": states,
    }
    return canonical_dumps(doc)


# ---------------------------------------------------------------------------
# catalog


def _plus_minus(dim: int, i: int, j: int, sign: int) -> LocalVector:
    e = np.zeros(dim, dtype=np.complex128)
    e[i] = 1.0
    e[j] = float(sign)
    return normalize(e)


def _bennett9_parts() -> list[tuple[LocalVector, LocalVector]]:
    # Two-qutrit tile construction: one corner state plus four +/- pairs
    # wrapped around it.
    k = lambda i: basis_vector(3, i)
    pm = lambda i, j, s: _plus_minus(3, i, j, s)
    return [
        (k(0), k(0)),
        (k(2), pm(2, 0, +1)),
        (k(2), pm(2, 0, -1)),
        (k(1), pm(0, 1, +1)),
        (k(1), pm(0, 1, -1)),
        (pm(2, 0, +1), k(1)),
        (pm(2, 0, -1), k(1)),
        (pm(0, 1, +1), k(2)),
        (pm(0, 1, -1), k(2)),
    ]


def _grid16_parts() -> list[tuple[LocalVector, LocalVector]]:
    # Two-ququart analogue of the tile construction.
    k = lambda i: basis_vector(4, i)
    pm = lambda i, j, s: _plus_minus(4, i, j, s)
    return [
        (k(0), pm(0, 1, +1)),
        (k(0), pm(0, 1, -1)),
        (k(1), pm(1, 2, +1)),
        (k(1), pm(1, 2, -1)),
        (k(2), pm(2, 3, +1)),
        (k(2), pm(2, 3, -1)),
        (k(3), pm(0, 3, +1)),
        (k(3), pm(0, 3, -1)),
        (pm(0, 1, +1), k(3)),
        (pm(0, 1, -1), k(3)),
        (pm(2, 3, +1), k(1)),
        (pm(2, 3, -1), k(1)),
        (pm(1, 2, +1), k(0)),
        (pm(1, 2, -1), k(0)),
        (pm(0, 3, +1), k(2)),
        (pm(0, 3, -1), k(2)),
    ]


def _psi(name: str, dims: tuple[int, ...], parts: list, complete: bool = True) -> Ensemble:
    """The states of ``parts``, one tuple of LocalVectors each, labeled psi1, psi2, ..."""
    states = tuple(ProductState(f"psi{i + 1}", vs) for i, vs in enumerate(parts))
    return Ensemble(name, dims, states, complete)


def _bennett9() -> Ensemble:
    return _psi("bennett9", (3, 3), _bennett9_parts())


def _grid16() -> Ensemble:
    return _psi("grid16", (4, 4), _grid16_parts())


def _cube64() -> Ensemble:
    parts = [(a, b, basis_vector(4, c)) for c in range(4) for a, b in _grid16_parts()]
    return _psi("cube64", (4, 4, 4), parts)


def _finkelstein9() -> Ensemble:
    third = [
        basis_vector(2, 0),
        normalize(np.array([1.0, math.sqrt(3.0)]) / 2.0),
        normalize(np.array([1.0, -math.sqrt(3.0)]) / 2.0),
    ]
    parts = [(a, b, third[i // 3]) for i, (a, b) in enumerate(_bennett9_parts())]
    return _psi("finkelstein9", (3, 3, 2), parts, complete=False)


def _comp2x2() -> Ensemble:
    states = tuple(
        ProductState(f"s{i}{j}", (basis_vector(2, i), basis_vector(2, j)))
        for i in range(2)
        for j in range(2)
    )
    return Ensemble("comp2x2", (2, 2), states, complete=True)


_CATALOG = {
    "bennett9": _bennett9,
    "grid16": _grid16,
    "cube64": _cube64,
    "finkelstein9": _finkelstein9,
    "comp2x2": _comp2x2,
}

CATALOG_NAMES: tuple[str, ...] = tuple(_CATALOG)


def catalog(name: str) -> Ensemble:
    """Return a built-in ensemble by name; see CATALOG_NAMES."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        known = ", ".join(CATALOG_NAMES)
        raise NotFoundError(f"unknown catalog name {name!r} (known: {known})") from None
    return builder()


# ---------------------------------------------------------------------------
# transforms and generators


def apply_local_unitaries(
    e: Ensemble, us: list[np.ndarray] | tuple[np.ndarray, ...], tol: float = DEFAULT_TOL
) -> Ensemble:
    """Rotate every state by one unitary per party; overlaps are unchanged."""
    if len(us) != e.parties:
        raise DimensionError(f"need {e.parties} unitaries, got {len(us)}")
    mats = []
    for p, u in enumerate(us):
        m = np.asarray(u, dtype=np.complex128)
        if m.shape != (e.dims[p], e.dims[p]):
            raise DimensionError(
                f"party {p} unitary has shape {m.shape}, expected {(e.dims[p], e.dims[p])}"
            )
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(e.dims[p]))))
        if dev > tol:
            raise UnitarityError(f"party {p} matrix deviates from unitarity by {dev:.3e}")
        mats.append(m)
    # a stacked matmul against column vectors: the bits of m @ v per row
    arrays = [np.matmul(m, a[:, :, None])[:, :, 0] for m, a in zip(mats, e.party_arrays)]
    return _from_rows(e.name, e.labels, _normalized(arrays, tol), e.complete)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise DimensionError(f"dimension must be positive, got {dim}")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _rotate_basis(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The ``k x d`` rows mixed by a random ``k x k`` unitary, each normalized again."""
    mixed = np.ascontiguousarray(rows.T) @ random_unitary(len(rows), rng)
    return normalize_rows(np.ascontiguousarray(mixed.T))


def _split_basis(
    bases: tuple[np.ndarray, ...], rng: np.random.Generator, depth: int
) -> list[np.ndarray]:
    """The product states of ``depth`` rounds of splitting, as one array of rows per party."""
    splittable = [p for p, b in enumerate(bases) if len(b) >= 2]
    if depth <= 0 or not splittable:
        index = np.indices([len(b) for b in bases]).reshape(len(bases), -1)
        return [b[i] for b, i in zip(bases, index)]
    p = splittable[int(rng.integers(len(splittable)))]
    k = len(bases[p])
    mask = int(rng.integers(1, 2**k - 1))
    picked = np.array([(mask >> i) & 1 for i in range(k)], dtype=bool)
    sides = []
    for group in (bases[p][picked], bases[p][~picked]):
        sub = list(bases)
        sub[p] = _rotate_basis(group, rng)
        for q in range(len(bases)):
            if q != p:
                sub[q] = _rotate_basis(bases[q], rng)
        sides.append(_split_basis(tuple(sub), rng, depth - 1))
    return [np.concatenate(rows) for rows in zip(*sides)]


def random_product_basis(dims: tuple[int, ...], seed: int, depth: int = 3) -> Ensemble:
    """Seeded complete orthogonal product basis with recursive block structure.

    Starting from the computational basis, ``depth`` rounds of splitting pick
    a party, cut its current block into two orthogonal sub-blocks mixed by
    independent random unitaries, and give each side fresh random rotations
    on the other parties.  Orthogonality across sides is carried by the
    chosen party alone, so the result is always a valid complete basis.
    Depth 0 reproduces the computational product basis exactly.
    """
    dims = _positive_dims(dims)
    rng = np.random.default_rng(seed)
    arrays = _split_basis(tuple(np.eye(d, dtype=np.complex128) for d in dims), rng, depth)
    labels = [f"s{i + 1}" for i in range(math.prod(dims))]
    shape = "x".join(str(d) for d in dims)
    return _from_rows(f"random-{shape}-seed{seed}-depth{depth}", labels, arrays, True)
