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
import operator
from typing import Callable, Iterator, Sequence, TypeVar

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
from .linalg import DEFAULT_TOL, _phase_fixed, _row_norms, basis_vector, normalize, normalize_rows
from .records import Record

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
"""Largest state count whose per-party relativity graphs are built.

Each party's graph is kept as bit rows, one Python int of n bits per state,
about n²/8 bytes per party: 8 MiB at the cap, 2 MiB at n = 4096.  Larger
ensembles raise :class:`~loccdist.errors.TooLargeError` before anything is
allocated.
"""

# Entries per row block (1 MiB of complex Gram products), so that no n x n
# array is ever held whole.  Smaller blocks stay in cache: at n = 512 and
# 1000 they build faster than 4 MiB ones, and they leave room for the blocks
# and spans the memo keeps.
_BLOCK_ENTRIES = 1 << 16

# Entries (64 KiB of complex numbers) per chunk of the passes that stack
# many small arrays: block spans and their cross checks, and instrument
# completeness defects.  Such a pass holds a few arrays of a chunk's size
# at once, so its peak memory stays near that of one array at a time; past
# a few hundred rows a chunk gains no speed.
_CHUNK_ENTRIES = 1 << 12

T = TypeVar("T")
_MISSING = object()

def _positive_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """``dims`` as Python ints, if each is a Python or numpy integer of at least 1."""
    dims = tuple(dims)
    if not dims or not all(
        isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1 for d in dims
    ):
        raise SchemaError(f"dims must be positive integers, got {dims!r}")
    return tuple(int(d) for d in dims)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing norm is reported below
def _require_unit(a: np.ndarray, labels: Sequence[str], party: int) -> None:
    """Raise SchemaError unless every row of the ``n x d`` complex128 array is a finite unit vector.

    A norm passes within DEFAULT_TOL of 1.  The error names the first bad
    row's state and the party.
    """
    for i, n in enumerate(_row_norms(a).tolist()):
        if not abs(n - 1.0) <= DEFAULT_TOL:
            at = f"state {labels[i]!r} party {party}"
            if not np.isfinite(a[i]).all():
                raise SchemaError(f"{at} has non-finite entries")
            raise SchemaError(f"{at} is not a unit vector: norm {n!r}")


# numpy dtype kinds that convert to complex128 as numbers: bool, integers, floats, complex
_NUMERIC = "biufc"


class ProductState(Record):
    """One labeled product state: one unit vector per party, each a 1-D complex array."""

    label: str
    locals: tuple[np.ndarray, ...]

    def __init__(self, label: str, locals: Sequence[np.ndarray]) -> None:
        if not isinstance(label, str) or not label:
            raise SchemaError("state label must be a non-empty string")
        locals = tuple(locals)
        if not locals:
            raise SchemaError(f"state {label!r} has no local vectors")
        d = self.__dict__
        d["label"], d["locals"] = label, locals


class Ensemble(Record, hidden=("party_arrays",)):
    """Ordered collection of product states over fixed local dimensions.

    Held as ``labels`` and :attr:`party_arrays`, one read-only ``n x d_p``
    array per party; ``states`` is a view built on first read.  Equality is
    identity, as each ensemble carries its own :meth:`memo`.  The constructor
    stacks each party's vectors into its array and requires every one to be
    a finite unit vector of the party's dimension.
    """

    name: str
    dims: tuple[int, ...]
    labels: tuple[str, ...]
    party_arrays: tuple[np.ndarray, ...]
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
                if np.shape(v) != (dims[p],):
                    raise SchemaError(
                        f"state {s.label!r} party {p} has shape {np.shape(v)}, "
                        f"expected ({dims[p]},)"
                    )
        labels = [s.label for s in states]
        arrays = []
        for p, d in enumerate(dims):
            a = np.array([s.locals[p] for s in states])
            if a.dtype.kind not in _NUMERIC:
                for s in states:
                    if np.asarray(s.locals[p]).dtype.kind not in _NUMERIC:
                        raise SchemaError(f"state {s.label!r} party {p} has non-numeric entries")
            a = a.astype(np.complex128).reshape(-1, d)
            _require_unit(a, labels, p)
            arrays.append(a)
        self._set(name, labels, arrays, complete)

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
        """The states in order, built on first read; their vectors are read-only row views."""
        rows = zip(*self.party_arrays)
        return tuple(ProductState(label, vs) for label, vs in zip(self.labels, rows))

    @property
    def parties(self) -> int:
        return len(self.dims)

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise NotFoundError(f"no state labeled {label!r} in ensemble {self.name!r}") from None

    def memo(self, key: tuple, build: Callable[[], T]) -> T:
        """The value of ``build()`` for ``key``, computed on the first call only.

        The one cache for what is derived from the frozen ensemble, keyed by
        kind first:

        - ``("bits", party, tol)``: the party's relativity graph as one int
          per state, bit j of row i the edge i-j;
        - ``("validate", tol)``: the :func:`validate` report;
        - ``("blocks", party, mask, tol)`` and ``("checked", party, mask,
          tol)``: the graph components and a split's pairwise-checked block
          spans of :mod:`loccdist.relativity`, with ``mask`` an int, bit i
          for state i.

        It dies with the ensemble.  A ``build`` that raises caches nothing.
        """
        cache: dict = self._memo  # type: ignore[attr-defined]
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = build()
        return value

    def cached(self, key: tuple) -> object | None:
        """The :meth:`memo` value for ``key`` if one was built, else None; it builds nothing."""
        return self._memo.get(key)  # type: ignore[attr-defined]


def _rounding_band(d: int) -> float:
    """``4 * (d + 4) * u`` with u = 2**-53: the rounding band of products of ``d``-entry unit rows.

    Two computations of the inner product of two unit vectors, or of a
    norm, that each lie within about ``sqrt(2) * (d + 2) * u`` of the exact
    value (Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 3.1) differ by less than this band, so a value outside it lies
    on the same side of a bound in both.
    """
    return 4 * (d + 4) * 2.0**-53


def _bit_rows(e: Ensemble, party: int, tol: float) -> tuple[int, ...]:
    """The party's relativity graph as one int per state: bit j of row i is edge i-j.

    States i != j are relative iff ``|<u_i|u_j>| > tol``; this is the one
    home of that rule.  Built once per ``(party, tol)`` in one pass over
    row blocks of the Gram matrix, each block packed straight into ints, and
    kept in :meth:`Ensemble.memo`.  An entry within :func:`_rounding_band`
    ``4 * (d + 4) * u`` of ``tol``, with d the party's dimension and
    u = 2**-53, is recomputed pairwise, earlier state first, so the rows are
    symmetric and each pair lies on the side of ``tol`` that ``np.vdot``
    puts it on.  That band is enough: the bulk product and ``np.vdot`` of
    two unit vectors each lie within about ``sqrt(2) * (d + 2) * u`` of the
    exact value (Higham, section 3.1), so they differ by less than
    ``3 * (d + 3) * u``, and outside the band both land on the same side of
    ``tol``.
    """

    def build() -> tuple[int, ...]:
        if not 0 <= party < e.parties:
            raise DimensionError(f"party {party} out of range for {e.parties} parties")
        n = len(e.labels)
        if n > MAX_GRAPH_STATES:
            raise TooLargeError(f"overlap graphs handle at most {MAX_GRAPH_STATES} states, got {n}")
        a = e.party_arrays[party]
        band = _rounding_band(a.shape[1])
        step = max(1, _BLOCK_ENTRIES // max(n, 1))
        rows: list[int] = []
        for i0 in range(0, n, step):
            i1 = min(i0 + step, n)
            mags = np.abs(a[i0:i1].conj() @ a.T)
            for k, j in zip(*np.nonzero(np.abs(mags - tol) <= band)):
                first, last = sorted((i0 + k, j))
                mags[k, j] = abs(complex(np.vdot(a[first], a[last])))
            edges = mags > tol
            edges[np.arange(i1 - i0), np.arange(i0, i1)] = False
            packed = np.packbits(edges, axis=1, bitorder="little")
            rows.extend(int.from_bytes(row, "little") for row in packed)
        return tuple(rows)

    return e.memo(("bits", party, float(tol)), build)


def _ones(mask: int) -> Iterator[int]:
    """The indices of the bits set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# validation


class ValidationReport(Record, eq=True):
    """Outcome of the structural checks on an ensemble.

    ``offending_pairs`` lists ``(label_a, label_b, magnitude)`` for each pair
    that overlaps at every party, earlier state first, in state order.  The
    magnitude is the pair's smallest per-party overlap ``min_p |<u_p|v_p>|``,
    the number the orthogonality rule compares with ``tol``.
    """

    pairwise_orthogonal: bool
    complete_count: bool
    offending_pairs: tuple[tuple[str, str, float], ...]

    def __init__(
        self,
        pairwise_orthogonal: bool,
        complete_count: bool,
        offending_pairs: tuple[tuple[str, str, float], ...],
    ) -> None:
        d = self.__dict__
        d["pairwise_orthogonal"], d["complete_count"] = pairwise_orthogonal, complete_count
        d["offending_pairs"] = offending_pairs


def validate(e: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check pairwise orthogonality of the product states and the state count.

    Two product states are orthogonal iff some party's overlap is at most
    ``tol``, the rule the overlap graphs use: a pair offends iff it is an
    edge of every party's bit rows.  The frozen report is made once per
    ``tol`` and kept in :meth:`Ensemble.memo`.
    """
    return e.memo(("validate", float(tol)), lambda: _validate(e, tol))


def _validate(e: Ensemble, tol: float) -> ValidationReport:
    bits = [_bit_rows(e, p, tol) for p in range(e.parties)]
    offending: list[tuple[str, str, float]] = []
    for i, row in enumerate(zip(*bits)):
        for j in _ones(functools.reduce(operator.and_, row) >> (i + 1) << (i + 1)):
            mag = min(abs(complex(np.vdot(a[i], a[j]))) for a in e.party_arrays)
            offending.append((e.labels[i], e.labels[j], mag))
    return ValidationReport(
        pairwise_orthogonal=not offending,
        complete_count=len(e.labels) == math.prod(e.dims),
        offending_pairs=tuple(offending),
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
    if not e.complete:  # a complete flag comes with prod(dims) states, as Ensemble requires
        raise InvalidModeError(f"ensemble {e.name!r} is not flagged complete")
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
    name = _text(data["name"], "ensemble name")
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
        label = _text(raw["label"], f"state {k} label")
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


def _text(value: object, what: str) -> str:
    """``value`` if it is a string that encodes as UTF-8 (no lone surrogate)."""
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"{what} is not valid Unicode: {value!r}") from None
    return value


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
    """Serialize to canonical JSON: phase-normalized vectors, 17 digit floats.

    Each party's rows are phase-normalized in one stacked pass by
    :func:`~loccdist.linalg._phase_fixed` and viewed as rows of ``[re, im]``
    pairs by one :func:`~loccdist.jsonio.complex_to_json`; every state's
    vectors are views of those rows.
    """
    # copies: _phase_fixed may turn rows in place, and party arrays are read-only
    rows = [complex_to_json(_phase_fixed(a.copy(), tol)) for a in e.party_arrays]
    states = [
        {"label": label, "vectors": list(vectors)} for label, vectors in zip(e.labels, zip(*rows))
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


def _plus_minus(dim: int, i: int, j: int, sign: int) -> np.ndarray:
    e = np.zeros(dim, dtype=np.complex128)
    e[i] = 1.0
    e[j] = float(sign)
    return normalize(e)


def _bennett9_parts() -> list[tuple[np.ndarray, np.ndarray]]:
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


def _grid16_parts() -> list[tuple[np.ndarray, np.ndarray]]:
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


def _psi(name: str, parts: list, complete: bool = True) -> Ensemble:
    """The states of ``parts``, one tuple of unit vectors each, labeled psi1, psi2, ..."""
    arrays = [np.array(vectors, np.complex128) for vectors in zip(*parts)]
    return _from_rows(name, [f"psi{i + 1}" for i in range(len(parts))], arrays, complete)


def _bennett9() -> Ensemble:
    return _psi("bennett9", _bennett9_parts())


def _grid16() -> Ensemble:
    return _psi("grid16", _grid16_parts())


def _cube64() -> Ensemble:
    parts = [(a, b, basis_vector(4, c)) for c in range(4) for a, b in _grid16_parts()]
    return _psi("cube64", parts)


def _finkelstein9() -> Ensemble:
    third = [
        basis_vector(2, 0),
        normalize(np.array([1.0, math.sqrt(3.0)]) / 2.0),
        normalize(np.array([1.0, -math.sqrt(3.0)]) / 2.0),
    ]
    parts = [(a, b, third[i // 3]) for i, (a, b) in enumerate(_bennett9_parts())]
    return _psi("finkelstein9", parts, complete=False)


def _comp2x2() -> Ensemble:
    eye = np.eye(2, dtype=np.complex128)
    labels = [f"s{i}{j}" for i in range(2) for j in range(2)]
    return _from_rows("comp2x2", labels, [eye[[0, 0, 1, 1]], eye[[0, 1, 0, 1]]], complete=True)


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
        if not np.isfinite(m).all():
            raise UnitarityError(f"party {p} matrix has non-finite entries")
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(e.dims[p]))))
        if dev > tol:
            raise UnitarityError(f"party {p} matrix deviates from unitarity by {dev:.3e}")
        mats.append(m)
    # np.matvec runs m @ v on every row, bit for bit
    arrays = [np.matvec(m, a) for m, a in zip(mats, e.party_arrays)]
    return _from_rows(e.name, e.labels, _normalized(arrays, tol), e.complete)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    Draws the real parts, then the imaginary parts, of a ``dim x dim``
    Gaussian matrix; :func:`_unitaries` on that one matrix.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be positive, got {dim}")
    return _unitaries(rng.standard_normal((1, 2, dim, dim)))[0]


def _unitaries(draws: np.ndarray) -> np.ndarray:
    """The ``c x m x m`` unitaries of ``c x 2 x m x m`` Gaussian draws, real parts first.

    Each is the Q of one QR, its columns turned so that R's diagonal is
    real positive.  One stacked ``np.linalg.qr`` runs LAPACK on each matrix
    as a call on that matrix alone would, and the rest is elementwise, so
    every unitary has the bits it would have on its own.
    """
    q, r = np.linalg.qr(draws[:, 0] + 1j * draws[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    q *= (d / np.abs(d))[:, None, :]
    return q


def _rotate_basis(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The ``k x d`` rows mixed by the ``k x k`` unitary ``u``, each normalized again."""
    mixed = np.ascontiguousarray(rows.T) @ u
    return normalize_rows(np.ascontiguousarray(mixed.T))


def _plan_splits(
    sizes: tuple[int, ...],
    rng: np.random.Generator,
    depth: int,
    draws: list[np.ndarray],
    drawn: list[int],
) -> tuple | None:
    """Pass one: the split tree over block sizes, every RNG draw taken in recursion order.

    A split is ``(p, picked, first, second)``, ``picked`` the party-``p``
    rows the first side keeps; None is a leaf.  A side draws its unitaries'
    Gaussian matrices, party ``p``'s first and then the others' in party
    order, in one ``standard_normal`` call, which gives the numbers of one
    call per matrix.  The calls go on ``draws`` and the matrix sizes, in
    the same order, on ``drawn``.
    """
    splittable = [p for p, k in enumerate(sizes) if k >= 2]
    if depth <= 0 or not splittable:
        return None
    p = splittable[int(rng.integers(len(splittable)))]
    k = sizes[p]
    if k <= 63:
        mask = int(rng.integers(1, 2**k - 1))
        picked = np.array([(mask >> i) & 1 for i in range(k)], dtype=bool)
    else:  # 2**k - 1 is past int64: k random bits, redrawn while all are equal
        picked = np.zeros(k, dtype=bool)
        while picked.all() or not picked.any():
            picked = rng.random(k) < 0.5
    kept = int(np.count_nonzero(picked))
    sides = []
    for m_p in (kept, k - kept):
        sub = sizes[:p] + (m_p,) + sizes[p + 1 :]
        ms = [m_p, *sub[:p], *sub[p + 1 :]]
        draws.append(rng.standard_normal(2 * sum(m * m for m in ms)))
        drawn.extend(ms)
        sides.append(_plan_splits(sub, rng, depth - 1, draws, drawn))
    return (p, picked, *sides)


def _unitaries_by_size(draws: list[np.ndarray], drawn: list[int]) -> dict:
    """Pass two: per matrix size, an iterator over its unitaries in draw order.

    The :func:`_plan_splits` draws are joined into one array, from which
    each size's matrices are gathered and made unitary by one stacked QR.
    ``draws`` is emptied once joined, so no number is held twice after.
    """
    flat = np.concatenate(draws) if draws else np.empty(0)
    draws.clear()
    starts: dict[int, list[int]] = {}
    at = 0
    for m in drawn:
        starts.setdefault(m, []).append(at)
        at += 2 * m * m
    units = {}
    for m, first in starts.items():
        gaussians = flat[np.array(first)[:, None] + np.arange(2 * m * m)]
        units[m] = iter(_unitaries(gaussians.reshape(-1, 2, m, m)))
    return units


def _apply_splits(
    bases: list[np.ndarray], plan: tuple | None, units: dict, out: list[np.ndarray], at: int
) -> int:
    """Pass three: the product states of ``plan``, written to the rows of ``out`` from ``at`` on.

    ``out`` holds one array per party.  Each side takes its unitaries from
    ``units``, the iterators of :func:`_unitaries_by_size`, in the order
    :func:`_plan_splits` drew them.  Returns the row after the last one written.
    """
    if plan is None:
        index = np.indices([len(b) for b in bases]).reshape(len(bases), -1)
        # the indices are in range; "clip" writes straight into out, where
        # the default mode first takes a copy
        for o, b, i in zip(out, bases, index):
            np.take(b, i, axis=0, out=o[at : at + len(i)], mode="clip")
        return at + index.shape[1]
    p, picked, *children = plan
    order = [p, *(q for q in range(len(bases)) if q != p)]
    for group, child in zip((picked, ~picked), children):
        sub = [b[group] if q == p else b for q, b in enumerate(bases)]
        for q in order:
            sub[q] = _rotate_basis(sub[q], next(units[len(sub[q])]))
        at = _apply_splits(sub, child, units, out, at)
    return at


def random_product_basis(dims: tuple[int, ...], seed: int, depth: int = 3) -> Ensemble:
    """Seeded complete orthogonal product basis with recursive block structure.

    Starting from the computational basis, ``depth`` rounds of splitting pick
    a party, cut its current block into two orthogonal sub-blocks mixed by
    independent random unitaries, and give each side fresh random rotations
    on the other parties.  Orthogonality across sides is carried by the
    chosen party alone, so the result is always a valid complete basis.
    Depth 0 reproduces the computational product basis exactly.

    It runs in three passes: :func:`_plan_splits` walks the splits on block
    sizes alone, :func:`_unitaries_by_size` makes every unitary of one size in
    one stacked QR, and :func:`_apply_splits` rotates the rows along the
    walk.  The draws follow the order of the recursive definition, side by
    side and party by party, so every seed keeps its basis bit for bit.
    """
    dims = _positive_dims(dims)
    draws: list[np.ndarray] = []
    drawn: list[int] = []
    plan = _plan_splits(dims, np.random.default_rng(seed), depth, draws, drawn)
    units = _unitaries_by_size(draws, drawn)
    n = math.prod(dims)
    arrays = [np.empty((n, d), np.complex128) for d in dims]
    _apply_splits([np.eye(d, dtype=np.complex128) for d in dims], plan, units, arrays, 0)
    labels = [f"s{i + 1}" for i in range(n)]
    shape = "x".join(str(d) for d in dims)
    return _from_rows(f"random-{shape}-seed{seed}-depth{depth}", labels, arrays, True)
