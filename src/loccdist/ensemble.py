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
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionError,
    InvalidModeError,
    NotFoundError,
    SchemaError,
    TooLargeError,
    UnitarityError,
)
from .jsonio import canonical_dumps, complex_from_json, complex_to_json, parse_json
from .linalg import (
    DEFAULT_TOL,
    LocalVector,
    basis_vector,
    inner_product,
    normalize,
    phase_normalize,
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
    "product_overlap",
    "random_product_basis",
    "random_unitary",
    "validate",
]

MAX_GRAPH_STATES = 8192
"""Largest state count whose per-party adjacency :meth:`Ensemble.adjacency` builds.

Each party's adjacency is an ``n x n`` boolean array, n² bytes: 64 MiB per
party at the cap, 16 MiB at n = 4096.  Larger ensembles raise
:class:`~loccdist.errors.TooLargeError` before anything is allocated.
"""

# Complex entries per row block of a Gram matrix (4 MiB), so that no n x n
# complex array is ever held whole.
_BLOCK_ENTRIES = 1 << 18

# Bulk products sum in another order than a pairwise np.vdot, which moves a
# magnitude by a few ulps per party dimension.  Entries this close to tol are
# recomputed pairwise, so every pair lands on the side of tol that the
# pairwise inner product puts it on.
_ROUNDING = 1e-12


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


@dataclass(frozen=True)
class Ensemble:
    """Ordered collection of product states over fixed local dimensions."""

    name: str
    dims: tuple[int, ...]
    states: tuple[ProductState, ...]
    complete: bool

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise SchemaError(f"dims must be positive integers, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "states", tuple(self.states))
        seen: dict[str, int] = {}
        for i, s in enumerate(self.states):
            if s.label in seen:
                raise SchemaError(f"duplicate state label {s.label!r}")
            seen[s.label] = i
            if len(s.locals) != len(dims):
                raise SchemaError(
                    f"state {s.label!r} has {len(s.locals)} local vectors, expected {len(dims)}"
                )
            for p, v in enumerate(s.locals):
                if v.dim != dims[p]:
                    raise SchemaError(
                        f"state {s.label!r} party {p} has dim {v.dim}, expected {dims[p]}"
                    )
        if self.complete and len(self.states) != math.prod(dims):
            raise SchemaError(
                f"complete ensemble over dims {dims} needs {math.prod(dims)} states, "
                f"got {len(self.states)}"
            )
        object.__setattr__(self, "_index", seen)
        object.__setattr__(self, "_adjacency", {})

    @property
    def parties(self) -> int:
        return len(self.dims)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """State labels in state order."""
        return tuple(s.label for s in self.states)

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

    @functools.cached_property
    def party_arrays(self) -> tuple[np.ndarray, ...]:
        """One read-only ``n x d_p`` complex array per party, rows in state order."""
        out = []
        for p, d in enumerate(self.dims):
            a = np.empty((len(self.states), d), dtype=np.complex128)
            for i, s in enumerate(self.states):
                a[i] = s.locals[p].entries
            a.setflags(write=False)
            out.append(a)
        return tuple(out)

    def adjacency(self, party: int, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Read-only ``n x n`` boolean array: states i != j are relative at ``party``.

        Relative means ``|<u_i|u_j>| > tol`` for the party's vectors.  Built
        once per ``(party, tol)`` in row blocks and cached; the ensemble is
        frozen, so the cache never goes stale.
        """
        if not 0 <= party < self.parties:
            raise DimensionError(f"party {party} out of range for {self.parties} parties")
        cache: dict = self._adjacency  # type: ignore[attr-defined]
        key = (party, float(tol))
        if key not in cache:
            n = len(self.states)
            if n > MAX_GRAPH_STATES:
                raise TooLargeError(
                    f"overlap graphs handle at most {MAX_GRAPH_STATES} states, got {n}"
                )
            adj = np.zeros((n, n), dtype=bool)
            for i0, mags in _overlap_rows(self, (party,), tol):
                adj[i0 : i0 + len(mags), i0:] = np.triu(mags > tol, 1)
            adj |= adj.T
            adj.setflags(write=False)
            cache[key] = adj
        return cache[key]


def product_overlap(a: ProductState, b: ProductState) -> complex:
    """Full inner product <a|b>, the product of the per-party inner products."""
    if len(a.locals) != len(b.locals):
        raise DimensionError("states have different party counts")
    out = 1.0 + 0.0j
    for u, v in zip(a.locals, b.locals):
        out *= inner_product(u, v)
    return out


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on an ensemble."""

    pairwise_orthogonal: bool
    complete_count: bool
    offending_pairs: tuple[tuple[str, str, float], ...]
    claimed_complete: bool

    @property
    def passed(self) -> bool:
        """Orthogonality holds and, if completeness was claimed, the count matches."""
        return self.pairwise_orthogonal and (self.complete_count or not self.claimed_complete)


def _overlap_rows(
    e: Ensemble, parties: Sequence[int], tol: float
) -> Iterator[tuple[int, np.ndarray]]:
    """Row blocks of the upper triangle of ``|<s_i|s_j>|`` over ``parties``.

    Yields ``(i0, mags)`` where ``mags[k, c]`` is the magnitude for states
    ``i0 + k`` and ``i0 + c``; only entries with ``c > k`` are meaningful.
    Entries within rounding of ``tol`` are recomputed as the pairwise
    product of inner products, earlier state first.
    """
    arrays = [e.party_arrays[p] for p in parties]
    n = len(e.states)
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        mags = np.ones((i1 - i0, n - i0))
        for a in arrays:
            mags *= np.abs(a[i0:i1].conj() @ a[i0:].T)
        near = np.triu(np.abs(mags - tol) <= _ROUNDING, 1)
        for k, c in zip(*np.nonzero(near)):
            z = 1.0 + 0.0j
            for a in arrays:
                z *= complex(np.vdot(a[i0 + k], a[i0 + c]))
            mags[k, c] = abs(z)
        yield i0, mags


def validate(e: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check pairwise orthogonality of the product states and the state count."""
    offending: list[tuple[str, str, float]] = []
    for i0, mags in _overlap_rows(e, range(e.parties), tol):
        for k, c in zip(*np.nonzero(np.triu(mags > tol, 1))):
            a, b = e.states[i0 + k], e.states[i0 + c]
            offending.append((a.label, b.label, float(mags[k, c])))
    return ValidationReport(
        pairwise_orthogonal=not offending,
        complete_count=len(e.states) == math.prod(e.dims),
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
            f"ensemble {e.name!r} has {len(e.states)} states but dims {e.dims} "
            f"require {math.prod(e.dims)}"
        )
    return report


# ---------------------------------------------------------------------------
# file format


def parse_ensemble(text: str, tol: float = DEFAULT_TOL) -> Ensemble:
    """Parse the ensemble JSON format, normalizing every vector on load."""
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
    states = []
    for k, raw in enumerate(raw_states):
        if not isinstance(raw, dict) or "label" not in raw or "vectors" not in raw:
            raise SchemaError(f"state {k} must be an object with 'label' and 'vectors'")
        label = raw["label"]
        if not isinstance(label, str):
            raise SchemaError(f"state {k} label must be a string")
        vectors = raw["vectors"]
        if not isinstance(vectors, list) or len(vectors) != len(dims):
            raise SchemaError(f"state {label!r} needs one vector per party ({len(dims)})")
        locals_ = []
        for p, vec in enumerate(vectors):
            if not isinstance(vec, list) or len(vec) != dims[p]:
                raise SchemaError(
                    f"state {label!r} party {p} needs {dims[p]} entries"
                )
            locals_.append(normalize(complex_from_json(vec, f"state {label!r} party {p}"), tol))
        states.append(ProductState(label, tuple(locals_)))
    return Ensemble(name=name, dims=tuple(dims), states=tuple(states), complete=data["complete"])


def emit_ensemble(e: Ensemble, tol: float = DEFAULT_TOL) -> str:
    """Serialize to canonical JSON: phase-normalized vectors, 17 digit floats."""
    states = [
        {
            "label": s.label,
            "vectors": [complex_to_json(phase_normalize(v, tol).entries) for v in s.locals],
        }
        for s in e.states
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


def _bennett9() -> Ensemble:
    states = tuple(
        ProductState(f"psi{i + 1}", (a, b)) for i, (a, b) in enumerate(_bennett9_parts())
    )
    return Ensemble("bennett9", (3, 3), states, complete=True)


def _grid16() -> Ensemble:
    states = tuple(
        ProductState(f"psi{i + 1}", (a, b)) for i, (a, b) in enumerate(_grid16_parts())
    )
    return Ensemble("grid16", (4, 4), states, complete=True)


def _cube64() -> Ensemble:
    ab = _grid16_parts()
    states = []
    for c in range(4):
        for i, (a, b) in enumerate(ab):
            states.append(ProductState(f"psi{c * 16 + i + 1}", (a, b, basis_vector(4, c))))
    return Ensemble("cube64", (4, 4, 4), states=tuple(states), complete=True)


def _finkelstein9() -> Ensemble:
    ab = _bennett9_parts()
    third = [
        basis_vector(2, 0),
        normalize(np.array([1.0, math.sqrt(3.0)]) / 2.0),
        normalize(np.array([1.0, -math.sqrt(3.0)]) / 2.0),
    ]
    states = tuple(
        ProductState(f"psi{i + 1}", (a, b, third[i // 3])) for i, (a, b) in enumerate(ab)
    )
    return Ensemble("finkelstein9", (3, 3, 2), states, complete=False)


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
    states = tuple(
        ProductState(
            s.label,
            tuple(normalize(mats[p] @ s.locals[p].entries, tol) for p in range(e.parties)),
        )
        for s in e.states
    )
    return Ensemble(e.name, e.dims, states, e.complete)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise DimensionError(f"dimension must be positive, got {dim}")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _product_states(bases: tuple[tuple[LocalVector, ...], ...]) -> list[tuple[LocalVector, ...]]:
    out = []
    for combo in itertools.product(*[range(len(b)) for b in bases]):
        out.append(tuple(bases[p][i] for p, i in enumerate(combo)))
    return out


def _rotate_basis(basis: tuple[LocalVector, ...], rng: np.random.Generator) -> tuple[LocalVector, ...]:
    cols = np.column_stack([v.entries for v in basis])
    mixed = cols @ random_unitary(len(basis), rng)
    return tuple(normalize(mixed[:, j]) for j in range(len(basis)))


def _split_basis(
    bases: tuple[tuple[LocalVector, ...], ...], rng: np.random.Generator, depth: int
) -> list[tuple[LocalVector, ...]]:
    splittable = [p for p, b in enumerate(bases) if len(b) >= 2]
    if depth <= 0 or not splittable:
        return _product_states(bases)
    p = splittable[int(rng.integers(len(splittable)))]
    k = len(bases[p])
    mask = int(rng.integers(1, 2**k - 1))
    groups = (
        tuple(bases[p][i] for i in range(k) if (mask >> i) & 1),
        tuple(bases[p][i] for i in range(k) if not (mask >> i) & 1),
    )
    states: list[tuple[LocalVector, ...]] = []
    for group in groups:
        sub = list(bases)
        sub[p] = _rotate_basis(group, rng)
        for q in range(len(bases)):
            if q != p:
                sub[q] = _rotate_basis(bases[q], rng)
        states.extend(_split_basis(tuple(sub), rng, depth - 1))
    return states


def random_product_basis(dims: tuple[int, ...], seed: int, depth: int = 3) -> Ensemble:
    """Seeded complete orthogonal product basis with recursive block structure.

    Starting from the computational basis, ``depth`` rounds of splitting pick
    a party, cut its current block into two orthogonal sub-blocks mixed by
    independent random unitaries, and give each side fresh random rotations
    on the other parties.  Orthogonality across sides is carried by the
    chosen party alone, so the result is always a valid complete basis.
    Depth 0 reproduces the computational product basis exactly.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise SchemaError(f"dims must be positive integers, got {dims!r}")
    rng = np.random.default_rng(seed)
    bases = tuple(tuple(basis_vector(d, i) for i in range(d)) for d in dims)
    combos = _split_basis(bases, rng, depth)
    states = tuple(
        ProductState(f"s{i + 1}", locals_) for i, locals_ in enumerate(combos)
    )
    shape = "x".join(str(d) for d in dims)
    return Ensemble(f"random-{shape}-seed{seed}-depth{depth}", dims, states, complete=True)
