"""Tolerance-aware complex linear algebra on small dense vectors and matrices.

A single tolerance convention governs the whole package: two vectors are
orthogonal iff the magnitude of their inner product is at most ``tol``, and
the default ``tol`` is :data:`DEFAULT_TOL`.  :func:`inner_product` is that
predicate for one pair.  Bulk overlaps (validation and the per-party
relativity graphs) come from row-blocked Gram products over the stacked
party arrays in :mod:`loccdist.ensemble`, which recompute any magnitude
within rounding of ``tol`` with the pairwise formula, so both routes agree
on every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, SchemaError, ZeroVectorError
from .jsonio import complex_from_json, complex_to_json

__all__ = [
    "DEFAULT_TOL",
    "LocalVector",
    "SVDResult",
    "basis_vector",
    "emit_matrix",
    "gram_schmidt",
    "inner_product",
    "is_orthogonal",
    "normalize",
    "parse_matrix",
    "phase_normalize",
    "projector_matrix",
    "rank",
    "svd_decompose",
]

DEFAULT_TOL = 1e-9


def _as_vector_entries(raw: object) -> np.ndarray:
    """Coerce raw input to a finite 1-D complex128 array."""
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError("vector must have at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def _as_matrix_entries(raw: object) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError("matrix must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class LocalVector:
    """Unit-norm state vector of a single party.

    The entries array is copied on construction and frozen; instances are
    immutable and safe to share.  Construction rejects anything that is not
    a finite unit-norm 1-D complex vector, so raw (unnormalized) data must
    go through :func:`normalize` first.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_vector_entries(self.entries).copy()
        n = float(np.linalg.norm(arr))
        if abs(n - 1.0) > DEFAULT_TOL:
            raise ValueError(f"LocalVector requires unit norm, got {n!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalVector):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.entries, other.entries))

    def __hash__(self) -> int:
        return hash(self.entries.tobytes())

    def __repr__(self) -> str:
        body = ", ".join(format(z, ".6g") for z in self.entries)
        return f"LocalVector([{body}])"


def basis_vector(dim: int, index: int) -> LocalVector:
    """Computational basis vector |index> in a dim-dimensional space."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dimension {dim}")
    e = np.zeros(dim, dtype=np.complex128)
    e[index] = 1.0
    return LocalVector(e)


def inner_product(u: LocalVector, v: LocalVector) -> complex:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot."""
    if u.dim != v.dim:
        raise DimensionError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.entries, v.entries))


def is_orthogonal(u: LocalVector, v: LocalVector, tol: float = DEFAULT_TOL) -> bool:
    """The single orthogonality predicate used everywhere in the package."""
    return abs(inner_product(u, v)) <= tol


# An overflowing squared norm is reported as SchemaError, not as numpy's
# RuntimeWarning.  The decorator costs less per call than a with-block.
@np.errstate(over="ignore", invalid="ignore")
def normalize(raw: object, tol: float = DEFAULT_TOL) -> LocalVector:
    """Scale raw entries to unit norm, preserving the global phase.

    Entries whose norm is already 1 up to a few ulps are kept verbatim, so
    reloading serialized unit vectors reproduces them bit for bit.  Finite
    entries whose squared norm overflows raise SchemaError.
    """
    arr = _as_vector_entries(raw)
    n = float(np.linalg.norm(arr))
    if not math.isfinite(n):
        raise SchemaError("cannot normalize a vector whose squared norm overflows a double")
    if n <= tol:
        raise ZeroVectorError(f"cannot normalize a vector of norm {n!r}")
    if abs(n - 1.0) <= 64.0 * np.finfo(np.float64).eps:
        return LocalVector(arr)
    return LocalVector(arr / n)


def phase_normalize(v: LocalVector, tol: float = DEFAULT_TOL) -> LocalVector:
    """Rotate the global phase so the first entry above tol is real positive."""
    for entry in v.entries:
        mag = abs(entry)
        if mag > tol:
            if entry.imag == 0.0 and entry.real > 0.0:
                return v
            return LocalVector(v.entries * (entry.conjugate() / mag))
    return v


def gram_schmidt(vectors: Iterable[LocalVector], tol: float = DEFAULT_TOL) -> tuple[LocalVector, ...]:
    """Orthonormalize in input order, dropping residuals of norm at most tol.

    A second projection pass keeps the output orthonormal well below tol even
    for nearly dependent inputs.  Outputs are phase-normalized.
    """
    basis: list[np.ndarray] = []
    dim: int | None = None
    for v in vectors:
        if dim is None:
            dim = v.dim
        elif v.dim != dim:
            raise DimensionError(f"mixed dimensions in gram_schmidt: {dim} vs {v.dim}")
        w = v.entries.astype(np.complex128)
        for _ in range(2):
            for b in basis:
                w = w - np.vdot(b, w) * b
        n = float(np.linalg.norm(w))
        if n > tol:
            basis.append(w / n)
    return tuple(phase_normalize(LocalVector(b), tol) for b in basis)


def rank(vectors: Iterable[LocalVector], tol: float = DEFAULT_TOL) -> int:
    """Dimension of the span of the given vectors, within tol."""
    return len(gram_schmidt(vectors, tol))


def projector_matrix(basis: Sequence[LocalVector]) -> np.ndarray:
    """Sum of |b><b| over an orthonormal family (orthonormality not rechecked)."""
    if not basis:
        raise DimensionError("projector needs at least one basis vector")
    dim = basis[0].dim
    p = np.zeros((dim, dim), dtype=np.complex128)
    for b in basis:
        if b.dim != dim:
            raise DimensionError(f"mixed dimensions in projector: {dim} vs {b.dim}")
        p += np.outer(b.entries, b.entries.conj())
    return p


@dataclass(frozen=True)
class SVDResult:
    """Singular value decomposition A = sum_j sigmas[j] |left_j><right_j|."""

    sigmas: tuple[float, ...]
    left: tuple[LocalVector, ...]
    right: tuple[LocalVector, ...]
    rank: int

    def reconstruct(self) -> np.ndarray:
        rows = self.left[0].dim
        cols = self.right[0].dim
        a = np.zeros((rows, cols), dtype=np.complex128)
        for s, l, r in zip(self.sigmas, self.left, self.right):
            a += s * np.outer(l.entries, r.entries.conj())
        return a


def _lex_key(v: LocalVector) -> tuple[float, ...]:
    flat: list[float] = []
    for z in v.entries:
        flat.append(z.real)
        flat.append(z.imag)
    return tuple(flat)


def svd_decompose(a: object, tol: float = DEFAULT_TOL) -> SVDResult:
    """Deterministic compact SVD of a rectangular complex matrix.

    Singular values come out descending; within a run of values equal up to
    tol the triples are ordered by descending lexicographic key of the
    phase-normalized right vectors, so mathematically equal inputs produce
    identically ordered output.  A finite matrix whose singular values
    overflow a double raises SchemaError.
    """
    arr = _as_matrix_entries(a)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    if not np.isfinite(s).all():
        raise SchemaError("matrix singular values overflow a double")
    triples: list[tuple[float, LocalVector, LocalVector]] = []
    for j in range(s.shape[0]):
        left_raw = u[:, j]
        right_raw = vh[j].conj()
        # Phases move in lockstep: multiplying both by the same factor keeps
        # sigma |l><r| invariant while pinning the right vector's convention.
        phase = 1.0 + 0.0j
        for entry in right_raw:
            mag = abs(entry)
            if mag > tol:
                phase = entry.conjugate() / mag
                break
        triples.append(
            (
                float(s[j]),
                LocalVector(left_raw * phase),
                LocalVector(right_raw * phase),
            )
        )
    # Stable within groups of equal sigmas.
    ordered: list[tuple[float, LocalVector, LocalVector]] = []
    i = 0
    while i < len(triples):
        j = i + 1
        while j < len(triples) and triples[j - 1][0] - triples[j][0] <= tol:
            j += 1
        group = sorted(triples[i:j], key=lambda t: _lex_key(t[2]), reverse=True)
        ordered.extend(group)
        i = j
    sigmas = tuple(t[0] for t in ordered)
    return SVDResult(
        sigmas=sigmas,
        left=tuple(t[1] for t in ordered),
        right=tuple(t[2] for t in ordered),
        rank=sum(1 for s_j in sigmas if s_j > tol),
    )


# ---------------------------------------------------------------------------
# matrix file format


def parse_matrix(data: object) -> np.ndarray:
    """Build a complex matrix from {"rows", "cols", "entries"} row-major data."""
    if not isinstance(data, dict):
        raise SchemaError("matrix must be a JSON object")
    try:
        rows = data["rows"]
        cols = data["cols"]
        entries = data["entries"]
    except KeyError as exc:
        raise SchemaError(f"matrix is missing key {exc.args[0]!r}") from None
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise SchemaError("matrix rows/cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise SchemaError(f"matrix needs exactly {rows * cols} entries")
    return complex_from_json(entries, "matrix").reshape(rows, cols)


def emit_matrix(arr: np.ndarray) -> dict:
    """Serialize a complex matrix to the {"rows", "cols", "entries"} layout."""
    a = _as_matrix_entries(arr)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": complex_to_json(a),
    }
