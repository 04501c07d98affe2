"""Tolerance-aware complex linear algebra on small dense vectors and matrices.

A single tolerance convention governs the whole package: two local vectors
are orthogonal iff the magnitude of their inner product is at most ``tol``
(default :data:`DEFAULT_TOL`), and two product states are orthogonal iff
some party's local vectors are.  The package applies that rule in one place,
``loccdist.ensemble._bit_rows``, whose per-party bit rows both validation and
the relativity graphs read.

Every vector the package takes or returns is a read-only 1-D complex128
array, and every family of vectors one read-only ``k x d`` array, one vector
per row; each vector rule exists once, on rows.  :func:`_entries` is the one
check of a raw array passed in: a wrong or empty shape is a DimensionError,
a non-finite entry a SchemaError.  Every product of one row with one
vector or matrix runs on all rows at once through numpy's row gufuncs,
which give each row the bits of the one-vector call: ``np.vecdot(b, w)``
is ``np.vdot(b, w)`` per row, ``np.vecdot`` of real rows their ``dot``,
and ``np.matvec(m, w)`` is ``m @ w`` per row.  :func:`normalize_rows` is
the one normalize: it takes the norms as stacked real dot products, as
``np.linalg.norm`` takes one, and :func:`normalize` is its one-row case.
:func:`_residual` is the one residual step, two ``np.vdot`` projection
passes and the norm ``sqrt(re.re + im.im)``; the relativity chains use it
as their independence test.  :func:`_phase_turns` is the one phase rule,
on stacked rows: it turns each row so that its first entry above tol is
real positive, and :func:`_phase_fixed` applies it.  :func:`span_basis` is
the one span kernel: :func:`_residual`'s arithmetic on stacked rows, then
:func:`_phase_fixed` on the whole basis; :func:`svd_decompose` turns each
singular pair by its right vector's factor.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import DimensionError, SchemaError, ZeroVectorError
from .jsonio import complex_from_json, complex_to_json
from .records import Record

__all__ = [
    "DEFAULT_TOL",
    "SVDResult",
    "basis_vector",
    "emit_matrix",
    "normalize",
    "normalize_rows",
    "parse_matrix",
    "projectors",
    "span_basis",
    "svd_decompose",
]

DEFAULT_TOL = 1e-9


def _entries(raw: object, ndim: int) -> np.ndarray:
    """Raw input as a complex128 array of ``ndim`` non-empty axes and finite entries.

    The one check of arrays a caller passes in: a wrong or empty shape
    raises DimensionError, a non-finite entry SchemaError.  The array may
    share memory with ``raw``.
    """
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != ndim or 0 in arr.shape:
        raise DimensionError(f"expected a non-empty {ndim}-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise SchemaError(f"{ndim}-D array entries must be finite")
    return arr


def basis_vector(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in a dim-dimensional space, read-only."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dimension {dim}")
    e = np.zeros(dim, dtype=np.complex128)
    e[index] = 1.0
    e.setflags(write=False)
    return e


# A norm this close to 1 is kept: the row is already a unit vector, and
# dividing by its norm would only move its last bits.
_UNIT_SLACK = 64.0 * np.finfo(np.float64).eps


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a ``k x d`` complex array.

    Each squared norm is ``re.re + im.im`` as two real dot products, the
    arithmetic of ``np.linalg.norm`` on one vector, bit for bit: ``np.vecdot``
    runs that dot on every row of the strided views ``a.real`` and ``a.imag``.
    """
    re, im = a.real, a.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


# An overflowing squared norm is reported as SchemaError, not as numpy's
# RuntimeWarning.  The decorator costs less per call than a with-block.
@np.errstate(over="ignore", invalid="ignore")
def normalize_rows(
    a: np.ndarray,
    tol: float = DEFAULT_TOL,
    norms: np.ndarray | None = None,
    where: Callable[[int], str] | None = None,
) -> np.ndarray:
    """Scale every row of a finite ``k x d`` complex array to unit norm, in place.

    Rows whose norm is already 1 up to a few ulps are kept verbatim, so
    reloading serialized unit vectors reproduces them bit for bit.  A row
    whose squared norm overflows is measured again after dividing it by its
    largest magnitude; the first row whose norm still overflows raises
    SchemaError, and the first whose norm is at most ``tol`` raises
    ZeroVectorError, its message led by ``where(i)`` for row i if given.
    Returns ``a``; ``norms`` are its :func:`_row_norms`, if taken.
    """
    norms = _row_norms(a) if norms is None else norms
    listed = norms.tolist()
    if math.inf in listed:
        huge = np.isinf(norms)
        big = np.abs(a[huge]).max(axis=1)
        norms[huge] = big * _row_norms(a[huge] / big[:, None])
        listed = norms.tolist()
    for i, n in enumerate(listed):
        if not tol < n < math.inf:
            at = f"{where(i)}: " if where else ""
            if math.isfinite(n):
                raise ZeroVectorError(f"{at}cannot normalize a vector of norm {n!r}")
            raise SchemaError(f"{at}cannot normalize a vector whose squared norm overflows a double")
    scale = [abs(n - 1.0) > _UNIT_SLACK for n in listed]
    if all(scale):
        np.divide(a, norms[:, None], out=a)
    elif any(scale):
        np.divide(a, norms[:, None], out=a, where=np.array(scale)[:, None])
    return a


def normalize(raw: object, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Raw entries scaled to unit norm, global phase kept, as a read-only 1-D array.

    :func:`normalize_rows` on the one row: entries whose norm is already 1
    up to a few ulps are kept verbatim, and a squared norm that overflows
    is rescaled as there.
    """
    v = normalize_rows(_entries(raw, 1)[None, :].copy(), tol)[0]
    v.setflags(write=False)
    return v


def _phase_turns(u: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a ``k x d`` array that the phase rule turns, and the unit factor of each.

    The phase rule turns a row's global phase so that its first entry above
    tol is real positive.  A row turns when that entry is not real positive
    already; a row with no entry above tol keeps its phase.  The factor is
    the entry's conjugate over its magnitude: ``np.hypot`` is the ``abs``
    of a complex scalar, and with the lead entry above tol, ``entry == mag``
    iff it is real positive.  Zero padding past a row's vector is never the
    lead.  Only the rows that turn are divided.
    """
    mags = np.hypot(u.real, u.imag)
    k = np.arange(len(u))
    lead = (mags > tol).argmax(axis=1)
    entry, mag = u[k, lead], mags[k, lead]
    turn = ((mag > tol) & (entry != mag)).nonzero()[0]
    return turn, entry[turn].conj() / mag[turn]


def _phase_fixed(u: np.ndarray, tol: float) -> np.ndarray:
    """Every row of a ``k x d`` array turned by the phase rule of :func:`_phase_turns`.

    Returns a new array when every row turns and ``u`` itself when none
    does; otherwise the turned rows are written into ``u``, which must then
    be writable.
    """
    turn, factor = _phase_turns(u, tol)
    if len(turn) == len(u):
        return u * factor[:, None]
    if len(turn):
        u[turn] = u[turn] * factor[:, None]
    return u


def _residual(w: np.ndarray, basis: list[np.ndarray], tol: float) -> np.ndarray | None:
    """``w`` projected off an orthonormal basis and scaled to unit norm, or None.

    None when the projected norm is at most tol.  Two projection passes keep
    the result orthogonal to the basis well below tol even for a nearly
    dependent ``w``.  The norm is ``sqrt(re.re + im.im)``, the arithmetic of
    ``np.linalg.norm``.
    """
    for b in basis * 2:
        w = w - np.vdot(b, w) * b
    re, im = w.real, w.imag
    n = math.sqrt(re.dot(re) + im.dot(im))
    return w / n if n > tol else None


def span_basis(rows: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize the rows of a ``k x d`` complex array in order.

    Each row's :func:`_residual` against the basis so far joins the basis
    when its norm exceeds tol.  The basis comes back phase-fixed by
    :func:`_phase_fixed`, as the rows of a read-only ``r x d`` array.

    Both passes run on stacked rows.  The rows not yet taken hold their
    first pass, extended on all of them as each vector joins.  A round runs
    the second pass on the first ``size`` of them, twice the rows the last
    round took: the first above tol joins, the rows before it are dropped.
    ``np.vecdot(b, w)``, which conjugates ``b``, is ``np.vdot(b, w)`` on each
    row bit for bit and the rest is elementwise, so every row gets
    :func:`_residual`'s arithmetic.
    """
    basis: list[np.ndarray] = []
    pending, size = rows, 1
    while len(pending):
        chunk = pending[:size]
        for b in basis:
            chunk = chunk - np.vecdot(b, chunk)[:, None] * b
        norms = _row_norms(chunk).tolist()
        j = next((i for i, n in enumerate(norms) if n > tol), None)
        if j is None:
            pending, size = pending[size:], 2 * size
            continue
        basis.append(chunk[j] / norms[j])
        pending, size = pending[j + 1 :], 2 * (j + 1)
        pending = pending - np.vecdot(basis[-1], pending)[:, None] * basis[-1]
    fixed = _phase_fixed(np.array(basis, np.complex128).reshape(-1, rows.shape[1]), tol)
    fixed.setflags(write=False)
    return fixed


def projectors(rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Projectors onto consecutive orthonormal families of rows, as a read-only ``m x d x d`` stack.

    Family j is the next ``sizes[j]`` rows of the ``k x d`` array (not
    rechecked).  Each projector adds its ``|b><b|`` to zero in row order, as
    a loop over rows would, and every family's i-th ``|b><b|`` comes from
    one broadcast.  Adding the first to zero only turns -0.0 into 0.0.
    """
    if not len(sizes) or min(sizes) < 1:
        raise DimensionError("projector needs at least one basis vector")
    counts = np.asarray(sizes)
    starts = np.cumsum(counts) - counts
    b = rows[starts]
    p = b[:, :, None] * b.conj()[:, None, :]
    p += 0.0
    for i in range(1, counts.max()):
        have = np.flatnonzero(counts > i)
        b = rows[starts[have] + i]
        p[have] += b[:, :, None] * b.conj()[:, None, :]
    p.setflags(write=False)
    return p


class SVDResult(Record):
    """Singular value decomposition A = sum_j sigmas[j] |left_j><right_j|.

    ``left`` and ``right`` are read-only ``r x rows`` and ``r x cols``
    arrays, row j holding the j-th singular vector.
    """

    sigmas: tuple[float, ...]
    left: np.ndarray
    right: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        return (self.left.T * np.array(self.sigmas)) @ self.right.conj()


def svd_decompose(a: object, tol: float = DEFAULT_TOL) -> SVDResult:
    """Deterministic compact SVD of a rectangular complex matrix.

    Singular values come out descending; within a run of values equal up to
    tol the triples are ordered by descending lexicographic key (real and
    imaginary parts in entry order) of the phase-normalized right vectors,
    so mathematically equal inputs produce identically ordered output.  A
    finite matrix whose singular values overflow a double raises SchemaError.
    """
    arr = _entries(a, 2)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    if not np.isfinite(s).all():
        raise SchemaError("matrix singular values overflow a double")
    left, right = u.T.copy(), vh.conj()
    # Phases move in lockstep: multiplying both by the same factor keeps
    # sigma |l><r| invariant while pinning the right vector's convention.
    turn, factor = _phase_turns(right, tol)
    left[turn] *= factor[:, None]
    right[turn] *= factor[:, None]
    # Stable within groups of equal sigmas.
    sigmas, order, i = s.tolist(), [], 0
    while i < len(sigmas):
        j = i + 1
        while j < len(sigmas) and sigmas[j - 1] - sigmas[j] <= tol:
            j += 1
        order += sorted(range(i, j), key=lambda x: right[x].view(np.float64).tolist(), reverse=True)
        i = j
    sigmas, left, right = tuple(sigmas[x] for x in order), left[order], right[order]
    left.setflags(write=False)
    right.setflags(write=False)
    return SVDResult(sigmas, left, right, rank=sum(1 for s_j in sigmas if s_j > tol))


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
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in (rows, cols)):
        raise SchemaError("matrix rows/cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise SchemaError(f"matrix needs exactly {rows * cols} entries")
    return complex_from_json(entries, "matrix").reshape(rows, cols)


def emit_matrix(arr: np.ndarray) -> dict:
    """A complex matrix in the {"rows", "cols", "entries"} layout, for canonical_dumps.

    ``entries`` is a read-only float64 ``(rows * cols, 2)`` array of
    ``[re, im]`` pairs in row-major order, which only
    :func:`~loccdist.jsonio.canonical_dumps` writes.
    """
    a = _entries(arr, 2)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": complex_to_json(a.reshape(-1)),
    }
