"""Vector and matrix primitives: frozen examples plus property checks.

Derived expectations are recomputed here with plain numpy (determinants,
eigenvalues, explicit sums) before being compared against the library, so
the library is never its own oracle.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdist import (
    DimensionError,
    LocalOperator,
    SVDResult,
    SchemaError,
    ZeroVectorError,
    basis_vector,
    normalize,
    svd_decompose,
)
from loccdist import linalg
from loccdist.jsonio import canonical_dumps, parse_json
from loccdist.linalg import emit_matrix, normalize_rows, parse_matrix, projectors, span_basis

TOL = 1e-9


def _vec(*entries):
    return normalize(np.array(entries, dtype=np.complex128))


def _phase_normalize(entries, tol=TOL):
    """One row's global phase turned so its first entry above tol is real positive.

    The per-row reference of the stacked phase rule: ``entries`` itself when
    that entry already is real positive, or when no entry is above tol.
    """
    for entry in entries:
        mag = abs(entry)
        if mag > tol:
            if entry.imag == 0.0 and entry.real > 0.0:
                return entries
            return entries * (entry.conjugate() / mag)
    return entries


def _stacked(vectors):
    """The vectors as the rows of one array, as span_basis takes them."""
    return np.array(vectors)


def _overlaps(a, b):
    """Entry (u, w) is <a_u|b_w>: the stacked product that relativity.components takes."""
    return a.conj() @ b.T


# ---------------------------------------------------------------------------
# strategies

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def unit_vectors(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(min_value=1, max_value=8))
    entries = np.array(
        [complex(draw(finite), draw(finite)) for _ in range(d)], dtype=np.complex128
    )
    if np.linalg.norm(entries) < 0.2:
        entries[0] += 1.0
    return normalize(entries)


# ---------------------------------------------------------------------------
# construction and stacked inner products


def test_normalize_rejects_non_finite():
    with pytest.raises(SchemaError):
        normalize(np.array([np.inf, 0.0]))
    with pytest.raises(SchemaError):
        normalize(np.array([np.nan + 0j, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize(
    "take",
    [lambda m: normalize(m[0]), svd_decompose, emit_matrix, lambda m: LocalOperator(0, m)],
    ids=["normalize", "svd_decompose", "emit_matrix", "LocalOperator"],
)
def test_every_raw_array_entry_refuses_non_finite_entries_as_bad_data(take, bad):
    # one check for every raw array a caller passes in: a LoccError, not a
    # plain ValueError, and no RuntimeWarning on the way
    m = np.eye(2, dtype=np.complex128)
    m[0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="finite"):
            take(m)


@pytest.mark.parametrize(
    "take, shape",
    [(normalize, (2, 2)), (normalize, (0,)), (svd_decompose, (2,)), (svd_decompose, (0, 2)),
     (emit_matrix, (2, 0)), (lambda m: LocalOperator(0, m), (1, 2, 2))],
)
def test_every_raw_array_entry_refuses_a_wrong_or_empty_shape(take, shape):
    with pytest.raises(DimensionError):
        take(np.ones(shape, dtype=np.complex128))


def test_basis_vector_and_normalize_return_read_only_arrays():
    for v in (basis_vector(3, 0), normalize(np.array([3.0, 4.0j]))):
        assert v.dtype == np.complex128 and v.ndim == 1
        with pytest.raises(ValueError):
            v[0] = 0.0
    assert basis_vector(3, 1).tobytes() == np.eye(3, dtype=np.complex128)[1].tobytes()


@pytest.mark.parametrize("dim, index", [(2, 5), (2, 2), (3, -1)])
def test_a_basis_index_out_of_range_is_refused(dim, index):
    message = f"^basis index {index} out of range for dimension {dim}$"
    with pytest.raises(DimensionError, match=message):
        basis_vector(dim, index)


def test_stacked_product_mismatch():
    with pytest.raises(ValueError):
        _overlaps(_stacked([basis_vector(2, 0)]), _stacked([basis_vector(3, 0)]))


def test_stacked_product_plus_state_against_basis():
    # <e1 | (e1+e2)/sqrt(2)> recomputed directly
    expected = 1.0 / math.sqrt(2.0)
    got = _overlaps(_stacked([basis_vector(3, 0)]), _stacked([_vec(1, 1, 0)]))
    assert got.shape == (1, 1) and abs(got[0, 0] - expected) < 1e-15


@given(
    st.lists(unit_vectors(dim=4), min_size=1, max_size=4),
    st.lists(unit_vectors(dim=4), min_size=1, max_size=4),
)
def test_stacked_product_conjugate_symmetry_and_vdot(us, vs):
    a, b = _stacked(us), _stacked(vs)
    got = _overlaps(a, b)
    assert np.max(np.abs(got - _overlaps(b, a).conj().T)) < 1e-12
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            assert abs(got[i, j] - np.vdot(u, v)) < 1e-12


@given(st.lists(unit_vectors(dim=3), min_size=1, max_size=4))
def test_stacked_product_normalization(vs):
    a = _stacked(vs)
    assert np.max(np.abs(np.diagonal(_overlaps(a, a)) - 1.0)) < 1e-12


@given(unit_vectors(dim=5), unit_vectors(dim=5))
def test_cauchy_schwarz(u, v):
    assert np.abs(_overlaps(_stacked([u]), _stacked([v]))).max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# normalize and phase conventions


def test_normalize_preserves_phase():
    v = normalize(np.array([0.0, 3.0j]))
    assert np.allclose(v, [0.0, 1.0j])


def test_normalize_zero_vector():
    with pytest.raises(ZeroVectorError):
        normalize(np.array([1e-12, 0.0]))


def test_normalize_rejects_overflowing_norm():
    # finite entries whose norm is inf would divide down to a zero vector
    with pytest.raises(SchemaError, match="overflows"):
        normalize(np.array([1e308 + 1e308j, 1e308 + 1e308j]))
    with pytest.raises(SchemaError, match="overflows"):
        normalize_rows(np.array([[1.0, 0.0], [1e308 + 1e308j, 1e308 + 1e308j]]))


@pytest.mark.parametrize(
    "raw,unit",
    [
        ([1e200, 0.0], [1.0, 0.0]),
        ([3e200, 4e200j], [0.6, 0.8j]),
        ([1e308 + 1e308j, 0.0], [(1 + 1j) / math.sqrt(2), 0.0]),
    ],
)
def test_normalize_accepts_overflowing_squared_norm(raw, unit):
    # the norm is a double although its square is not: rescaled by the
    # largest magnitude, the vector is measured and normalized
    v = normalize(np.array(raw))
    assert np.allclose(v, unit, rtol=0, atol=1e-15)
    rows = normalize_rows(np.array([[0.6, 0.8], raw, [0.0, 2.0]], dtype=np.complex128))
    assert rows[1].tobytes() == v.tobytes()
    assert rows[[0, 2]].tobytes() == np.array([[0.6, 0.8], [0.0, 1.0]], dtype=np.complex128).tobytes()


def _reference_normalize(raw, tol=TOL):
    """normalize as it was before it became the one-row normalize_rows."""
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
        raise ValueError("not a finite vector")
    with np.errstate(over="ignore", invalid="ignore"):
        n = float(np.linalg.norm(arr))
        if n == math.inf:  # the squared norm overflowed; the norm may still be a double
            big = float(np.abs(arr).max())
            n = big * float(np.linalg.norm(arr / big))
    if not math.isfinite(n):
        raise SchemaError("cannot normalize a vector whose squared norm overflows a double")
    if n <= tol:
        raise ZeroVectorError(f"cannot normalize a vector of norm {n!r}")
    return arr if abs(n - 1.0) <= 64.0 * np.finfo(np.float64).eps else arr / n


def _outcome(fn, raw, tol):
    try:
        return fn(raw, tol)
    except (SchemaError, ZeroVectorError) as exc:
        return (type(exc), str(exc))


NORMALIZE_CASES = [
    [1e200, 0.0],  # huge: the squared norm overflows, the norm does not
    [3e200, -4e200j, 1e199],
    [1e308 + 1e308j, 0.0],
    [1e-12, 0.0],  # tiny: refused as a zero vector
    [1e-300, 1e-300j],
    [3e-9, 4e-9j],  # tiny, but above a tolerance of 1e-9
    [0.0, 0.0, 0.0],
    [0.6, 0.8j],  # already unit
    [1.0],
    [-1.0, 0.0],
    [1.0 + 1e-15, 0.0],  # unit up to a few ulps: kept verbatim
    [1.0 + 1e-13, 0.0],
    [1e308 + 1e308j, 1e308 + 1e308j],  # overflowing: the norm is not a double
    [1.5e308, -1.5e308j],
    [3.0, 4.0],
    [0.0, 3.0j],
]


@pytest.mark.parametrize("tol", [TOL, 1e-4])
def test_normalize_is_bit_identical_to_the_per_vector_reference(tol):
    rng = np.random.default_rng(11)
    cases = list(NORMALIZE_CASES)
    for _ in range(300):
        d = int(rng.integers(1, 7))
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        cases.append(w * 10.0 ** rng.uniform(-6, 6))
        cases.append(w / np.linalg.norm(w))
    for raw in cases:
        expected = _outcome(_reference_normalize, np.array(raw, dtype=np.complex128), tol)
        got = _outcome(normalize, np.array(raw, dtype=np.complex128), tol)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.tobytes() == expected.tobytes()
            assert not got.flags.writeable


def test_phase_rule_turns_the_first_entry_above_tol_real_positive():
    for raw, want in (([1.0j, 0.0], [1.0, 0.0]), ([0.0, -1.0], [0.0, 1.0])):
        assert np.allclose(linalg._phase_fixed(_vec(*raw)[None, :], TOL), [want])
    # rows already in the convention, or with no entry above tol, come back as themselves
    for u in (_vec(0.6, 0.8j)[None, :], np.array([[1e-10j, 0.0]])):
        assert linalg._phase_fixed(u, TOL) is u


@given(unit_vectors())
def test_phase_rule_is_idempotent_and_phase_only(v):
    w = linalg._phase_fixed(v[None, :], TOL)
    assert np.allclose(linalg._phase_fixed(w.copy(), TOL), w, atol=1e-12)
    assert abs(abs(np.vdot(v, w[0])) - 1.0) < 1e-12


_PHASE_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-10, -2e-9, 0.6, -0.8, 1e-300])


@given(
    st.integers(1, 6).flatmap(
        lambda d: st.lists(
            st.lists(st.tuples(_PHASE_ENTRIES, _PHASE_ENTRIES), min_size=d, max_size=d),
            min_size=1,
            max_size=8,
        )
    ),
    st.sampled_from([0.0, 1e-9, 0.7]),
)
def test_stacked_phase_rule_turns_each_row_as_the_one_row_rule(rows, tol):
    # rows already real positive, rows to turn and rows with no entry above
    # tol, mixed, so every branch of the stacked rule runs
    u = np.array([[complex(re, im) for re, im in row] for row in rows])
    expected = np.array([_phase_normalize(row, tol) for row in u])
    assert linalg._phase_fixed(u.copy(), tol).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# span_basis and the rank it gives


def test_span_basis_rank_three_example():
    # |1+2>, |2+3>, |1> in a qutrit: the raw stack has nonzero determinant,
    # so all three must survive.
    raw = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=float)
    assert abs(np.linalg.det(raw)) > 0.5  # oracle: exactly 1
    vectors = [_vec(1, 1, 0), _vec(0, 1, 1), _vec(1, 0, 0)]
    basis = span_basis(_stacked(vectors))
    assert basis.shape == (3, 3)
    assert np.max(np.abs(_overlaps(basis, basis) - np.eye(3))) < 1e-12


def test_span_basis_drops_duplicates():
    v = _vec(1, 1)
    assert len(span_basis(_stacked([v, v]))) == 1


def test_span_basis_of_no_rows():
    empty = span_basis(np.empty((0, 3), dtype=np.complex128))
    assert empty.shape == (0, 3) and empty.dtype == np.complex128


def _reference_gram_schmidt(vectors, tol):
    """Gram-Schmidt as it was before span_basis: one vector at a time, in and out."""
    basis = []
    for v in vectors:
        w = v.astype(np.complex128)
        for _ in range(2):
            for b in basis:
                w = w - np.vdot(b, w) * b
        n = float(np.linalg.norm(w))
        if n > tol:
            basis.append(w / n)
    out = []
    for b in basis:
        for entry in b:
            mag = abs(entry)
            if mag > tol:
                if not (entry.imag == 0.0 and entry.real > 0.0):
                    b = b * (entry.conjugate() / mag)
                break
        out.append(b)
    return out


def _random_block(rng, tol):
    """Unit rows, many of them within a hair of the span of earlier rows."""
    d = int(rng.integers(1, 6))
    rows = []
    for _ in range(int(rng.integers(1, 8))):
        kind = rng.integers(4) if rows else 0
        if kind == 0:  # generic
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        elif kind == 1:  # an earlier row, exactly
            w = rows[int(rng.integers(len(rows)))].copy()
        else:  # a combination of earlier rows, nudged by about tol or less
            c = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
            w = sum(ci * r for ci, r in zip(c, rows))
            w = w + tol * 10.0 ** rng.uniform(-3, 1) * rng.standard_normal(d)
        if rng.random() < 0.3:  # leading entries at or below tol
            w[: int(rng.integers(1, d + 1))] *= tol * rng.random()
        if rng.random() < 0.2:  # a real positive leading entry
            w = w * (abs(w[0]) / w[0]) if w[0] != 0 else w
        if np.linalg.norm(w) > 1e-6:
            rows.append(normalize(w))
    return rows or [basis_vector(d, 0)]


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_span_basis_is_bit_identical_to_the_per_vector_reference(tol):
    rng = np.random.default_rng(2024)
    for _ in range(400):
        rows = _random_block(rng, tol)
        expected = _reference_gram_schmidt(rows, tol)
        got = span_basis(_stacked(rows), tol)
        assert len(got) == len(expected) and not got.flags.writeable
        assert got.tobytes() == b"".join(e.tobytes() for e in expected)


def _scalar_span(rows, tol):
    """span_basis as the plain walk: each row's _residual in order, then the phase fix."""
    basis = []
    for w in rows:
        r = linalg._residual(w, basis, tol)
        if r is not None:
            basis.append(r)
    return [_phase_normalize(b, tol) for b in basis]


def _assert_scalar_walk(rows, tol):
    got = span_basis(rows, tol)
    expected = _scalar_span(rows, tol)
    assert got.shape == (len(expected), rows.shape[1]) and not got.flags.writeable
    assert got.tobytes() == b"".join(b.tobytes() for b in expected)


def _unit_rows(rng, k, d):
    return normalize_rows(rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 200),
    d=st.integers(1, 64),
    rank=st.integers(1, 64),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
)
def test_stacked_span_kernel_is_the_scalar_walk_bit_for_bit(seed, k, d, rank, tol):
    # rows drawn from a few directions, so most rows of a long block drop:
    # exact repeats, fresh combinations, and combinations nudged off the span
    # by 0.1 to 10 times tol, whose residuals straddle tol
    rng = np.random.default_rng(seed)
    directions = _unit_rows(rng, min(rank, d), d)
    rows = rng.standard_normal((k, len(directions))) @ directions.astype(np.complex128)
    kind = rng.integers(3, size=k)
    nudge = tol * 10.0 ** rng.uniform(-1, 1, size=k)
    rows[kind == 1] += nudge[kind == 1, None] * _unit_rows(rng, int((kind == 1).sum()), d)
    repeats = np.flatnonzero(kind == 2)
    rows[repeats] = rows[rng.integers(k, size=len(repeats))]
    rows = normalize_rows(rows[np.linalg.norm(rows, axis=1) > 1e-6].copy())
    if len(rows):
        _assert_scalar_walk(rows, tol)


@pytest.mark.parametrize("m", [2, 5, 17, 60])
def test_stacked_span_kernel_on_staircase_blocks(m):
    # the staircase's blocks alternate a row that joins with one that drops:
    # e_j, then (e_{j+1} + ... + e_m) / norm, which the earlier rows span
    d = m + 1
    rows = []
    for j in range(m):
        tail = np.zeros(d, dtype=np.complex128)
        tail[j + 1 :] = 1.0
        rows += [np.eye(d, dtype=np.complex128)[j], tail / np.linalg.norm(tail)]
    for tol in (TOL, 1e-3):
        _assert_scalar_walk(np.array(rows), tol)
        _assert_scalar_walk(np.array(rows[::-1]), tol)


@settings(max_examples=60)
@given(st.lists(unit_vectors(dim=4), min_size=1, max_size=6))
def test_span_basis_output_is_orthonormal_and_spans_inputs(vectors):
    basis = span_basis(_stacked(vectors))
    assert np.max(np.abs(_overlaps(basis, basis) - np.eye(len(basis)))) < 1e-10
    # every input is reproduced by its projection onto the output span
    for v in vectors:
        proj = np.zeros(4, dtype=np.complex128)
        for b in basis:
            proj += np.vdot(b, v) * b
        assert np.linalg.norm(proj - v) < 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_span_rank_matches_numpy_on_generated_stacks(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    true_rank = int(rng.integers(1, dim + 1))
    generators = rng.standard_normal((true_rank, dim)) + 1j * rng.standard_normal((true_rank, dim))
    def draw_coeffs():
        return rng.integers(-2, 3, size=(true_rank + 2, true_rank))

    coeffs = draw_coeffs()
    while np.linalg.matrix_rank(coeffs) < true_rank or not np.any(coeffs, axis=1).all():
        coeffs = draw_coeffs()
    stack = coeffs @ generators
    vectors = [normalize(row) for row in stack]
    assert np.linalg.matrix_rank(stack, tol=1e-6) == true_rank  # oracle
    assert len(span_basis(_stacked(vectors))) == true_rank


@pytest.mark.parametrize("seed", range(6))
def test_span_rank_invariant_under_permutation_and_scaling(seed):
    rng = np.random.default_rng(100 + seed)
    vectors = [
        normalize(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(5)
    ]
    base = len(span_basis(_stacked(vectors)))
    perm = list(rng.permutation(5))
    assert len(span_basis(_stacked([vectors[i] for i in perm]))) == base
    scale = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    scaled = list(vectors)
    scaled[2] = normalize(scaled[2] * scale)
    assert len(span_basis(_stacked(scaled))) == base


# ---------------------------------------------------------------------------
# svd_decompose


def test_svd_two_by_two_example():
    # A = [[1,1],[0,0]]: eigenvalues of A^dagger A recomputed here are 2 and
    # 0, so the singular values are sqrt(2) and 0.
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    eigs = sorted(np.linalg.eigvalsh(a.conj().T @ a), reverse=True)
    assert np.allclose(eigs, [2.0, 0.0])
    result = svd_decompose(a)
    assert np.allclose(result.sigmas, [math.sqrt(2.0), 0.0])
    assert result.rank == 1
    assert np.allclose(result.right[0], [1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert np.allclose(result.left[0], [1.0, 0.0])


def test_svd_rank_one_povm_element():
    # sqrt(2/3) |e2><e2| keeps a single singular value sqrt(2/3).
    a = math.sqrt(2.0 / 3.0) * np.array([[0.0, 0.0], [0.0, 1.0]])
    result = svd_decompose(a)
    assert result.rank == 1
    assert abs(result.sigmas[0] - math.sqrt(2.0 / 3.0)) < 1e-12
    assert np.allclose(result.left[0], [0.0, 1.0])
    assert np.allclose(result.right[0], [0.0, 1.0])


def test_svd_identity_tie_break_is_natural_order():
    result = svd_decompose(np.eye(3))
    for j in range(3):
        assert np.allclose(result.right[j], np.eye(3)[j])
        assert np.allclose(result.left[j], np.eye(3)[j])


def test_svd_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    r1 = svd_decompose(a)
    r2 = svd_decompose(a)
    assert r1.sigmas == r2.sigmas
    assert r1.left.shape == (3, 4) and r1.right.shape == (3, 3)
    assert r1.left.tobytes() == r2.left.tobytes()
    assert r1.right.tobytes() == r2.right.tobytes()
    assert not r1.left.flags.writeable and not r1.right.flags.writeable


@pytest.mark.parametrize("seed", range(12))
def test_svd_reconstruction_and_orthonormality(seed):
    rng = np.random.default_rng(200 + seed)
    m = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    a = rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))
    result = svd_decompose(a)
    # reconstruction oracle: explicit outer-product sum
    rebuilt = np.zeros((m, n), dtype=np.complex128)
    for s, l, r in zip(result.sigmas, result.left, result.right):
        rebuilt += s * np.outer(l, r.conj())
    assert np.max(np.abs(rebuilt - a)) < 1e-9
    assert list(result.sigmas) == sorted(result.sigmas, reverse=True)
    for rows in (result.left, result.right):
        assert np.max(np.abs(_overlaps(rows, rows) - np.eye(len(rows)))) < 1e-10


def test_svd_right_vectors_are_phase_normalized():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    result = svd_decompose(a)
    for r in result.right:
        first = next(z for z in r if abs(z) > 1e-9)
        assert abs(first.imag) < 1e-12 and first.real > 0


@pytest.mark.parametrize(
    "a",
    [[[1.0, 1j], [0.0, 2.0]], [[2.0, 0.0], [0.0, 1.0]], [[1j, 0.5], [0.0, 2.0]]],
    ids=["real-lead", "diagonal", "imaginary-lead"],
)
def test_svd_vectors_take_the_one_row_phase_rule(a):
    # distinct singular values, so the order is numpy's: each right vector is
    # the one-row phase rule on numpy's, bit for bit, and its left vector moves by
    # the same factor, or not at all when the lead is already real positive
    a = np.array(a, dtype=np.complex128)
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    result = svd_decompose(a)
    for j, right in enumerate(vh.conj()):
        fixed = _phase_normalize(right)
        assert result.right[j].tobytes() == fixed.tobytes()
        lead = next(z for z in right if abs(z) > 1e-9)
        left = u[:, j] if fixed is right else u[:, j] * (lead.conjugate() / abs(lead))
        assert result.left[j].tobytes() == left.tobytes()


def test_svd_rejects_overflowing_singular_values():
    with pytest.raises(SchemaError, match="overflow"):
        svd_decompose(np.full((2, 2), 1e308 + 1e308j))


def test_svd_result_reconstruct_matches_manual():
    a = np.array([[0.0, 2.0], [1.0, 0.0]])
    result = svd_decompose(a)
    assert isinstance(result, SVDResult)
    assert np.max(np.abs(result.reconstruct() - a)) < 1e-12


# ---------------------------------------------------------------------------
# matrix file format


def test_matrix_round_trip():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    # the round trip is through canonical JSON text: the dict holds arrays
    again = parse_matrix(parse_json(canonical_dumps(emit_matrix(a))))
    assert np.array_equal(a, again)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]},
        {"rows": 0, "cols": 1, "entries": []},
        {"rows": 1, "cols": 1, "entries": [[1.0]]},
        {"rows": 1, "cols": 1, "entries": [["a", "b"]]},
        {"rows": 1, "cols": 1, "entries": [[True, 0]]},
        {"rows": 1, "cols": 1, "entries": [[10**400, 0]]},
        {"rows": 1, "cols": 1, "entries": [[float("nan"), 0]]},
        {"rows": True, "cols": 1, "entries": [[2, 0]]},  # true is not a number
        {"rows": 1, "cols": True, "entries": [[1, 0]]},
    ],
)
def test_matrix_schema_errors(data):
    with pytest.raises(SchemaError):
        parse_matrix(data)


def test_projectors_match_a_loop_over_rows_bit_for_bit():
    # families of one to four rows; the 0.0 and -0.0 entries of the real
    # families check that every projector starts from an added zero
    rng = np.random.default_rng(3)
    for d in (1, 2, 5):
        sizes = [int(k) for k in rng.integers(1, min(d, 4) + 1, size=9)]
        rows = np.concatenate([span_basis(rng.normal(size=(k, d)) * (1 + 1j * (i % 2)))
                               for i, k in enumerate(sizes)])
        stack = projectors(rows, sizes)
        assert stack.shape == (len(sizes), d, d) and not stack.flags.writeable
        start = 0
        for p, k in zip(stack, sizes):
            loop = np.zeros((d, d), dtype=np.complex128)
            for b in rows[start : start + k]:
                loop += np.outer(b, b.conj())
            assert p.tobytes() == loop.tobytes()
            start += k
    with pytest.raises(linalg.DimensionError):
        projectors(np.eye(2, dtype=np.complex128), [2, 0])
