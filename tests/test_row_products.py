"""Per-row products on stacked rows: norms, projections and matrix images.

Every vector rule of the package runs on the rows of one ``k x d`` array,
and each of its row products must give, bit for bit, the numbers the
one-vector reference gives on each row: ``np.linalg.norm`` for a norm,
``np.vdot`` for the coefficient of a projection, and ``m @ v`` for the
image of a row under a matrix.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdist import apply_local_unitaries, random_product_basis, random_unitary
from loccdist.linalg import _row_norms, normalize_rows
from loccdist.simulate import _images


def _complex(rng, *shape):
    scale = 10.0 ** rng.uniform(-3, 3)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _laid_out(rng, k, d, layout):
    """A ``k x d`` complex array: C order, every other column, or a transposed F-order array."""
    if layout == "columns":
        return _complex(rng, k, 2 * d)[:, ::2]
    if layout == "transposed":
        return np.asfortranarray(_complex(rng, d, k)).T
    return _complex(rng, k, d)


def _same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 12),
    d=st.integers(1, 64),
    layout=st.sampled_from(["c", "columns", "transposed"]),
)
def test_row_norms_are_np_linalg_norm_of_each_row(seed, k, d, layout):
    # the norms are taken on the strided views a.real and a.imag of any
    # layout, and come out as np.linalg.norm's sqrt(re.re + im.im)
    rng = np.random.default_rng(seed)
    a = _laid_out(rng, k, d, layout)
    expected = np.array([np.linalg.norm(row) for row in a], dtype=np.float64)
    _same_bits(_row_norms(a), expected)
    re, im = a.real, a.imag
    _same_bits(np.vecdot(re, re), np.array([r.dot(r) for r in re], dtype=np.float64))
    _same_bits(np.vecdot(im, im), np.array([r.dot(r) for r in im], dtype=np.float64))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 12),
    d=st.integers(1, 64),
    layout=st.sampled_from(["c", "columns", "transposed"]),
)
def test_projection_coefficients_are_np_vdot_of_each_row(seed, k, d, layout):
    # span_basis projects every row off one basis vector, _first_vectors
    # each row off its own block's vector: both coefficients are np.vdot
    rng = np.random.default_rng(seed)
    w = _laid_out(rng, k, d, layout)
    b = normalize_rows(_complex(rng, 1, d))[0]
    _same_bits(np.vecdot(b, w), np.array([np.vdot(b, row) for row in w], dtype=np.complex128))
    bs = normalize_rows(_complex(rng, k, d))
    expected = np.array([np.vdot(u, row) for u, row in zip(bs, w)], dtype=np.complex128)
    _same_bits(np.vecdot(bs, w), expected)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    operators=st.integers(1, 4),
    k=st.integers(0, 12),
    d=st.integers(1, 64),
    d_out=st.integers(1, 8),
)
def test_images_are_each_matrix_on_each_row(seed, operators, k, d, d_out):
    # image j*k + r is ms[j] @ v[r], returned or written into out
    rng = np.random.default_rng(seed)
    ms, v = _complex(rng, operators, d_out, d), _complex(rng, k, d)
    expected = np.array([m @ row for m in ms for row in v], dtype=np.complex128)
    expected = expected.reshape(operators * k, d_out)
    _same_bits(_images(ms, v), expected)
    out = np.full((operators * k, d_out), np.nan, dtype=np.complex128)
    w = _images(ms, v, out=out)
    _same_bits(out, expected)
    assert np.shares_memory(w, out) or not out.size


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(1, 2), (2, 3), (3, 3, 2), (8, 4), (64, 1)]),
)
def test_local_unitaries_take_each_matrix_on_each_row(seed, dims):
    # the rotated rows are m @ v on each row, then normalized as parsed rows are
    e = random_product_basis(dims, seed % 1000, depth=2)
    rng = np.random.default_rng(seed)
    us = [random_unitary(d, rng) for d in dims]
    rotated = apply_local_unitaries(e, us)
    for u, a, got in zip(us, e.party_arrays, rotated.party_arrays):
        expected = normalize_rows(np.array([u @ row for row in a], dtype=np.complex128))
        _same_bits(got, expected)
