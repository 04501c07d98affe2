"""Ensemble model, catalog contents, file format, transforms, generators.

The catalog checks compare against vectors typed out here as literal arrays
and against a raw-numpy pairwise orthogonality loop, so nothing below relies
on the package's own inner products to certify the canned ensembles.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdist import (
    CATALOG_NAMES,
    DimensionError,
    Ensemble,
    InvalidModeError,
    NotFoundError,
    ProductState,
    SchemaError,
    UnitarityError,
    ZeroVectorError,
    apply_local_unitaries,
    basis_vector,
    catalog,
    decide,
    emit_ensemble,
    ensure_complete,
    ensure_orthogonal,
    lift_protocol,
    normalize,
    parse_ensemble,
    random_product_basis,
    random_unitary,
    run_protocol,
    validate,
)
from loccdist.jsonio import complex_from_json
from test_linalg import _phase_normalize

R2 = 1.0 / math.sqrt(2.0)
R3 = math.sqrt(3.0)


def _arrays(e, label):
    return [a[e.index(label)] for a in e.party_arrays]


def _raw_pairwise_overlaps(e):
    """All |<a|b>| for distinct pairs, computed with plain numpy."""
    out = {}
    for i, a in enumerate(e.states):
        for b in e.states[i + 1 :]:
            mag = 1.0
            for u, v in zip(a.locals, b.locals):
                mag *= abs(np.vdot(u, v))
            out[(a.label, b.label)] = mag
    return out


def _equal_up_to_party_phase(e1, e2, atol=1e-12):
    if e1.dims != e2.dims or e1.labels != e2.labels:
        return False
    for s1, s2 in zip(e1.states, e2.states):
        for u, v in zip(s1.locals, s2.locals):
            if abs(abs(np.vdot(u, v)) - 1.0) > atol:
                return False
    return True


# ---------------------------------------------------------------------------
# catalog contents

BENNETT9_EXPECTED = [
    ("psi1", [1, 0, 0], [1, 0, 0]),
    ("psi2", [0, 0, 1], [R2, 0, R2]),
    ("psi3", [0, 0, 1], [-R2, 0, R2]),
    ("psi4", [0, 1, 0], [R2, R2, 0]),
    ("psi5", [0, 1, 0], [R2, -R2, 0]),
    ("psi6", [R2, 0, R2], [0, 1, 0]),
    ("psi7", [-R2, 0, R2], [0, 1, 0]),
    ("psi8", [R2, R2, 0], [0, 0, 1]),
    ("psi9", [R2, -R2, 0], [0, 0, 1]),
]

GRID16_EXPECTED = [
    ("psi1", [1, 0, 0, 0], [R2, R2, 0, 0]),
    ("psi2", [1, 0, 0, 0], [R2, -R2, 0, 0]),
    ("psi3", [0, 1, 0, 0], [0, R2, R2, 0]),
    ("psi4", [0, 1, 0, 0], [0, R2, -R2, 0]),
    ("psi5", [0, 0, 1, 0], [0, 0, R2, R2]),
    ("psi6", [0, 0, 1, 0], [0, 0, R2, -R2]),
    ("psi7", [0, 0, 0, 1], [R2, 0, 0, R2]),
    ("psi8", [0, 0, 0, 1], [R2, 0, 0, -R2]),
    ("psi9", [R2, R2, 0, 0], [0, 0, 0, 1]),
    ("psi10", [R2, -R2, 0, 0], [0, 0, 0, 1]),
    ("psi11", [0, 0, R2, R2], [0, 1, 0, 0]),
    ("psi12", [0, 0, R2, -R2], [0, 1, 0, 0]),
    ("psi13", [0, R2, R2, 0], [1, 0, 0, 0]),
    ("psi14", [0, R2, -R2, 0], [1, 0, 0, 0]),
    ("psi15", [R2, 0, 0, R2], [0, 0, 1, 0]),
    ("psi16", [R2, 0, 0, -R2], [0, 0, 1, 0]),
]


def test_bennett9_matches_reference_vectors():
    e = catalog("bennett9")
    assert e.dims == (3, 3) and e.complete
    assert e.labels == tuple(label for label, _, _ in BENNETT9_EXPECTED)
    for label, a, b in BENNETT9_EXPECTED:
        got_a, got_b = _arrays(e, label)
        assert np.allclose(got_a, a, atol=1e-12), label
        assert np.allclose(got_b, b, atol=1e-12), label


def test_grid16_matches_reference_vectors():
    e = catalog("grid16")
    assert e.dims == (4, 4) and e.complete
    assert e.labels == tuple(label for label, _, _ in GRID16_EXPECTED)
    for label, a, b in GRID16_EXPECTED:
        got_a, got_b = _arrays(e, label)
        assert np.allclose(got_a, a, atol=1e-12), label
        assert np.allclose(got_b, b, atol=1e-12), label


def test_cube64_is_grid16_stacked_over_a_third_party():
    e = catalog("cube64")
    grid = catalog("grid16")
    assert e.dims == (4, 4, 4) and e.complete and len(e.states) == 64
    for c in range(4):
        for i in range(16):
            s = e.states[c * 16 + i]
            assert s.label == f"psi{c * 16 + i + 1}"
            assert np.array_equal(s.locals[0], grid.states[i].locals[0])
            assert np.array_equal(s.locals[1], grid.states[i].locals[1])
            expected_c = np.zeros(4)
            expected_c[c] = 1.0
            assert np.allclose(s.locals[2], expected_c)


def test_finkelstein9_shares_bennett_parts_and_adds_a_qubit():
    e = catalog("finkelstein9")
    bennett = catalog("bennett9")
    assert e.dims == (3, 3, 2) and not e.complete and len(e.states) == 9
    third_expected = [[1.0, 0.0], [0.5, R3 / 2.0], [0.5, -R3 / 2.0]]
    for i, s in enumerate(e.states):
        assert np.array_equal(s.locals[0], bennett.states[i].locals[0])
        assert np.array_equal(s.locals[1], bennett.states[i].locals[1])
        assert np.allclose(s.locals[2], third_expected[i // 3], atol=1e-12)
    # the three qubit directions overlap pairwise with magnitude exactly 1/2
    x, y, z = (np.array(t, dtype=complex) for t in third_expected)
    for u, v in [(x, y), (x, z), (y, z)]:
        assert abs(abs(np.vdot(u, v)) - 0.5) < 1e-12


def test_comp2x2_is_the_computational_basis():
    e = catalog("comp2x2")
    assert e.dims == (2, 2) and e.complete
    assert e.labels == ("s00", "s01", "s10", "s11")
    for s in e.states:
        i, j = int(s.label[1]), int(s.label[2])
        assert np.allclose(s.locals[0], np.eye(2)[i])
        assert np.allclose(s.locals[1], np.eye(2)[j])


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_pairwise_orthogonality_oracle(name):
    overlaps = _raw_pairwise_overlaps(catalog(name))
    worst = max(overlaps.values())
    assert worst < 1e-12, f"{name}: worst pair overlap {worst}"


def test_catalog_names_and_lookup():
    assert CATALOG_NAMES == ("bennett9", "grid16", "cube64", "finkelstein9", "comp2x2")
    with pytest.raises(NotFoundError):
        catalog("no-such-ensemble")


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_validate_passes_every_catalog_entry(name):
    e = catalog(name)
    report = validate(e)
    assert report.pairwise_orthogonal
    assert report.offending_pairs == ()
    assert report.complete_count == (len(e.states) == math.prod(e.dims))
    assert report.complete_count or not e.complete


def _corrupt_bennett9():
    # replace the corner state with |e1>|e2>, which collides with the pair
    # of tiles whose second party sits on e2
    e = catalog("bennett9")
    bad = ProductState("psi1", (basis_vector(3, 0), basis_vector(3, 1)))
    return Ensemble(e.name, e.dims, (bad,) + e.states[1:], e.complete)


def test_validate_reports_offending_pairs():
    e = _corrupt_bennett9()
    # oracle: recompute every overlap directly
    raw = _raw_pairwise_overlaps(e)
    expected = {pair for pair, mag in raw.items() if mag > 1e-9}
    assert expected == {("psi1", "psi6"), ("psi1", "psi7")}
    report = validate(e)
    assert not report.pairwise_orthogonal
    got = {(a, b) for a, b, _ in report.offending_pairs}
    assert got == expected
    for a, b, mag in report.offending_pairs:
        assert abs(mag - raw[(a, b)]) < 1e-15
        assert abs(mag - R2) < 1e-12


def test_validate_report_is_made_once_per_tol():
    e = catalog("bennett9")
    report = validate(e)
    assert validate(e) is report
    assert validate(e, 1e-9) is report
    other = validate(e, 1e-5)
    assert other is not report and validate(e, 1e-5) is other
    assert other == report  # both pass
    bad = _corrupt_bennett9()
    first = validate(bad)
    assert validate(bad) is first
    fresh = validate(_corrupt_bennett9())
    assert fresh is not first
    assert first.offending_pairs == fresh.offending_pairs
    assert [(a, b) for a, b, _ in first.offending_pairs] == [("psi1", "psi6"), ("psi1", "psi7")]
    # at a tol above the offending overlap, 1/sqrt(2), the pairs are orthogonal
    assert validate(bad, 0.8).offending_pairs == ()
    assert validate(bad).offending_pairs == fresh.offending_pairs


def test_ensure_orthogonal_rejects_corrupted_ensemble():
    with pytest.raises(InvalidModeError):
        ensure_orthogonal(_corrupt_bennett9())


def test_ensure_complete_rejects_incomplete_ensemble():
    with pytest.raises(InvalidModeError):
        ensure_complete(catalog("finkelstein9"))
    ensure_complete(catalog("bennett9"))  # no error


# ---------------------------------------------------------------------------
# model invariants


def test_duplicate_labels_rejected():
    s = catalog("comp2x2").states
    with pytest.raises(SchemaError):
        Ensemble("dup", (2, 2), (s[0], s[0]), complete=False)


def test_party_count_mismatch_rejected():
    good = catalog("comp2x2").states[0]
    with pytest.raises(SchemaError):
        Ensemble("bad", (2, 2, 2), (good,), complete=False)


def test_local_dim_mismatch_rejected():
    s = ProductState("a", (basis_vector(3, 0), basis_vector(2, 0)))
    with pytest.raises(SchemaError):
        Ensemble("bad", (2, 2), (s,), complete=False)


def test_complete_flag_needs_full_count():
    s = catalog("comp2x2").states[:3]
    with pytest.raises(SchemaError):
        Ensemble("bad", (2, 2), s, complete=True)


@pytest.mark.parametrize(
    "local, message",
    [
        (np.array([1.0, 1.0]), r"state 'b' party 1 is not a unit vector: norm 1\.41421"),
        (np.array([1e-3, 0.0]), r"state 'b' party 1 is not a unit vector: norm 0\.001"),
        (np.array([np.nan, 0.0]), r"state 'b' party 1 has non-finite entries"),
        (np.array([np.inf, 0.0]), r"state 'b' party 1 has non-finite entries"),
        (np.array([1.0, 0.0, 0.0]), r"state 'b' party 1 has shape \(3,\), expected \(2,\)"),
        (np.array([[1.0, 0.0]]), r"state 'b' party 1 has shape \(1, 2\), expected \(2,\)"),
        (np.complex128(1.0), r"state 'b' party 1 has shape \(\), expected \(2,\)"),
        (np.array(["a", "b"]), r"state 'b' party 1 has non-numeric entries"),
        (np.array(["1", "0"]), r"state 'b' party 1 has non-numeric entries"),
        ([None, 1.0], r"state 'b' party 1 has non-numeric entries"),
    ],
)
def test_ensemble_refuses_a_local_that_is_not_a_unit_vector_of_its_dimension(local, message):
    good = basis_vector(2, 0)
    states = (ProductState("a", (good, good)), ProductState("b", (good, local)))
    with pytest.raises(SchemaError, match=message):
        Ensemble("x", (2, 2), states, complete=False)


def test_ensemble_copies_and_freezes_the_locals_it_is_given():
    # a unit vector up to DEFAULT_TOL is kept as given, in a read-only array
    # of the ensemble's own; the caller's array stays writable and apart
    v = np.array([1.0 + 1e-10, 0.0], dtype=np.complex128)
    e = Ensemble("x", (2,), (ProductState("a", (v,)),), complete=False)
    assert e.party_arrays[0].tobytes() == v.tobytes() and not e.party_arrays[0].flags.writeable
    v[0] = 5.0
    assert e.party_arrays[0][0, 0] == 1.0 + 1e-10 and e.states[0].locals[0][0] == 1.0 + 1e-10


def test_empty_label_rejected():
    with pytest.raises(SchemaError):
        ProductState("", (basis_vector(2, 0),))


def test_a_state_with_no_local_vectors_is_rejected():
    with pytest.raises(SchemaError, match="^state 'a' has no local vectors$"):
        ProductState("a", [])


def test_unknown_label_lookup():
    with pytest.raises(NotFoundError):
        catalog("comp2x2").index("nope")


# ---------------------------------------------------------------------------
# file format


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_emit_parse_round_trip(name):
    e = catalog(name)
    text = emit_ensemble(e)
    again = parse_ensemble(text)
    assert again.name == e.name and again.complete == e.complete
    assert _equal_up_to_party_phase(e, again)
    report = validate(again)
    assert report.pairwise_orthogonal and (report.complete_count or not again.complete)
    assert emit_ensemble(again) == text  # stable down to the bytes


def test_emit_is_deterministic():
    assert emit_ensemble(catalog("bennett9")) == emit_ensemble(catalog("bennett9"))


def test_parse_normalizes_vectors():
    text = """
    {"name": "t", "dims": [2], "complete": false,
     "states": [{"label": "a", "vectors": [[[2.0, 0.0], [0.0, 0.0]]]}]}
    """
    e = parse_ensemble(text)
    assert np.allclose(e.states[0].locals[0], [1.0, 0.0])


@pytest.mark.parametrize(
    "name, label, message",
    [
        ("t", "\\ud800", "state 0 label is not valid Unicode"),
        ("\\udfff", "a", "ensemble name is not valid Unicode"),
        ("t", "x\\udc00y", "state 0 label is not valid Unicode"),
    ],
)
def test_parse_rejects_lone_surrogates(name, label, message):
    # valid JSON, but no UTF-8 encoding: printing the label or name later
    # would crash, so the file is refused as bad data up front
    text = (
        f'{{"name": "{name}", "dims": [2], "complete": false,'
        f' "states": [{{"label": "{label}", "vectors": [[[1.0, 0.0], [0.0, 0.0]]]}}]}}'
    )
    with pytest.raises(SchemaError, match=message):
        parse_ensemble(text)


def test_parse_keeps_non_ascii_labels():
    text = (
        '{"name": "\\u03c8", "dims": [2], "complete": false,'
        ' "states": [{"label": "\\ud83d\\ude00", "vectors": [[[1.0, 0.0], [0.0, 0.0]]]}]}'
    )
    e = parse_ensemble(text)
    assert (e.name, e.labels) == ("\u03c8", ("\U0001f600",))


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"dims": [2], "complete": false, "states": []}',
        '{"name": "t", "dims": "2", "complete": false, "states": []}',
        '{"name": "t", "dims": [true], "complete": false, "states": []}',
        '{"name": "t", "dims": [2], "complete": 1, "states": []}',
        '{"name": "t", "dims": [2], "complete": false, "states": {}}',
        '{"name": "t", "dims": [2], "complete": false, "states": [{"label": "a"}]}',
        '{"name": "t", "dims": [2], "complete": false,'
        ' "states": [{"label": "a", "vectors": [[[1.0, 0.0]]]}]}',
        '{"name": "t", "dims": [2], "complete": false,'
        ' "states": [{"label": "a", "vectors": [[[1.0, 0.0], [1.0]]]}]}',
        '{"name": "t", "dims": [2], "complete": false,'
        ' "states": [{"label": "a", "vectors": [[[1.0, 0.0], [NaN, 0.0]]]}]}',
        '{"name": "t", "dims": [2], "complete": true,'
        ' "states": [{"label": "a", "vectors": [[[1.0, 0.0], [0.0, 0.0]]]}]}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    from loccdist import LoccError

    with pytest.raises(LoccError):
        parse_ensemble(text)


def test_parse_rejects_zero_vector():
    text = """
    {"name": "t", "dims": [2], "complete": false,
     "states": [{"label": "a", "vectors": [[[0.0, 0.0], [0.0, 0.0]]]}]}
    """
    with pytest.raises(ZeroVectorError):
        parse_ensemble(text)


# The per-vector parse that the stacked parse replaced: each vector decoded
# on its own, then normalized with np.linalg.norm, in file order.


def _reference_normalize(arr, tol):
    with np.errstate(over="ignore", invalid="ignore"):
        n = float(np.linalg.norm(arr))
        if n == math.inf:  # the squared norm overflowed; the norm may still be a double
            big = float(np.abs(arr).max())
            n = big * float(np.linalg.norm(arr / big))
    if not math.isfinite(n):
        raise SchemaError("cannot normalize a vector whose squared norm overflows a double")
    if n <= tol:
        raise ZeroVectorError(f"cannot normalize a vector of norm {n!r}")
    if abs(n - 1.0) <= 64.0 * np.finfo(np.float64).eps:
        return arr
    return arr / n


def _reference_parse(text, tol):
    data = json.loads(text)
    rows = [[] for _ in data["dims"]]
    for raw in data["states"]:
        for p, vec in enumerate(raw["vectors"]):
            where = f"state {raw['label']!r} party {p}"
            rows[p].append(_reference_normalize(complex_from_json(vec, where), tol))
    return rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  the type and message are compared
        return (type(exc), str(exc))


BAD_PAIRS = [[True, 0], ["1", 0], [0.5], [float("nan"), 0], [10**400, 0], None]


@st.composite
def ensemble_texts(draw):
    """A random ensemble document, maybe with one fault at a random (state, party)."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    states = []
    for k in range(n):
        vectors = []
        for d in dims:
            scale = 10.0 ** draw(st.floats(-3.0, 3.0))
            v = np.array([complex(draw(unit), draw(unit)) * scale for _ in range(d)])
            if np.linalg.norm(v) < scale / 2:  # no zero vector but the one drawn below
                v[0] += scale
            if draw(st.booleans()):  # unit up to a few ulps
                v = v / np.linalg.norm(v)
            vectors.append(v.view(np.float64).reshape(-1, 2).tolist())
        states.append({"label": f"s{k}", "vectors": vectors})
    fault = draw(st.sampled_from(["none", "entry", "zero", "overflow", "huge"]))
    k, p = draw(st.integers(0, n - 1)), draw(st.integers(0, len(dims) - 1))
    vec = states[k]["vectors"][p]
    if fault == "entry":
        vec[draw(st.integers(0, dims[p] - 1))] = draw(st.sampled_from(BAD_PAIRS))
    elif fault == "zero":
        vec[:] = [[0.0, 0.0]] * dims[p]
    elif fault == "overflow":  # an entry whose magnitude overflows: refused
        vec[draw(st.integers(0, dims[p] - 1))] = [1.5e308, -1.5e308]
    elif fault == "huge":  # a squared norm that overflows: refused iff the norm does too
        vec[draw(st.integers(0, dims[p] - 1))] = [1e308, -1e308]
    doc = {"name": "t", "dims": dims, "complete": False, "states": states}
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(ensemble_texts(), st.sampled_from([1e-9, 1e-4]))
def test_stacked_parse_matches_per_vector_reference(text, tol):
    # Norms span 1e-3 to 1e3, so most vectors are rescaled; half are unit vectors already, which are kept verbatim
    # when within a few ulps of norm 1.  A fault makes both raise the same
    # error.
    expected = _outcome(_reference_parse, text, tol)
    got = _outcome(parse_ensemble, text, tol)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    for p, rows in enumerate(expected):
        ref = np.array(rows)
        assert got.party_arrays[p].tobytes() == ref.tobytes()
        assert not got.party_arrays[p].flags.writeable
        for s, row in zip(got.states, rows):
            assert s.locals[p].tobytes() == row.tobytes()
            assert np.shares_memory(s.locals[p], got.party_arrays[p])


def test_parse_reports_the_first_bad_vector_in_file_order():
    # a zero vector at state a party 1 comes before one at state b party 0
    text = json.dumps({
        "name": "t", "dims": [2, 2], "complete": False,
        "states": [
            {"label": "a", "vectors": [[[1, 0], [0, 0]], [[0, 0], [1e-12, 0]]]},
            {"label": "b", "vectors": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]},
        ],
    })
    with pytest.raises(ZeroVectorError, match=r"norm 1e-12$"):
        parse_ensemble(text)


def test_a_refusal_names_the_input_norm_not_a_normalized_one():
    # at tol 1.2 party 0 (norm 1.3) passes and is normalized in place, to
    # norm 1.0; the refusal is party 1's norm 0.5, from either builder
    text = json.dumps({"name": "t", "dims": [2, 2], "complete": False, "states": [
        {"label": "a", "vectors": [[[1.3, 0], [0, 0]], [[0.5, 0], [0, 0]]]}]})
    with pytest.raises(ZeroVectorError, match=r"norm 0\.5$"):
        parse_ensemble(text, 1.2)
    with pytest.raises(ZeroVectorError, match=r"norm 0\.5$"):
        apply_local_unitaries(catalog("comp2x2"), [1.3 * np.eye(2), 0.5 * np.eye(2)], tol=1.2)


# ---------------------------------------------------------------------------
# local unitaries


def test_identity_unitaries_leave_states_in_place():
    e = catalog("bennett9")
    out = apply_local_unitaries(e, [np.eye(3), np.eye(3)])
    assert out.labels == e.labels
    for s, t in zip(e.states, out.states):
        for u, v in zip(s.locals, t.locals):
            assert np.allclose(u, v, atol=1e-12)


def test_non_unitary_matrix_rejected():
    with pytest.raises(UnitarityError):
        apply_local_unitaries(catalog("comp2x2"), [2.0 * np.eye(2), np.eye(2)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("party", [0, 1])
def test_non_finite_matrix_rejected_before_any_product(bad, party):
    # NaN compares false with tol, so the unitarity deviation alone let such
    # a matrix through to a misleading normalization error
    us = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    us[party][1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnitarityError, match=f"party {party} matrix has non-finite entries"):
            apply_local_unitaries(catalog("comp2x2"), us)


def test_unitary_count_and_shape_checked():
    e = catalog("comp2x2")
    with pytest.raises(DimensionError):
        apply_local_unitaries(e, [np.eye(2)])
    with pytest.raises(DimensionError):
        apply_local_unitaries(e, [np.eye(3), np.eye(2)])


@pytest.mark.parametrize("seed", range(5))
def test_random_dressing_preserves_overlaps(seed):
    rng = np.random.default_rng(seed)
    e = catalog("bennett9")
    before = _raw_pairwise_overlaps(e)
    dressed = apply_local_unitaries(e, [random_unitary(3, rng), random_unitary(3, rng)])
    after = _raw_pairwise_overlaps(dressed)
    for pair in before:
        assert abs(before[pair] - after[pair]) < 1e-10
    ensure_complete(dressed)
    assert dressed.complete and dressed.dims == e.dims


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_random_unitary_is_unitary(dim):
    u = random_unitary(dim, np.random.default_rng(7))
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


def test_random_unitary_rejects_bad_dim():
    with pytest.raises(DimensionError):
        random_unitary(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# generated bases


def test_random_basis_is_deterministic():
    a = random_product_basis((2, 3), seed=11)
    b = random_product_basis((2, 3), seed=11)
    assert a.labels == b.labels and a.name == b.name
    for s, t in zip(a.states, b.states):
        for u, v in zip(s.locals, t.locals):
            assert np.array_equal(u, v)
    c = random_product_basis((2, 3), seed=12)
    assert not _equal_up_to_party_phase(a, c)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_basis_is_a_valid_complete_basis(dims, seed):
    e = random_product_basis(dims, seed=seed)
    assert e.complete and len(e.states) == math.prod(dims)
    assert max(_raw_pairwise_overlaps(e).values(), default=0.0) < 1e-9
    ensure_complete(e)


@pytest.mark.parametrize("dims, seed, depth", [((2, 64), 1, 3), ((1, 100), 0, 2)])
def test_random_basis_splits_a_party_of_64_or_more(dims, seed, depth):
    # a party of k >= 64 vectors is cut by k random bits, as 2**k - 1 is
    # past the int64 range of the draw that smaller parties keep
    e = random_product_basis(dims, seed, depth)
    assert e.complete and len(e.labels) == math.prod(dims)
    ensure_complete(e)
    assert decide(e, "complete").kind == "distinguishable"


def test_random_basis_depth_zero_is_computational():
    e = random_product_basis((2, 2), seed=5, depth=0)
    assert e.labels == ("s1", "s2", "s3", "s4")
    expected = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for s, (i, j) in zip(e.states, expected):
        assert np.array_equal(s.locals[0], np.eye(2, dtype=complex)[i])
        assert np.array_equal(s.locals[1], np.eye(2, dtype=complex)[j])


def test_random_basis_name_embeds_parameters():
    e = random_product_basis((3, 2), seed=9, depth=2)
    assert e.name == "random-3x2-seed9-depth2"


def test_random_basis_rejects_bad_dims():
    with pytest.raises(SchemaError):
        random_product_basis((), seed=0)
    with pytest.raises(SchemaError):
        random_product_basis((0, 2), seed=0)


@pytest.mark.parametrize(
    "dims", [(2.5, 2), (2.9, True * 2), (2.0, 2), (True, 2), (2, False), ("2", 2), (-1,)]
)
def test_dims_that_are_not_integers_of_at_least_one_are_refused(dims):
    # a float used to be truncated and a bool read as 1
    with pytest.raises(SchemaError, match="dims must be positive integers"):
        random_product_basis(dims, seed=1)
    with pytest.raises(SchemaError, match="dims must be positive integers"):
        Ensemble("x", dims, (), complete=False)


def test_numpy_integer_dims_are_kept_as_python_ints():
    e = random_product_basis((np.int64(2), np.int32(3)), seed=1)
    assert e.name == "random-2x3-seed1-depth3"
    assert e.dims == (2, 3) and all(type(d) is int for d in e.dims)
    assert emit_ensemble(e) == emit_ensemble(random_product_basis((2, 3), seed=1))


def test_single_level_party_is_allowed():
    e = random_product_basis((1, 2), seed=3)
    assert len(e.states) == 2
    ensure_complete(e)


# The per-vector generator and rotation that the stacked rows replaced: the
# recursive definition, each unitary from its own QR, each vector mixed on
# its own and normalized with np.linalg.norm.


def _reference_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _reference_rotate(basis, rng):
    mixed = np.column_stack(basis) @ _reference_unitary(len(basis), rng)
    return [_reference_normalize(mixed[:, j], 1e-9) for j in range(len(basis))]


def _reference_split(bases, rng, depth):
    splittable = [p for p, b in enumerate(bases) if len(b) >= 2]
    if depth <= 0 or not splittable:
        return list(itertools.product(*bases))
    p = splittable[int(rng.integers(len(splittable)))]
    k = len(bases[p])
    if k <= 63:
        mask = int(rng.integers(1, 2**k - 1))
        picked = [(mask >> i) & 1 == 1 for i in range(k)]
    else:  # k random bits, redrawn while all are equal
        picked = [True] * k
        while all(picked) or not any(picked):
            picked = (rng.random(k) < 0.5).tolist()
    states = []
    for side in (True, False):
        sub = list(bases)
        group = [b for b, keep in zip(bases[p], picked) if keep == side]
        sub[p] = _reference_rotate(group, rng)
        for q in range(len(bases)):
            if q != p:
                sub[q] = _reference_rotate(bases[q], rng)
        states.extend(_reference_split(sub, rng, depth - 1))
    return states


def _reference_basis_rows(dims, seed, depth):
    """random_product_basis's vectors, one array of rows per party."""
    rng = np.random.default_rng(seed)
    states = _reference_split([list(np.eye(d, dtype=np.complex128)) for d in dims], rng, depth)
    return [np.array([s[p] for s in states]) for p in range(len(dims))]


def _reference_unitary_rows(rows, us, tol=1e-9):
    """apply_local_unitaries's vectors, rotated and normalized state by state."""
    states = [
        [_reference_normalize(u @ a[i], tol) for u, a in zip(us, rows)] for i in range(len(rows[0]))
    ]
    return [np.array([s[p] for s in states]) for p in range(len(us))]


def _assert_rows(e, rows):
    for p, ref in enumerate(rows):
        a = e.party_arrays[p]
        assert a.shape == ref.shape and a.tobytes() == ref.tobytes()
        assert not a.flags.writeable
        for s, row in zip(e.states, ref):
            assert s.locals[p].tobytes() == row.tobytes()


# (2, 64) takes the k >= 64 draw; (8, 8, 8) at depth 12 is the check-large structure
_GENERATOR_CASES = [
    *(
        (dims, range(11))
        for dims in [(1,), (2,), (6,), (1, 2), (2, 1), (3, 1, 2), (4, 4), (5, 2), (6, 6)]
    ),
    ((2, 3, 1, 2), range(11)),
    *((dims, range(7)) for dims in [(2, 64), (1, 3), (2,) * 6]),
    ((8, 8, 8), [12]),
]


@pytest.mark.parametrize(
    "dims, depths",
    [pytest.param(dims, depths, id="x".join(map(str, dims))) for dims, depths in _GENERATOR_CASES],
)
def test_row_generators_are_bit_identical_to_the_per_vector_reference(dims, depths):
    for depth in depths:
        seed = 13 * depth + sum(dims)
        e = random_product_basis(dims, seed, depth)
        rows = _reference_basis_rows(dims, seed, depth)
        _assert_rows(e, rows)
        rng = np.random.default_rng(seed)
        us = [random_unitary(d, rng) for d in dims]
        _assert_rows(apply_local_unitaries(e, us), _reference_unitary_rows(rows, us))


def test_the_bytes_the_benchmark_generates_are_pinned():
    # the benchmark builds its inputs from these calls: the check-large and
    # replay-large structures and the unitaries that dress every input
    digest = lambda data: hashlib.sha256(data).hexdigest()
    check = emit_ensemble(random_product_basis((8, 8, 8), 1, depth=12))
    replay = emit_ensemble(random_product_basis((10, 10, 10), 2, depth=14))
    units = b"".join(random_unitary(d, np.random.default_rng(d)).tobytes() for d in range(1, 17))
    assert digest(check.encode()) == (
        "b95d2db4e3961b01d5e1a0a21436615e42c46e6352b3d7e34dc87a1858942c40"
    )
    assert digest(replay.encode()) == (
        "182e1d6f0e54a6e12680329b8361e90827f019af6d176ec8e7b0ff58c11cc7e0"
    )
    assert digest(units) == "62060f9c5b54b9837a1836260b19a668566940c2b8fe4f832d88e64add2e51a4"


_SHAPES = st.one_of(
    st.tuples(st.sampled_from([1, 2]), st.integers(1, 64)),
    st.integers(3, 8).map(lambda parties: (2,) * parties),
)


@given(dims=_SHAPES, seed=st.integers(0, 2**31 - 1), depth=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_skewed_and_many_party_shapes_round_trip_decide_and_replay(dims, seed, depth):
    e = random_product_basis(dims, seed, depth)
    if depth == 0:
        standard = np.indices(dims).reshape(len(dims), -1)
        for a, d, index in zip(e.party_arrays, dims, standard):
            assert a.tobytes() == np.eye(d, dtype=np.complex128)[index].tobytes()
    # emission turns each row's phase, row by row as the one-row phase rule does,
    # and writes -0.0 as 0; the parsed rows are those rows bit for bit
    parsed = parse_ensemble(emit_ensemble(e))
    for a, b in zip(e.party_arrays, parsed.party_arrays):
        emitted = np.array([_phase_normalize(row) for row in a]) + 0.0
        assert emitted.tobytes() == b.tobytes()
    v = decide(e, "complete")
    assert v.distinguishable
    assert run_protocol(e, lift_protocol(v.tree, e)).perfect


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_dressing_is_bit_identical_to_the_per_vector_reference(name):
    e = catalog(name)
    rng = np.random.default_rng(5)
    us = [random_unitary(d, rng) for d in e.dims]
    _assert_rows(apply_local_unitaries(e, us), _reference_unitary_rows(e.party_arrays, us))


def test_dressing_refuses_the_first_short_vector_in_state_order():
    # with tol 0.8 these contractions pass as unitaries; s00 loses norm at
    # party 1 (0.5) before s10 does at party 0 (0.45)
    us = [np.diag([1.0, 0.45]), np.diag([0.5, 1.0])]
    e = catalog("comp2x2")
    with pytest.raises(ZeroVectorError, match=r"norm 0\.5$"):
        apply_local_unitaries(e, us, tol=0.8)
    with pytest.raises(ZeroVectorError, match=r"norm 0\.5$"):
        _reference_unitary_rows(e.party_arrays, us, tol=0.8)


def test_normalize_helper_reexported():
    v = normalize(np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# states are a view built on first read


@pytest.mark.parametrize(
    "labels, complete, message",
    [
        (["a", ""], False, "state label must be a non-empty string"),
        (["a", "b", "a"], False, "duplicate state label 'a'"),
        (["a"], True, "complete ensemble over dims (2,) needs 2 states, got 1"),
    ],
)
def test_parse_refuses_bad_labels_and_counts_before_states_are_read(labels, complete, message):
    states = [{"label": label, "vectors": [[[1, 0], [0, 0]]]} for label in labels]
    text = json.dumps({"name": "t", "dims": [2], "complete": complete, "states": states})
    with pytest.raises(SchemaError) as info:
        parse_ensemble(text)
    assert str(info.value) == message


def test_states_view_is_built_once_from_the_rows():
    e = parse_ensemble(emit_ensemble(catalog("bennett9")))
    assert "states" not in e.__dict__
    assert e.states is e.states and "states" in e.__dict__
    assert tuple(s.label for s in e.states) == e.labels
    for p, a in enumerate(e.party_arrays):
        for s, row in zip(e.states, a):
            assert s.locals[p].tobytes() == row.tobytes()
            assert np.shares_memory(s.locals[p], a) and not s.locals[p].flags.writeable
    assert e.states[e.index("psi2")].label == "psi2"
