"""The JSON boundary: parse errors, canonical emission and the [re, im] codec."""

from __future__ import annotations

import collections
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loccdist import ParseError, SchemaError
from loccdist.jsonio import (
    canonical_dumps,
    complex_from_json,
    complex_rows_from_json,
    complex_to_json,
    parse_json,
)

doubles = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(doubles, doubles), min_size=1, max_size=40))
@example([(-0.0, 5e-324)])
@example([(2.2250738585072014e-308, -1.7976931348623157e308)])
def test_codec_round_trip_is_bit_identical(pairs):
    a = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    again = complex_from_json(complex_to_json(a).tolist(), "test")
    assert again.dtype == np.complex128
    assert again.tobytes() == a.tobytes()


def test_codec_matches_pairwise_complex_conversion():
    # ints, mixed int/float pairs and ints past int64 round as complex() does
    pairs = [[1, 0], [0, -3], [2**70 + 1, 0.5], [-(2**1000), 1e-300], [0.1, 7]]
    for data in (pairs, pairs * 5):
        expected = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
        assert complex_from_json(data, "test").tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"re": 1, "im": 0},
        [[1.0]],
        [[1.0, 0.0, 0.0]],
        [(1.0, 0.0)],
        [[True, 0]],
        [[0, False]],
        [["1", 0]],
        [[None, 0]],
        [[float("nan"), 0]],
        [[0, float("inf")]],
        [[10**400, 0]],
    ],
)
def test_codec_rejects_bad_entries(data):
    with pytest.raises(SchemaError):
        complex_from_json(data, "test")


@pytest.mark.parametrize(
    "bad",
    [
        [1.0],
        [1.0, 0.0, 0.0],
        (1.0, 0.0),
        [True, 0],
        [0, False],
        ["1", 0],
        [None, 0],
        [float("nan"), 0],
        [0, float("inf")],
        [10**400, 0],
    ],
)
@pytest.mark.parametrize("lead", [0, 1, 40])
def test_codec_names_the_first_bad_entry(bad, lead):
    # every list is first checked whole; the first bad entry is named at
    # every position, in short lists and long ones
    data = [[0.5, -0.5]] * lead + [bad] + [[1, 0], [True, 0]]
    with pytest.raises(SchemaError, match=rf"^test: entry {lead} must be a \[re, im\] pair"):
        complex_from_json(data, "test")


def test_codec_error_names_where_and_entry():
    with pytest.raises(SchemaError, match=r"^state 'a' party 1: entry 2 must be"):
        complex_from_json([[1, 0], [0, 1], [True, 0]], "state 'a' party 1")


def test_text_nested_too_deeply_is_a_parse_error():
    with pytest.raises(ParseError, match="^malformed JSON: nested too deeply$"):
        parse_json("[" * 100_000 + "]" * 100_000)


def test_overlong_int_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_json("[" + "9" * 5000 + ", 0]")


@given(st.lists(st.lists(st.tuples(doubles, doubles), min_size=1, max_size=6), min_size=1,
                max_size=8))
def test_rows_codec_is_pairwise_complex_conversion_concatenated(rows):
    data = [[list(pair) for pair in row] for row in rows]
    expected = np.array([complex(re, im) for row in rows for re, im in row], dtype=np.complex128)
    assert complex_rows_from_json(data, lambda j: f"v{j}").tobytes() == expected.tobytes()


class _Pair(list):
    pass


def test_pairs_that_fail_only_the_exact_type_pass_still_convert():
    # a list subclass and a numpy float are valid pairs to the per-entry loop,
    # though the whole-list pass checks exact types and refuses them
    data = [[1, 0], _Pair([0.5, -2]), [np.float64(0.25), 3]]
    expected = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    for decoded in (complex_from_json(data, "test"),
                    complex_rows_from_json([data[:1], data[1:]], lambda j: f"v{j}")):
        assert decoded.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [[1.0], [True, 0], ["1", 0], [float("nan"), 0], [10**400, 0]])
@pytest.mark.parametrize("rows", [3, 40])
def test_rows_codec_names_the_first_bad_vector_and_entry(bad, rows):
    # few vectors or many, the error names the vector and the entry's index
    # inside it, as one call per vector did
    data = [[[0.5, -0.5], [1, 0]] for _ in range(rows)]
    data[rows - 2] = [[1, 0], bad]
    data[rows - 1] = [[True, 0]]
    with pytest.raises(SchemaError, match=rf"^v{rows - 2}: entry 1 must be a \[re, im\] pair"):
        complex_rows_from_json(data, lambda j: f"v{j}")


@pytest.mark.parametrize("row", [[], {"re": 1}, None])
def test_rows_codec_refuses_a_vector_that_is_not_a_list_of_pairs(row):
    with pytest.raises(SchemaError, match=r"^v1: expected a non-empty list of \[re, im\] pairs$"):
        complex_rows_from_json([[[1, 0]], row, [[True, 0]]], lambda j: f"v{j}")


@given(st.text())
@example("caf\u00e9 \"quoted\" \\ \n\t\x00\u2028 \ud83d\ude00")
@example("100% %s %% %(x)s %.17g")
def test_strings_and_keys_are_emitted_as_json_dumps_does(text):
    assert canonical_dumps(text) == json.dumps(text, ensure_ascii=False)
    assert canonical_dumps({text: [text]}) == json.dumps({text: [text]}, ensure_ascii=False)


class _Label(str):
    pass


def test_subclasses_take_the_isinstance_path():
    doc = collections.OrderedDict(
        [(_Label("a"), np.float64(0.1)), ("b", (True, None, _Label("x\n"), 3)), ("c", [-0.0])]
    )
    assert canonical_dumps(doc) == '{"a": 0.10000000000000001, "b": [true, null, "x\\n", 3], "c": [0]}'


def test_codec_gives_a_read_only_float64_view_of_pairs():
    a = np.array([[1 + 2j, -0.0 - 3j], [0.5j, 4]])
    pairs = complex_to_json(a)
    assert pairs.dtype == np.float64 and pairs.shape == (2, 2, 2)
    assert not pairs.flags.writeable
    assert canonical_dumps(pairs) == "[[[1, 2], [0, -3]], [[0, 0.5], [4, 0]]]"


_SIZES = st.integers(1, 6)
_SHAPES = st.one_of(
    st.just(()),
    st.just((0, 2)),
    st.tuples(_SIZES),
    st.tuples(_SIZES, st.just(2)),
    st.tuples(_SIZES, _SIZES, st.just(2)),
)
# strings that a "%" fill would misread if they were not escaped
_TEXTS = st.sampled_from(["%", "%%", "%s", "%.17g", "\0", "%(x)s", "100%"]) | st.text()
_EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@given(arrays(np.float64, _SHAPES, elements=doubles), _TEXTS, _TEXTS)
@example(np.array(_EDGES), "%", "%s")
@example(np.array([_EDGES, _EDGES]).T.copy(), "%%", "\0")
@example(np.array(-0.0), "k", "v")
@example(np.zeros((0, 2)), "%", "%")
def test_an_array_is_written_as_its_list_is(arr, key, text):
    assert canonical_dumps(arr) == canonical_dumps(arr.tolist())
    doc = {key: [arr, text], "%s": {text: arr, "x": -0.0}, "n": [text, arr, arr]}
    listed = {key: [arr.tolist(), text], "%s": {text: arr.tolist(), "x": -0.0},
              "n": [text, arr.tolist(), arr.tolist()]}
    assert canonical_dumps(doc) == canonical_dumps(listed)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("at", [0, 5])
def test_a_non_finite_array_entry_is_refused(bad, at):
    arr = np.zeros((3, 2, 2))
    arr.reshape(-1)[at] = bad
    with pytest.raises(ValueError, match="non-finite"):
        canonical_dumps({"%": ["a", arr]})


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(1),
        {1: 2},
        b"x",
        {1.5},
        np.bool_(True),
        np.zeros(2, dtype=np.int64),
        np.zeros(2, dtype=np.complex128),
        np.zeros(2, dtype=bool),
        np.zeros(2, dtype=np.float32),
        np.array([1.0, "x"], dtype=object),
    ],
)
def test_emission_refuses_what_it_cannot_write_canonically(obj):
    with pytest.raises(TypeError):
        canonical_dumps(obj)


@pytest.mark.parametrize(
    "x",
    [0.1, 1 / 3, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -2.5, np.float64(2 / 3)],
)
def test_a_standalone_float_is_written_with_17_significant_digits(x):
    # both zeros are written "0"; next to an array, the float keeps its text
    text = format(float(x) + 0.0, ".17g")
    assert canonical_dumps(x) == text
    assert canonical_dumps([x, np.array([0.25, x])]) == f"[{text}, [0.25, {text}]]"
    assert canonical_dumps({"%": np.zeros(1), "x": x}) == f'{{"%": [0], "x": {text}}}'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_a_non_finite_standalone_float_is_refused(bad):
    for doc in (bad, [np.zeros(2), bad], {"a": [1.5, bad]}):
        with pytest.raises(ValueError, match="^non-finite float cannot be serialized$"):
            canonical_dumps(doc)
