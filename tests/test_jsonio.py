"""The JSON boundary: parse errors and the [re, im] complex codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from loccdist import ParseError, SchemaError
from loccdist.jsonio import complex_from_json, complex_to_json, parse_json

doubles = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(doubles, doubles), min_size=1, max_size=40))
@example([(-0.0, 5e-324)])
@example([(2.2250738585072014e-308, -1.7976931348623157e308)])
def test_codec_round_trip_is_bit_identical(pairs):
    a = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    again = complex_from_json(complex_to_json(a), "test")
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
    # short lists and long ones, which are first checked whole, agree
    data = [[0.5, -0.5]] * lead + [bad] + [[1, 0], [True, 0]]
    with pytest.raises(SchemaError, match=rf"^test: entry {lead} must be a \[re, im\] pair"):
        complex_from_json(data, "test")


def test_codec_error_names_where_and_entry():
    with pytest.raises(SchemaError, match=r"^state 'a' party 1: entry 2 must be"):
        complex_from_json([[1, 0], [0, 1], [True, 0]], "state 'a' party 1")


def test_overlong_int_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_json("[" + "9" * 5000 + ", 0]")
