import math

import pytest
from hypothesis import given, strategies as st

from immaculates.compositions import (
    enumerate_compositions,
    format_parts,
    hat,
    is_composition,
    is_partition,
    is_weak_composition,
    is_zero_padded_partition,
    pad_to_length,
    parse_int,
    parse_parts,
    strip_trailing_zeros,
)

from support import unhat


def test_hat_worked_examples():
    assert hat((3, 2, 3, 5, 1)) == (2, 0, 0, 1, -4)
    assert hat((5, 7, 1, 3)) == (4, 5, -2, -1)
    assert hat((1,)) == (0,)


def test_hat_on_weak_composition():
    assert hat((0, 0, 0)) == (-1, -2, -3)


def test_is_partition():
    assert is_partition((5, 3, 3, 2))
    assert not is_partition((2, 5, 6))
    assert is_partition((1,))
    assert not is_partition((3, 0, 2))
    assert is_partition(())


def test_is_composition_and_weak():
    assert is_composition((6, 4, 3))
    assert not is_composition(())
    assert not is_composition((2, 0, 1))
    assert is_weak_composition((2, 0, 1))
    assert not is_weak_composition((2, -1))


def test_enumerate_small_listings():
    assert list(enumerate_compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(enumerate_compositions(4, 1)) == [(4,)]
    assert list(enumerate_compositions(2, 3)) == []
    assert list(enumerate_compositions(3, 0)) == []
    assert list(enumerate_compositions(3, -1)) == []


def test_enumerate_count_matches_stars_and_bars():
    comps = list(enumerate_compositions(6, 3))
    assert len(comps) == math.comb(5, 2) == 10
    assert len(set(comps)) == 10
    assert all(sum(c) == 6 and len(c) == 3 for c in comps)
    assert comps == sorted(comps)


@given(st.integers(min_value=1, max_value=14), st.integers(min_value=1, max_value=8))
def test_enumerate_count_property(n, length):
    comps = list(enumerate_compositions(n, length))
    expected = math.comb(n - 1, length - 1) if n >= length else 0
    assert len(comps) == expected
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == n for c in comps)
    assert comps == sorted(comps)


def test_pad_to_length():
    assert pad_to_length((2, 1), 4) == (2, 1, 0, 0)
    assert pad_to_length((3,), 1) == (3,)
    assert pad_to_length((6, 4, 3), 3) == (6, 4, 3)
    with pytest.raises(ValueError):
        pad_to_length((1, 2, 3), 2)


def test_strip_and_padded_partition():
    assert strip_trailing_zeros((3, 1, 0, 0)) == (3, 1)
    assert strip_trailing_zeros((0, 0)) == ()
    assert is_zero_padded_partition((3, 1, 0, 0))
    assert is_zero_padded_partition((0, 0, 0))
    assert not is_zero_padded_partition((3, 0, 2))


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8))
def test_hat_is_invertible(parts):
    assert unhat(hat(tuple(parts))) == tuple(parts)


@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=8))
def test_partition_hat_strictly_decreases(parts):
    lam = tuple(sorted(parts, reverse=True))
    entries = hat(lam)
    assert all(entries[i] > entries[i + 1] for i in range(len(entries) - 1))


def test_parse_and_format_round_trip():
    assert parse_parts("6,4,3") == (6, 4, 3)
    assert parse_parts("0,2", minimum=0) == (0, 2)
    assert format_parts((6, 4, 3)) == "6,4,3"
    with pytest.raises(ValueError):
        parse_parts("6,,3")
    with pytest.raises(ValueError):
        parse_parts("a,b")
    with pytest.raises(ValueError):
        parse_parts("3,0")  # zero part below the default minimum
    with pytest.raises(ValueError, match="every part must be >= 0"):
        parse_parts("-1,2", minimum=0)
    with pytest.raises(ValueError, match="every part must be >= 1"):
        parse_parts("-0,2")
    assert parse_parts(" 6 , 4,3 ") == (6, 4, 3)
    assert parse_parts("\t6,\n4 ,3\r\x0b\x0c") == (6, 4, 3)
    assert parse_parts("007,0", minimum=0) == (7, 0)


@pytest.mark.parametrize(
    "text",
    (
        "1_0,7,9", "+3,2", "\u0663,2", "3,\uff12", "1e1,2", "0x3,2", "--3,2", "3 2", "",
        " 3, 2\u3000", "\u00a03,2", "3,\u20032",
    ),
)
def test_parse_rejects_int_spellings_beyond_ascii_digits(text):
    with pytest.raises(ValueError, match="malformed composition text"):
        parse_parts(text, minimum=0)


def test_parse_int_is_the_part_syntax():
    assert parse_int(" -07\t") == -7
    assert parse_int("\n14\x0c") == 14
    for text in ("1_0", "+3", "\u0663", "\uff12", "1e1", "0x3", "--3", "3 2", "", "2\u3000"):
        with pytest.raises(ValueError, match="malformed integer"):
            parse_int(text)
