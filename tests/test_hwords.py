import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from immaculates.hwords import _RENDER_CHUNK, _UTF32, HExpansion, add_terms, normalize_word
from immaculates.ndet import immaculate

from support import (
    concat,
    large_coefficients,
    merge_with_counter,
    render_by_terms,
    render_words_by_key_sort,
)

subscripts = st.lists(st.integers(min_value=-3, max_value=6), max_size=6)


def test_normalize_drops_zeros_and_kills_negatives():
    assert normalize_word((4, 0, 2)) == (4, 2)
    assert normalize_word((7, 1, -2)) is None
    assert normalize_word((0, 0, 0)) == ()


def test_concat():
    assert concat((4,), (2,)) == (4, 2)
    assert concat((3, 1), ()) == (3, 1)
    assert concat((2,), (4,)) == (2, 4) != (4, 2)


@given(subscripts, subscripts)
def test_normalize_respects_concatenation(u, v):
    whole = normalize_word(tuple(u) + tuple(v))
    nu, nv = normalize_word(u), normalize_word(v)
    if nu is None or nv is None:
        assert whole is None
    else:
        assert whole == concat(nu, nv)


def test_add_term_examples():
    word = normalize_word((5, 0, 1))
    e = HExpansion([(word, +1)])
    assert e == HExpansion({(5, 1): 1})
    assert HExpansion([(word, +1), (word, -1)]) == HExpansion()
    assert normalize_word((1, -1)) is None  # such a word adds no term


@given(subscripts)
def test_add_then_remove_is_identity(raw):
    base = {(2, 2): 3, (): -1}
    word = normalize_word(raw)
    acc = dict(base)
    for step in [] if word is None else [(word, +1), (word, -1)]:
        add_terms(acc, [step])
    assert acc == base


def test_expansion_equality():
    a = HExpansion({(4, 2): 1, (3, 1, 2): -1})
    assert a == HExpansion({(3, 1, 2): -1, (4, 2): 1})
    assert HExpansion() == HExpansion({})
    assert HExpansion({(1, 1): 1, (2,): -1}) != HExpansion({(1, 1): 1})


def test_constructor_rejects_unnormalized_words():
    with pytest.raises(ValueError):
        HExpansion({(0, 2): 1})
    with pytest.raises(ValueError):
        HExpansion({(-1,): 1})


def test_constructor_drops_zero_coefficients():
    assert HExpansion({(3,): 0}) == HExpansion()
    assert len(HExpansion([((3,), 2), ((3,), -2)])) == 0


def test_render_canonical():
    assert HExpansion({(4, 2): 1, (3, 1, 2): -1}).render() == "+1·H[4,2] -1·H[3,1,2]"
    assert HExpansion().render() == "0"
    assert HExpansion({(): 1}).render() == "+1·H[]"
    # sorted by length first, then lexicographically
    e = HExpansion({(2,): -1, (1, 1): 1, (1, 2): 3})
    assert e.render() == "-1·H[2] +1·H[1,1] +3·H[1,2]"


expansions = st.dictionaries(
    st.lists(st.integers(min_value=1, max_value=4), max_size=3).map(tuple),
    st.integers(min_value=-4, max_value=4).filter(bool),
    max_size=4,
).map(HExpansion)


@given(expansions, expansions)
def test_render_is_injective(a, b):
    if a.render() == b.render():
        assert a == b


# Subscripts 9..12 sort differently as numbers and as text.
wide_word_terms = st.dictionaries(
    st.lists(st.integers(min_value=1, max_value=12), max_size=5).map(tuple),
    large_coefficients,
    max_size=12,
)


@given(wide_word_terms)
@example({})
def test_render_matches_key_sort_oracle(terms):
    assert HExpansion(terms).render() == render_words_by_key_sort(terms)


def _seam_expansions():
    """Expansions far larger than one render chunk, of mixed word lengths."""
    rng = random.Random(0x5EA3)

    def coefficient():
        c = rng.choice((1, 2, 97, 10**30, 2**200 + 1))
        return c if rng.random() < 0.5 else -c

    # every word of length 0..4 over 1..9: 7381 terms, the unit word included
    short = itertools.chain.from_iterable(
        itertools.product(range(1, 10), repeat=n) for n in range(5)
    )
    yield HExpansion({word: coefficient() for word in short})
    # one length only, with subscripts of one to three digits
    yield HExpansion({word: coefficient() for word in itertools.product(range(1, 121), repeat=2)})
    # the unit word alone, a lone big coefficient, and zero
    yield HExpansion({(): 1})
    yield HExpansion({(3, 11): -(2**200)})
    yield HExpansion()


def test_render_matches_per_term_oracle_across_chunk_seams():
    for expansion in _seam_expansions():
        assert expansion.render() == render_by_terms(expansion)
    # 7! = 5040 terms of one length, every one rendered and compared
    expansion = immaculate((7,) * 7)
    assert len(expansion) == 5040
    assert expansion.render() == render_by_terms(expansion)


def test_render_seam_keeps_unit_word_big_and_negative_coefficients():
    # '%', ',' and ']' are code points 37, 44 and 93: each must render as a subscript
    words = sorted(itertools.product((1, 37, 44, 93, 1000), repeat=5))
    for count in (_RENDER_CHUNK - 1, _RENDER_CHUNK, _RENDER_CHUNK + 1, 2 * _RENDER_CHUNK + 3):
        # signs alternate in render order, so both sides of every seam differ
        terms = {word: (-1) ** i * (2**64 + i) for i, word in enumerate(words[:count])}
        terms[()] = -(2**65)
        expansion = HExpansion(terms)
        text = expansion.render()
        assert text == render_by_terms(expansion)
        big = 2**64
        assert text.startswith(f"-{2 * big}·H[] +{big}·H[1,1,1,1,1] -{big + 1}·H[1,1,1,1,37] ")
        last = ",".join(map(str, words[count - 1]))
        assert text.endswith(f"{(-1) ** (count - 1) * (big + count - 1):+d}·H[{last}]")


def test_coefficient_lookup():
    e = HExpansion({(4, 2): 1, (3, 1, 2): -1})
    assert e.coefficient((4, 2)) == 1
    assert e.coefficient((9,)) == 0
    # no stored word holds a negative subscript or one above the limit
    for key in ((-1,), (sys.maxunicode + 1,), (2**70,), (4, 2**70)):
        assert e.coefficient(key) == 0, key
    assert not e.is_zero()
    assert len(e) == 2


def test_repr():
    e = HExpansion({(4, 2): 1, (3, 1, 2): -1, (): 5})
    assert repr(e) == "HExpansion('+5·H[] +1·H[4,2] -1·H[3,1,2]')"
    assert repr(HExpansion()) == "HExpansion('0')"


word_pairs = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=10,
)


@given(word_pairs)
def test_merge_matches_counter(pairs):
    expected = merge_with_counter(pairs)
    assert dict(HExpansion(pairs).items()) == expected
    unit_steps = [(word, 1 if c > 0 else -1) for word, c in pairs for _ in range(abs(c))]
    built = {}
    for step in unit_steps:
        add_terms(built, [step])
    assert built == expected


LIMIT = sys.maxunicode
SURROGATE = 0xD800  # 55296, a lone surrogate code point


def test_largest_and_surrogate_subscripts_render_and_round_trip():
    top = HExpansion({(LIMIT, 3): 2})
    assert top.render() == f"+2·H[{LIMIT},3]"
    assert dict(top.items()) == {(LIMIT, 3): 2}
    mid = HExpansion({(SURROGATE,): 1, (SURROGATE, 7): -3})
    assert mid.render() == f"+1·H[{SURROGATE}] -3·H[{SURROGATE},7]"
    assert dict(mid.items()) == {(SURROGATE,): 1, (SURROGATE, 7): -3}
    assert mid == HExpansion(dict(mid.items()))


def test_one_letter_words_render_across_chunk_seams():
    # one column per term: only the last-subscript texts are used
    for count in (_RENDER_CHUNK - 1, _RENDER_CHUNK, _RENDER_CHUNK + 1, 2 * _RENDER_CHUNK + 3):
        subscripts = [*range(1, count - 2), SURROGATE, SURROGATE + 1, LIMIT]
        terms = {(a,): (-1) ** i * (2**64 + i) for i, a in enumerate(subscripts)}
        expansion = HExpansion(terms)
        text = expansion.render()
        assert text == render_by_terms(expansion)
        assert text.startswith(f"+{2**64}·H[1] -{2**64 + 1}·H[2] ")
        assert text.endswith(f"{(-1) ** (count - 1) * (2**64 + count - 1):+d}·H[{LIMIT}]")


def test_words_are_read_as_native_code_points():
    s = "".join(map(chr, (1, SURROGATE, 0xDFFF, LIMIT, 7)))
    codes = memoryview(s.encode(_UTF32, "surrogatepass")).cast("I")
    assert codes.tolist() == list(map(ord, s))


def test_render_holds_about_twice_its_text():
    # distinct big coefficients: a table of their texts kept for the whole
    # render would hold about five times the text
    words = itertools.islice(itertools.product(range(1, 12), repeat=5), 20_000)
    expansion = HExpansion({word: 2**64 + i for i, word in enumerate(words)})
    tracemalloc.start()
    try:
        text = expansion.render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == render_by_terms(expansion)
    assert peak <= 2.5 * len(text), peak / len(text)


def test_subscript_above_the_limit_is_rejected():
    with pytest.raises(ValueError, match=f"above the limit {LIMIT}"):
        HExpansion({(LIMIT + 1,): 1})
    with pytest.raises(ValueError, match=f"above the limit {LIMIT}"):
        HExpansion([((2, LIMIT + 1, 1), 1)])
    e = HExpansion({(LIMIT,): 4})
    assert e.coefficient((LIMIT + 1,)) == 0
    assert e.coefficient((LIMIT,)) == 4


# Small subscripts, and subscripts near the surrogates and near the limit.
edge_subscripts = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=SURROGATE - 2, max_value=SURROGATE + 2),
    st.integers(min_value=LIMIT - 2, max_value=LIMIT),
)
edge_words = st.lists(edge_subscripts, max_size=4).map(tuple)


@given(
    st.dictionaries(edge_words, st.integers(min_value=-3, max_value=3), max_size=8),
    st.lists(edge_words, max_size=4),
)
@example({(SURROGATE,): 1, (LIMIT, 1): -2, (): 0}, [(LIMIT + 1,), (0, 1), (-1,)])
def test_words_round_trip_through_the_stored_form(terms, probes):
    expected = {word: c for word, c in terms.items() if c}
    expansion = HExpansion(terms)
    assert dict(expansion.items()) == expected
    for word in [*terms, *probes]:
        assert expansion.coefficient(word) == expected.get(word, 0)
    twin = HExpansion(list(reversed(terms.items())))
    assert twin == expansion and hash(twin) == hash(expansion)
    assert expansion.render() == render_by_terms(expansion)
