import collections
import hashlib
import itertools
import math
import operator
import random
import sys
import tracemalloc

import pytest
from hypothesis import given

from immaculates import ndet
from immaculates.errors import DimensionCapError
from immaculates.hwords import HExpansion, _encoded
from immaculates.matrix import SubscriptMatrix, build_matrix
from immaculates.ndet import (
    SignedSelection,
    immaculate,
    ndet_laplace,
    permutation_sign,
    skew_immaculate,
)
from immaculates.predicates import necessary_condition_holds

from support import (
    compositions_up_to_weight,
    equal_length_pairs,
    ndet_permutation_sum,
    random_composition,
    term_of_selection,
    zero_free_pairs,
)


def test_permutation_sign():
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1, 3)) == -1
    assert permutation_sign((2, 4, 1, 3)) == -1
    assert permutation_sign(()) == 1


def test_signed_selection_validates():
    sel = SignedSelection.from_columns((2, 4, 1, 3))
    assert sel.sign == -1
    with pytest.raises(ValueError):
        SignedSelection.from_columns((1, 1, 2))


def test_worked_expansion():
    m = build_matrix((6, 4, 3), (2, 4, 1))
    expected = HExpansion({(4, 2): 1, (3, 1, 2): -1})
    assert ndet_permutation_sum(m) == expected
    assert ndet_laplace(m) == expected


def test_cancelling_pair_expands_to_zero():
    assert ndet_permutation_sum(build_matrix((9, 5, 5), (2, 5, 6))).is_zero()
    assert skew_immaculate((9, 5, 5), (2, 5, 6)).is_zero()
    # no zero entry, but bhat (-1, -1, -3) repeats: the two equal columns cancel
    assert ndet_permutation_sum(build_matrix((5, 5, 5), (0, 1, 0))).is_zero()
    expansion = skew_immaculate((5, 5, 5), (0, 1, 0))
    assert expansion.is_zero() and len(expansion) == 0 and expansion.render() == "0"


def test_all_terms_dead_pair_expands_to_zero():
    assert ndet_permutation_sum(build_matrix((5, 7, 1, 3), (5, 5, 5, 1))).is_zero()


def test_laplace_two_by_two_and_one_by_one():
    assert ndet_laplace(build_matrix((3, 3), (2, 2))) == HExpansion(
        {(1, 1): 1, (2,): -1}
    )
    assert ndet_laplace(build_matrix((4,), (1,))) == HExpansion({(3,): 1})


def test_skew_equals_plain_on_zero_skew():
    assert skew_immaculate((3, 3), (2, 2)) == immaculate((1, 1))
    assert immaculate((1, 1)) == HExpansion({(1, 1): 1, (2,): -1})
    assert immaculate((5,)) == HExpansion({(5,): 1})
    assert immaculate((2, 1)) == HExpansion({(2, 1): 1, (3,): -1})


def test_immaculate_matches_zero_skew_for_small_indices():
    for mu in compositions_up_to_weight(7, 1):
        assert immaculate(mu) == skew_immaculate(mu, (0,) * len(mu))
    for length in (2, 3, 4, 5, 6):
        for mu in compositions_up_to_weight(7, length):
            assert immaculate(mu) == skew_immaculate(mu, (0,) * len(mu))


def test_cross_implementation_exhaustive_small():
    for length in (1, 2, 3):
        comps = list(compositions_up_to_weight(6, length))
        for alpha in comps:
            for beta in comps:
                m = build_matrix(alpha, beta)
                assert ndet_permutation_sum(m) == ndet_laplace(m)


def test_cross_implementation_random_up_to_seven():
    rng = random.Random(0xD1CE)
    for _ in range(120):
        length = rng.choice((4, 5, 6, 7))
        m = build_matrix(
            random_composition(rng, length, 13), random_composition(rng, length, 13)
        )
        assert ndet_permutation_sum(m) == ndet_laplace(m)


@given(equal_length_pairs())
def test_laplace_matches_permutation_sum_and_validating_constructor(pair):
    m = build_matrix(*pair)
    expansion = ndet_laplace(m)
    assert expansion == ndet_permutation_sum(m)
    # the unvalidated result holds only words the public constructor accepts
    assert expansion == HExpansion(dict(expansion.items()))


def test_all_negative_row_forces_zero():
    m = build_matrix((1, 1), (5, 5))
    assert m.entries[0] == (-4, -3)
    assert ndet_permutation_sum(m).is_zero()
    assert ndet_laplace(m).is_zero()


def test_term_of_selection_worked_example():
    m = build_matrix((4, 1, 6, 5), (2, 1, 3, 2))
    sel = SignedSelection.from_columns((2, 4, 1, 3))
    assert term_of_selection(m, sel) == (-1, (4, 1, 2, 1))


def test_term_of_selection_identity_drops_units():
    m = build_matrix((6, 4, 3), (2, 4, 1))
    sel = SignedSelection.from_columns((1, 2, 3))
    assert term_of_selection(m, sel) == (1, (4, 2))  # middle factor is the unit


def test_term_of_selection_negative_entry_is_absent():
    m = build_matrix((6, 4, 3), (2, 4, 1))
    sel = SignedSelection.from_columns((3, 2, 1))  # row 3 takes entry -1
    assert term_of_selection(m, sel) is None


def test_signed_accumulation_of_selections_equals_permutation_sum():
    rng = random.Random(0xACC)
    for _ in range(40):
        length = rng.choice((2, 3, 4, 5))
        m = build_matrix(
            random_composition(rng, length, 10), random_composition(rng, length, 10)
        )
        pairs = []
        for perm in itertools.permutations(range(1, length + 1)):
            sel = SignedSelection.from_columns(perm)
            got = term_of_selection(m, sel)
            if got is not None:
                sign, word = got
                pairs.append((word, sign))
        assert HExpansion(pairs) == ndet_permutation_sum(m)


def test_dimension_cap_enforced():
    alpha = tuple(range(2, 13))  # length 11 exceeds the default cap
    beta = (1,) * 11
    with pytest.raises(DimensionCapError):
        skew_immaculate(alpha, beta)
    with pytest.raises(DimensionCapError):
        ndet_permutation_sum(build_matrix(alpha, beta))
    # explicit cap override allows it in principle; use a tiny case instead
    m = build_matrix((2, 1), (1, 1))
    assert ndet_laplace(m, cap=None) == ndet_laplace(m)


def test_laplace_releases_each_minor_once_used():
    # Split in halves, 8^8 keeps only their small minors beside the result
    # (~1.005x); the release itself is guarded on the layered pass below.
    # 8^8 is zero-free, so ndet_laplace would not run the engine on it.
    tracemalloc.start()
    try:
        result = ndet._expanded(build_matrix((8,) * 8, (0,) * 8))
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 40320
    assert peak <= 1.15 * size


def test_layered_pass_releases_each_minor_once_used():
    # The layered pass, which goes on up through the top rows when a bottom
    # minor is zero (most Jacobi-Trudi shapes, sparse matrices), here over
    # all rows: holding a whole layer while the next is built peaks near
    # 1.9x the result on 8^8; releasing each minor after its cofactors
    # keeps ~1.3x.
    m = build_matrix((8,) * 8, (0,) * 8)
    cells = [[{_encoded((e,)): 1} for e in row] for row in m.entries]
    tracemalloc.start()
    try:
        det = ndet._minors(cells, {0: {"": 1}}, operator.add)[(1 << 8) - 1]
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(det) == 40320
    assert peak <= 1.5 * size


def test_laplace_words_take_little_memory():
    # Words stored as tuples traced about 166 bytes per term of 8^8 at
    # peak; one code point per subscript in a str brings it near 104.
    tracemalloc.start()
    try:
        result = ndet._expanded(build_matrix((8,) * 8, (0,) * 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 40320
    assert peak <= 128 * len(result)


def test_subscript_above_the_limit_is_rejected():
    assert immaculate((sys.maxunicode,)).render() == f"+1·H[{sys.maxunicode}]"
    with pytest.raises(ValueError, match=f"above the limit {sys.maxunicode}"):
        immaculate((sys.maxunicode + 1,))


def test_hand_built_matrix_above_the_limit_gets_the_limit_message():
    message = f"subscript 1114113 is above the limit {sys.maxunicode}"
    with pytest.raises(ValueError, match=message):
        SubscriptMatrix((1114113,), (0,), (1114112,), (-1,))
    assert SubscriptMatrix((), (), (), ()).dim == 0


def test_laplace_forms_each_word_about_once(monkeypatch):
    # A layered pass over all rows of 8^8 makes 109,600 products, 2.72 * 8!;
    # the two half passes and their combination make 44,480, 1.10 * 8!.
    calls = 0
    add_product = ndet.add_product

    def counting_add_product(acc, left, right, mul, scale):
        def counted_mul(u, v):
            nonlocal calls
            calls += 1
            return mul(u, v)

        return add_product(acc, left, right, counted_mul, scale)

    monkeypatch.setattr(ndet, "add_product", counting_add_product)
    result = ndet._expanded(build_matrix((8,) * 8, (0,) * 8))
    assert len(result) == math.factorial(8)
    assert calls <= 1.2 * math.factorial(8)


def _refuse(*args):
    raise AssertionError("this expansion step must not run")


def test_dimension_cap_comes_before_any_work(monkeypatch):
    monkeypatch.setattr(ndet, "_placements", _refuse)
    monkeypatch.setattr(ndet, "_determinant", _refuse)
    alpha, beta = tuple(range(2, 13)), (1,) * 11  # zero-free, distinct bhat
    with pytest.raises(DimensionCapError):
        skew_immaculate(alpha, beta)


def _ferrers_rook_count(m):
    """prod_k (c_(k) - k + 1), c_(k) the columns below the k-th smallest ahat."""
    return math.prod(
        sum(b < a for b in m.bhat) - k for k, a in enumerate(sorted(m.ahat))
    )


@given(zero_free_pairs())
def test_zero_free_expansion_is_the_engines(pair):
    m = build_matrix(*pair)
    got = ndet_laplace(m)
    engine = HExpansion._of(ndet._expanded(m))
    assert got.render() == ndet_permutation_sum(m).render()
    assert isinstance(got, HExpansion) and repr(got) == repr(engine)
    # the count comes from the placements, before any term is built
    assert len(got) == _ferrers_rook_count(m) == len(engine)
    assert got.is_zero() == engine.is_zero() == (got.render() == "0")
    assert got == engine and engine == got and hash(got) == hash(engine)
    assert got != HExpansion({(1,) * (m.dim + 1): 1}) and got != engine.render()
    assert dict(got.items()) == dict(engine.items())
    for word, coeff in engine.items():
        assert got.coefficient(word) == coeff


def test_zero_free_expansion_renders_without_the_engine(monkeypatch):
    monkeypatch.setattr(ndet, "_determinant", _refuse)
    expansion = immaculate((9,) * 9)
    assert len(expansion) == math.factorial(9) and not expansion.is_zero()
    text = expansion.render()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bd9d1c66f28826be564dbc0f1183c4102e24d0dd86415b672a76d1ca0c2b16e1"
    )


def _split_test_pairs():
    """Pairs of length 1 and 4-6 with small parts, and with every hat in 0..l-1.

    The compositions give repeated bhat, zero pivots and negative entries
    below the diagonal; the hat pairs, ahat weakly increasing and bhat
    distinct, put the negative entries in the top rows.
    """
    yield from itertools.product(((1,), (2,), (3,)), ((0,), (1,), (2,), (4,)))
    for length in (4, 5, 6):
        alphas = list(compositions_up_to_weight(length + 2, length))
        zeros = (0,) * (length - 1)
        yield from itertools.product(alphas, alphas + [(0, *zeros), (1, *zeros), (*zeros, 2)])
        rows = range(length)
        bhats = [(*rows,), (*reversed(rows),), (1, 0, *rows[2:]), (*rows[:-2], *rows[:-3:-1])]
        for ahat in itertools.combinations_with_replacement(rows, length):
            alpha = [a + i for i, a in enumerate(ahat, 1)]
            yield from ((alpha, [b + j for j, b in enumerate(bhat, 1)]) for bhat in bhats)


def _halves_joined(m):
    """Whether ``ndet_laplace`` joins two half passes: no bottom minor is zero."""
    h = m.dim // 2
    return all(
        not ndet_permutation_sum(SubscriptMatrix((), (), m.ahat[h:], bhat)).is_zero()
        for bhat in itertools.combinations(m.bhat, m.dim - h)
    )


def test_half_split_sign_matches_permutation_sum():
    # Where the halves are not joined, the layered pass goes on through the
    # top rows; both paths must see every kind of pair.
    seen = collections.Counter()
    for alpha, beta in _split_test_pairs():
        m = build_matrix(alpha, beta)
        expected = ndet_permutation_sum(m)
        assert ndet_laplace(m) == expected, (alpha, beta)
        path = ("split" if _halves_joined(m) else "layered", m.dim)
        entries = [e for row in m.entries for e in row]
        seen[path, "any"] += 1
        # the counting test decides whether some term survives the pruning
        survives = necessary_condition_holds(alpha, beta)
        seen[path, "cancelling"] += expected.is_zero() and survives
        seen[path, "zero pivot"] += 0 in entries
        seen[path, "negative"] += min(entries) < 0
        seen[path, "repeated bhat"] += len(set(m.bhat)) < m.dim
    for dim in (4, 5, 6):
        for case in ("any", "cancelling", "zero pivot", "negative"):
            assert seen[("split", dim), case] and seen[("layered", dim), case], (dim, case)
        assert seen[("layered", dim), "repeated bhat"], dim
    assert seen[("split", 1), "any"] and seen[("layered", 1), "any"]
