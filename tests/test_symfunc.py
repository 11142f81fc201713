import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from immaculates.hwords import HExpansion
from immaculates.ndet import immaculate, permutation_sign
from immaculates.symfunc import (
    Poly,
    forgetful,
    generate_ssyt,
    h_poly,
    schur_decompose,
    schur_via_jacobi_trudi,
    schur_via_tableaux,
)

from support import (
    evaluate_terms,
    forgetful_by_words,
    h_poly_by_combinations,
    large_coefficients,
    m_poly,
    partitions_up_to_weight,
    permute_variables,
    render_poly_by_key_sort,
    schur_by_enumeration,
    skew_shapes_up_to_weight,
    ssyt_by_product,
)


def poly_from(n, monomials):
    return Poly(n, monomials)


def test_h_poly_small():
    assert h_poly(2, 2) == poly_from(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert h_poly(0, 3) == Poly(3, {(0, 0, 0): 1})
    assert h_poly(-1, 3) == Poly(3)
    assert len(h_poly(3, 3)) == 10  # all ten degree-3 monomials, coefficient 1
    assert all(c == 1 for _, c in h_poly(3, 3).items())


def test_h_poly_matches_combinations():
    # degrees 1, 2, 3, 4, 7 and 8 sit at the edges of a packed digit's width
    for k in range(-1, 11):
        for n in range(1, 6):
            assert h_poly(k, n) == h_poly_by_combinations(k, n), (k, n)


def test_m_poly_examples():
    assert m_poly((2, 1, 1), 3) == poly_from(
        3, {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1}
    )
    assert m_poly((4,), 1) == poly_from(1, {(4,): 1})
    assert len(m_poly((2, 1), 3)) == 6
    assert m_poly((1, 1), 1) == Poly(1)
    with pytest.raises(ValueError):
        m_poly((1, 2), 3)


def test_poly_arithmetic_and_render():
    p = poly_from(2, {(1, 0): 1})
    q = poly_from(2, {(0, 1): 1})
    assert (p + q) * (p + q) == p * p + 2 * (p * q) + q * q
    assert (p - p).is_zero()
    assert (p * q).render() == "+1·x1·x2"
    assert Poly(2).render() == "0"
    assert Poly(2, {(0, 0): 1}).render() == "+1"
    assert (3 * p * p - q).render() == "+3·x1^2 -1·x2"


def test_poly_with_a_non_poly_operand_raises_type_error():
    p = poly_from(2, {(1, 0): 3})
    # p * 2.5 is the "Poly scale" entry of test_exact_input.py
    for combine in (lambda: 2.5 * p, lambda: p + 1, lambda: p - 1):
        with pytest.raises(TypeError, match="cannot combine a Poly with"):
            combine()
    with pytest.raises(ValueError, match="variable counts differ"):
        p + Poly(3)


@st.composite
def wide_poly_terms(draw):
    """(nvars, {exponents: coeff}) in 1..4 variables, exponents up to 11."""
    n = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=11)] * n)
    return n, draw(st.dictionaries(exps, large_coefficients, max_size=12))


@given(wide_poly_terms())
@example((1, {}))
@example((3, {}))
def test_poly_render_matches_key_sort_oracle(drawn):
    n, terms = drawn
    assert Poly(n, terms).render() == render_poly_by_key_sort(terms)


def test_term_map_equality_reads_class_slots_and_terms():
    assert HExpansion() != Poly(1)
    assert Poly(1) != HExpansion()
    assert HExpansion({(2,): 1}) != Poly(1, {(2,): 1})
    assert Poly(2) != Poly(3)
    assert Poly(2, {(1, 0): 1}) != Poly(2, {(1, 0): 2})
    words = HExpansion({(4, 2): 1, (3, 1, 2): -1})
    assert words == HExpansion([((3, 1, 2), -1), ((4, 2), 1), ((1,), 0)])
    assert hash(words) == hash(HExpansion([((3, 1, 2), -1), ((4, 2), 1)]))
    assert hash(Poly(2, {(1, 0): 1, (0, 1): 1})) == hash(h_poly(1, 2))
    assert hash(Poly(3)) == hash(Poly(3, {(1, 0, 0): 0}))
    assert len({Poly(2), Poly(2, {}), Poly(3), HExpansion(), words}) == 4


def test_poly_repr():
    p = Poly(3, {(2, 0, 1): -3, (0, 0, 0): 2, (1, 0, 0): 1})
    assert repr(p) == "Poly(3, '-3·x1^2·x3 +1·x1 +2')"
    assert repr(Poly(2)) == "Poly(2, '0')"


@st.composite
def poly_term_lists(draw):
    """(nvars, two lists of (exponents, coeff) pairs), repeats and zeros allowed."""
    n = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    pairs = st.lists(st.tuples(exps, st.integers(min_value=-4, max_value=4)), max_size=8)
    return n, draw(pairs), draw(pairs)


points = st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3)


@given(poly_term_lists(), st.lists(points, min_size=1, max_size=4))
def test_poly_arithmetic_matches_evaluation(terms, samples):
    n, left, right = terms
    p, q = Poly(n, left), Poly(n, right)
    for point in samples:
        x = point[:n]
        vp, vq = evaluate_terms(left, x), evaluate_terms(right, x)
        assert evaluate_terms(p.items(), x) == vp
        assert evaluate_terms((p + q).items(), x) == vp + vq
        assert evaluate_terms((p - q).items(), x) == vp - vq
        assert evaluate_terms((p * q).items(), x) == vp * vq


@given(poly_term_lists())
def test_poly_results_equal_their_validated_copies(terms):
    n, left, right = terms
    p, q = Poly(n, left), Poly(n, right)
    for r in (p, p + q, p - q, p * q, 3 * p, h_poly(2, n)):
        copy = Poly(n, dict(r.items()))
        assert copy == r and hash(copy) == hash(r)
        assert all(coeff for _, coeff in r.items())


def test_ssyt_counts():
    assert sum(1 for _ in generate_ssyt((2, 1), (), 3)) == 8
    assert sum(1 for _ in generate_ssyt((2, 2), (1,), 3)) == 8
    assert sum(1 for _ in generate_ssyt((1,), (), 1)) == 1


def test_ssyt_constraints_hold():
    inner = (1, 0, 0)
    for rows in generate_ssyt((3, 2, 1), (1,), 3):
        grid = {}
        for r, row in enumerate(rows):
            for offset, value in enumerate(row):
                grid[(r, inner[r] + offset)] = value
        for (r, c), value in grid.items():
            if (r, c - 1) in grid:
                assert grid[(r, c - 1)] <= value
            if (r - 1, c) in grid:
                assert grid[(r - 1, c)] < value


def test_ssyt_enumeration_is_deterministic():
    first = list(generate_ssyt((2, 2), (1,), 3))
    second = list(generate_ssyt((2, 2), (1,), 3))
    assert first == second
    assert first == sorted(first)  # lexicographic on the filling sequence


def test_ssyt_order_matches_brute_force():
    for outer, inner in skew_shapes_up_to_weight(5):
        for n in (1, 2, 3):
            tableaux = list(generate_ssyt(outer, inner, n))
            assert tableaux == ssyt_by_product(outer, inner, n), (outer, inner, n)


def test_schur_via_tableaux_matches_enumeration_on_every_small_shape():
    shapes = list(skew_shapes_up_to_weight(6))
    assert ((), ()) in shapes and ((2, 1), (1, 0)) in shapes
    for outer, inner in shapes:
        for n in range(1, 6):
            expected = schur_by_enumeration(outer, inner, n)
            assert schur_via_tableaux(outer, inner, n) == expected, (outer, inner, n)


@st.composite
def skew_shapes(draw, max_weight=8):
    """(outer, inner): outer of weight <= max_weight, inner fitting, 0-2 trailing zeros."""
    outer = []
    for part in sorted(draw(st.lists(st.integers(1, max_weight))), reverse=True):
        if sum(outer) + part <= max_weight:
            outer.append(part)
    inner = []
    for part in outer:
        inner.append(draw(st.integers(0, min([part] + inner[-1:]))))
    return tuple(outer), tuple(inner) + (0,) * draw(st.integers(0, 2))


@given(skew_shapes(), st.integers(min_value=1, max_value=5))
@example(((), ()), 3)
@example(((3, 2), (1, 0, 0)), 2)
def test_schur_via_tableaux_matches_enumeration(shape, n):
    outer, inner = shape
    assert schur_via_tableaux(outer, inner, n) == schur_by_enumeration(outer, inner, n)


def test_schur_via_tableaux_rejects_no_variables():
    with pytest.raises(ValueError):
        schur_via_tableaux((1,), (), 0)


def test_schur_21_monomial_expansion():
    assert schur_via_tableaux((2, 1), (), 3) == m_poly((2, 1), 3) + 2 * m_poly(
        (1, 1, 1), 3
    )


def test_skew_schur_22_1_polynomial():
    expected = poly_from(
        3,
        {
            (2, 1, 0): 1,
            (2, 0, 1): 1,
            (1, 2, 0): 1,
            (1, 1, 1): 2,
            (1, 0, 2): 1,
            (0, 2, 1): 1,
            (0, 1, 2): 1,
        },
    )
    assert schur_via_tableaux((2, 2), (1,), 3) == expected
    assert schur_via_jacobi_trudi((2, 2), (1,), 3) == expected


def test_jacobi_trudi_small_cases():
    for n in (1, 3):
        assert schur_via_jacobi_trudi((), (), n) == Poly(n, {(0,) * n: 1})
    assert schur_via_jacobi_trudi((3,), (), 2) == h_poly(3, 2)
    h2, h1, h3 = h_poly(2, 3), h_poly(1, 3), h_poly(3, 3)
    assert schur_via_jacobi_trudi((2, 1), (), 3) == h2 * h1 - h3
    assert schur_via_tableaux((1,), (1,), 2) == Poly(2, {(0, 0): 1})


def test_single_row_schur_is_h():
    for k in (1, 2, 4):
        for n in (1, 2, 3):
            assert schur_via_tableaux((k,), (), n) == h_poly(k, n)


def test_schur_via_jacobi_trudi_matches_enumeration_on_every_small_shape():
    for outer, inner in skew_shapes_up_to_weight(6):
        for n in range(1, 6):
            expected = schur_by_enumeration(outer, inner, n)
            got = schur_via_jacobi_trudi(outer, inner, n)
            assert got == expected, (outer, inner, n)


@given(skew_shapes(), st.integers(min_value=1, max_value=5))
@example(((), ()), 3)
@example(((4, 4), (0, 0)), 2)
@example(((3, 3, 2), (1, 0, 0)), 3)
def test_schur_via_jacobi_trudi_matches_enumeration(shape, n):
    outer, inner = shape
    expected = schur_by_enumeration(outer, inner, n)
    assert schur_via_jacobi_trudi(outer, inner, n) == expected


def _jacobi_trudi_halves_joined(outer, inner, n):
    """Whether the Jacobi-Trudi determinant joins two half passes: no bottom minor is zero."""
    l = len(outer)
    inner = tuple(inner) + (0,) * (l - len(inner))
    h = l // 2
    rows = range(h, l)
    for cols in itertools.combinations(range(l), l - h):
        minor = Poly(n)
        for perm in itertools.permutations(cols):
            term = Poly(n, {(0,) * n: permutation_sign(perm)})
            for i, j in zip(rows, perm):
                term = term * h_poly(outer[i] - i - (inner[j] - j), n)
            minor = minor + term
        if minor.is_zero():
            return False
    return True


@pytest.mark.parametrize(
    "outer, inner, n, terms, joined",
    [
        ((2, 2, 2, 2), (), 4, 1, True),
        ((2, 2, 2, 2), (), 5, 15, True),
        ((3, 3, 3, 3), (), 5, 35, True),
        ((2, 2, 2, 2, 2), (), 5, 1, True),
        ((2, 2, 2, 2), (1, 1), 4, 6, False),
    ],
)
def test_jacobi_trudi_at_four_and_five_rows(outer, inner, n, terms, joined):
    # The small-shape sweeps join the halves only up to 3 rows.
    got = schur_via_jacobi_trudi(outer, inner, n)
    assert got == schur_by_enumeration(outer, inner, n)
    assert len(got) == terms
    assert _jacobi_trudi_halves_joined(outer, inner, n) == joined


def test_tableaux_equal_determinant_on_sample():
    rng = random.Random(7)
    for _ in range(25):
        lam = rng.choice(
            [p for length in (1, 2, 3) for p in partitions_up_to_weight(6, length)]
        )
        inners = [
            nu
            for r in range(len(lam) + 1)
            for nu in itertools.product(*(range(lam[i] + 1) for i in range(r)))
            if all(nu[i] >= nu[i + 1] for i in range(len(nu) - 1))
        ]
        nu = rng.choice(inners)
        n = rng.randint(1, 4)
        assert schur_via_tableaux(lam, nu, n) == schur_via_jacobi_trudi(lam, nu, n)


def test_symmetry_under_variable_swap():
    swap = (1, 0, 2)
    for p in (
        h_poly(3, 3),
        m_poly((2, 1), 3),
        schur_via_tableaux((2, 2), (1,), 3),
        schur_via_jacobi_trudi((3, 1), (), 3),
    ):
        assert permute_variables(p, swap) == p


def test_forgetful_examples():
    assert forgetful(immaculate((2, 1)), 3) == schur_via_tableaux((2, 1), (), 3)
    assert forgetful(HExpansion(), 3) == Poly(3)
    assert forgetful(HExpansion({(3,): 1}), 3) == h_poly(3, 3)
    assert forgetful(HExpansion({(): 2}), 2) == 2 * Poly(2, {(0, 0): 1})


@st.composite
def expansions_with_rearranged_words(draw):
    """(n, expansion) in 1..4 variables whose words come back rearranged.

    The unit word is always a term.  Each drawn word appears again in a
    drawn order of its letters, with the opposite, the same or twice its
    coefficient, so the letter multisets merge, and often cancel.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    words = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)
    pairs = [((), draw(coeffs))]
    for word in draw(st.lists(words, min_size=1, max_size=4)):
        coeff = draw(coeffs)
        again = draw(st.sampled_from((-coeff, coeff, 2 * coeff)))
        pairs += [(tuple(word), coeff), (tuple(draw(st.permutations(word))), again)]
    return n, HExpansion(pairs)


@given(expansions_with_rearranged_words())
@example((2, HExpansion({(1, 2): 1, (2, 1): -1, (): 3})))
@example((3, HExpansion({(1, 2, 2): 2, (2, 1, 2): 1, (2, 2, 1): -3})))
def test_forgetful_matches_word_by_word_oracle(drawn):
    n, expansion = drawn
    assert forgetful(expansion, n) == forgetful_by_words(expansion, n)


def test_forgetful_at_packed_width_edges():
    # letter sums 2^j - 1 and 2^j: the largest exponent fills its digit's
    # width or needs one more bit
    words = [(1,), (2,), (1, 1, 1), (7,), (8,), (4, 4), (15, 1), (3, 3, 2)]
    expansions = [HExpansion({word: 1}) for word in words] + [
        HExpansion({(8,): 1, (2, 3, 3): -1, (15, 1): 2, (): 5}),
        HExpansion({(): -3}),
        HExpansion(),
    ]
    for n in (1, 2, 3):
        for expansion in expansions:
            expected = forgetful_by_words(expansion, n)
            assert forgetful(expansion, n) == expected, (expansion, n)
    assert forgetful(HExpansion({(): -3}), 2) == Poly(2, {(0, 0): -3})


def test_forgetful_respects_weight_grading():
    p = forgetful(immaculate((3, 2)), 3)
    assert all(sum(e) == 5 for e in p.exponents())


def test_schur_decompose_roundtrip():
    combo = 2 * schur_via_tableaux((2, 1), (), 3) + schur_via_tableaux((3,), (), 3)
    assert schur_decompose(combo) == {(2, 1): 2, (3,): 1}
    assert schur_decompose(Poly(3)) == {}


def test_schur_decompose_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        schur_decompose(poly_from(2, {(0, 1): 1}))


def test_skew_decomposition_instance():
    skew = schur_via_tableaux((6, 3, 2), (5, 1), 4)
    decomp = schur_decompose(skew)
    assert decomp == {(2, 2, 1): 1, (3, 1, 1): 1, (3, 2): 2, (4, 1): 1}
    assert decomp[(3, 2)] == 2


def test_containment_validation():
    with pytest.raises(ValueError):
        list(generate_ssyt((2, 1), (3,), 2))
    with pytest.raises(ValueError):
        list(generate_ssyt((1, 2), (), 2))
    with pytest.raises(ValueError):
        list(generate_ssyt((2, 1), (1, 2), 2))


def test_ssyt_needs_at_least_one_variable():
    with pytest.raises(ValueError, match="need at least one variable"):
        list(generate_ssyt((2, 1), (), 0))


def test_zero_padded_inner_shape_equals_unpadded():
    for outer, padded in (((2,), (1, 0)), ((2, 1), (1, 0, 0))):
        for schur in (schur_via_tableaux, schur_via_jacobi_trudi):
            assert schur(outer, padded, 2) == schur(outer, (1,), 2)
