import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

from immaculates import predicates
from immaculates.compositions import (
    enumerate_compositions,
    hat,
    is_zero_padded_partition,
    pad_to_length,
)
from immaculates.errors import GreedyPreconditionError, LengthMismatchError
from immaculates.hwords import HExpansion
from immaculates.matrix import build_matrix
from immaculates.ndet import SignedSelection, skew_immaculate
from immaculates.predicates import (
    Classification,
    Outcome,
    _class_outcome,
    _dominates,
    _no_repeated_zero_row,
    classify,
    find_matching_certificate,
    format_certificate,
    greedy_h0_term,
    necessary_condition_holds,
    nocancel_conditions_hold,
)

from support import (
    condition1_all_subsets,
    equal_length_pairs,
    greedy_by_recount,
    matching_by_entries,
    ndet_permutation_sum,
    no_repeated_zero_row_scan,
    random_composition,
    suite2_exhaustive_pairs,
    surviving_term_exists,
    unhat,
)


def test_necessary_condition_worked_examples():
    assert not necessary_condition_holds((5, 7, 1, 3), (5, 5, 5, 1))
    assert necessary_condition_holds((10, 7, 9), (9, 8, 5))
    assert necessary_condition_holds((6, 4, 3), (2, 4, 1))
    # alpha_hat = (0, -1) lies entirely below beta_hat = (4, 3)
    assert not necessary_condition_holds((1, 1), (5, 5))


def test_necessary_condition_rejects_length_mismatch():
    with pytest.raises(LengthMismatchError):
        necessary_condition_holds((1, 2), (1,))


def test_dominates_worked_examples():
    def dominates(alpha, beta):
        return _dominates(hat(alpha), hat(beta))

    # row counts (3, 1, 2) and (3, 3, 1) pass; (0, 0) fails
    assert dominates((10, 7, 9), (9, 8, 5))
    assert dominates((6, 4, 3), (2, 4, 1))
    assert not dominates((1, 1), (5, 5))


@given(equal_length_pairs())
def test_dominates_matches_all_subsets_of_matrix_rows(pair):
    alpha, beta = pair
    literal = [sum(1 for e in row if e >= 0) for row in build_matrix(alpha, beta).entries]
    assert _dominates(hat(alpha), hat(beta)) == condition1_all_subsets(literal)


@given(equal_length_pairs())
def test_necessary_condition_matches_brute_force(pair):
    alpha, beta = pair
    assert necessary_condition_holds(alpha, beta) == surviving_term_exists(
        build_matrix(alpha, beta)
    )


@given(equal_length_pairs())
def test_repeated_zero_row_on_hats_matches_row_scan(pair):
    alpha, beta = pair
    assert _no_repeated_zero_row(hat(alpha), hat(beta)) == no_repeated_zero_row_scan(
        build_matrix(alpha, beta)
    )


def test_matching_certificate_worked_example():
    assert find_matching_certificate(build_matrix((10, 7, 9), (9, 8, 5))) == (1, 3, 2)


def test_matching_certificate_edge_cases():
    assert find_matching_certificate(build_matrix((1, 1), (5, 5))) is None
    # all-nonnegative matrix matches identically
    assert find_matching_certificate(build_matrix((9, 9, 9), (1, 1, 1))) == (1, 2, 3)


@given(equal_length_pairs())
def test_matching_on_hats_equals_matching_on_entries(pair):
    m = build_matrix(*pair)
    assert find_matching_certificate(m) == matching_by_entries(m)


def test_matching_on_hats_equals_matching_on_entries_exhaustively():
    for alpha, beta in suite2_exhaustive_pairs():
        m = build_matrix(alpha, beta)
        assert find_matching_certificate(m) == matching_by_entries(m)


def test_condition_equivalent_to_matching_and_brute_force_small():
    rng = random.Random(47)
    for _ in range(400):
        length = rng.choice((2, 3, 4))
        alpha = random_composition(rng, length, 9)
        beta = random_composition(rng, length, 9)
        m = build_matrix(alpha, beta)
        condition = necessary_condition_holds(alpha, beta)
        assert condition == surviving_term_exists(m)
        assert condition == (find_matching_certificate(m) is not None)


def test_certificate_selects_nonnegative_entries():
    rng = random.Random(53)
    for _ in range(200):
        length = rng.choice((3, 4, 5))
        m = build_matrix(
            random_composition(rng, length, 10), random_composition(rng, length, 10)
        )
        cert = find_matching_certificate(m)
        if cert is not None:
            assert sorted(cert) == list(range(1, length + 1))
            assert all(m.entries[i][c - 1] >= 0 for i, c in enumerate(cert))


def test_nocancel_worked_examples():
    assert not nocancel_conditions_hold((2, 2, 5, 5), (3, 3, 3, 3))
    assert nocancel_conditions_hold((10, 7, 9), (9, 8, 5))
    # an all-negative row kills condition (1)
    assert not nocancel_conditions_hold((1, 1), (5, 5))


def test_nocancel_rejects_non_partition_skew():
    with pytest.raises(ValueError):
        nocancel_conditions_hold((9, 5, 5), (2, 5, 6))
    # trailing zeros are fine
    assert nocancel_conditions_hold((2, 1), (1, 0))


def test_sorted_counts_equal_all_subsets_exhaustively():
    for length in (1, 2, 3, 4, 5):
        for counts in itertools.product(range(length + 1), repeat=length):
            sorted_ok = all(c >= k for k, c in enumerate(sorted(counts), start=1))
            assert sorted_ok == condition1_all_subsets(counts)


def test_greedy_worked_example():
    sign, word, selection = greedy_h0_term(build_matrix((10, 7, 9), (9, 8, 5)))
    assert (sign, word) == (-1, (1, 3))
    assert selection.column_of_row == (1, 3, 2)


def test_greedy_one_by_one_cases():
    sign, word, selection = greedy_h0_term(build_matrix((1,), (1,)))  # entry 0
    assert (sign, word) == (1, ())
    sign, word, selection = greedy_h0_term(build_matrix((6,), (1,)))  # entry 5
    assert (sign, word) == (1, (5,))


def test_greedy_covers_every_zero_and_appears_in_expansion():
    rng = random.Random(59)
    checked = 0
    while checked < 150:
        length = rng.choice((2, 3, 4, 5))
        lam = tuple(sorted((rng.randint(1, 7) for _ in range(length)), reverse=True))
        alpha = tuple(rng.randint(1, lam[0] + length + 2) for _ in range(length))
        if not nocancel_conditions_hold(alpha, lam):
            continue
        checked += 1
        m = build_matrix(alpha, lam)
        sign, word, selection = greedy_h0_term(m)
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                if e == 0:
                    assert selection.column_of_row[i] == j + 1
        full = ndet_permutation_sum(m)
        assert not full.is_zero()
        assert full.coefficient(word) != 0


def test_greedy_reports_violation_when_preconditions_fail():
    with pytest.raises(GreedyPreconditionError):
        greedy_h0_term(build_matrix((1, 1), (5, 5)))


def _greedy_outcome(greedy, matrix):
    try:
        sign, word, selection = greedy(matrix)
    except GreedyPreconditionError:
        return None
    return sign, word, selection.column_of_row


def _recount_on_column_sorted_twin(matrix):
    """``greedy_by_recount`` on the columns sorted by falling bhat, mapped back.

    The sort is stable, so equal bhat keep their left-to-right order; the
    twin's skew is the unhat of the sorted bhat, and the sign is that of
    the selection on the original columns.
    """
    bhat = hat(matrix.beta)
    order = sorted(range(matrix.dim), key=lambda j: -bhat[j])
    twin = build_matrix(matrix.alpha, unhat(bhat[j] for j in order))
    sign, word, selection = greedy_by_recount(twin)
    back = SignedSelection.from_columns(
        order[c - 1] + 1 for c in selection.column_of_row
    )
    return back.sign, word, back


@given(equal_length_pairs())
def test_greedy_matches_recount_oracle(pair):
    alpha, beta = pair
    for skew in (beta, tuple(sorted(beta, reverse=True))):
        matrix = build_matrix(alpha, skew)
        assert _greedy_outcome(greedy_h0_term, matrix) == _greedy_outcome(
            _recount_on_column_sorted_twin, matrix
        )


@given(equal_length_pairs())
def test_greedy_raises_exactly_when_the_counting_test_fails(pair):
    alpha, beta = pair
    outcome = _greedy_outcome(greedy_h0_term, build_matrix(alpha, beta))
    assert (outcome is None) == (not necessary_condition_holds(alpha, beta))


def test_classify_worked_examples():
    assert classify((9, 5, 5), (2, 5, 6)).outcome is Outcome.ZERO_AFTER_CANCELLATION
    assert (
        classify((5, 7, 1, 3), (5, 5, 5, 1)).outcome
        is Outcome.ALL_ZERO_PRE_CANCELLATION
    )
    result = classify((10, 7, 9), (9, 8, 5))
    assert result.outcome is Outcome.PROVABLY_NONZERO
    assert result.certificate == (1, 3, 2)
    assert result.witness == HExpansion({(1, 3): -1})


def test_classify_nonzero_term_branch_for_non_partition_skew():
    # bhat (1, 2, -2) is distinct and no two rows are equal, so the greedy
    # term on the columns sorted by falling bhat decides the pair; the
    # expansion is +H[4,2] -H[3,1,2], and the certificate is the matching
    for cap in (2, None):
        result = classify((6, 4, 3), (2, 4, 1), oracle_cap=cap)
        assert result == Classification(
            Outcome.NONZERO_TERM_EXISTS, (1, 2, 3), HExpansion({(4, 2): 1})
        )
    assert skew_immaculate((6, 4, 3), (2, 4, 1)).coefficient((4, 2)) == 1


def test_classify_above_cap_leaves_cancellation_undecided():
    # ahat (0, -1, 0) repeats 0, which lies in bhat (-1, 0, -3): two equal
    # rows hold a zero, so only the exact expansion decides the pair
    result = classify((1, 1, 3), (0, 2, 0), oracle_cap=2)
    assert result.outcome is Outcome.NONZERO_TERM_EXISTS
    assert result.certificate == (1, 3, 2)
    assert result.witness is None
    assert "undecided" in result.note


def test_classify_without_cap_expands_exactly():
    # oracle_cap=None means no cap, as in ndet_laplace: the 3x3 matrix is
    # expanded and its cancellation decided
    result = classify((1, 1, 3), (0, 2, 0), oracle_cap=None)
    assert result.outcome is Outcome.NONZERO_TERM_EXISTS
    assert result.witness == HExpansion({(1, 2): -1, (2, 1): 1})
    assert result.witness == skew_immaculate((1, 1, 3), (0, 2, 0))
    assert result.note is None


def test_classify_decides_equal_columns_above_cap():
    # beta (1, 2, 0) has bhat (0, 0, -3): columns 1 and 2 are equal, so the
    # expansion is 0 and no exact expansion is needed to say so
    result = classify((3, 3, 3), (1, 2, 0), oracle_cap=2)
    assert result == Classification(Outcome.ZERO_AFTER_CANCELLATION)
    assert skew_immaculate((3, 3, 3), (1, 2, 0)).is_zero()


def test_classify_builds_one_matrix_and_forms_its_table_only_to_expand(monkeypatch):
    built = []

    def recording_build(alpha, beta):
        built.append(build_matrix(alpha, beta))
        return built[-1]

    monkeypatch.setattr(predicates, "build_matrix", recording_build)
    # decided by the counting test, equal columns, the greedy term on a
    # partition skew and the greedy term plus the matching on another skew
    for pair in (
        ((1, 1), (5, 5)),
        ((3, 3, 3), (1, 2, 0)),
        ((10, 7, 9), (9, 8, 5)),
        ((6, 4, 3), (2, 4, 1)),
    ):
        built.clear()
        classify(*pair)
        assert len(built) == 1
        assert "entries" not in vars(built[0])
    # the residual pair reads the table in the exact expansion; above the
    # cap, the cap is checked before the read
    for cap, formed in ((None, True), (3, True), (2, False)):
        built.clear()
        classify((1, 1, 3), (0, 2, 0), oracle_cap=cap)
        assert len(built) == 1
        assert ("entries" in vars(built[0])) is formed


ZERO_OUTCOMES = (Outcome.ALL_ZERO_PRE_CANCELLATION, Outcome.ZERO_AFTER_CANCELLATION)


@st.composite
def repeated_bhat_pairs(draw):
    """Equal-length pairs whose bhat repeats a value at two positions."""
    alpha, beta = draw(equal_length_pairs())
    assume(len(beta) >= 2)
    i, j = sorted(draw(st.lists(
        st.integers(0, len(beta) - 1), min_size=2, max_size=2, unique=True
    )))
    beta = list(beta)
    beta[j] = beta[i] + (j - i)  # hat subtracts the position, so bhat_j == bhat_i
    return alpha, tuple(beta)


@given(repeated_bhat_pairs())
def test_repeated_bhat_expands_to_zero_and_classifies_as_zero(pair):
    alpha, beta = pair
    bhat = hat(beta)
    assert len(set(bhat)) < len(bhat)
    assert ndet_permutation_sum(build_matrix(alpha, beta)).is_zero()
    for caps in ({"oracle_cap": 1}, {"oracle_cap": None}, {}):
        result = classify(alpha, beta, **caps)
        assert result.outcome in ZERO_OUTCOMES, (pair, caps)
        assert result.certificate is None and result.witness is None


def _check_distinct_bhat_pair(alpha, beta):
    # A passing pair with distinct bhat.  Unless two equal rows hold a
    # zero, the hats decide it, with no exact expansion (cap 1): one greedy
    # term whose exact coefficient is its sign.  Otherwise the exact
    # expansion decides it and is the witness.
    ahat, bhat = hat(alpha), hat(beta)
    matrix = build_matrix(alpha, beta)
    exact = ndet_permutation_sum(matrix)
    if not _no_repeated_zero_row(ahat, bhat):
        result = classify(alpha, beta)
        assert (result.outcome is Outcome.ZERO_AFTER_CANCELLATION) == exact.is_zero()
        assert result.witness == (None if exact.is_zero() else exact), (alpha, beta)
        return
    result = classify(alpha, beta, oracle_cap=1)
    sign, word, selection = greedy_h0_term(matrix)
    assert result.witness == HExpansion({word: sign}) and result.note is None
    assert exact.coefficient(word) == sign, (alpha, beta)
    if is_zero_padded_partition(beta):
        assert result.outcome is Outcome.PROVABLY_NONZERO, (alpha, beta)
        assert result.certificate == selection.column_of_row
    else:
        assert result.outcome is Outcome.NONZERO_TERM_EXISTS, (alpha, beta)
        assert result.certificate == find_matching_certificate(matrix)


@given(equal_length_pairs())
def test_distinct_bhat_pairs_are_decided_by_the_greedy_term(pair):
    alpha, beta = pair
    bhat = hat(beta)
    assume(len(set(bhat)) == len(bhat) and necessary_condition_holds(alpha, beta))
    _check_distinct_bhat_pair(alpha, beta)


def test_distinct_bhat_pairs_are_decided_by_the_greedy_term_exhaustively():
    checked = 0
    for alpha, beta in suite2_exhaustive_pairs():
        bhat = hat(beta)
        if len(set(bhat)) == len(bhat) and necessary_condition_holds(alpha, beta):
            _check_distinct_bhat_pair(alpha, beta)
            checked += 1
    assert checked > 1000


def test_class_outcome_agrees_with_classify_on_every_small_pair():
    # compositions of weights 4 to 7 and lengths 3 and 4 against the same
    # and the zero-padded shorter ones: equal and unequal weights alike
    decided = Counter()
    for length in (3, 4):
        alphas = [c for n in range(4, 8) for c in enumerate_compositions(n, length)]
        betas = [
            pad_to_length(c, length)
            for k in range(1, length + 1)
            for n in range(4, 8)
            for c in enumerate_compositions(n, k)
        ]
        for alpha, beta in itertools.product(alphas, betas):
            ahat, bhat = hat(alpha), hat(beta)
            outcome = _class_outcome(sorted(ahat), sorted(bhat))
            result = classify(alpha, beta)
            matrix = build_matrix(alpha, beta)
            exact = ndet_permutation_sum(matrix)
            assert (result.outcome in ZERO_OUTCOMES) == exact.is_zero(), (alpha, beta)
            if outcome is not None:
                assert result == Classification(outcome), (alpha, beta)
                decided[outcome] += 1
            elif _no_repeated_zero_row(ahat, bhat):
                sign, word, _ = greedy_h0_term(matrix)
                assert result.witness == HExpansion({word: sign}), (alpha, beta)
                decided["greedy"] += 1
            else:
                assert result.witness == (None if exact.is_zero() else exact)
                decided["residual"] += 1
    assert all(decided[k] for k in (*ZERO_OUTCOMES, "greedy", "residual")), decided


def test_equal_weight_class_comparison_is_the_class_outcome():
    # the census's shortcut, for every census size under the caps (n <= 14,
    # len <= 9): at equal weight sum(ahat) == sum(bhat), and sorted
    # dominance with equal sums is equality, so only equal classes pass
    pairs = 0
    for length in range(1, 10):
        for n in range(length, 15):
            keys = {tuple(sorted(hat(c))) for c in enumerate_compositions(n, length)}
            for a, b in itertools.product(keys, repeat=2):
                if a != b:
                    expected = Outcome.ALL_ZERO_PRE_CANCELLATION
                elif len(set(a)) < length:
                    expected = Outcome.ZERO_AFTER_CANCELLATION
                else:
                    expected = None
                assert _class_outcome(a, b) is expected, (a, b)
            pairs += len(keys) ** 2
    assert pairs == 733442


def test_classify_provably_nonzero_implies_term_exists():
    rng = random.Random(61)
    for _ in range(200):
        length = rng.choice((2, 3, 4))
        alpha = random_composition(rng, length, 9)
        beta = random_composition(rng, length, 9)
        result = classify(alpha, beta)
        if result.outcome is Outcome.PROVABLY_NONZERO:
            assert necessary_condition_holds(alpha, beta)
            assert surviving_term_exists(build_matrix(alpha, beta))


def test_classify_rejects_bad_input():
    with pytest.raises(LengthMismatchError):
        classify((1, 2), (1,))
    with pytest.raises(ValueError, match="alpha must be a composition"):
        classify((1, 0), (1, 1))
    with pytest.raises(ValueError, match="beta parts must be nonnegative"):
        classify((2, 1), (1, -1))


def test_format_certificate():
    assert format_certificate((1, 3, 2)) == "1->1,2->3,3->2"
    assert format_certificate(()) == ""


def test_classification_is_frozen():
    result = classify((2,), (2,))
    assert isinstance(result, Classification)
    with pytest.raises(AttributeError):
        result.outcome = Outcome.PROVABLY_NONZERO


def _check_equal_weight_passing_pair(alpha, beta):
    # equal weights make sum(ahat) == sum(bhat), so sorted dominance forces
    # sorted(ahat) == sorted(bhat): every surviving term is the unit word
    expansion = skew_immaculate(alpha, beta)
    assert expansion.is_zero() or (
        len(expansion) == 1 and expansion.coefficient(()) in (1, -1)
    ), (alpha, beta)
    witness = classify(alpha, beta).witness
    assert (0 if witness is None else len(witness)) == len(expansion), (alpha, beta)


def test_equal_weight_passing_pairs_expand_to_at_most_the_unit():
    for length in range(1, 5):
        for n in range(length, 10):
            compositions = list(enumerate_compositions(n, length))
            for alpha in compositions:
                for beta in compositions:
                    if necessary_condition_holds(alpha, beta):
                        _check_equal_weight_passing_pair(alpha, beta)


@st.composite
def equal_weight_passing_pairs(draw):
    """Compositions of one length and weight that pass the counting test.

    With equal weights, passing means bhat is a rearrangement of ahat.
    """
    length = draw(st.integers(min_value=1, max_value=6))
    alpha = tuple(draw(st.lists(st.integers(1, 8), min_size=length, max_size=length)))
    beta = unhat(draw(st.permutations(hat(alpha))))
    assume(min(beta) >= 1)
    return alpha, beta


@given(equal_weight_passing_pairs())
def test_equal_weight_passing_pairs_property(pair):
    alpha, beta = pair
    assert sum(alpha) == sum(beta) and necessary_condition_holds(alpha, beta)
    _check_equal_weight_passing_pair(alpha, beta)


@st.composite
def distinct_equal_hat_pairs(draw):
    """Pairs whose hats order one set of distinct values two ways.

    alpha is a composition and beta a weak composition: a zero part of
    beta at position i is the value -i, which alpha holds further right,
    so beta's last part is never 0 and only inner zeros occur.
    """
    values = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=6, unique=True))
    alpha = unhat(draw(st.permutations(values)))
    beta = unhat(draw(st.permutations(values)))
    assume(min(alpha) >= 1 and min(beta) >= 0)
    return alpha, beta


@given(distinct_equal_hat_pairs())
def test_distinct_equal_hats_are_decided_by_the_value_matching(pair):
    # the row with the k-th smallest ahat is nonnegative on exactly k
    # columns, so the one surviving selection takes the column whose bhat
    # equals the row's ahat, and picks only zeros
    alpha, beta = pair
    bhat = hat(beta)
    matching = tuple(bhat.index(a) + 1 for a in hat(alpha))
    result = classify(alpha, beta)
    assert result.certificate == matching
    assert result.outcome is (
        Outcome.PROVABLY_NONZERO
        if is_zero_padded_partition(beta)
        else Outcome.NONZERO_TERM_EXISTS
    )
    sign = SignedSelection.from_columns(matching).sign
    assert result.witness == ndet_permutation_sum(build_matrix(alpha, beta))
    assert result.witness == HExpansion({(): sign})
