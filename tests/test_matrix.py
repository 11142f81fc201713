import itertools
import sys

import pytest
from hypothesis import example, given

from immaculates.compositions import hat
from immaculates.errors import LengthMismatchError
from immaculates.matrix import build_matrix

from support import (
    check_partition_row_monotonicity,
    equal_length_pairs,
    has_negative_crossing_violation,
    sign_pattern,
    structural_random_pairs,
    structural_random_partition_pairs,
)


def test_build_matrix_displayed_examples():
    assert build_matrix((6, 4, 3), (2, 4, 1)).entries == (
        (4, 3, 7),
        (1, 0, 4),
        (-1, -2, 2),
    )
    assert build_matrix((10, 7, 9), (9, 8, 5)).entries == (
        (1, 3, 7),
        (-3, -1, 3),
        (-2, 0, 4),
    )
    assert build_matrix((2, 2, 5, 5), (3, 3, 3, 3)).entries == (
        (-1, 0, 1, 2),
        (-2, -1, 0, 1),
        (0, 1, 2, 3),
        (-1, 0, 1, 2),
    )


def test_build_matrix_validation():
    with pytest.raises(LengthMismatchError):
        build_matrix((1, 2), (1,))
    with pytest.raises(ValueError):
        build_matrix((1, 0), (1, 1))
    with pytest.raises(ValueError):
        build_matrix((1, 2), (1, -1))


def test_largest_subscript_is_at_most_maxunicode():
    # the largest subscript of ((a, 1), (0, 0)) is (a - 1) - (0 - 2) = a + 1
    limit = sys.maxunicode
    m = build_matrix((limit - 1, 1), (0, 0))
    assert (m.alpha, m.beta) == ((limit - 1, 1), (0, 0))
    assert max(map(max, m.entries)) == limit
    for alpha in ((limit, 1), (limit + 1,)):
        with pytest.raises(ValueError, match=f"above the limit {limit}"):
            build_matrix(alpha, (0,) * len(alpha))


@given(equal_length_pairs())
@example(((4, 1, 6, 5), (2, 1, 3, 2)))
def test_entry_formula_and_rank_one_structure(pair):
    m, twin = build_matrix(*pair), build_matrix(*pair)
    assert m.ahat == hat(m.alpha) and m.bhat == hat(m.beta)
    assert m.dim == len(m.alpha)
    assert m == twin and hash(m) == hash(twin)
    l = m.dim
    for i in range(l):
        for j in range(l):
            assert m.entries[i][j] == (m.alpha[i] - (i + 1)) - (m.beta[j] - (j + 1))
    # column differences do not depend on the row
    for j1 in range(l):
        for j2 in range(l):
            diffs = {m.entries[i][j1] - m.entries[i][j2] for i in range(l)}
            assert len(diffs) == 1
    # forming one build's table changes neither its equality nor its hash
    assert "entries" in vars(m) and "entries" not in vars(twin)
    assert m == twin and hash(m) == hash(twin)


def test_render_rows():
    assert build_matrix((3, 3), (2, 2)).render() == "1 2\n0 1"


def test_negative_crossing_counterexample_pattern():
    # two rows, three negatives each, but misaligned columns
    pattern = (
        (True, False, False, False, True),
        (False, False, False, True, True),
    )
    assert has_negative_crossing_violation(pattern)


def test_negative_crossing_clean_patterns():
    assert not has_negative_crossing_violation(
        sign_pattern(build_matrix((6, 4, 3), (2, 4, 1)))
    )
    assert not has_negative_crossing_violation(((True, True), (True, True)))


def test_negative_crossing_never_on_associated_matrices():
    for alpha, beta in itertools.islice(structural_random_pairs(), 400):
        assert not has_negative_crossing_violation(
            sign_pattern(build_matrix(alpha, beta))
        )


def test_partition_row_monotonicity():
    assert check_partition_row_monotonicity(build_matrix((2, 2, 5, 5), (3, 3, 3, 3)))
    assert not check_partition_row_monotonicity(build_matrix((6, 4, 3), (2, 4, 1)))
    assert check_partition_row_monotonicity(build_matrix((1,), (1,)))


def test_partition_rows_increase_and_split_on_random_pairs():
    for alpha, lam in itertools.islice(structural_random_partition_pairs(), 300):
        m = build_matrix(alpha, lam)
        assert check_partition_row_monotonicity(m)
        for row in m.entries:
            nonneg = sum(1 for e in row if e >= 0)
            # nonnegative entries sit in the last columns
            assert all(e < 0 for e in row[: len(row) - nonneg])
            assert all(e >= 0 for e in row[len(row) - nonneg:])


def test_zero_entry_splits_row_when_skewing_by_partition():
    for alpha, lam in itertools.islice(structural_random_partition_pairs(), 300):
        m = build_matrix(alpha, lam)
        for row in m.entries:
            for t, e in enumerate(row):
                if e == 0:
                    assert all(x < 0 for x in row[:t])
                    assert all(x > 0 for x in row[t + 1:])
