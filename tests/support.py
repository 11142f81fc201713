"""Shared generators and independent brute-force oracles for the suite.

The oracles here deliberately avoid the code paths they check: term
survival is a raw permutation scan, the row-count condition has a
literal all-subsets form, the repeated-row condition scans matrix
rows instead of hat values, a polynomial is checked by evaluating it at
integer points, a term merge is summed in a ``Counter``, and a render
sorts with a Python key function and formats each term with an
f-string.  Random
streams are seeded so that every test module (and the acceptance suite)
sees the same pairs.
"""

import itertools
import math
import random
from collections import Counter

from hypothesis import strategies as st

from immaculates import enumerate_compositions, is_partition, nocancel_conditions_hold
from immaculates.symfunc import _monomial_body

SUITE2_SEED = 0xA11CE
SUITE3_SEED = 0xB0B
STRUCT_SEED = 0xC0FFEE


@st.composite
def equal_length_pairs(draw):
    """Hypothesis strategy: (alpha, beta) of one length in 1..7, parts up to 10."""
    length = draw(st.integers(min_value=1, max_value=7))
    alpha = draw(st.lists(st.integers(1, 10), min_size=length, max_size=length))
    beta = draw(st.lists(st.integers(0, 10), min_size=length, max_size=length))
    return tuple(alpha), tuple(beta)


# Nonzero coefficients up to 10**30 in size, so renders are checked on bigints.
large_coefficients = st.integers(min_value=-(10**30), max_value=10**30).filter(bool)


def evaluate_terms(pairs, point) -> int:
    """Oracle: the sum of ``coeff * prod(x_i ** e_i)`` over ``(exps, coeff)`` pairs."""
    return sum(
        coeff * math.prod(x**e for x, e in zip(point, exps)) for exps, coeff in pairs
    )


def merge_with_counter(pairs) -> dict:
    """Oracle: sum ``(key, coeff)`` pairs in a Counter, then drop zero totals."""
    totals = Counter()
    for key, coeff in pairs:
        totals[key] += coeff
    return {key: total for key, total in totals.items() if total}


def concat(u, v):
    """Concatenation product of two normalized words (noncommutative)."""
    return tuple(u) + tuple(v)


def render_by_key_sort(terms, order, reverse, body) -> str:
    """Oracle: terms by ``order``, each ``{+|-}{|c|}`` then ``body(key)``; zero is ``0``."""
    if not terms:
        return "0"
    return " ".join(
        f"{'+' if (c := terms[key]) > 0 else '-'}{abs(c)}{body(key)}"
        for key in sorted(terms, key=order, reverse=reverse)
    )


def render_words_by_key_sort(terms) -> str:
    """Oracle for ``HExpansion.render``: by length, then lexicographically."""
    return render_by_key_sort(
        terms, lambda word: (len(word), word), False,
        lambda word: f"·H[{','.join(map(str, word))}]",
    )


def render_poly_by_key_sort(terms) -> str:
    """Oracle for ``Poly.render``: graded-lex order, largest terms first."""
    return render_by_key_sort(terms, lambda exps: (sum(exps), exps), True, _monomial_body)


def surviving_term_exists(matrix) -> bool:
    """Oracle: some permutation selects only nonnegative entries."""
    l = matrix.dim
    return any(
        all(matrix.entries[i][perm[i]] >= 0 for i in range(l))
        for perm in itertools.permutations(range(l))
    )


def no_repeated_zero_row_scan(matrix) -> bool:
    """Oracle for condition (2): no row containing a zero occurs twice."""
    multiplicity = {}
    for row in matrix.entries:
        multiplicity[row] = multiplicity.get(row, 0) + 1
    return all(mult < 2 or 0 not in row for row, mult in multiplicity.items())


def condition1_all_subsets(counts) -> bool:
    """Literal form: every k-subset of rows has a row with >= k nonnegatives."""
    indices = range(len(counts))
    for k in range(1, len(counts) + 1):
        for subset in itertools.combinations(indices, k):
            if max(counts[i] for i in subset) < k:
                return False
    return True


def compositions_up_to_weight(max_weight, length):
    for n in range(length, max_weight + 1):
        yield from enumerate_compositions(n, length)


def partitions_up_to_weight(max_weight, length):
    for comp in compositions_up_to_weight(max_weight, length):
        if is_partition(comp):
            yield comp


def random_composition(rng, length, hi):
    return tuple(rng.randint(1, hi) for _ in range(length))


def random_partition(rng, length, hi):
    return tuple(sorted((rng.randint(1, hi) for _ in range(length)), reverse=True))


def suite2_exhaustive_pairs(max_weight=8, max_length=4):
    """Every equal-length pair with both weights bounded."""
    for length in range(1, max_length + 1):
        alphas = list(compositions_up_to_weight(max_weight, length))
        for alpha in alphas:
            for beta in alphas:
                yield alpha, beta


def suite2_random_pairs(count=2000, lengths=(5, 6), hi=12):
    rng = random.Random(SUITE2_SEED)
    for _ in range(count):
        length = rng.choice(lengths)
        yield random_composition(rng, length, hi), random_composition(rng, length, hi)


def suite3_exhaustive_pairs(max_weight=8, max_length=4):
    """Every (composition, partition) equal-length pair with bounded weights."""
    for length in range(1, max_length + 1):
        lams = list(partitions_up_to_weight(max_weight, length))
        for alpha in compositions_up_to_weight(max_weight, length):
            for lam in lams:
                yield alpha, lam


def suite3_random_nocancel_pairs(count=1000, lengths=(5, 6), hi=8):
    """Random pairs filtered to the no-cancellation class (both conditions)."""
    rng = random.Random(SUITE3_SEED)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("sampler starved; widen the ranges")
        length = rng.choice(lengths)
        lam = random_partition(rng, length, hi)
        alpha = tuple(rng.randint(1, lam[0] + length + 2) for _ in range(length))
        if nocancel_conditions_hold(alpha, lam):
            produced += 1
            yield alpha, lam


def structural_random_pairs(count=5000, lengths=(2, 3, 4, 5, 6), hi=12):
    rng = random.Random(STRUCT_SEED)
    for _ in range(count):
        length = rng.choice(lengths)
        yield random_composition(rng, length, hi), random_composition(rng, length, hi)


def structural_random_partition_pairs(count=2000, lengths=(2, 3, 4, 5, 6), hi=10):
    rng = random.Random(STRUCT_SEED + 1)
    for _ in range(count):
        length = rng.choice(lengths)
        yield random_composition(rng, length, hi), random_partition(rng, length, hi)
