"""Shared generators and independent brute-force oracles for the suite.

The oracles here deliberately avoid the code paths they check and
import no private name of the package: the determinant is the plain
signed sum over all l! column selections, term survival is a raw
permutation scan, the matching certificate is searched over the matrix's
entries table, the counting test has a literal all-subsets form over
matrix row counts, the repeated-row condition scans matrix rows instead
of hat values, a polynomial is checked by evaluating it at integer
points, a term merge is summed in a ``Counter``, a Schur polynomial
counts the weights of every enumerated tableau, a complete homogeneous
polynomial lists every weakly increasing selection of its variables, the
commutative image of an expansion multiplies out every word on its own
(through that list), a render sorts with a Python key function and
formats each term with an f-string (monomials through this module's own
copy of the formatter, so that a rewrite in the package is checked
against it) or, for large expansions, formats every term with one ``%``
string and joins them all at once, and the greedy witness reruns the
all-subsets test on every live submatrix.  A census record is
classified pair by pair, with a fresh expansion to count its terms.  The
structural checks on sign patterns, the per-selection term, ``unhat``,
monomial polynomials and variable relabelling live here too: only the
tests use them.  Random streams are seeded so that every test module
(and the acceptance suite) sees the same pairs.
"""

import itertools
import math
import random
from collections import Counter

from hypothesis import strategies as st

from immaculates import (
    DEFAULT_DIM_CAP,
    HExpansion,
    Outcome,
    classify,
    enumerate_compositions,
    format_certificate,
    format_parts,
    is_partition,
    nocancel_conditions_hold,
    permutation_sign,
    skew_immaculate,
)
from immaculates.errors import (
    DimensionCapError,
    GreedyPreconditionError,
    LengthMismatchError,
)
from immaculates.hwords import normalize_word
from immaculates.matrix import SubscriptMatrix
from immaculates.ndet import SignedSelection
from immaculates.symfunc import Poly, generate_ssyt

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


@st.composite
def zero_free_pairs(draw):
    """Hypothesis strategy: (alpha, beta) of one length in 1..7 with a zero-free matrix.

    ``bhat`` is distinct and no ``ahat`` value lies in it, so no entry is
    zero; entries below zero and boards with no full placement (a zero
    expansion) are common.
    """
    length = draw(st.integers(min_value=1, max_value=7))
    bhat = draw(st.lists(st.integers(-1, 9), min_size=length, max_size=length, unique=True))
    ahat = [
        draw(st.sampled_from([a for a in range(max(-i, -2), 15) if a not in bhat]))
        for i in range(length)
    ]
    return (
        tuple(a + i for i, a in enumerate(ahat, 1)),
        tuple(b + j for j, b in enumerate(bhat, 1)),
    )


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


def render_by_terms(expansion) -> str:
    """Oracle for ``HExpansion.render``: one ``%`` string per term, all joined at once.

    Holds a string for every term, unlike the package's chunked render,
    which it checks byte for byte across chunk seams.
    """
    terms = dict(expansion.items())
    rendered = []
    for length, words in itertools.groupby(sorted(terms, key=lambda w: (len(w), w)), len):
        fmt = "%+d·H[" + ",".join(["%d"] * length) + "]"
        rendered.extend([fmt % (terms[word], *word) for word in words])
    return " ".join(rendered) or "0"


def monomial_body(exps) -> str:
    """Oracle: ``·x{i}`` or ``·x{i}^{e}`` for each nonzero exponent, in variable order."""
    return "".join(
        f"·x{i}" if e == 1 else f"·x{i}^{e}" for i, e in enumerate(exps, start=1) if e
    )


def render_poly_by_key_sort(terms) -> str:
    """Oracle for ``Poly.render``: graded-lex order, largest terms first."""
    return render_by_key_sort(terms, lambda exps: (sum(exps), exps), True, monomial_body)


def surviving_term_exists(matrix) -> bool:
    """Oracle: some permutation selects only nonnegative entries."""
    l = matrix.dim
    return any(
        all(matrix.entries[i][perm[i]] >= 0 for i in range(l))
        for perm in itertools.permutations(range(l))
    )


def ndet_permutation_sum(m: SubscriptMatrix, cap=DEFAULT_DIM_CAP) -> HExpansion:
    """Reference determinant: signed sum over all l! column selections."""
    if cap is not None and m.dim > cap:
        raise DimensionCapError(
            f"matrix dimension {m.dim} exceeds the exact-expansion cap {cap}"
        )
    entries = m.entries
    l = m.dim
    acc: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(l)):
        raw = []
        dead = False
        for i in range(l):
            e = entries[i][perm[i]]
            if e < 0:
                dead = True
                break
            if e:
                raw.append(e)
        if dead:
            continue
        word = tuple(raw)
        total = acc.get(word, 0) + permutation_sign(perm)
        if total:
            acc[word] = total
        else:
            del acc[word]
    return HExpansion(acc)


def matching_by_entries(m: SubscriptMatrix) -> tuple[int, ...] | None:
    """Oracle for ``find_matching_certificate``: the same search over ``m.entries``.

    Augmenting-path search, deterministic: rows are processed top to
    bottom and columns tried left to right, with a free column always
    preferred before reassignments (so an all-nonnegative matrix yields
    the identity permutation).  Returns 1-based columns per row.
    """
    l = m.dim
    adjacency = [
        [j for j in range(l) if m.entries[i][j] >= 0] for i in range(l)
    ]
    row_of_col = [-1] * l
    col_of_row = [-1] * l

    def augment(i: int, seen: set[int]) -> bool:
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if row_of_col[j] == -1 or augment(row_of_col[j], seen):
                row_of_col[j] = i
                col_of_row[i] = j
                return True
        return False

    for i in range(l):
        free = next((j for j in adjacency[i] if row_of_col[j] == -1), None)
        if free is not None:
            row_of_col[free] = i
            col_of_row[i] = free
        elif not augment(i, set()):
            return None
    return tuple(c + 1 for c in col_of_row)


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


def census_row_oracle(alpha, beta) -> dict:
    """The census record of one pair, computed pair by pair.

    Runs :func:`classify` on the pair, then counts the terms of the full
    expansion for a provably nonzero pair and of the witness otherwise;
    ``micros`` is the untimed 0.
    """
    length = len(alpha)
    result = classify(alpha, beta, oracle_cap=length)
    if result.outcome is Outcome.PROVABLY_NONZERO:
        terms = len(skew_immaculate(alpha, beta, cap=length))
    else:
        terms = len(result.witness) if result.witness is not None else 0
    return {
        "alpha": format_parts(alpha),
        "beta": format_parts(beta),
        "class": result.outcome.value,
        "certificate": (
            format_certificate(result.certificate)
            if result.certificate is not None
            else None
        ),
        "terms": terms,
        "micros": 0,
    }


def ssyt_by_product(outer, inner, n):
    """Rows of every semistandard filling of outer/inner in 1..n, by brute force.

    Takes ``itertools.product`` of 1..n over the cells, bottom row first
    and left to right, and keeps the fillings whose rows weakly increase
    and whose columns strictly increase upward, in that product order.
    """
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [(r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])]
    kept = []
    for filling in itertools.product(range(1, n + 1), repeat=len(cells)):
        grid = dict(zip(cells, filling))
        if all(
            grid.get((r, c - 1), 0) <= value and grid.get((r - 1, c), 0) < value
            for (r, c), value in grid.items()
        ):
            kept.append(tuple(
                tuple(grid[(r, c)] for c in range(inner[r], outer[r]))
                for r in range(len(outer))
            ))
    return kept


def schur_by_enumeration(outer, inner, n) -> Poly:
    """Oracle: the Schur polynomial as the weight count of every enumerated tableau."""
    weights = Counter()
    for rows in generate_ssyt(outer, inner, n):
        exps = [0] * n
        for value in itertools.chain.from_iterable(rows):
            exps[value - 1] += 1
        weights[tuple(exps)] += 1
    return Poly(n, weights)


def h_poly_by_combinations(k, n) -> Poly:
    """Oracle for ``h_poly``: a monomial per weakly increasing choice of k variables."""
    if k < 0:
        return Poly(n)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(n), k):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        terms[tuple(exps)] = 1
    return Poly(n, terms)


def forgetful_by_words(expansion, n) -> Poly:
    """Oracle for ``forgetful``: each word's h polynomials multiplied in word order.

    No two words are merged; every product is a new ``Poly``, scaled by
    the word's coefficient and added to the running sum.  The h
    polynomials come from ``h_poly_by_combinations``, not from the
    package's packed tables.
    """
    acc = Poly(n)
    for word, coeff in expansion.items():
        product = Poly(n, {(0,) * n: 1})
        for a in word:
            product = product * h_poly_by_combinations(a, n)
        acc = acc + product * coeff
    return acc


def skew_shapes_up_to_weight(max_weight):
    """Every (outer, inner) with outer a partition of weight <= max_weight.

    The empty outer shape comes first.  Each inner is a partition that
    fits inside outer, padded with zeros to the length of outer.
    """
    outers = [()] + [
        outer
        for length in range(1, max_weight + 1)
        for outer in partitions_up_to_weight(max_weight, length)
    ]
    for outer in outers:
        for inner in itertools.product(*(range(part + 1) for part in outer)):
            if all(a >= b for a, b in zip(inner, inner[1:])):
                yield outer, inner


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


def unhat(entries):
    """Inverse of ``hat``; adds i back to the i-th entry."""
    return tuple(e + i for i, e in enumerate(entries, start=1))


def sign_pattern(m: SubscriptMatrix) -> tuple[tuple[bool, ...], ...]:
    """Pointwise nonnegativity pattern of the subscripts."""
    return tuple(tuple(e >= 0 for e in row) for row in m.entries)


def has_negative_crossing_violation(pattern) -> bool:
    """Scan every 2x2 submatrix of a sign pattern for a crossing.

    With True marking a nonnegative subscript, the two forbidden 2x2
    configurations are (F,T / T,F) and (T,F / F,T): a negative pair on
    one diagonal facing a nonnegative pair on the other.  Associated
    matrices never contain one; hand-built patterns may, which is why
    this takes a pattern (possibly rectangular) rather than a matrix.
    """
    rows = [tuple(bool(x) for x in row) for row in pattern]
    if not rows:
        return False
    width = len(rows[0])
    for upper, lower in itertools.combinations(rows, 2):
        for cm, cn in itertools.combinations(range(width), 2):
            a, b = upper[cm], upper[cn]
            c, d = lower[cm], lower[cn]
            if (not a) and b and c and (not d):
                return True
            if a and (not b) and (not c) and d:
                return True
    return False


def check_partition_row_monotonicity(m: SubscriptMatrix) -> bool:
    """True iff subscripts strictly increase left to right in every row.

    Holds whenever the skewing sequence is a partition (its staircase
    shift strictly decreases), and fails for many non-partition skews.
    """
    return all(
        all(row[j] < row[j + 1] for j in range(len(row) - 1))
        for row in m.entries
    )


def term_of_selection(m: SubscriptMatrix, selection: SignedSelection):
    """Signed normalized word for one column selection, or None if it dies.

    Factors are ordered by increasing row index; the result is absent
    exactly when some selected subscript is negative.
    """
    cols = tuple(selection.column_of_row)
    if len(cols) != m.dim:
        raise LengthMismatchError(
            f"selection over {len(cols)} rows does not fit a {m.dim}x{m.dim} matrix"
        )
    raw = [m.entries[i][cols[i] - 1] for i in range(m.dim)]
    word = normalize_word(raw)
    if word is None:
        return None
    return selection.sign, word


def m_poly(lam, n: int) -> Poly:
    """Monomial symmetric polynomial: all distinct rearrangements of lam."""
    lam = tuple(int(p) for p in lam)
    if not is_partition(lam):
        raise ValueError(f"index must be a partition: {lam!r}")
    if n < 1:
        raise ValueError("need at least one variable")
    if len(lam) > n:
        return Poly(n)
    padded = lam + (0,) * (n - len(lam))
    return Poly(n, {exps: 1 for exps in set(itertools.permutations(padded))})


def permute_variables(p: Poly, perm) -> Poly:
    """Relabel variables: new exponent i is the old exponent perm[i]."""
    perm = tuple(perm)
    return Poly(
        p.nvars,
        {tuple(e[i] for i in perm): c for e, c in p.items()},
    )


def greedy_by_recount(m: SubscriptMatrix):
    """Oracle for ``greedy_h0_term``: reruns the counting test on every live submatrix.

    Working on the live submatrix (columns are consumed left to right),
    each step picks a row whose remaining entries are all nonnegative,
    preferring one that still contains a zero, else the topmost, and
    assigns it the current leftmost column.  Returns (sign, word,
    selection).  Raises GreedyPreconditionError if the row-count
    condition fails on any intermediate submatrix, which cannot happen
    when the no-cancellation conditions hold for the source pair.
    """
    entries = m.entries
    l = m.dim
    remaining = list(range(l))
    column_of_row = [0] * l
    raw = [0] * l
    for col in range(l):
        live_counts = [
            sum(1 for j in range(col, l) if entries[i][j] >= 0) for i in remaining
        ]
        if not condition1_all_subsets(live_counts):
            raise GreedyPreconditionError(
                f"row-count condition fails on the submatrix at column {col + 1}"
            )
        full = [
            i for i in remaining if all(entries[i][j] >= 0 for j in range(col, l))
        ]
        if not full:
            raise GreedyPreconditionError(
                f"no fully nonnegative row remains at column {col + 1}"
            )
        with_zero = [i for i in full if any(entries[i][j] == 0 for j in range(col, l))]
        pick = with_zero[0] if with_zero else full[0]
        column_of_row[pick] = col + 1
        raw[pick] = entries[pick][col]
        remaining.remove(pick)
    word = normalize_word(raw)
    assert word is not None  # selected subscripts are nonnegative by construction
    selection = SignedSelection.from_columns(column_of_row)
    return selection.sign, word, selection
