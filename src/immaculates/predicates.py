"""Nonzeroness classification for skew expansions.

Row i of the subscript matrix of (alpha, beta) is nonnegative exactly on
the columns {j : bhat_j <= ahat_i}, where ahat and bhat are the staircase
shifts of alpha and beta.  These column sets are nested thresholds, so
the nonnegative entries form a Ferrers board (up to reordering rows and
columns), and the tests that decide a pair before cancellation read only
the two hat sequences:

* on a Ferrers board, Hall's condition for a row-to-column matching over
  nonnegative subscripts is a single counting test, sorted dominance:
  the k-th smallest ahat is at least the k-th smallest bhat for every k.
  Its failure proves every determinant term vanishes (pigeonhole);
  otherwise an explicit matching certifies a surviving term;
* for skews by partitions, the no-cancellation conditions are that
  counting test plus "no value of ahat occurs twice and also lies in
  bhat": two rows are identical iff their ahat values are equal, and a
  row holds a zero iff its ahat value is in bhat.  A greedily built term
  then captures every zero subscript and survives all cancellation, so
  the whole expansion is nonzero.

* two equal columns (a repeated bhat value) make the expansion exactly
  zero at any dimension: the determinant takes its factors in row order,
  and swapping the two columns pairs each surviving term with one of the
  same word and the opposite sign.  A partition skew never has them.

:func:`classify` therefore builds a matrix only for pairs that pass the
counting test, and only the passing pairs without equal columns reach
the matching and the exact expansion.  Skewing sequences may be weak
(trailing zeros) even though the classical statements concern positive
parts.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum, unique

from .compositions import hat, is_zero_padded_partition
from .errors import DimensionCapError, GreedyPreconditionError
from .hwords import HExpansion, normalize_word
from .matrix import SubscriptMatrix, build_matrix, validate_pair
from .ndet import DEFAULT_DIM_CAP, SignedSelection, ndet_laplace


@unique
class Outcome(Enum):
    ALL_ZERO_PRE_CANCELLATION = "ALL_ZERO_PRE_CANCELLATION"
    NONZERO_TERM_EXISTS = "NONZERO_TERM_EXISTS"
    PROVABLY_NONZERO = "PROVABLY_NONZERO"
    ZERO_AFTER_CANCELLATION = "ZERO_AFTER_CANCELLATION"


@dataclass(frozen=True)
class Classification:
    """Outcome plus, when available, a certificate permutation and witness.

    ``certificate`` maps rows to columns (1-based) over nonnegative
    subscripts; ``witness`` is the greedy term (PROVABLY_NONZERO) or the
    full expansion (NONZERO_TERM_EXISTS), None above the cap, as ``note`` says.
    """

    outcome: Outcome
    certificate: tuple[int, ...] | None = None
    witness: HExpansion | None = None
    note: str | None = None


def format_certificate(certificate) -> str:
    """Render a row-to-column permutation as ``1->c1,2->c2,...``."""
    return ",".join(f"{i}->{c}" for i, c in enumerate(certificate, start=1))


def _hat_pair(alpha, beta):
    alpha, beta = validate_pair(alpha, beta)
    return hat(alpha), hat(beta)


def _dominates_sorted(sorted_ahat, sorted_bhat) -> bool:
    # row i is nonnegative on the columns with bhat_j <= ahat_i, so the
    # k rows of smallest ahat reach k columns iff the k-th smallest ahat
    # is at least the k-th smallest bhat
    return all(map(operator.ge, sorted_ahat, sorted_bhat))


def _dominates(ahat, bhat) -> bool:
    return _dominates_sorted(sorted(ahat), sorted(bhat))


def _no_repeated_zero_row(ahat, bhat) -> bool:
    # a repeated ahat value is a repeated row; it holds a zero iff in bhat
    return set(bhat).isdisjoint(a for a, n in Counter(ahat).items() if n > 1)


def necessary_condition_holds(alpha, beta) -> bool:
    """Counting condition necessary for a surviving determinant term.

    Every k rows must include one with at least k nonnegative subscripts.
    Row i is nonnegative exactly where bhat_j <= ahat_i, so this means the
    k-th smallest ahat is at least the k-th smallest bhat for every k.  If
    it fails, k rows squeeze all their nonnegative entries into fewer than
    k columns and pigeonhole kills every term; if it holds, Hall's theorem
    gives a matching of nonnegative entries.
    """
    return _dominates(*_hat_pair(alpha, beta))


def find_matching_certificate(m: SubscriptMatrix) -> tuple[int, ...] | None:
    """Complete row-to-column matching over nonnegative entries, or None.

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


def nocancel_conditions_hold(alpha, lam) -> bool:
    """Both conditions of the no-cancellation class for a partition skew.

    (1) every k rows include one with at least k nonnegative subscripts
    (the counting test of :func:`necessary_condition_holds`), and (2) no
    two identical rows contain a zero subscript.  ``lam`` must be a
    partition, allowing trailing zeros.
    """
    lam = tuple(lam)
    if not is_zero_padded_partition(lam):
        raise ValueError(
            f"skewing sequence must be a partition up to trailing zeros: {lam!r}"
        )
    ahat, bhat = _hat_pair(alpha, lam)
    return _dominates(ahat, bhat) and _no_repeated_zero_row(ahat, bhat)


def greedy_h0_term(m: SubscriptMatrix):
    """Build the surviving term that captures every zero subscript.

    Working on the live submatrix (columns are consumed left to right),
    each step picks a row whose remaining entries are all nonnegative,
    preferring one that still contains a zero, else the topmost, and
    assigns it the current leftmost column.  Returns (sign, word,
    selection).  Raises GreedyPreconditionError if no remaining row is
    fully nonnegative at some step, which cannot happen when the
    no-cancellation conditions hold for the source pair.  The live
    submatrix needs no counting test of its own: its nonnegative entries
    still form a Ferrers board, so when that test fails no matching is
    left and a later step finds no row to take.
    """
    entries = m.entries
    l = m.dim
    ahat = hat(m.alpha)
    # entry (i, j) is ahat_i - bhat_j, so the smallest live entry of row i
    # is ahat_i - max(bhat[col:]): the row is fully nonnegative when ahat_i
    # reaches that threshold and then holds a zero when it equals it
    thresholds = list(itertools.accumulate(reversed(hat(m.beta)), max))[::-1]
    remaining = list(range(l))
    column_of_row = [0] * l
    raw = [0] * l
    for col, threshold in enumerate(thresholds):
        full = [i for i in remaining if ahat[i] >= threshold]
        if not full:
            raise GreedyPreconditionError(
                f"no fully nonnegative row remains at column {col + 1}"
            )
        pick = next((i for i in full if ahat[i] == threshold), full[0])
        column_of_row[pick] = col + 1
        raw[pick] = entries[pick][col]
        remaining.remove(pick)
    word = normalize_word(raw)
    assert word is not None  # selected subscripts are nonnegative by construction
    selection = SignedSelection.from_columns(column_of_row)
    return selection.sign, word, selection


def classify(alpha, beta, oracle_cap=DEFAULT_DIM_CAP) -> Classification:
    """Aggregate the tests, refining with the exact expansion when cheap.

    Failure of the counting test proves every term vanishes; it reads
    only the hat sequences, so no matrix is built for such a pair.  A
    matrix with two equal columns expands to exactly zero, at any
    dimension.  A partition skew meeting the no-cancellation conditions
    is provably nonzero, witnessed by the greedy term.  Otherwise a
    matching certificate shows a term survives pre-cancellation, and
    ``ndet_laplace`` under ``oracle_cap`` (None: no cap) decides whether
    cancellation removes them all; above the cap that question is left open.
    """
    alpha, beta = validate_pair(alpha, beta)
    ahat, bhat = hat(alpha), hat(beta)
    if not _dominates(ahat, bhat):
        return Classification(Outcome.ALL_ZERO_PRE_CANCELLATION)
    matrix = build_matrix(alpha, beta)
    if len(set(bhat)) < len(bhat):
        # equal columns (a repeated bhat): swapping them negates every term
        return Classification(Outcome.ZERO_AFTER_CANCELLATION)
    # condition (1) of the no-cancellation class is the test just passed
    if is_zero_padded_partition(beta) and _no_repeated_zero_row(ahat, bhat):
        sign, word, selection = greedy_h0_term(matrix)
        return Classification(
            Outcome.PROVABLY_NONZERO,
            certificate=selection.column_of_row,
            witness=HExpansion({word: sign}),
        )
    witness = note = None
    try:
        witness = ndet_laplace(matrix, cap=oracle_cap)
    except DimensionCapError:
        note = "cancellation undecided: dimension exceeds the exact-expansion cap"
    else:
        if witness.is_zero():
            return Classification(Outcome.ZERO_AFTER_CANCELLATION)
    return Classification(
        Outcome.NONZERO_TERM_EXISTS,
        certificate=find_matching_certificate(matrix),
        witness=witness,
        note=note,
    )
