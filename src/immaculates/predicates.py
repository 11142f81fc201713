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
  the whole expansion is nonzero.  A skew with distinct bhat is a
  partition skew with its columns permuted, so the same test decides it;
* two equal columns (a repeated bhat value) make the expansion exactly
  zero at any dimension: the determinant takes its factors in row order,
  and swapping the two columns pairs each surviving term with one of the
  same word and the opposite sign.  A partition skew never has them.

:func:`classify` builds one :class:`SubscriptMatrix` per pair and every
rule reads its hats; only the residual pairs, with distinct bhat and two
identical rows holding a zero, form its l×l table, in the exact
expansion.  Skewing sequences may be weak (trailing zeros) even though
the classical statements concern positive parts.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum, unique

from .compositions import is_zero_padded_partition
from .errors import DimensionCapError, GreedyPreconditionError
from .hwords import HExpansion
from .matrix import SubscriptMatrix, build_matrix
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
    subscripts; ``witness`` is the one-term greedy witness when the hats
    decide the pair, else the full expansion; None above the cap (``note``).
    """

    outcome: Outcome
    certificate: tuple[int, ...] | None = None
    witness: HExpansion | None = None
    note: str | None = None


def format_certificate(certificate) -> str:
    """Render a row-to-column permutation as ``1->c1,2->c2,...``."""
    return ",".join(f"{i}->{c}" for i, c in enumerate(certificate, start=1))


def _dominates_sorted(sorted_ahat, sorted_bhat) -> bool:
    # row i is nonnegative on the columns with bhat_j <= ahat_i, so the
    # k rows of smallest ahat reach k columns iff the k-th smallest ahat
    # is at least the k-th smallest bhat
    return all(map(operator.ge, sorted_ahat, sorted_bhat))


def _dominates(ahat, bhat) -> bool:
    return _dominates_sorted(sorted(ahat), sorted(bhat))


def _class_outcome(sorted_ahat, sorted_bhat) -> Outcome | None:
    # the rules that read only the sorted hats: the counting test, then
    # equal columns (a repeated bhat, adjacent once sorted); None leaves
    # the pair to the rules that read the hats in order
    if not _dominates_sorted(sorted_ahat, sorted_bhat):
        return Outcome.ALL_ZERO_PRE_CANCELLATION
    if any(map(operator.eq, sorted_bhat, sorted_bhat[1:])):
        # swapping two equal columns negates every term
        return Outcome.ZERO_AFTER_CANCELLATION
    return None


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
    m = build_matrix(alpha, beta)
    return _dominates(m.ahat, m.bhat)


def find_matching_certificate(m: SubscriptMatrix) -> tuple[int, ...] | None:
    """Complete row-to-column matching over nonnegative entries, or None.

    Augmenting-path search, deterministic: rows are processed top to
    bottom and columns tried left to right, with a free column always
    preferred before reassignments (so an all-nonnegative matrix yields
    the identity permutation).  Row i is nonnegative on the columns with
    bhat_j <= ahat_i.  Returns 1-based columns per row.
    """
    l, bhat = m.dim, m.bhat
    adjacency = [[j for j in range(l) if bhat[j] <= a] for a in m.ahat]
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
    m = build_matrix(alpha, lam)
    return _dominates(m.ahat, m.bhat) and _no_repeated_zero_row(m.ahat, m.bhat)


def greedy_h0_term(m: SubscriptMatrix):
    """Build the surviving term that captures every zero subscript.

    Columns are taken by falling bhat, ties left to right.  Entry (i, j)
    is ahat_i - bhat_j, so a row is nonnegative on every live column when
    its ahat reaches the current column's bhat, and holds a live zero
    when the two are equal.  Each step gives the current column to such
    a row, one with a zero if any, else the topmost.  Returns (sign,
    word, selection), read from ``m.ahat`` and ``m.bhat`` alone.  Raises
    GreedyPreconditionError exactly when the counting test fails: a row
    that clears a threshold clears every later one, so no pick blocks a
    later column.
    """
    ahat, bhat, l = m.ahat, m.bhat, m.dim
    remaining = list(range(l))
    column_of_row = [0] * l
    raw = [0] * l
    for col in sorted(range(l), key=bhat.__getitem__, reverse=True):
        threshold = bhat[col]
        full = [i for i in remaining if ahat[i] >= threshold]
        if not full:
            raise GreedyPreconditionError(
                f"no fully nonnegative row remains at column {col + 1}"
            )
        pick = next((i for i in full if ahat[i] == threshold), full[0])
        column_of_row[pick] = col + 1
        raw[pick] = ahat[pick] - threshold
        remaining.remove(pick)
    selection = SignedSelection.from_columns(column_of_row)
    return selection.sign, tuple(filter(None, raw)), selection


def classify(alpha, beta, oracle_cap=DEFAULT_DIM_CAP) -> Classification:
    """Aggregate the tests, refining with the exact expansion when cheap.

    The one matrix built per call holds the hats that every test reads.
    The first two rules read only the sorted hats (``_class_outcome``):
    failure of the counting test, which at equal weights passes only equal
    sorted hats, proves every term vanishes, and two equal columns make
    the expansion exactly zero.  With distinct bhat and no two
    identical rows holding a zero, the greedy term survives all
    cancellation: for a partition skew by the no-cancellation theorem, and
    otherwise by reduction to one.  Permuting the columns multiplies every
    term by the permutation's sign.  Sorting the distinct bhat falling,
    s_1 > ... > s_l, gives the hats of lam with lam_k = s_k + k, a
    zero-padded partition, as s strictly decreases and s_l >= -l.  Both
    tests read only the hat multisets, so they carry over to (alpha, lam),
    on which the greedy takes the columns in just this order;
    ``SignedSelection.from_columns`` on the original columns gives the
    permuted sign.  The partition test only picks the label:
    PROVABLY_NONZERO, certified by the greedy selection, or
    NONZERO_TERM_EXISTS, by the matching.  The residual pairs go to
    ``ndet_laplace`` under ``oracle_cap`` (None: no cap); above the cap
    their cancellation stays undecided.
    """
    matrix = build_matrix(alpha, beta)
    ahat, bhat = matrix.ahat, matrix.bhat
    outcome = _class_outcome(sorted(ahat), sorted(bhat))
    if outcome is not None:
        return Classification(outcome)
    witness = note = None
    if _no_repeated_zero_row(ahat, bhat):
        sign, word, selection = greedy_h0_term(matrix)
        witness = HExpansion({word: sign})
        if is_zero_padded_partition(matrix.beta):
            return Classification(
                Outcome.PROVABLY_NONZERO, selection.column_of_row, witness
            )
    else:
        try:
            witness = ndet_laplace(matrix, cap=oracle_cap)
        except DimensionCapError:
            note = "cancellation undecided: dimension exceeds the exact-expansion cap"
        else:
            if witness.is_zero():
                return Classification(Outcome.ZERO_AFTER_CANCELLATION)
    return Classification(
        Outcome.NONZERO_TERM_EXISTS, find_matching_certificate(matrix), witness, note
    )
