"""Noncommutative determinants of subscript matrices.

Each determinant term selects one entry per row in a distinct column;
factors multiply in row order (top row first) and the term's sign is
the parity of the chosen column permutation.  One layered engine,
``_minors``, builds the minors of a block of rows bottom row first; one
determinant, ``_determinant``, runs it on each half of the rows and joins
the halves where that forms each word once, for ``ndet_laplace`` over
H-words and for the Jacobi-Trudi determinant in ``symfunc``.
Every product is the shared term-map ``hwords.add_product``.
The plain sum over all l! selections, its independent test oracle, lives
with the other oracles in the test suite.

A zero-free pair, whose matrix has no zero entry (no ``ahat`` value lies
in ``bhat``) and whose ``bhat`` is distinct, skips the engine: each
surviving selection's word has one letter per row, and its k-th letter
``ahat_k - bhat_j`` fixes the column ``j`` of row k.  So no two selections
give the same word and nothing cancels: the expansion is the signed list
of rook placements on the positive entries, a Ferrers board, and
``ndet_laplace`` returns those placements, which render without a term map.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

from .errors import DimensionCapError
from .hwords import HExpansion, _encoded, _Placed, add_product
from .matrix import SubscriptMatrix, build_matrix

# l! terms beyond this exceed desk scale; the CLI can override via env.
DEFAULT_DIM_CAP = 10


def permutation_sign(perm) -> int:
    """Parity of a permutation given as a sequence of distinct values."""
    perm = tuple(perm)
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


class SignedSelection(NamedTuple):
    """One entry per row: row i+1 takes column ``column_of_row[i]`` (1-based)."""

    column_of_row: tuple[int, ...]
    sign: int

    @classmethod
    def from_columns(cls, columns) -> "SignedSelection":
        cols = tuple(map(operator.index, columns))
        if sorted(cols) != list(range(1, len(cols) + 1)):
            raise ValueError(f"not a permutation of 1..{len(cols)}: {cols!r}")
        return cls(cols, permutation_sign(cols))


def _check_cap(dim: int, cap) -> None:
    if cap is not None and dim > cap:
        raise DimensionCapError(
            f"matrix dimension {dim} exceeds the exact-expansion cap {cap}"
        )


def _minors(cells, layer, mul) -> dict:
    """The nonzero minors of ``cells`` stacked on ``layer``, over a monoid algebra.

    ``cells[i][j]`` maps monoid keys to nonzero int coefficients, or is
    None for a zero entry; ``mul(u, v)`` multiplies keys, ``u`` from the
    upper row.  ``layer`` maps column sets (bitmasks) to the nonzero minors
    of the rows below ``cells``, ``{0: {unit: 1}}`` when there are none.
    Layer k maps each column set to its nonzero minor on the bottom k
    rows, expanded along that minor's top row.  Each minor of layer k - 1
    is popped and released as soon as its cofactors are in layer k, so the
    two layers are never both whole in memory.  Returns the last layer.
    """
    for row in reversed(cells):
        nxt: dict[int, dict] = {}
        while layer:
            cols, minor = layer.popitem()
            for col, cell in enumerate(row):
                bit = 1 << col
                if cell is None or cols & bit:
                    continue
                sign = -1 if (cols & (bit - 1)).bit_count() & 1 else 1
                add_product(nxt.setdefault(cols | bit, {}), cell, minor, mul, sign)
        layer = {cols: minor for cols, minor in nxt.items() if minor}
    return layer


def _determinant(cells, unit, mul) -> dict:
    """Determinant of a square table of cells, as :func:`_minors` takes them.

    The minors of the bottom l - h rows (``h = l // 2``) come first.  When
    each of them is nonzero, so is each top minor's partner: the minors of
    the top h rows come from a pass of their own, and the determinant is
    the sum over column sets T of size h of the top minor on T times the
    bottom minor on the other columns, signed by the inversions between T
    and the rest, ``sum(T) - h(h-1)/2`` for 0-based columns.  Each H-word of
    a result is then formed once, where a layered pass over all rows forms
    about e·l!.  Otherwise some top minors would meet only zero, and
    on sparse matrices building them costs more than the join saves, so
    the layered pass goes on up through the top rows, pruned by the
    bottom's zero minors.
    """
    l = len(cells)
    h = l // 2
    full = (1 << l) - 1
    bottom = _minors(cells[h:], {0: {unit: 1}}, mul)
    if len(bottom) < math.comb(l, h):
        return _minors(cells[:h], bottom, mul).get(full, {})
    top = _minors(cells[:h], {0: {unit: 1}}, mul)
    # sum(T) is odd iff T holds an odd number of odd columns
    odd = sum(1 << j for j in range(1, l, 2))
    shift = h * (h - 1) // 2
    acc: dict = {}
    while top:
        cols, upper = top.popitem()
        sign = -1 if ((cols & odd).bit_count() + shift) & 1 else 1
        add_product(acc, upper, bottom.pop(full ^ cols), mul, sign)
    return acc


def ndet_laplace(m: SubscriptMatrix, cap=DEFAULT_DIM_CAP) -> HExpansion:
    """Laplace expansion with negative-pivot pruning, split at the middle row.

    A negative pivot kills every word through it, so its cofactor is
    skipped; a zero pivot is the unit.  The split is :func:`_determinant`'s.
    A zero-free pair with distinct ``bhat`` (see the module docstring)
    takes no term map: its result holds the rook placements of the top
    and bottom halves and builds its terms with this engine only when
    they are read.  A repeated ``bhat`` gives two equal columns, whose
    words cancel in pairs, so that pair takes the engine.
    """
    _check_cap(m.dim, cap)
    if set(m.ahat).isdisjoint(m.bhat) and len(set(m.bhat)) == m.dim:
        return _placed(m)
    return HExpansion._of(_expanded(m))


def _expanded(m: SubscriptMatrix) -> dict:
    """The terms of ``m``'s expansion by :func:`_determinant`, over encoded H-words."""
    cells = [
        [None if e < 0 else {_encoded((e,) if e else ()): 1} for e in row]
        for row in m.entries
    ]
    return _determinant(cells, "", operator.add)


def _placements(ahat, columns) -> list:
    """The rook placements of rows ``ahat`` on their positive entries, in render order.

    ``columns`` lists the pairs ``(j, bhat_j)`` by falling ``bhat``, so each
    row meets its letters ``ahat_i - bhat_j`` rising, and the placements
    come by their words ascending.  Each is ``(cols, word, sign)``: the
    bitmask of the columns taken, the letters, and the sign of the order
    the columns are taken in, as a permutation of their sorted set.
    """
    placed = [(0, (), 1)]
    for a in ahat:
        placed = [
            (cols | 1 << j, (*word, a - b), -sign if (cols >> j).bit_count() & 1 else sign)
            for cols, word, sign in placed
            for j, b in columns
            if b < a and not cols >> j & 1
        ]
    return placed


def _placed(m: SubscriptMatrix) -> _Placed:
    """The expansion of a zero-free pair with distinct ``bhat``, as its rook placements.

    The top ``h = l // 2`` rows and the bottom rows are placed apart and
    joined as :func:`_determinant` joins its halves: the sign of a top
    placement on the 0-based column set T is also multiplied by the
    parity of ``sum(T) - h(h-1)/2``, the inversions between T and the rest.
    """
    l, h = m.dim, m.dim // 2
    columns = sorted(enumerate(m.bhat), key=operator.itemgetter(1), reverse=True)
    bottoms: dict[int, list] = {}
    for cols, word, sign in _placements(m.ahat[h:], columns):
        bottoms.setdefault(cols, []).append((sign, word))
    # sum(T) is odd iff T holds an odd number of odd columns
    odd = sum(1 << j for j in range(1, l, 2))
    shift = h * (h - 1) // 2
    full = (1 << l) - 1
    tops = [
        (-sign if ((cols & odd).bit_count() + shift) & 1 else sign, word, full ^ cols)
        for cols, word, sign in _placements(m.ahat[:h], columns)
    ]
    return _Placed(tops, bottoms, functools.partial(_expanded, m))


def skew_immaculate(alpha, beta, cap=DEFAULT_DIM_CAP) -> HExpansion:
    """H-basis expansion of the skew element indexed by (alpha, beta)."""
    return ndet_laplace(build_matrix(alpha, beta), cap=cap)


def immaculate(mu, cap=DEFAULT_DIM_CAP) -> HExpansion:
    """H-basis expansion of the basis element indexed by a composition.

    Equals the skew expansion against the all-zero sequence, which checks
    ``mu``; the (i, j) subscript of the underlying matrix is mu_i - i + j.
    """
    mu = tuple(mu)
    return skew_immaculate(mu, (0,) * len(mu), cap=cap)
