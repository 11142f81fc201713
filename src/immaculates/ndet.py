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
in ``bhat``) and whose ``bhat`` is distinct, is not joined: each
surviving selection's word has one letter per row, and its k-th letter
``ahat_k - bhat_j`` fixes the column ``j`` of row k.  So no two selections
give the same word and nothing cancels: each minor of the engine's two
half passes is the signed list of its rook placements on the positive
entries, a Ferrers board, and ``ndet_laplace`` returns the two halves
unjoined (``_Placed``), which render without a term map.  One join,
``_join``, serves both the determinant and ``_Placed``'s terms.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import DimensionCapError
from .hwords import HExpansion, _encoded, add_product
from .matrix import SubscriptMatrix, build_matrix

# l! terms beyond this exceed desk scale; the CLI can override via env.
DEFAULT_DIM_CAP = 10
# Where a template takes the prefix of a top placement; no rendered term holds it.
_PREFIX = "\0"


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
    the top h rows come from a pass of their own, and :func:`_join` sums
    their products.  Each H-word of a result is then formed once, where a
    layered pass over all rows forms about e·l!.  Otherwise some top minors
    would meet only zero, and on sparse matrices building them costs more
    than the join saves, so the layered pass goes on up through the top
    rows, pruned by the bottom's zero minors.
    """
    l = len(cells)
    h = l // 2
    bottom = _minors(cells[h:], {0: {unit: 1}}, mul)
    if len(bottom) < math.comb(l, h):
        return _minors(cells[:h], bottom, mul).get((1 << l) - 1, {})
    return _join(_minors(cells[:h], {0: {unit: 1}}, mul), bottom, l, mul)


def _join(top, bottom, l: int, mul) -> dict:
    """The generalized Laplace expansion of an l-row determinant from its two halves.

    ``top`` and ``bottom`` map column sets to the nonzero minors of the
    top ``l // 2`` rows and of the rest, as :func:`_minors` returns them.
    The result sums, over the column sets T of ``top``, the top minor on T
    times the bottom minor on the other columns (none when that one is
    zero), signed by :func:`_join_sign`.  Each top minor, and the bottom
    minor it meets, is popped and released once its products are added.
    """
    join_sign, full = _join_sign(l), (1 << l) - 1
    acc: dict = {}
    while top:
        cols, upper = top.popitem()
        lower = bottom.pop(full ^ cols, None)
        if lower is not None:
            add_product(acc, upper, lower, mul, join_sign(cols))
    return acc


def _join_sign(l: int):
    """``T -> (-1) ** (sum(T) - h(h-1)/2)``: the top ``h = l // 2`` rows on T joined to the rest.

    The exponent counts the inversions between the 0-based columns in T and the rest.
    """
    # sum(T) is odd iff the bitmask T holds an odd number of odd columns
    odd = sum(1 << j for j in range(1, l, 2))
    h = l // 2
    shift = h * (h - 1) // 2
    return lambda cols: -1 if ((cols & odd).bit_count() + shift) & 1 else 1


def ndet_laplace(m: SubscriptMatrix, cap=DEFAULT_DIM_CAP) -> HExpansion:
    """Laplace expansion with negative-pivot pruning, split at the middle row.

    A negative pivot kills every word through it, so its cofactor is
    skipped; a zero pivot is the unit.  The split is :func:`_determinant`'s.
    A zero-free pair with distinct ``bhat`` (see the module docstring)
    takes no term map: its result is a :class:`_Placed`, the minors of the
    top and bottom halves unjoined.  A repeated ``bhat`` gives two equal
    columns, whose words cancel in pairs, so that pair takes the whole
    determinant.
    """
    _check_cap(m.dim, cap)
    if set(m.ahat).isdisjoint(m.bhat) and len(set(m.bhat)) == m.dim:
        return _Placed(_cells(m))
    return HExpansion._of(_expanded(m))


def _cells(m: SubscriptMatrix) -> list:
    """The entries of ``m`` as :func:`_minors` takes them, over encoded H-words."""
    return [
        [None if e < 0 else {_encoded((e,) if e else ()): 1} for e in row]
        for row in m.entries
    ]


def _expanded(m: SubscriptMatrix) -> dict:
    """The terms of ``m``'s expansion by :func:`_determinant`, over encoded H-words."""
    return _determinant(_cells(m), "", operator.add)


class _Placed(HExpansion, value_of=HExpansion):
    """An H-expansion held as the minors of its top and bottom rows, unjoined.

    ``cells`` are those of a zero-free pair with distinct ``bhat`` (see the
    module docstring), whose minors come from :func:`_determinant`'s two
    half passes and are kept as they come, ``{column set: {word: sign}}``:
    each word of a minor is one rook placement on its columns, and each
    term is a top placement on T followed by a bottom placement on the
    other columns, signed by the two and :func:`_join_sign` of T.  No two
    terms share a word, so each coefficient is ±1.  The text and ``len``
    come from the minors; the term map is made by :func:`_join` on the
    first read of the terms, from copies, so the minors stay whole.
    """

    __slots__ = ("_top", "_bottom", "_dim")

    def __init__(self, cells):
        h = len(cells) // 2
        self._bottom = _minors(cells[h:], {0: {"": 1}}, operator.add)
        self._top = _minors(cells[:h], {0: {"": 1}}, operator.add)
        self._dim = len(cells)

    def __getattr__(self, name):
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        top, bottom = dict(self._top), dict(self._bottom)
        self._terms = terms = _join(top, bottom, self._dim, operator.add)
        return terms

    def __len__(self) -> int:
        full, bottom = (1 << self._dim) - 1, self._bottom
        return sum(
            len(top) * len(bottom.get(full ^ cols, ())) for cols, top in self._top.items()
        )

    def _rendered_chunks(self):
        """Yield, per top placement in word order, the terms it heads, space-joined.

        Each bottom column set gets its placements, sorted, as one text
        template, with ``_PREFIX`` where the top word goes, and the same
        with every sign flipped.  The top placements are sorted by word,
        each signed by :func:`_join_sign` and keyed by the columns it leaves
        to the bottom rows; its chunk is one ``str.replace`` on the template
        its sign picks.  A top placement whose columns leave no bottom
        placement heads no term and yields no chunk.
        """
        templates = {}
        for cols, minor in self._bottom.items():
            terms = [
                (sign, f"1·H[{_PREFIX}{','.join(map(str, map(ord, word)))}]")
                for word, sign in sorted(minor.items())
            ]
            templates[cols] = tuple(
                " ".join(("+" if sign == top else "-") + text for sign, text in terms)
                for top in (1, -1)
            )
        join_sign, full = _join_sign(self._dim), (1 << self._dim) - 1
        tops = sorted(
            (word, sign * join_sign(cols), full ^ cols)
            for cols, minor in self._top.items()
            for word, sign in minor.items()
        )
        for word, sign, key in tops:
            pair = templates.get(key)
            if pair is not None:
                yield pair[sign < 0].replace(_PREFIX, "".join(f"{a}," for a in map(ord, word)))


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
