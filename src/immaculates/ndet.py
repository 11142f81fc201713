"""Noncommutative determinants of subscript matrices.

Each determinant term selects one entry per row in a distinct column;
factors multiply in row order (top row first) and the term's sign is
the parity of the chosen column permutation.  ``ndet_laplace`` is the
layered Laplace expansion, bottom row first, with negative-pivot pruning;
its engine also expands the Jacobi-Trudi determinant in ``symfunc``, and
its inner loop is the shared term-map product ``hwords.add_product``.
The plain sum over all l! selections, its independent test oracle, lives
with the other oracles in the test suite.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import DimensionCapError
from .hwords import HExpansion, _encoded, add_product
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


def _layered_laplace(cells, unit, mul) -> dict:
    """Determinant of a square table over a monoid algebra with int coefficients.

    ``cells[i][j]`` maps monoid keys to nonzero coefficients, or is None
    for a zero entry; ``mul(u, v)`` multiplies keys, ``u`` from the upper
    row.  Layer k maps each column set (a bitmask) to its nonzero minor on
    the bottom k rows, expanded along that minor's top row.  Each minor of
    layer k - 1 is popped and released as soon as its cofactors are in
    layer k, so the two layers are never both whole in memory.  Returns
    the determinant's term map.
    """
    layer = {0: {unit: 1}}
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
    return layer.get((1 << len(cells)) - 1, {})


def ndet_laplace(m: SubscriptMatrix, cap=DEFAULT_DIM_CAP) -> HExpansion:
    """Layered Laplace expansion, bottom row first, with negative-pivot pruning.

    A negative pivot kills every word through it, so its cofactor is
    skipped; a zero pivot is the unit.
    """
    _check_cap(m.dim, cap)
    cells = [
        [None if e < 0 else {_encoded((e,) if e else ()): 1} for e in row]
        for row in m.entries
    ]
    return HExpansion._of(_layered_laplace(cells, "", operator.add))


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
