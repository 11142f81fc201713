"""Pair validation and the associated subscript matrix.

The matrix attached to a pair (alpha, beta) of equal-length sequences has
(i, j) entry ahat_i - bhat_j, where ahat and bhat are the staircase shifts
alpha_i - i and beta_j - j.  Every rule that decides the pair reads only
the hats, so a matrix holds the pair and its hats and forms its l×l table
of plain integers on first read.  Indices are 0-based internally and
1-based in every public rendering.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from .compositions import hat
from .errors import LengthMismatchError
from .hwords import _check_subscript


@dataclass(frozen=True)
class SubscriptMatrix:
    """Square matrix of generator subscripts: its source pair and their hats.

    Making one rejects a largest subscript, ``max(ahat) - min(bhat)``,
    above ``sys.maxunicode``.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    ahat: tuple[int, ...]
    bhat: tuple[int, ...]

    def __post_init__(self):
        _check_subscript(max(self.ahat, default=0) - min(self.bhat, default=0))

    @property
    def dim(self) -> int:
        return len(self.ahat)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The table ``entries[i][j] == ahat[i] - bhat[j]``, formed on first read."""
        return tuple(tuple(a - b for b in self.bhat) for a in self.ahat)

    def render(self) -> str:
        """Debug form: one row per line, space-separated subscripts."""
        return "\n".join(" ".join(str(e) for e in row) for row in self.entries)


def build_matrix(alpha, beta) -> SubscriptMatrix:
    """Associated matrix of the pair; rejects unequal lengths and bad parts.  O(l).

    ``alpha`` must have positive parts; ``beta`` may be weak (zero parts
    embed non-skew indices as a skew by a zero sequence).
    """
    alpha = tuple(map(operator.index, alpha))
    beta = tuple(map(operator.index, beta))
    if len(alpha) != len(beta):
        raise LengthMismatchError(
            f"alpha has {len(alpha)} parts but beta has {len(beta)}"
        )
    if not alpha or min(alpha) < 1:
        raise ValueError(f"alpha must be a composition (positive parts): {alpha!r}")
    if min(beta) < 0:
        raise ValueError(f"beta parts must be nonnegative: {beta!r}")
    return SubscriptMatrix(alpha, beta, hat(alpha), hat(beta))
