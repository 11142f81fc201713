"""Compositions, weak compositions, partitions, and the staircase shift.

Integer sequences are plain tuples throughout, so they hash, compare and
key dictionaries without wrapper classes.  A *composition* has positive
parts; a *weak composition* allows zeros; a *partition* weakly decreases.
The staircase ("hat") shift subtracts i from the i-th part (1-based) and
is the coordinate system in which every sign question about skew
expansions becomes a plain integer comparison.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from itertools import combinations

Parts = tuple[int, ...]

# the part syntax: ASCII digits, an optional leading minus, ASCII whitespace around
_PART = re.compile(r"\s*-?\d+\s*", re.ASCII)


def parse_int(text: str) -> int:
    """Parse one integer in the part syntax; ``int`` spellings beyond it,
    such as ``1_0``, ``+3``, non-ASCII digits or a no-break space, raise."""
    if not _PART.fullmatch(text):
        raise ValueError(f"malformed integer: {text!r}")
    return int(text)


def parse_parts(text: str, minimum: int = 1) -> Parts:
    """Parse ``a1,a2,...`` into a tuple of ints, each >= ``minimum``.

    This is the one composition syntax used across the CLI: comma-separated
    decimal integers, no brackets, e.g. ``6,4,3``, each read by parse_int.
    """
    try:
        parts = tuple(map(parse_int, str(text).split(",")))
    except ValueError:
        raise ValueError(f"malformed composition text: {text!r}") from None
    if any(p < minimum for p in parts):
        raise ValueError(f"every part must be >= {minimum}: {text!r}")
    return parts


def format_parts(parts: Iterable[int]) -> str:
    """Inverse of :func:`parse_parts`."""
    return ",".join(str(p) for p in parts)


def is_weak_composition(parts: Iterable[int]) -> bool:
    return all(p >= 0 for p in parts)


def is_composition(parts: Iterable[int]) -> bool:
    parts = tuple(parts)
    return len(parts) >= 1 and all(p >= 1 for p in parts)


def is_partition(parts: Iterable[int]) -> bool:
    """True iff the parts weakly decrease and are all positive."""
    parts = tuple(parts)
    if any(p < 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def hat(parts: Iterable[int]) -> Parts:
    """Subtract i from the i-th part (1-based): (3,2,3,5,1) -> (2,0,0,1,-4)."""
    return tuple(p - i for i, p in enumerate(parts, start=1))


def pad_to_length(parts: Iterable[int], length: int) -> Parts:
    """Append trailing zeros until ``length`` parts; rejects truncation."""
    parts = tuple(parts)
    if length < len(parts):
        raise ValueError(f"cannot pad {len(parts)} parts down to length {length}")
    return parts + (0,) * (length - len(parts))


def strip_trailing_zeros(parts: Iterable[int]) -> Parts:
    parts = tuple(parts)
    end = len(parts)
    while end > 0 and parts[end - 1] == 0:
        end -= 1
    return parts[:end]


def is_zero_padded_partition(parts: Iterable[int]) -> bool:
    """True iff the sequence is a partition once trailing zeros are removed."""
    parts = tuple(parts)
    return is_weak_composition(parts) and is_partition(strip_trailing_zeros(parts))


def enumerate_compositions(n: int, length: int) -> Iterator[Parts]:
    """Yield every composition of ``n`` with exactly ``length`` parts.

    Lexicographic order, each composition exactly once; the stream is empty
    when ``n < length`` or ``length < 1``.  The count is binomial(n-1, length-1).
    """
    if length < 1 or n < length:
        return
    # a composition is its length-1 partial sums, cuts in 1..n-1; cuts in
    # lexicographic order give compositions in lexicographic order
    for cuts in combinations(range(1, n), length - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
