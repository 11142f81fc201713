"""The free-monoid algebra on complete homogeneous generators.

A basis word is a tuple of positive subscripts standing for the product
H_{a1} H_{a2} ... of noncommuting generators.  Subscript 0 is the unit
and disappears on normalization; a negative subscript annihilates the
whole word.  Linear combinations keep exact (arbitrary-precision)
integer coefficients, so no coefficient can ever overflow or wrap.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

Word = tuple[int, ...]


def normalize_word(raw: Iterable[int]) -> Word | None:
    """Drop zero subscripts; return None when any subscript is negative.

    None means the term is zero (a negative generator annihilates it);
    the empty word is the unit and is a perfectly good result.
    """
    word = []
    for a in raw:
        if a < 0:
            return None
        if a != 0:
            word.append(int(a))
    return tuple(word)


def concat(u: Iterable[int], v: Iterable[int]) -> Word:
    """Concatenation product of two normalized words (noncommutative)."""
    return tuple(u) + tuple(v)


def _word_sort_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


class HExpansion:
    """A finite integer combination of basis words.

    Immutable by convention: every operation returns a new expansion.
    Zero coefficients are never stored, so equality is plain dict equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, int] | Iterable[tuple[Word, int]] = ()):
        items = terms.items() if hasattr(terms, "items") else terms
        data: dict[Word, int] = {}
        for raw_word, coeff in items:
            word = tuple(int(a) for a in raw_word)
            if any(a < 1 for a in word):
                raise ValueError(f"words must be normalized (positive subscripts): {word!r}")
            coeff = int(coeff)
            if not coeff:
                continue
            total = data.get(word, 0) + coeff
            if total:
                data[word] = total
            elif word in data:
                del data[word]
        self._terms = data

    @classmethod
    def _of(cls, terms: dict[Word, int]) -> "HExpansion":
        """Adopt a term map that already holds only normalized words and nonzero ints."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "HExpansion":
        return cls()

    def add_term(self, sign: int, raw: Iterable[int]) -> "HExpansion":
        """Return the expansion with ``sign`` times the normalized word added.

        A word with a negative subscript contributes nothing; full
        cancellation removes the entry entirely.
        """
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        word = normalize_word(raw)
        if word is None:
            return self
        terms = dict(self._terms)
        total = terms.get(word, 0) + sign
        if total:
            terms[word] = total
        else:
            del terms[word]
        return HExpansion._of(terms)

    def coefficient(self, word: Iterable[int]) -> int:
        return self._terms.get(tuple(word), 0)

    def items(self):
        return iter(self._terms.items())

    def words(self):
        return self._terms.keys()

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, HExpansion) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"HExpansion({self.render()!r})"

    def render(self) -> str:
        """Canonical text form, the bit-exact format used by the CLI and fixtures.

        Terms are sorted by word length then lexicographically on
        subscripts, each rendered ``{+|-}{|c|}·H[a1,a2,...]`` and joined
        by single spaces; the unit word renders ``H[]`` and the zero
        expansion renders ``0``.
        """
        if not self._terms:
            return "0"
        chunks = []
        for word in sorted(self._terms, key=_word_sort_key):
            coeff = self._terms[word]
            sign = "+" if coeff > 0 else "-"
            body = ",".join(str(a) for a in word)
            chunks.append(f"{sign}{abs(coeff)}·H[{body}]")
        return " ".join(chunks)
