"""The free-monoid algebra on complete homogeneous generators.

A basis word is a tuple of positive subscripts standing for the product
H_{a1} H_{a2} ... of noncommuting generators.  Subscript 0 is the unit
and disappears on normalization; a negative subscript annihilates the
whole word.  Linear combinations keep exact (arbitrary-precision)
integer coefficients, so no coefficient can ever overflow or wrap.

A word is a tuple at the API and a ``str`` inside :class:`HExpansion`,
one code point per subscript: ``(9, 8, 7)`` is stored as
``chr(9) + chr(8) + chr(7)`` and the unit word as ``""``.  A ``str`` is
compact, caches its hash and concatenates in C; same-length strings sort
as their tuples do.  So a subscript is at most ``sys.maxunicode``, and
larger ones are rejected where a pair or a word comes in.

The exact sparse term map under both algebras lives here too: H-expansions
and the polynomials of ``symfunc`` are :class:`TermMap` subclasses, and
its zero-dropping accumulate exists once in :func:`add_terms` and once in
:func:`add_product`, also the inner loop of the Laplace engine in ``ndet``.
An expansion whose terms are distinct signed rook placements can also be
held as those placements (``_Placed``), rendered from text templates and
expanded into a term map only when its terms are read.
"""

from __future__ import annotations

import itertools
import operator
import sys
from collections.abc import Iterable, Mapping

Word = tuple[int, ...]

# Terms formatted per chunk of HExpansion.render; bounds each chunk's text.
_RENDER_CHUNK = 1024
# UTF-32 in the native byte order, which memoryview.cast("I") reads.
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


def normalize_word(raw: Iterable[int]) -> Word | None:
    """Drop zero subscripts; return None when any subscript is negative.

    None means the term is zero (a negative generator annihilates it);
    the empty word is the unit and is a perfectly good result.
    """
    word = []
    for a in map(operator.index, raw):
        if a < 0:
            return None
        if a:
            word.append(a)
    return tuple(word)


def add_terms(acc: dict, pairs) -> dict:
    """Add ``(key, int)`` pairs into ``acc`` and return it.

    A key whose total is zero is removed, or never added, so ``acc``
    stores no zero coefficient.
    """
    for key, coeff in pairs:
        total = acc.get(key, 0) + coeff
        if total:
            acc[key] = total
        elif key in acc:
            del acc[key]
    return acc


def add_product(acc: dict, left, right, mul, scale: int) -> dict:
    """Add ``scale`` times the product of term maps ``left``, ``right`` into ``acc``.

    ``mul(u, v)`` multiplies keys, ``u`` from ``left``; all coefficients
    and ``scale`` are nonzero ints.  Returns ``acc``, which keeps no zero.
    """
    for lkey, lcoeff in left.items():
        lscale = scale * lcoeff
        for rkey, rcoeff in right.items():
            key = mul(lkey, rkey)
            total = acc.get(key, 0) + lscale * rcoeff
            if total:
                acc[key] = total
            else:
                del acc[key]
    return acc


class TermMap:
    """A finite exact integer combination of hashable keys; zeros are never stored.

    Immutable by convention.  Each slot a subclass adds is part of its
    value and prints before the terms in ``repr``; two term maps are equal
    when they share the class, those slots and the terms.  A subclass
    declared with ``value_of=Base`` is another form of ``Base``: it
    compares, hashes and prints as a ``Base``, and its own slots are not
    part of its value.
    """

    __slots__ = ("_terms",)

    def __init_subclass__(cls, value_of=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._value_type = value_of or cls

    @staticmethod
    def _merged(terms, check_key) -> dict:
        """Sum ``{key: coeff}`` or pairs into a dict, every key via ``check_key``."""
        items = terms.items() if hasattr(terms, "items") else terms
        return add_terms(
            {}, ((check_key(key), operator.index(coeff)) for key, coeff in items)
        )

    def coefficient(self, key: Iterable[int]) -> int:
        return self._terms.get(tuple(key), 0)

    def items(self):
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def _slot_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._value_type.__slots__)

    def __eq__(self, other) -> bool:
        return (
            getattr(other, "_value_type", None) is self._value_type
            and self._slot_values() == other._slot_values()
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash(
            (self._value_type, self._slot_values(), frozenset(self._terms.items()))
        )

    def __repr__(self) -> str:
        head = "".join(f"{value!r}, " for value in self._slot_values())
        return f"{self._value_type.__name__}({head}{self.render()!r})"

    def _graded(self, grade, reverse: bool):
        """Yield ``(g, keys)`` for each grade ``g`` of the keys, in grade order.

        Each grade's keys come in plain key order; ``reverse`` makes both
        orders descending.  ``grade`` is a builtin such as ``len`` or
        ``sum``, so neither sort runs Python code per key.
        """
        by_grade = sorted(self._terms, key=grade, reverse=reverse)
        for g, keys in itertools.groupby(by_grade, grade):
            yield g, sorted(keys, reverse=reverse)


def _check_subscript(largest: int) -> None:
    """Reject a subscript above ``sys.maxunicode``, the largest one code point holds."""
    if largest > sys.maxunicode:
        raise ValueError(
            f"subscript {largest} is above the limit {sys.maxunicode} (sys.maxunicode)"
        )


def _encoded(word: Word) -> str:
    """The stored form of a normalized word: one code point per subscript."""
    return "".join(map(chr, word))


def _checked_word(raw: Iterable[int]) -> str:
    word = tuple(map(operator.index, raw))
    if word:
        if min(word) < 1:
            raise ValueError(
                f"words must be normalized (positive subscripts): {word!r}"
            )
        _check_subscript(max(word))
    return _encoded(word)


class _Texts(dict):
    """Lookup table of ``fmt % key``, each text made on first lookup."""

    def __init__(self, fmt: str):
        self.fmt = fmt

    def __missing__(self, key: int) -> str:
        text = self[key] = self.fmt % key
        return text


class HExpansion(TermMap):
    """A finite integer combination of basis words under concatenation."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Word, int] | Iterable[tuple[Word, int]] = ()):
        self._terms = self._merged(terms, _checked_word)

    @classmethod
    def _of(cls, terms: dict[str, int]) -> "HExpansion":
        """Adopt a term map that already holds only encoded words and nonzero ints."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    def coefficient(self, key: Iterable[int]) -> int:
        try:
            word = _encoded(key)
        except (ValueError, OverflowError):
            return 0  # a subscript no code point holds is in no stored word
        return self._terms.get(word, 0)

    def items(self):
        return ((tuple(map(ord, word)), coeff) for word, coeff in self._terms.items())

    def render(self) -> str:
        """Canonical text form, the bit-exact format used by the CLI and fixtures.

        Terms are sorted by word length then lexicographically on
        subscripts, each rendered ``{+|-}{|c|}·H[a1,a2,...]`` and joined
        by single spaces; the unit word renders ``H[]`` and the zero
        expansion renders ``0``.  The text is built a chunk of same-length
        terms at a time, column by column, with no Python code per term.
        """
        return " ".join(self._rendered_chunks()) or "0"

    def _rendered_chunks(self):
        """Yield the rendered terms in order, ``_RENDER_CHUNK`` at a time, space-joined.

        A chunk's words all have one length ``L``, so its text is a list of
        ``L + 1`` parts per term, filled a column at a time by slice
        assignment from tables made on first lookup: coefficients as
        ``%+d·H[`` (a table per chunk), then subscripts as ``a,`` or, last,
        ``a] ``, read as code points through one UTF-32 view of the chunk.
        No Python code runs per term, and a render holds its chunk texts
        and the result, not a text per term.
        """
        terms = self._terms
        inner, last = _Texts("%d,"), _Texts("%d] ")
        for length, words in self._graded(len, False):
            if not length:
                yield "%+d·H[]" % terms[""]
                continue
            step = length + 1
            for start in range(0, len(words), _RENDER_CHUNK):
                chunk = words[start : start + _RENDER_CHUNK]
                codes = memoryview("".join(chunk).encode(_UTF32, "surrogatepass")).cast("I")
                heads, parts = _Texts("%+d·H["), [None] * (len(chunk) * step)
                parts[::step] = map(heads.__getitem__, map(terms.__getitem__, chunk))
                for k in range(length - 1):
                    parts[k + 1 :: step] = map(inner.__getitem__, codes[k::length])
                parts[length::step] = map(last.__getitem__, codes[length - 1 :: length])
                codes.release()  # frees the code units before the join allocates
                parts[-1] = parts[-1][:-1]  # render puts the space between chunks
                yield "".join(parts)


# Where a template takes the prefix of a top placement; no rendered term holds it.
_PREFIX = "\0"


class _Placed(HExpansion, value_of=HExpansion):
    """An H-expansion held as its signed rook placements, split into top and bottom rows.

    Every word has one letter per row and no two placements give the same
    word, so each placement is one term with coefficient ±1.  ``bottoms``
    maps a column set to the placements ``(sign, word)`` of the bottom
    rows on it, and ``tops`` lists those ``(sign, word, key)`` of the top
    rows, ``key`` the column set they leave to the bottom rows; each in
    render order, so that a top word followed by its bottom words is too.
    A term's sign is the product of its two.  ``build()`` returns the term
    map, made on the first read of the terms; the text, ``len`` and
    ``is_zero`` come from the placements.
    """

    __slots__ = ("_tops", "_bottoms", "_build")

    def __init__(self, tops, bottoms, build):
        self._tops, self._bottoms, self._build = tops, bottoms, build

    def __getattr__(self, name):
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._terms = terms = self._build()
        return terms

    def __len__(self) -> int:
        bottoms = self._bottoms
        return sum(len(bottoms.get(key, ())) for _, _, key in self._tops)

    def is_zero(self) -> bool:
        return not len(self)

    def _rendered_chunks(self):
        """Yield, per top placement, the terms it heads, space-joined.

        Each column set of the bottom rows gets its terms as one template,
        with ``_PREFIX`` where the top word goes, and the same with every
        sign flipped; a top placement's chunk is one ``str.replace`` on the
        template its sign picks.  A top placement whose columns leave no
        bottom placement heads no term and yields no chunk.
        """
        templates = {}
        for key, placed in self._bottoms.items():
            terms = [(sign, f"1·H[{_PREFIX}{','.join(map(str, word))}]") for sign, word in placed]
            templates[key] = tuple(
                " ".join(("+" if sign == top else "-") + text for sign, text in terms)
                for top in (1, -1)
            )
        for sign, word, key in self._tops:
            pair = templates.get(key)
            if pair is not None:
                yield pair[sign < 0].replace(_PREFIX, "".join(f"{a}," for a in word))
