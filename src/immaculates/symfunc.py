"""Commutative symmetric polynomials used as a cross-validation oracle.

Complete homogeneous polynomials, semistandard tableaux (French
notation: bottom row first, rows weakly increase, columns strictly
increase upward), Schur polynomials computed both as tableau weights
summed over chains of horizontal strips and from the classical
determinant formula, and the projection that
forgets noncommutativity by sending each generator subscript a to the
complete homogeneous polynomial of degree a.

Everything is exact sparse integer arithmetic over a fixed variable
count.  Exponent vectors are tuples of that length; inside the h tables,
Jacobi-Trudi and the projection each is one int, digit i (``width`` bits)
holding the exponent of variable i + 1.
"""

from __future__ import annotations

import itertools
import operator

from .compositions import is_partition, is_zero_padded_partition, strip_trailing_zeros
from .hwords import HExpansion, TermMap, add_product, add_terms
from .ndet import _determinant


def _add_exponents(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, e1, e2))


def _nvars(n) -> int:
    """The variable count as an int; rejects non-integral numbers and n < 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one variable")
    return n


class Poly(TermMap):
    """Sparse polynomial with exact int coefficients in ``nvars`` variables."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms=()):
        self.nvars = nvars = _nvars(nvars)

        def checked_exponents(raw) -> tuple[int, ...]:
            exps = tuple(map(operator.index, raw))
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for {nvars} variables")
            return exps

        self._terms = self._merged(terms, checked_exponents)

    @classmethod
    def _of(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "Poly":
        """Adopt a term map that already holds only valid exponents and nonzero ints."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out._terms = terms
        return out

    def exponents(self):
        return self._terms.keys()

    def _require_same_vars(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine a Poly with {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._require_same_vars(other)
        return Poly._of(self.nvars, add_terms(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "Poly":
        return self * -1

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {e: c * other for e, c in self._terms.items()} if other else {}
            return Poly._of(self.nvars, terms)
        self._require_same_vars(other)
        terms = add_product({}, self._terms, other._terms, _add_exponents, 1)
        return Poly._of(self.nvars, terms)

    __rmul__ = __mul__

    def render(self) -> str:
        """Deterministic text form: graded-lex order, largest terms first.

        Each term renders as ``{+|-}{|c|}·x1^a1·x2^a2`` with unit
        exponents and absent variables elided; a constant term is the
        bare signed coefficient and the zero polynomial is ``0``.  Each
        variable's factor text is formatted once per exponent that occurs
        in its column, and a term joins those texts.
        """
        terms = self._terms
        factors = [
            {e: "·x%d^%d" % (i, e) if e > 1 else "·x%d" % i if e else "" for e in set(column)}
            for i, column in enumerate(zip(*terms), start=1)
        ]
        factor = dict.__getitem__
        return " ".join([
            "%+d%s" % (terms[exps], "".join(map(factor, factors, exps)))
            for _, group in self._graded(sum, True)
            for exps in group
        ]) or "0"


def _packed_h_tables(top: int, n: int, width: int) -> list[dict[int, int]]:
    """Term maps of h_0..h_top in n variables on packed keys, coefficients 1.

    Adds x_i by ``h_k(x_1..x_i) = sum_e x_i^e h_(k-e)(x_1..x_(i-1))``, the old
    h_k plus x_i times the new h_(k-1); every exponent must be below ``2**width``.
    """
    tables = [{0: 1}] + [{} for _ in range(top)]
    for step in [1 << i * width for i in range(n)]:
        for k in range(1, top + 1):
            tables[k].update(dict.fromkeys([key + step for key in tables[k - 1]], 1))
    return tables


def _unpacked(terms: dict[int, int], n: int, width: int) -> dict[tuple[int, ...], int]:
    """The term map with each packed key spread into its exponent tuple."""
    mask, shifts = (1 << width) - 1, [i * width for i in range(n)]
    return {tuple([key >> s & mask for s in shifts]): c for key, c in terms.items()}


def h_poly(k: int, n: int) -> Poly:
    """Complete homogeneous polynomial of degree k in n variables.

    Sum of all monomials of degree k, whose exponents are at most k;
    degree 0 gives 1 and negative degrees give the zero polynomial.
    """
    n = _nvars(n)
    if k < 0:
        return Poly(n)
    width = operator.index(k).bit_length()
    return Poly._of(n, _unpacked(_packed_h_tables(k, n, width)[k], n, width))


def _check_skew_shape(outer, inner):
    outer = tuple(map(operator.index, outer))
    inner = strip_trailing_zeros(map(operator.index, inner))
    if outer and not is_partition(outer):
        raise ValueError(f"outer shape must be a partition: {outer!r}")
    if not is_partition(inner):
        raise ValueError(f"inner shape must weakly decrease: {inner!r}")
    if len(inner) > len(outer):
        raise ValueError(f"inner shape {inner!r} is longer than outer {outer!r}")
    inner = inner + (0,) * (len(outer) - len(inner))
    if any(inner[i] > outer[i] for i in range(len(outer))):
        raise ValueError(f"inner shape {inner!r} does not fit inside {outer!r}")
    return outer, inner


def generate_ssyt(outer, inner, n: int):
    """Yield every semistandard filling of outer/inner with entries in 1..n.

    A filling is a tuple of rows, bottom row first, each holding its cells
    outside the inner shape left to right.  Cells are filled in that order,
    candidate values ascending, so enumeration is lexicographic on the
    filling sequence and deterministic.  The filling is one flat list in
    cell order; each cell's left and lower neighbours are looked up once
    as indices into it, and a leaf slices its rows out.
    """
    outer, inner = _check_skew_shape(outer, inner)
    n = _nvars(n)
    cells, spans = [], []
    for r in range(len(outer)):
        start = len(cells)
        cells.extend((r, c) for c in range(inner[r], outer[r]))
        spans.append(slice(start, len(cells)))
    index = {cell: k for k, cell in enumerate(cells)}
    # a missing neighbour points at the last slot, which stays 0, so the
    # lower bound max(left, below + 1) is 1 where neither exists
    left = [index.get((r, c - 1), -1) for r, c in cells]
    below = [index.get((r - 1, c), -1) for r, c in cells]
    size = len(cells)
    values = [0] * (size + 1)

    def fill(pos: int):
        if pos == size:
            yield tuple(tuple(values[s]) for s in spans)
            return
        for value in range(max(values[left[pos]], values[below[pos]] + 1), n + 1):
            values[pos] = value
            yield from fill(pos + 1)

    yield from fill(0)


def schur_via_tableaux(outer, inner, n: int) -> Poly:
    """Schur polynomial as the weight generating function of tableaux.

    Sums tableau weights shape by shape (Macdonald, I (5.11)) and builds
    no tableau.  In a semistandard filling of outer/inner with entries in
    1..n, the cells holding entries ``<= v`` cover a skew shape
    ``nu_v / inner`` with ``nu_v`` a partition, since rows weakly increase
    and columns strictly increase.  So the filling is a chain ``inner =
    nu_0 ⊆ nu_1 ⊆ ... ⊆ nu_n = outer`` in which the cells holding v,
    ``nu_v / nu_(v-1)``, form a horizontal strip: at most one cell per
    column.  Each such chain fills in exactly one way.  French notation only draws row
    1 at the bottom; which cells lie left of or below which is the same
    as in English notation, so the bijection does not change.

    Each shape ``nu`` maps to its weights so far, and variable v steps it
    to every ``kappa`` with ``nu_i <= kappa_i <= min(outer_i, nu_(i-1))``,
    appending the exponent ``|kappa| - |nu|``; the last variable steps
    only to ``kappa = outer``.
    """
    outer, inner = _check_skew_shape(outer, inner)
    n = _nvars(n)
    level = {inner: {(): 1}}
    for v in range(1, n + 1):
        following: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for nu, terms in level.items():
            lows = nu if v < n else outer
            tops = [min(o, above) + 1 for o, above in zip(outer, outer[:1] + nu)]
            size = sum(nu)
            for kappa in itertools.product(*map(range, lows, tops)):
                step = (sum(kappa) - size,)
                add_terms(
                    following.setdefault(kappa, {}),
                    [(exps + step, coeff) for exps, coeff in terms.items()],
                )
        level = following
    return Poly._of(n, level.get(outer, {}))


def schur_via_jacobi_trudi(outer, inner, n: int) -> Poly:
    """Schur polynomial as the determinant of complete homogeneous entries.

    Entry (i, j) is the complete homogeneous polynomial of degree
    (outer_i - i) - (inner_j - j) (1-based indices); negative degrees are
    the zero polynomial, which prunes the expansion.  The determinant is
    ``ndet``'s, split at the middle row, on packed keys; the empty shape
    gives the 0 x 0 determinant 1.  No digit carries:
    a minor's term takes one entry per row, and no row's largest degree is
    negative (row i ends in degree outer_i - inner_l + l - i), so the sum
    of the rows' largest degrees bounds the term's degree and exponents.
    """
    outer, inner = _check_skew_shape(outer, inner)
    n = _nvars(n)
    size = range(len(outer))
    degrees = [[outer[i] - i - (inner[j] - j) for j in size] for i in size]
    width = sum(map(max, degrees)).bit_length()
    h = _packed_h_tables(max(map(max, degrees), default=0), n, width)
    cells = [[h[d] if d >= 0 else None for d in row] for row in degrees]
    return Poly._of(n, _unpacked(_determinant(cells, 0, operator.add), n, width))


def forgetful(expansion: HExpansion, n: int) -> Poly:
    """Project an H-expansion onto commuting variables.

    Each word (a1, ..., ak) maps to the product of complete homogeneous
    polynomials of those degrees, extended linearly.  The image of a word
    depends only on its letters, so the words are first merged by their
    sorted letters; each letter multiset then multiplies its h tables
    once, and the last product, scaled by its coefficient, goes straight
    into the result.  The unit word multiplies the degree-0 table.  Keys
    are packed: a partial product's exponents are at most the sum of its
    letters, so the largest letter sum bounds them all.
    """
    n = _nvars(n)
    by_letters = add_terms(
        {}, ((tuple(sorted(word)), coeff) for word, coeff in expansion.items())
    )
    width = max(map(sum, by_letters), default=0).bit_length()
    h = _packed_h_tables(max(itertools.chain(*by_letters), default=0), n, width)
    acc: dict[int, int] = {}
    for letters, coeff in by_letters.items():
        *head, last = letters or (0,)
        product = h[0]
        for a in head:
            product = add_product({}, product, h[a], operator.add, 1)
        add_product(acc, product, h[last], operator.add, coeff)
    return Poly._of(n, _unpacked(acc, n, width))


def schur_decompose(p: Poly) -> dict[tuple[int, ...], int]:
    """Write a symmetric polynomial as an integer combination of Schur polynomials.

    Peels the lexicographically greatest exponent vector, which for a
    polynomial in the Schur span is always weakly decreasing and is the
    leading weight of exactly one Schur polynomial.  Each peel removes
    that term and adds only lexicographically smaller ones, so every shape
    is met once, with a nonzero coefficient.  Raises ValueError when the
    input is not in the span.
    """
    remainder = p
    out: dict[tuple[int, ...], int] = {}
    while not remainder.is_zero():
        lead = max(remainder.exponents())
        if not is_zero_padded_partition(lead):
            raise ValueError(
                f"not in the span of Schur polynomials: leading exponent {lead!r}"
            )
        mu = tuple(e for e in lead if e)
        coeff = remainder.coefficient(lead)
        out[mu] = coeff
        remainder = remainder - coeff * schur_via_tableaux(mu, (), p.nvars)
    return out
