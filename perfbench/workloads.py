"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

A workload draws its inputs from a seed when it is constructed (that is
part of set-up), runs one pass of operations through the public entry
points of ``immaculates``, and checks the outputs of a pass after the
pass, outside the timed region.  The checks here are independent of the
package: they recompute subscripts, matchings and determinants from
scratch instead of calling the code under test.

``small=True`` shrinks every workload to a few milliseconds for the
smoke tests; digests are only recorded for the full size.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import random
import re
import time
from pathlib import Path

from immaculates import cli, ndet, predicates, symfunc

DEFAULT_SEED = 0
DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())

# Field of the commutative image checks: a nonzero value there is a proof
# of a nonzero determinant, and the check's chance of missing an error is
# at most degree / P per evaluation.
P = (1 << 61) - 1
OUTCOMES = tuple(o.value for o in predicates.Outcome)


def fmt(parts) -> str:
    return ",".join(str(p) for p in parts)


def digest(texts) -> str | None:
    """sha256 of the texts, each followed by a newline; None if one is missing or none."""
    h = hashlib.sha256()
    count = 0
    for text in texts:
        if text is None:
            return None
        h.update(text.encode())
        h.update(b"\n")
        count += 1
    return h.hexdigest() if count else None


def op_digest(text: str | None) -> bytes:
    """Eight bytes per operation output; a raised operation digests as zeros."""
    if text is None:
        return bytes(8)
    return hashlib.blake2b(text.encode(), digest_size=8).digest()


# ---------------------------------------------------------------- checks


def subscripts(alpha, beta):
    """(alpha_i - i) - (beta_j - j), recomputed without the package."""
    return [[(a - i) - (b - j) for j, b in enumerate(beta)] for i, a in enumerate(alpha)]


def has_matching(rows) -> bool:
    """Perfect row-to-column matching over nonnegative entries (Kuhn's search)."""
    l = len(rows)
    row_of_col = [-1] * l

    def place(i, seen):
        for j in range(l):
            if rows[i][j] >= 0 and j not in seen:
                seen.add(j)
                if row_of_col[j] < 0 or place(row_of_col[j], seen):
                    row_of_col[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(l))


def certificate_ok(rows, cert) -> bool:
    """A certificate is a permutation of 1..l over nonnegative entries."""
    return sorted(cert) == list(range(1, len(rows) + 1)) and all(
        rows[i][c - 1] >= 0 for i, c in enumerate(cert)
    )


def parse_certificate(text: str) -> list[int]:
    cols = []
    for k, pair in enumerate(text.split(","), start=1):
        row, col = pair.split("->")
        if int(row) != k:
            raise ValueError(pair)
        cols.append(int(col))
    return cols


def det_mod(matrix) -> int:
    m = [[x % P for x in row] for row in matrix]
    n, det = len(m), 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % P
        inv = pow(m[c][c], P - 2, P)
        for r in range(c + 1, n):
            f = m[r][c] * inv % P
            if f:
                m[r] = [(x - f * y) % P for x, y in zip(m[r], m[c])]
    return det % P


def image_values(seed: int, top: int) -> list[int]:
    """x_0 = 1 (H_0 is the unit) and random x_1..x_top for the generators."""
    rng = random.Random(seed)
    return [1] + [rng.randrange(2, P) for _ in range(top)]


def commutative_image(rows, xs) -> int:
    """Determinant of H_a -> x_a with H_negative -> 0: the image of the expansion."""
    return det_mod([[xs[e] if e >= 0 else 0 for e in row] for row in rows])


TERM = re.compile(r"([+-])(\d+)·H\[([\d,]*)\]")


def expansion_stats(text: str, xs):
    """(terms, all coefficients +-1, coefficient sum, image mod P) of a render.

    The image sends H_a in position k of a word to ``xs[k][a]``; None when
    the text is not a space-separated sequence of terms.
    """
    if text == "0":
        return 0, True, 0, 0
    by_text = [{str(a): x for a, x in enumerate(row)} for row in xs]
    terms = unit = total = image = pos = 0
    while pos < len(text):
        m = TERM.match(text, pos)
        if m is None:
            return None
        sign, coeff, word = m.groups()
        coeff = int(coeff) if sign == "+" else -int(coeff)
        factors = (row[a] for row, a in zip(by_text, word.split(","))) if word else ()
        image += coeff * math.prod(factors) % P
        terms += 1
        unit += abs(coeff) == 1
        total += coeff
        pos = m.end() + 1
    if pos != len(text) + 1:
        return None
    return terms, unit == terms, total, image % P


def tableau_count(outer, inner, n: int) -> int:
    """Semistandard fillings of outer/inner with entries 1..n, by Jacobi-Trudi.

    The determinant of h_{(outer_i - i) - (inner_j - j)}(1, ..., 1), where
    h_k at n ones is binomial(n + k - 1, k); the count is far below P, so
    the determinant mod P is the count itself.
    """
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return det_mod(
        [
            [
                math.comb(n + k - 1, k) if (k := (o - i) - (b - j)) >= 0 else 0
                for j, b in enumerate(inner)
            ]
            for i, o in enumerate(outer)
        ]
    )


# ------------------------------------------------------------- workloads


class Workload:
    """A fixed list of operations; subclasses fill ``ops`` and ``check_op``.

    ``ops`` holds ``(fixed, run)`` pairs: ``run()`` returns the operation's
    output text, and ``fixed`` marks outputs that do not depend on the
    seed, whose digest is checked on every seed.
    """

    name = ""
    uses_cli = False

    def __init__(self, seed: int, small: bool = False, out_dir: Path = Path(".")):
        self.seed = seed
        self.small = small
        self.out_dir = out_dir
        self.ops: list = []

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def run_pass(self, latencies: list | None) -> list[str | None]:
        """Run every operation once; an operation that raises outputs None."""
        outputs = []
        clock = time.perf_counter_ns
        for _, run in self.ops:
            started = clock()
            try:
                out = run()
            except Exception:  # counted as a failed operation
                out = None
            if latencies is not None:
                latencies.append(clock() - started)
            outputs.append(out)
        return outputs

    def check_op(self, index: int, output: str) -> bool:
        raise NotImplementedError

    def fixed_mask(self) -> list[bool]:
        return [fixed for fixed, _ in self.ops]

    def output_bytes(self, outputs) -> int:
        """Bytes the CLI wrote; zero for workloads that call the library."""
        return sum(len(o.encode()) for o in outputs if o is not None) if self.uses_cli else 0

    def check(self, outputs) -> list[bool]:
        """Per-operation verdicts: independent checks, then recorded digests.

        A digest covers a group of outputs (the seed-independent ones, or
        all seeded ones at the default seed); when it differs, every
        operation of the group fails, because the output is no longer
        byte-stable even if each part passes its own check.
        """
        ok = []
        for i, out in enumerate(outputs):
            try:
                ok.append(out is not None and self.check_op(i, out))
            except (ValueError, IndexError, KeyError):
                ok.append(False)
        groups = [("fixed", True)]
        if self.seed == DEFAULT_SEED:
            groups.append((f"seed{DEFAULT_SEED}", False))
        for label, fixed in groups:
            expected = None if self.small else DIGESTS.get(f"{self.name}.{label}")
            if expected is not None and self._group_digest(outputs, fixed) != expected:
                for i, member in enumerate(self.fixed_mask()):
                    if member == fixed:
                        ok[i] = False
        return ok

    def _group_digest(self, outputs, fixed: bool) -> str | None:
        return digest(o for o, m in zip(outputs, self.fixed_mask()) if m == fixed)

    def digests(self, outputs) -> dict[str, str]:
        """The digests ``check`` compares against, computed from ``outputs``."""
        out = {}
        for label, fixed in (("fixed", True), (f"seed{self.seed}", False)):
            value = self._group_digest(outputs, fixed)
            if value is not None:
                out[f"{self.name}.{label}"] = value
        return out


def _captured_cli(argv: list[str], path: Path) -> str:
    """``immaculates ARGV > PATH``, in process; returns what it printed.

    Stdout goes to a file, as it does for a user, rather than to an
    in-memory buffer, which would add the whole output to the peak RSS.
    """
    try:
        with open(path, "w", encoding="utf-8") as stdout, contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"exit {code}")
        return path.read_text(encoding="utf-8")
    finally:
        path.unlink(missing_ok=True)


class ExpandDense(Workload):
    """``immaculates expand`` on all-nonnegative (dense) matrices.

    ``l^l`` for l = 7, 8, 9 is the worst case of the exact expansion: l!
    distinct terms, no pruning, no cancellation.  The seeded skew pairs
    have the same shape of cost: beta is a partition (so its staircase
    shift is strictly decreasing) and every alpha_i - i lies at or above
    beta_1, so every subscript is positive and the l! words are distinct.
    Dimension 8 only: a dimension-9 pair costs as much as 9^9, which
    would double the pass.
    """

    name = "expand-dense"
    uses_cli = True

    def __init__(self, seed: int, small: bool = False, out_dir: Path = Path(".")):
        super().__init__(seed, small, out_dir)
        rng = random.Random(seed)
        dims = (4, 5) if small else (7, 8, 9)
        pair_dim = 5 if small else 8
        self.shapes = []
        for _ in range(2 if small else 4):
            beta = sorted((rng.randint(0, 3) for _ in range(pair_dim)), reverse=True)
            alpha = [beta[0] + i + rng.randint(0, 2) for i in range(1, pair_dim + 1)]
            self.shapes.append((False, alpha, beta, ["expand", fmt(alpha), "--skew", fmt(beta)]))
        for l in dims:
            self.shapes.append((True, [l] * l, [0] * l, ["expand", fmt([l] * l)]))
        stdout = out_dir / "expand.out"
        self.ops = [
            (fixed, (lambda argv=argv: _captured_cli(argv, stdout)))
            for fixed, _, _, argv in self.shapes
        ]

    def check_op(self, index: int, output: str) -> bool:
        _, alpha, beta, _ = self.shapes[index]
        rows = subscripts(alpha, beta)
        l, top = len(rows), max(map(max, rows))
        # Every subscript is positive, so the factor from row k sits in
        # position k of every word; sending H_a in position k to a random
        # x[k][a] keeps the order of the factors visible, and the image of
        # the expansion is the determinant of x[i][e_ij].
        rng = random.Random(self.seed * 1000 + index)
        xs = [[0] + [rng.randrange(2, P) for _ in range(top)] for _ in range(l)]
        stats = expansion_stats(output.rstrip("\n"), xs)
        if stats is None:
            return False
        terms, unit, total, image = stats
        # all l! words are distinct: l! terms with coefficients +-1 (the
        # permutation signs) summing to 0
        return (
            terms == math.factorial(l)
            and unit
            and total == 0
            and image == det_mod([[xs[i][e] for e in row] for i, row in enumerate(rows)])
        )


class ClassifySkew(Workload):
    """``classify`` plus ``format_certificate`` over seeded skew pairs.

    Uniform equal-weight pairs are almost all decided by the counting
    condition and never reach the exact oracle; these draws pass it almost
    always, so about half end ZERO_AFTER_CANCELLATION through the Laplace
    oracle and a quarter PROVABLY_NONZERO through the greedy witness.
    """

    name = "classify-skew"

    def __init__(self, seed: int, small: bool = False, out_dir: Path = Path(".")):
        super().__init__(seed, small, out_dir)
        rng = random.Random(seed)
        self.pairs = []
        for _ in range(60 if small else 3000):
            l = rng.randint(4, 5) if small else rng.randint(6, 8)
            beta = [rng.randint(0, 6) for _ in range(l)]
            if rng.random() < 0.5:
                beta.sort(reverse=True)
            alpha = [max(1, b + rng.randint(0, 4)) for b in beta]
            self.pairs.append((tuple(alpha), tuple(beta)))
        self.ops = [(False, (lambda a=a, b=b: self._line(a, b))) for a, b in self.pairs]

    @staticmethod
    def _line(alpha, beta) -> str:
        result = predicates.classify(alpha, beta)
        line = result.outcome.value
        if result.certificate is not None:
            line += " " + predicates.format_certificate(result.certificate)
        return line

    def check_op(self, index: int, output: str) -> bool:
        alpha, beta = self.pairs[index]
        rows = subscripts(alpha, beta)
        outcome, _, cert = output.partition(" ")
        if outcome == "ALL_ZERO_PRE_CANCELLATION":
            return not cert and not has_matching(rows)
        if outcome == "ZERO_AFTER_CANCELLATION":
            # a term survives the pigeonhole test, and the whole expansion
            # vanishes, so its commutative image must vanish too
            xs = image_values(index, max(map(max, rows)))
            return not cert and has_matching(rows) and commutative_image(rows, xs) == 0
        if outcome == "PROVABLY_NONZERO":
            tail = list(beta)
            while tail and tail[-1] == 0:
                tail.pop()
            if any(b < 1 for b in tail) or tail != sorted(tail, reverse=True):
                return False
        elif outcome != "NONZERO_TERM_EXISTS":
            return False
        return certificate_ok(rows, parse_certificate(cert))


class CensusFull(Workload):
    """``immaculates enumerate --n 12 --len 5``: every pair, so no seed.

    One operation is one census row (108,900 of them); the row latency is
    the time of one ``next()`` of ``cli.census_records`` as the CLI
    consumes it.
    """

    name = "census-full"
    uses_cli = True

    def __init__(self, seed: int, small: bool = False, out_dir: Path = Path(".")):
        super().__init__(seed, small, out_dir)
        self.n, self.length = (6, 3) if small else (12, 5)
        self.path = out_dir / "census.jsonl"
        # lexicographic order, recomputed from the cut points
        self.compositions = []
        for cuts in itertools.combinations(range(1, self.n), self.length - 1):
            edges = (0,) + cuts + (self.n,)
            self.compositions.append(tuple(edges[k + 1] - edges[k] for k in range(self.length)))
        self.rows = len(self.compositions) ** 2

    @property
    def op_count(self) -> int:
        return self.rows + 1

    def fixed_mask(self) -> list[bool]:
        return [True] * self.op_count

    def run_pass(self, latencies: list | None):
        argv = ["enumerate", "--n", str(self.n), "--len", str(self.length), "--out", str(self.path)]
        original = cli.census_records
        if latencies is not None:
            cli.census_records = _timed_rows(original, latencies)
        try:
            summary = _captured_cli(argv, self.out_dir / "census.out")
        except (RuntimeError, OSError):
            return [None] * self.op_count
        finally:
            cli.census_records = original
        return CensusOutputs(self.path, self.rows, summary)

    def output_bytes(self, outputs) -> int:
        return sum(len(o.encode()) + 1 for o in outputs if o is not None) - 1

    def check_op(self, index: int, output: str) -> bool:
        if index == self.rows:
            return True  # the summary line is checked against the rows in check()
        alpha, beta = divmod(index, len(self.compositions))
        alpha, beta = self.compositions[alpha], self.compositions[beta]
        rec = json.loads(output)
        if list(rec) != ["alpha", "beta", "class", "certificate", "terms", "micros"]:
            return False
        if (rec["alpha"], rec["beta"], rec["micros"]) != (fmt(alpha), fmt(beta), 0):
            return False
        rows = subscripts(alpha, beta)
        if rec["class"] == "ALL_ZERO_PRE_CANCELLATION":
            return rec["certificate"] is None and rec["terms"] == 0 and not has_matching(rows)
        if rec["class"] == "ZERO_AFTER_CANCELLATION":
            xs = image_values(index, max(map(max, rows)))
            return (
                rec["certificate"] is None
                and rec["terms"] == 0
                and has_matching(rows)
                and commutative_image(rows, xs) == 0
            )
        return (
            rec["class"] in OUTCOMES
            and rec["terms"] >= 1
            and certificate_ok(rows, parse_certificate(rec["certificate"]))
        )

    def check(self, outputs) -> list[bool]:
        ok = super().check(outputs)
        counts = dict.fromkeys(OUTCOMES, 0)
        summary = None
        for i, (line, good) in enumerate(zip(outputs, ok)):
            if i == self.rows:
                summary = line
            elif good:
                counts[json.loads(line)["class"]] += 1
        expected = f"total={self.rows} " + " ".join(f"{k}={v}" for k, v in counts.items())
        ok[-1] = ok[-1] and summary == expected + "\n"
        return ok


class CensusOutputs:
    """The census rows, then the summary line, streamed from the census file.

    Each iteration reads the file again, one line at a time, so no pass's
    output stays in memory and the worker's peak RSS is the program's.  A
    missing row, or a row without its newline, is None; extra rows make
    the summary None.
    """

    def __init__(self, path: Path, rows: int, summary: str):
        self.path, self.rows, self.summary = path, rows, summary

    def __len__(self) -> int:
        return self.rows + 1

    def __iter__(self):
        count = 0
        with open(self.path, encoding="utf-8") as f:
            for line in f:
                count += 1
                if count > self.rows:
                    break
                yield line[:-1] if line.endswith("\n") else None
        yield from [None] * (self.rows - count)
        yield self.summary if count <= self.rows else None


def _timed_rows(census_records, latencies):
    """``census_records`` with the time of each ``next()`` appended to ``latencies``."""
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        rows = census_records(*args, **kwargs)
        while True:
            started = clock()
            try:
                rec = next(rows)
            except StopIteration:
                return
            latencies.append(clock() - started)
            yield rec

    return timed


class SchurBridge(Workload):
    """Tableau and Jacobi-Trudi Schur polynomials, plus ``schur_decompose``.

    Shapes are skew shapes in the 5x5 box with 5 or 6 cells, in 5 or 6
    variables, with at most 2000 tableaux.  The limits keep every
    operation within a narrow cost band (about 10-50 ms), so the median
    latency does not jump with the seed; an unbounded draw mixes 5 ms and
    60 s operations.  Each pass also decomposes the commutative image of a
    few length-4 immaculates, which is a single Schur polynomial up to
    sign, or zero.
    """

    name = "schur-bridge"

    def __init__(self, seed: int, small: bool = False, out_dir: Path = Path(".")):
        super().__init__(seed, small, out_dir)
        rng = random.Random(seed)
        self.shapes = []
        cells, box, cap = ((2, 3), 3, 200) if small else ((5, 6), 5, 2000)
        while len(self.shapes) < (6 if small else 100):
            n = rng.choice((5, 6))
            outer = tuple(p for p in sorted((rng.randint(0, box) for _ in range(box)), reverse=True) if p)
            inner = tuple(p for p in sorted((rng.randint(0, o) for o in outer), reverse=True) if p)
            if sum(outer) - sum(inner) not in cells:
                continue
            count = tableau_count(outer, inner, n)
            if count <= cap:
                self.shapes.append((outer, inner, n, count))
        self.mus = [
            (tuple(rng.randint(1, 3) for _ in range(4)), 4) for _ in range(2 if small else 6)
        ]
        self.ops = [(False, (lambda s=s: self._bridge(*s[:3]))) for s in self.shapes]
        self.ops += [(False, (lambda m=m: self._decompose(*m))) for m in self.mus]

    @staticmethod
    def _bridge(outer, inner, n) -> str:
        via_tableaux = symfunc.schur_via_tableaux(outer, inner, n)
        if via_tableaux != symfunc.schur_via_jacobi_trudi(outer, inner, n):
            return "MISMATCH"
        return "MATCH " + via_tableaux.render()

    @staticmethod
    def _decompose(mu, n) -> str:
        parts = symfunc.schur_decompose(symfunc.forgetful(ndet.immaculate(mu), n))
        return json.dumps(sorted([list(lam), c] for lam, c in parts.items()))

    def check_op(self, index: int, output: str) -> bool:
        if index < len(self.shapes):
            *_, count = self.shapes[index]
            if not output.startswith("MATCH "):
                return False
            # coefficient sum of the Schur polynomial = number of tableaux
            total = 0
            for chunk in output[6:].split(" "):
                coeff = chunk.split("·")[0]
                total += int(coeff)
            return total == count
        mu, n = self.mus[index - len(self.shapes)]
        parts = json.loads(output)
        if not parts:
            return True
        [[lam, coeff]] = parts
        return (
            abs(coeff) == 1
            and sum(lam) == sum(mu)
            and len(lam) <= n
            and lam == sorted(lam, reverse=True)
        )


WORKLOADS = {w.name: w for w in (ExpandDense, ClassifySkew, CensusFull, SchurBridge)}
