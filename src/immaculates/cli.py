"""Command-line drivers: expand, classify, enumerate, schur-check.

Exit codes: 0 ok, 2 parse/argument error, 3 length mismatch, 4 output
I/O failure, 5 identity mismatch.  An internal invariant failure such as
GreedyPreconditionError is not caught, so Python exits 1 with a
traceback instead of blaming the input.  The environment variable
IMMACULATE_DIM_CAP, an integer of at least 1, overrides the dimension
caps (default 10 for expand and classify, 7 for enumerate).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

from .compositions import (
    enumerate_compositions,
    format_parts,
    hat,
    is_partition,
    pad_to_length,
    parse_int,
    parse_parts,
)
from .errors import LengthMismatchError
from .matrix import build_matrix
from .ndet import DEFAULT_DIM_CAP, ndet_laplace
from .predicates import Outcome, classify, format_certificate
from .symfunc import schur_via_jacobi_trudi, schur_via_tableaux

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_IO = 4
EXIT_MISMATCH = 5

ENUMERATE_WEIGHT_CAP = 14
ENUMERATE_LENGTH_CAP = 7

CENSUS_FIELDS = ("alpha", "beta", "class", "certificate", "terms", "micros")
# A JSON-lines census row is '{"alpha": "A", "beta": "' + B + this tail, byte
# for byte what json.dumps writes: no field needs escaping (digits, commas,
# "->", an Outcome value and two ints).
_CENSUS_TAIL = '", "class": "%s", "certificate": %s, "terms": %d, "micros": %d}\n'
# Rows per write: about 130 KB of text, so memory stays flat.
_CENSUS_BATCH = 1024


def _env_cap(default: int) -> int:
    raw = os.environ.get("IMMACULATE_DIM_CAP")
    if raw is None:
        return default
    try:
        cap = parse_int(raw)
    except ValueError:
        raise ValueError(f"IMMACULATE_DIM_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"IMMACULATE_DIM_CAP must be at least 1, got {cap}")
    return cap


def _cmd_expand(args) -> int:
    alpha = parse_parts(args.alpha, minimum=1)
    if args.skew is None:
        beta = (0,) * len(alpha)
    else:
        beta = parse_parts(args.skew, minimum=0)
        if args.pad and len(beta) < len(alpha):
            beta = pad_to_length(beta, len(alpha))
    matrix = build_matrix(alpha, beta)
    if args.show_matrix:
        print(matrix.render())
    print(ndet_laplace(matrix, cap=_env_cap(DEFAULT_DIM_CAP)).render())
    return EXIT_OK


def _cmd_classify(args) -> int:
    alpha = parse_parts(args.alpha, minimum=1)
    beta = parse_parts(args.beta, minimum=0)
    result = classify(alpha, beta, oracle_cap=_env_cap(DEFAULT_DIM_CAP))
    line = result.outcome.value
    if result.certificate is not None:
        line += " " + format_certificate(result.certificate)
    print(line)
    return EXIT_OK


def census_records(n: int, length: int, partitions_only: bool, timings: bool):
    """One record per pair of weight-n length-`length` sequences, lex order.

    Each composition is formatted and hatted once and numbered by its
    class, its sorted hats, in one numbering for alpha and beta.  Both have
    weight n, so sum(ahat) == sum(bhat), and the counting test, sorted(ahat)
    dominating sorted(bhat) entrywise, forces them equal: one strict
    inequality would make the ahat sum the larger.  So a row whose classes
    differ is ALL_ZERO_PRE_CANCELLATION, and within one class a repeated
    bhat (equal columns, recorded per beta) makes it ZERO_AFTER_CANCELLATION.
    Otherwise the row with the k-th smallest ahat is nonnegative on exactly k
    columns, so one selection survives, each row taking the column whose bhat
    equals its ahat.  It picks only zeros, so the expansion is sign·H[]; the
    greedy selection and the matching are both this value matching.  The row
    is PROVABLY_NONZERO when beta is a partition, else NONZERO_TERM_EXISTS,
    with this certificate and ``terms`` 1; other rows have none.

    Each record is a tuple in CENSUS_FIELDS order: ``(alpha, beta, class,
    certificate or None, terms, micros)``.
    """
    all_zero = Outcome.ALL_ZERO_PRE_CANCELLATION.value
    equal_columns = Outcome.ZERO_AFTER_CANCELLATION.value
    classes: dict[tuple[int, ...], int] = {}
    alphas, betas = [], []
    for c in enumerate_compositions(n, length):
        chat, text, partition = hat(c), format_parts(c), is_partition(c)
        cls = classes.setdefault(tuple(sorted(chat)), len(classes))
        alphas.append((chat, text, cls))
        if partition or not partitions_only:
            label = Outcome.PROVABLY_NONZERO if partition else Outcome.NONZERO_TERM_EXISTS
            # column[bhat value]: its 1-based column, read only when bhat is distinct
            column = {b: j for j, b in enumerate(chat, start=1)}
            # its verdict against its own class: a repeated bhat is two equal columns
            same_class = None if len(column) == length else equal_columns
            betas.append((text, cls, same_class, label.value, column))
    clock = time.perf_counter_ns
    for ahat, alpha_text, aclass in alphas:
        for beta_text, bclass, same_class, label, column in betas:
            started = clock() if timings else 0
            outcome = same_class if aclass == bclass else all_zero
            certificate, terms = None, 0
            if outcome is None:
                outcome, terms = label, 1
                certificate = format_certificate(map(column.__getitem__, ahat))
            micros = (clock() - started) // 1000 if timings else 0
            yield alpha_text, beta_text, outcome, certificate, terms, micros


def _write_census(records, stream, fmt: str) -> dict[str, int]:
    """Write the census records; return the count of each class, in Outcome order.

    CSV writes a None certificate as an empty field, JSON lines as null.
    A JSON-lines row is three parts: the alpha's head, the beta text and the
    tail after it.  The head is rebuilt only when alpha is not the last
    alpha object (census_records reuses one str per alpha; an equal but
    distinct str just rebuilds it).  Each distinct ``(class, certificate,
    terms, micros)`` tail is formatted once and counts its rows, which are
    added to the class counts at the end.  The parts are joined and written
    every _CENSUS_BATCH rows.
    """
    counts = dict.fromkeys((outcome.value for outcome in Outcome), 0)
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(CENSUS_FIELDS)
        for rec in records:
            counts[rec[2]] += 1
            writer.writerow(rec)
    else:
        write = stream.write
        # tails[(class, certificate, terms, micros)]: [its text, rows so far]
        tails: dict[tuple, list] = {}
        parts: list[str] = []
        append = parts.append
        last_alpha = head = None
        left = _CENSUS_BATCH
        for alpha, beta, outcome, certificate, terms, micros in records:
            if alpha is not last_alpha:
                last_alpha = alpha
                head = '{"alpha": "%s", "beta": "' % alpha
            key = outcome, certificate, terms, micros
            tail = tails.get(key)
            if tail is None:
                certificate = "null" if certificate is None else '"%s"' % certificate
                tail = tails[key] = [_CENSUS_TAIL % (outcome, certificate, terms, micros), 0]
            tail[1] += 1
            append(head)
            append(beta)
            append(tail[0])
            left -= 1
            if not left:
                write("".join(parts))
                parts.clear()
                left = _CENSUS_BATCH
        write("".join(parts))
        for (outcome, *_), (_, rows) in tails.items():
            counts[outcome] += rows
    return counts


def _cmd_enumerate(args) -> int:
    length_cap = _env_cap(ENUMERATE_LENGTH_CAP)
    if not 1 <= args.n <= ENUMERATE_WEIGHT_CAP:
        raise ValueError(f"--n must be within 1..{ENUMERATE_WEIGHT_CAP}")
    if not 1 <= args.length <= length_cap:
        raise ValueError(f"--len must be within 1..{length_cap}")
    records = census_records(args.n, args.length, args.partitions_only, args.timings)
    if args.out is not None:
        try:
            stream = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        with stream:
            counts = _write_census(records, stream, args.format)
        summary_stream = sys.stdout
    else:
        counts = _write_census(records, sys.stdout, args.format)
        summary_stream = sys.stderr
    summary = f"total={sum(counts.values())} " + " ".join(
        f"{name}={count}" for name, count in counts.items()
    )
    print(summary, file=summary_stream)
    return EXIT_OK


def _cmd_schur_check(args) -> int:
    outer = parse_parts(args.outer, minimum=1)
    inner = () if args.inner is None else parse_parts(args.inner, minimum=1)
    via_tableaux = schur_via_tableaux(outer, inner, args.vars)
    via_determinant = schur_via_jacobi_trudi(outer, inner, args.vars)
    if via_tableaux == via_determinant:
        print(f"MATCH {via_tableaux.render()}")
        return EXIT_OK
    print("MISMATCH")
    print(f"tableaux:    {via_tableaux.render()}")
    print(f"determinant: {via_determinant.render()}")
    print(f"difference:  {(via_tableaux - via_determinant).render()}")
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immaculates",
        description="Exact H-basis expansions and nonzeroness classification "
        "of skew immaculate noncommutative symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="H-basis expansion of a (skew) immaculate")
    p.add_argument("alpha", help="outer composition, e.g. 6,4,3")
    p.add_argument("--skew", metavar="BETA", help="skewing sequence (weak composition)")
    p.add_argument("--pad", action="store_true",
                   help="zero-pad the skewing sequence to the outer length")
    p.add_argument("--show-matrix", action="store_true",
                   help="print the associated subscript matrix first")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("classify", help="zero/nonzero classification of a pair")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="census of all pairs of a given weight and length")
    # type=int options read the part syntax; argparse names the type int in its errors
    p.register("type", int, parse_int)
    p.add_argument("--n", type=int, required=True, help="weight of both sequences")
    p.add_argument("--len", dest="length", type=int, required=True, help="number of parts")
    p.add_argument("--partitions-only", action="store_true",
                   help="restrict the skewing sequence to partitions")
    p.add_argument("--format", choices=["json-lines", "csv"], default="json-lines")
    p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    p.add_argument("--timings", action="store_true",
                   help="record real elapsed microseconds per pair "
                   "(off by default so reruns are byte-identical)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("schur-check",
                       help="compare tableau and determinant Schur polynomials")
    p.register("type", int, parse_int)
    p.add_argument("outer", help="outer partition, e.g. 2,2")
    p.add_argument("--inner", help="inner partition")
    p.add_argument("--vars", type=int, required=True, help="number of variables")
    p.set_defaults(func=_cmd_schur_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a parse error, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except LengthMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
