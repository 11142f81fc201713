import csv
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import immaculates
from immaculates import (
    Outcome,
    cli,
    enumerate_compositions,
    format_certificate,
    is_partition,
    predicates,
)
from immaculates.cli import (
    CENSUS_FIELDS,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SHAPE,
    _write_census,
    census_records,
    main,
)
from immaculates.errors import GreedyPreconditionError

from support import census_row_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_skew(capsys):
    code, out, _ = run(capsys, "expand", "6,4,3", "--skew", "2,4,1")
    assert code == EXIT_OK
    assert out == "+1·H[4,2] -1·H[3,1,2]\n"


EXPAND_STDOUT_SHA256 = {
    # 8! = 40,320 terms of one length
    ("8,8,8,8,8,8,8,8",): "07c4b83a73480e6b081d70327eaf79d2d480b89ce1a5c5a989e976997d20e5cc",
    ("6,4,3", "--skew", "2,4,1"): "3cc7edd3a2db3b0c005eed0ca83a787e759c504c69a7d39f63442866896b7b44",
    # word lengths 2 to 5, coefficients +-2, and H[6,7] before H[10,3]
    ("7,4,2,7,2", "--skew", "3,2,2,1,1"):
        "22fe18e6e4ace8f3b9d3553b6185ee8a1bdae9f15e8ee58f0d003a56ba68a8ec",
    # dimension 7, seven zero pivots; 144 surviving selections cancel to 96 terms
    ("1,4,4,3,6,6,6", "--skew", "1,3,2,6,1,3,0"):
        "be34620976ad6ab4e7a0371e298754effbf517a4b4911248e4640f45429d67c5",
}


def test_expand_stdout_is_byte_stable(capsys):
    for args, expected in EXPAND_STDOUT_SHA256.items():
        code, out, _ = run(capsys, "expand", *args)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == expected, args


def test_expand_stdout_is_the_same_under_every_hash_seed():
    # Stored words are strs, whose hashes are salted per process, so a
    # dict or set order may change from run to run; the output must not.
    src = str(Path(immaculates.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for args, seed in itertools.product(
        [("8,8,8,8,8,8,8,8",), ("1,4,4,3,6,6,6", "--skew", "1,3,2,6,1,3,0")], ("0", "1")
    ):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from immaculates.cli import main; sys.exit(main(sys.argv[1:]))",
             "expand", *args],
            env=env, capture_output=True, check=True,
        ).stdout
        assert hashlib.sha256(out).hexdigest() == EXPAND_STDOUT_SHA256[args], (args, seed)


def test_subscripts_up_to_maxunicode(capsys):
    limit = sys.maxunicode
    assert run(capsys, "expand", str(limit)) == (EXIT_OK, f"+1·H[{limit}]\n", "")
    assert run(capsys, "classify", str(limit), "0")[0] == EXIT_OK
    for argv in (("expand", str(limit + 1)), ("classify", str(limit + 1), "0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, ""), argv
        assert f"above the limit {limit}" in err


def test_expand_prints_the_render(capsys, monkeypatch):
    # 8^8 is zero-free, so its expansion renders from rook placements; the
    # CLI must still print what HExpansion.render returns.
    monkeypatch.setattr(immaculates.HExpansion, "render", lambda self: "rendered")
    code, out, _ = run(capsys, "expand", "8,8,8,8,8,8,8,8")
    assert code == EXIT_OK
    assert out == "rendered\n"


def test_expand_cancelling_pair(capsys):
    code, out, _ = run(capsys, "expand", "9,5,5", "--skew", "2,5,6")
    assert code == EXIT_OK
    assert out == "0\n"


def test_expand_plain(capsys):
    code, out, _ = run(capsys, "expand", "3")
    assert code == EXIT_OK
    assert out == "+1·H[3]\n"


def test_expand_show_matrix(capsys):
    code, out, _ = run(capsys, "expand", "3,3", "--skew", "2,2", "--show-matrix")
    assert code == EXIT_OK
    assert out == "1 2\n0 1\n-1·H[2] +1·H[1,1]\n"


def test_expand_pad(capsys):
    code, out, _ = run(capsys, "expand", "2,1", "--skew", "1", "--pad")
    assert code == EXIT_OK
    code2, out2, _ = run(capsys, "expand", "2,1", "--skew", "1,0")
    assert code2 == EXIT_OK
    assert out == out2


def test_expand_parse_error(capsys):
    code, _, err = run(capsys, "expand", "6,x,3")
    assert code == EXIT_PARSE
    assert err


def test_classify_rejects_underscore_parts(capsys):
    # also a no-break and an ideographic space, which str.strip would remove
    for alpha in ("1_0,7,9", "\u00a010,7,9", "10,7,9\u3000"):
        code, out, err = run(capsys, "classify", alpha, "9,8,5")
        assert (code, out) == (EXIT_PARSE, ""), alpha
        assert "malformed composition text" in err


def test_expand_length_mismatch(capsys):
    code, _, err = run(capsys, "expand", "6,4", "--skew", "2,4,1")
    assert code == EXIT_SHAPE
    assert err


def test_expand_dimension_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("IMMACULATE_DIM_CAP", "2")
    code, _, err = run(capsys, "expand", "6,4,3", "--skew", "2,4,1")
    assert code == EXIT_PARSE
    assert "cap" in err


def test_dimension_cap_env_must_be_positive(capsys, monkeypatch):
    for raw in ("0", "-3"):
        monkeypatch.setenv("IMMACULATE_DIM_CAP", raw)
        for argv in (("classify", "6,4,3", "2,4,1"), ("enumerate", "--n", "3", "--len", "1")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_PARSE, "")
            assert "IMMACULATE_DIM_CAP must be at least 1" in err


def test_dimension_cap_env_takes_only_ascii_digits(capsys, monkeypatch):
    for raw in ("1_0", "+3", "\u0663", "3\u00a0"):
        monkeypatch.setenv("IMMACULATE_DIM_CAP", raw)
        code, out, err = run(capsys, "expand", "6,4,3", "--skew", "2,4,1")
        assert (code, out) == (EXIT_PARSE, ""), raw
        assert f"IMMACULATE_DIM_CAP must be an integer, got {raw!r}" in err
    monkeypatch.setenv("IMMACULATE_DIM_CAP", " 7 ")
    code, out, _ = run(capsys, "expand", "6,4,3", "--skew", "2,4,1")
    assert (code, out) == (EXIT_OK, "+1·H[4,2] -1·H[3,1,2]\n")


def test_classify_lines(capsys):
    code, out, _ = run(capsys, "classify", "5,7,1,3", "5,5,5,1")
    assert (code, out) == (EXIT_OK, "ALL_ZERO_PRE_CANCELLATION\n")
    code, out, _ = run(capsys, "classify", "10,7,9", "9,8,5")
    assert (code, out) == (EXIT_OK, "PROVABLY_NONZERO 1->1,2->3,3->2\n")
    code, out, _ = run(capsys, "classify", "9,5,5", "2,5,6")
    assert (code, out) == (EXIT_OK, "ZERO_AFTER_CANCELLATION\n")


def test_classify_equal_columns_above_the_cap(capsys, monkeypatch):
    monkeypatch.setenv("IMMACULATE_DIM_CAP", "2")
    code, out, _ = run(capsys, "classify", "3,3,3", "1,2,0")
    assert (code, out) == (EXIT_OK, "ZERO_AFTER_CANCELLATION\n")


def test_internal_invariant_failure_is_not_a_parse_error(monkeypatch):
    def fail(matrix):
        raise GreedyPreconditionError("injected")

    monkeypatch.setattr(predicates, "greedy_h0_term", fail)
    with pytest.raises(GreedyPreconditionError):
        main(["classify", "10,7,9", "9,8,5"])


def test_schur_check_match(capsys):
    code, out, _ = run(capsys, "schur-check", "2,2", "--inner", "1", "--vars", "3")
    assert code == EXIT_OK
    assert out.startswith("MATCH ")
    assert out.count("·") >= 7  # seven monomials
    code, out, _ = run(capsys, "schur-check", "2,1", "--vars", "3")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "schur-check", "3", "--vars", "2")
    assert (code, out) == (EXIT_OK, "MATCH +1·x1^3 +1·x1^2·x2 +1·x1·x2^2 +1·x2^3\n")


def test_schur_check_containment_error(capsys):
    for argv in (
        ("2,1", "--inner", "3", "--vars", "2"),
        ("1,2", "--vars", "2"),
        ("2,1", "--inner", "1,2", "--vars", "2"),
        ("2,1", "--inner", "1,1,1", "--vars", "2"),
        ("2,1", "--vars", "0"),
    ):
        code, out, err = run(capsys, "schur-check", *argv)
        assert code == EXIT_PARSE, argv
        assert out == "" and err.startswith("error: "), argv


def test_enumerate_stdout_and_summary(capsys):
    code, out, err = run(
        capsys, "enumerate", "--n", "4", "--len", "2", "--partitions-only"
    )
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 6  # three compositions of 4, two partitions
    assert all(line["beta"] in ("2,2", "3,1") for line in lines)
    assert err.startswith("total=6 ")


def test_enumerate_single_cell(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "2", "--len", "1")
    assert code == EXIT_OK
    (record,) = [json.loads(line) for line in out.strip().splitlines()]
    # the 1x1 matrix [[0]] expands to the unit, which is nonzero
    assert record["alpha"] == record["beta"] == "2"
    assert record["class"] == "PROVABLY_NONZERO"
    assert record["terms"] == 1


def test_enumerate_empty_when_length_exceeds_weight(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "2", "--len", "3")
    assert code == EXIT_OK
    assert out == ""
    assert err.startswith("total=0 ")


SUMMARY_12_5 = (
    "total=108900 ALL_ZERO_PRE_CANCELLATION=106004 NONZERO_TERM_EXISTS=796 "
    "PROVABLY_NONZERO=85 ZERO_AFTER_CANCELLATION=2015\n"
)
CENSUS_SHA256 = {
    ("--n", "12", "--len", "5"): (
        "a27b7f90ebae8e9f3032738897e1ef11dbed0fbe2d18e788db48f011634efdc6",
        SUMMARY_12_5,
    ),
    ("--n", "12", "--len", "5", "--format", "csv"): (
        "64f49c114423cd1d40abb270edaf2931c3e8a986dd78d40f35f5a82ea9c9e2bb",
        SUMMARY_12_5,
    ),
    ("--n", "14", "--len", "7", "--partitions-only"): (
        "a0bb6803fb3acfbce58f98a484349ee22d7e769b1beb3b4ad22deec1a23236bf",
        "total=25740 ALL_ZERO_PRE_CANCELLATION=25559 NONZERO_TERM_EXISTS=0 "
        "PROVABLY_NONZERO=181 ZERO_AFTER_CANCELLATION=0\n",
    ),
}


def test_enumerate_census_is_byte_stable(capsys, tmp_path):
    out_file = tmp_path / "census"
    for args, (expected_sha, expected_summary) in CENSUS_SHA256.items():
        code, out, err = run(capsys, "enumerate", *args, "--out", str(out_file))
        assert (code, out, err) == (EXIT_OK, expected_summary, ""), args
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == expected_sha, args


def census_rows(capsys, tmp_path, *args):
    out_file = tmp_path / "census.jsonl"
    code, out, _ = run(capsys, "enumerate", *args, "--out", str(out_file))
    assert code == EXIT_OK
    assert out.startswith("total=")
    return [json.loads(line) for line in out_file.read_text().splitlines()]


def test_enumerate_rows_match_independent_classification(capsys, tmp_path):
    for n, length, partitions_only in ((7, 3, False), (8, 4, True), (9, 4, False)):
        args = ["--n", str(n), "--len", str(length)]
        if partitions_only:
            args.append("--partitions-only")
        records = census_rows(capsys, tmp_path, *args)
        compositions = list(enumerate_compositions(n, length))
        pairs = [
            (alpha, beta)
            for alpha in compositions  # lex on alpha, then beta
            for beta in compositions
            if not partitions_only or is_partition(beta)
        ]
        assert len(records) == len(pairs)
        for record, (alpha, beta) in zip(records, pairs):
            assert record == census_row_oracle(alpha, beta), record


@pytest.mark.parametrize("partitions_only", (False, True))
@pytest.mark.parametrize("timings", (False, True))
def test_census_rows_are_what_the_general_encoders_write(partitions_only, timings):
    records = list(census_records(9, 4, partitions_only, timings))
    assert records
    assert all(len(rec) == len(CENSUS_FIELDS) for rec in records)
    jsonl = io.StringIO()
    json_counts = _write_census(records, jsonl, "json-lines")
    lines = jsonl.getvalue().splitlines(keepends=True)
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):
        assert line == json.dumps(dict(zip(CENSUS_FIELDS, rec))) + "\n"
    table = io.StringIO()
    csv_counts = _write_census(records, table, "csv")
    rows = list(csv.reader(io.StringIO(table.getvalue(), newline="")))
    assert rows[0] == list(CENSUS_FIELDS)
    assert rows[1:] == [
        [alpha, beta, outcome, certificate or "", str(terms), str(micros)]
        for alpha, beta, outcome, certificate, terms, micros in records
    ]
    classes = Counter(rec[2] for rec in records)
    expected = [(outcome.value, classes[outcome.value]) for outcome in Outcome]
    assert list(json_counts.items()) == list(csv_counts.items()) == expected


def test_json_lines_writer_on_synthetic_records():
    # Each row's alpha is a fresh str, so equal alphas are distinct objects
    # and a freed alpha's address may be reused by the next, different one;
    # "1,2" comes back after "2,1"; micros differ on every row; certificates
    # mix None and strs; 5,000 rows make more than three batches.
    alphas = ("1,2", "1,2", "2,1", "1,2", "3,10", "10,3")
    outcomes = [outcome.value for outcome in Outcome]
    records = []
    for i in range(5000):
        certificate = None if i % 3 else "1->%d,2->%d" % (1 + i % 2, 2 - i % 2)
        records.append((
            alphas[i // 7 % len(alphas)], "%d,%d" % (i % 5, i % 11),
            outcomes[i % 4], certificate, i % 2, i,
        ))

    def fresh(records):
        for alpha, *rest in records:
            yield (alpha[:1] + alpha[1:], *rest)

    stream = io.StringIO()
    counts = _write_census(fresh(records), stream, "json-lines")
    lines = stream.getvalue().splitlines(keepends=True)
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):
        assert line == json.dumps(dict(zip(CENSUS_FIELDS, rec))) + "\n", rec
    classes = Counter(rec[2] for rec in records)
    assert counts == {value: classes[value] for value in outcomes}
    assert list(counts) == outcomes


class CountingStream:
    """A text stream that records the length of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return len(text)


def test_json_lines_writer_writes_in_bounded_batches():
    # not one write per row, and not one write of the whole census
    stream = CountingStream()
    counts = _write_census(census_records(12, 5, False, False), stream, "json-lines")
    rows = sum(counts.values())
    assert rows == 108900
    assert len(stream.writes) <= rows // 256 + 2
    assert max(stream.writes) <= 256 * 1024


@pytest.mark.parametrize("partitions_only", (False, True))
def test_census_reaches_no_exact_expansion(partitions_only, monkeypatch):
    # equal weights: a passing pair has sorted(ahat) == sorted(bhat), so
    # distinct bhat leaves no repeated row and the value matching decides it
    expected = list(census_records(9, 4, partitions_only, False))
    classes = {rec[2] for rec in expected}
    assert Outcome.PROVABLY_NONZERO.value in classes
    assert (Outcome.NONZERO_TERM_EXISTS.value in classes) != partitions_only

    def fail(*args, **kwargs):
        raise AssertionError("the census reached the exact expansion")

    monkeypatch.setattr(predicates, "ndet_laplace", fail)
    assert list(census_records(9, 4, partitions_only, False)) == expected


@pytest.mark.parametrize("partitions_only", (False, True))
def test_census_classifies_only_the_rows_its_classes_leave_open(partitions_only, monkeypatch):
    # a row whose sorted-hat classes differ fails the counting test, and
    # equal columns are decided once per beta; the rows they leave open are
    # decided by the value matching, with no classify call, and agree with
    # classify
    expected = list(census_records(9, 4, partitions_only, False))
    calls = []

    def counting_classify(*args, **kwargs):
        calls.append(args)
        return predicates.classify(*args, **kwargs)

    monkeypatch.setattr(cli, "classify", counting_classify)
    assert list(census_records(9, 4, partitions_only, False)) == expected
    assert calls == []
    classes = Counter(rec[2] for rec in expected)
    assert classes[Outcome.ALL_ZERO_PRE_CANCELLATION.value]
    assert classes[Outcome.ZERO_AFTER_CANCELLATION.value] != partitions_only
    compositions = list(enumerate_compositions(9, 4))
    pairs = [
        (alpha, beta)
        for alpha in compositions  # lex on alpha, then beta
        for beta in compositions
        if not partitions_only or is_partition(beta)
    ]
    assert len(pairs) == len(expected)
    nonzero = {Outcome.NONZERO_TERM_EXISTS.value, Outcome.PROVABLY_NONZERO.value}
    opened = 0
    for (alpha, beta), (_, _, outcome, certificate, terms, _) in zip(pairs, expected):
        if outcome not in nonzero:
            continue
        opened += 1
        result = predicates.classify(alpha, beta)
        assert result.outcome.value == outcome
        assert format_certificate(result.certificate) == certificate
        assert len(result.witness) == terms == 1
    assert opened == sum(classes[value] for value in nonzero)


def test_enumerate_timings_change_only_micros(capsys, tmp_path):
    plain = census_rows(capsys, tmp_path, "--n", "7", "--len", "3")
    timed = census_rows(capsys, tmp_path, "--n", "7", "--len", "3", "--timings")
    assert len(timed) == len(plain)
    for timed_record, record in zip(timed, plain):
        micros = timed_record.pop("micros")
        assert type(micros) is int and micros >= 0
        del record["micros"]
        assert timed_record == record


def test_enumerate_csv_format(capsys, tmp_path):
    out_file = tmp_path / "census.csv"
    code, _, _ = run(
        capsys,
        "enumerate", "--n", "4", "--len", "2", "--format", "csv",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    lines = out_file.read_text().splitlines()
    assert lines[0] == "alpha,beta,class,certificate,terms,micros"
    assert len(lines) == 1 + 9  # header + 3x3 pairs


def test_enumerate_deterministic_reruns(capsys, tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for target in (first, second):
        code, _, _ = run(
            capsys,
            "enumerate", "--n", "6", "--len", "2", "--out", str(target),
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_enumerate_unwritable_path(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "census.jsonl"
    code, _, err = run(
        capsys, "enumerate", "--n", "3", "--len", "2", "--out", str(target)
    )
    assert code == EXIT_IO
    assert err


def test_enumerate_range_validation(capsys):
    code, _, _ = run(capsys, "enumerate", "--n", "40", "--len", "2")
    assert code == EXIT_PARSE
    code, _, _ = run(capsys, "enumerate", "--n", "8", "--len", "8")
    assert code == EXIT_PARSE
    # the integer options take the part syntax, not every int() spelling
    for argv in (
        ("--n", "1_2", "--len", " 2"),
        ("--n", " +4", "--len", "2"),
        ("--n", "4", "--len", "\u0662"),
        ("--n", "4", "--len", "2\u00a0"),
    ):
        code, _, err = run(capsys, "enumerate", *argv)
        assert code == EXIT_PARSE, argv
        assert "invalid int value" in err, argv
    code, out, _ = run(capsys, "enumerate", "--n", " 4 ", "--len", "\t2")
    assert code == EXIT_OK and out.count("\n") == 9  # 3x3 pairs


def test_schur_check_vars_validation(capsys):
    for raw in ("1_0", "+3", "\u0663", "3\u00a0"):
        code, _, err = run(capsys, "schur-check", "2,1", "--vars", raw)
        assert code == EXIT_PARSE, raw
        assert "invalid int value" in err, raw
    code, out, _ = run(capsys, "schur-check", "2,1", "--vars", " 2 ")
    assert (code, out) == (EXIT_OK, "MATCH +1·x1^2·x2 +1·x1·x2^2\n")


def test_main_returns_the_argparse_exit_code(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK and "usage: immaculates" in out
    code, _, err = run(capsys, "enumerate", "--n", "4")
    assert code == EXIT_PARSE and "--len" in err


README_EXAMPLE = re.compile(r"^immaculates (.+?)\s+# (.+)$", re.MULTILINE)


def test_readme_cli_examples(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    examples = README_EXAMPLE.findall(readme)
    assert examples
    for args, expected in examples:
        code, out, _ = run(capsys, *shlex.split(args))
        assert code == EXIT_OK, args
        assert out.strip() == expected.strip(), args
