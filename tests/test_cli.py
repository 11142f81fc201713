import hashlib
import json
import random

import pytest

from immaculates import predicates
from immaculates.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_SHAPE, main
from immaculates.errors import GreedyPreconditionError
from immaculates.predicates import classify, format_certificate


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
}


def test_expand_stdout_is_byte_stable(capsys):
    for args, expected in EXPAND_STDOUT_SHA256.items():
        code, out, _ = run(capsys, "expand", *args)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == expected, args


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


def test_classify_lines(capsys):
    code, out, _ = run(capsys, "classify", "5,7,1,3", "5,5,5,1")
    assert (code, out) == (EXIT_OK, "ALL_ZERO_PRE_CANCELLATION\n")
    code, out, _ = run(capsys, "classify", "10,7,9", "9,8,5")
    assert (code, out) == (EXIT_OK, "PROVABLY_NONZERO 1->1,2->3,3->2\n")
    code, out, _ = run(capsys, "classify", "9,5,5", "2,5,6")
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


def test_enumerate_rows_match_independent_classification(capsys, tmp_path):
    out_file = tmp_path / "census.jsonl"
    code, out, _ = run(
        capsys, "enumerate", "--n", "7", "--len", "3", "--out", str(out_file)
    )
    assert code == EXIT_OK
    assert out.startswith("total=")
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    rng = random.Random(11)
    for record in rng.sample(records, 25):
        alpha = tuple(int(p) for p in record["alpha"].split(","))
        beta = tuple(int(p) for p in record["beta"].split(","))
        result = classify(alpha, beta)
        assert record["class"] == result.outcome.value
        expected_cert = (
            format_certificate(result.certificate)
            if result.certificate is not None
            else None
        )
        assert record["certificate"] == expected_cert
    pairs = [
        (
            tuple(int(p) for p in r["alpha"].split(",")),
            tuple(int(p) for p in r["beta"].split(",")),
        )
        for r in records
    ]
    assert pairs == sorted(pairs)  # lex on alpha, then beta


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
