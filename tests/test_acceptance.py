"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All arithmetic is exact, so every comparison below is integer equality;
run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import itertools
import json
import time
from collections import Counter

from immaculates.cli import main
from immaculates.hwords import HExpansion
from immaculates.matrix import build_matrix
from immaculates.ndet import (
    SignedSelection,
    ndet_laplace,
    skew_immaculate,
)
from immaculates.predicates import (
    Outcome,
    classify,
    find_matching_certificate,
    greedy_h0_term,
    necessary_condition_holds,
    nocancel_conditions_hold,
)
from immaculates.symfunc import forgetful, schur_decompose, schur_via_jacobi_trudi, schur_via_tableaux
from immaculates.ndet import immaculate

from support import (
    check_partition_row_monotonicity,
    has_negative_crossing_violation,
    ndet_permutation_sum,
    partitions_up_to_weight,
    sign_pattern,
    structural_random_pairs,
    structural_random_partition_pairs,
    suite2_exhaustive_pairs,
    suite2_random_pairs,
    suite3_exhaustive_pairs,
    suite3_random_nocancel_pairs,
    surviving_term_exists,
    term_of_selection,
)


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_worked_examples():
    started = time.perf_counter()
    checks = []

    checks.append(
        skew_immaculate((6, 4, 3), (2, 4, 1)) == HExpansion({(4, 2): 1, (3, 1, 2): -1})
    )
    checks.append(skew_immaculate((9, 5, 5), (2, 5, 6)).is_zero())
    checks.append(skew_immaculate((5, 7, 1, 3), (5, 5, 5, 1)).is_zero())
    checks.append(
        classify((5, 7, 1, 3), (5, 5, 5, 1)).outcome is Outcome.ALL_ZERO_PRE_CANCELLATION
    )
    checks.append(skew_immaculate((3, 3), (2, 2)) == immaculate((1, 1)))
    selection = SignedSelection.from_columns((2, 4, 1, 3))
    checks.append(
        term_of_selection(build_matrix((4, 1, 6, 5), (2, 1, 3, 2)), selection)
        == (-1, (4, 1, 2, 1))
    )
    checks.append(
        find_matching_certificate(build_matrix((10, 7, 9), (9, 8, 5))) == (1, 3, 2)
    )
    checks.append(not nocancel_conditions_hold((2, 2, 5, 5), (3, 3, 3, 3)))

    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 1.0
    _report("1 worked-examples", ok, f"{elapsed:.3f}s, {sum(checks)}/{len(checks)} checks")
    assert all(checks)
    assert elapsed < 1.0


def test_criterion_2_term_existence_equivalence():
    started = time.perf_counter()
    counterexamples = []
    total = 0
    for alpha, beta in itertools.chain(suite2_exhaustive_pairs(), suite2_random_pairs()):
        total += 1
        matrix = build_matrix(alpha, beta)
        condition = necessary_condition_holds(alpha, beta)
        brute = surviving_term_exists(matrix)
        matched = find_matching_certificate(matrix) is not None
        if not (condition == brute == matched):
            counterexamples.append((alpha, beta, condition, brute, matched))
    elapsed = time.perf_counter() - started
    ok = not counterexamples and elapsed < 120
    _report("2 term-existence-equivalence", ok, f"{total} pairs, {elapsed:.1f}s")
    assert not counterexamples, counterexamples[:5]
    assert elapsed < 120


def _nocancel_stream():
    for alpha, lam in suite3_exhaustive_pairs():
        if nocancel_conditions_hold(alpha, lam):
            yield alpha, lam
    yield from suite3_random_nocancel_pairs()


def test_criterion_3_nocancel_soundness():
    started = time.perf_counter()
    counterexamples = []
    total = 0
    for alpha, lam in _nocancel_stream():
        total += 1
        matrix = build_matrix(alpha, lam)
        sign, word, selection = greedy_h0_term(matrix)
        expansion = ndet_laplace(matrix)
        zeros_covered = all(
            selection.column_of_row[i] == j + 1
            for i, row in enumerate(matrix.entries)
            for j, e in enumerate(row)
            if e == 0
        )
        if expansion.is_zero() or expansion.coefficient(word) == 0 or not zeros_covered:
            counterexamples.append((alpha, lam))
    elapsed = time.perf_counter() - started
    ok = not counterexamples and elapsed < 120
    _report("3 nocancel-soundness", ok, f"{total} qualifying pairs, {elapsed:.1f}s")
    assert not counterexamples, counterexamples[:5]
    assert elapsed < 120


def test_criterion_4_structural_properties():
    started = time.perf_counter()
    crossing_failures = 0
    zerocols_failures = 0
    for alpha, beta in structural_random_pairs(count=5000):
        matrix = build_matrix(alpha, beta)
        if has_negative_crossing_violation(sign_pattern(matrix)):
            crossing_failures += 1
        negcols = [
            frozenset(j for j, e in enumerate(row) if e < 0) for row in matrix.entries
        ]
        for size in range(1, matrix.dim + 1):
            for subset in itertools.combinations(negcols, size):
                bound = min(len(cols) for cols in subset)
                if len(frozenset.intersection(*subset)) < bound:
                    zerocols_failures += 1
    partition_failures = 0
    for alpha, lam in structural_random_partition_pairs(count=2000):
        matrix = build_matrix(alpha, lam)
        if not check_partition_row_monotonicity(matrix):
            partition_failures += 1
            continue
        for row in matrix.entries:
            nonneg = sum(1 for e in row if e >= 0)
            if any(e >= 0 for e in row[: len(row) - nonneg]):
                partition_failures += 1
            for t, e in enumerate(row):
                if e == 0 and (
                    any(x >= 0 for x in row[:t]) or any(x <= 0 for x in row[t + 1:])
                ):
                    partition_failures += 1
    elapsed = time.perf_counter() - started
    failures = crossing_failures + zerocols_failures + partition_failures
    ok = failures == 0
    _report("4 structural-properties", ok, f"{elapsed:.1f}s")
    assert crossing_failures == 0
    assert zerocols_failures == 0
    assert partition_failures == 0


def test_criterion_5_determinant_cross_implementation():
    started = time.perf_counter()
    mismatches = []
    total = 0

    def check(alpha, beta):
        nonlocal total
        total += 1
        matrix = build_matrix(alpha, beta)
        if ndet_permutation_sum(matrix) != ndet_laplace(matrix):
            mismatches.append((alpha, beta))

    for alpha, beta in itertools.chain(suite2_exhaustive_pairs(), suite2_random_pairs()):
        check(alpha, beta)
    for alpha, lam in _nocancel_stream():
        check(alpha, lam)
    elapsed = time.perf_counter() - started
    ok = not mismatches
    _report("5 determinant-cross-implementation", ok, f"{total} matrices, {elapsed:.1f}s")
    assert not mismatches, mismatches[:5]


def _contained_partitions(lam):
    ranges = [range(lam[i] + 1) for i in range(len(lam))]
    for depth in range(len(lam) + 1):
        for nu in itertools.product(*ranges[:depth]):
            if all(nu[i] >= nu[i + 1] for i in range(len(nu) - 1)) and all(nu):
                yield nu
    yield ()


def test_criterion_6_commutative_bridge():
    started = time.perf_counter()
    mismatches = []
    pairs = 0
    for weight in range(1, 7):
        for length in range(1, weight + 1):
            for lam in partitions_up_to_weight(weight, length):
                if sum(lam) != weight:
                    continue
                for nu in set(_contained_partitions(lam)):
                    for n in range(1, 5):
                        pairs += 1
                        if schur_via_tableaux(lam, nu, n) != schur_via_jacobi_trudi(lam, nu, n):
                            mismatches.append((lam, nu, n))
    forgetful_failures = []
    for weight in range(1, 6):
        for length in range(1, weight + 1):
            for lam in partitions_up_to_weight(weight, length):
                if sum(lam) != weight:
                    continue
                for n in range(1, 5):
                    if forgetful(immaculate(lam), n) != schur_via_tableaux(lam, (), n):
                        forgetful_failures.append((lam, n))
    decomposition = schur_decompose(schur_via_tableaux((6, 3, 2), (5, 1), 4))
    lr_ok = decomposition.get((3, 2)) == 2
    elapsed = time.perf_counter() - started
    ok = not mismatches and not forgetful_failures and lr_ok
    _report("6 commutative-bridge", ok, f"{pairs} shape/variable combos, {elapsed:.1f}s")
    assert not mismatches, mismatches[:5]
    assert not forgetful_failures, forgetful_failures[:5]
    assert lr_ok, decomposition


def test_criterion_7_census_determinism(tmp_path, capsys):
    started = time.perf_counter()
    first = tmp_path / "run1.jsonl"
    second = tmp_path / "run2.jsonl"
    for target in (first, second):
        code = main(
            ["enumerate", "--n", "8", "--len", "3", "--partitions-only",
             "--out", str(target)]
        )
        assert code == 0
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()

    records = [json.loads(line) for line in first.read_text().splitlines()]
    file_counts = Counter(record["class"] for record in records)
    fresh_counts = Counter()
    for record in records:
        alpha = tuple(int(p) for p in record["alpha"].split(","))
        beta = tuple(int(p) for p in record["beta"].split(","))
        fresh_counts[classify(alpha, beta).outcome.value] += 1
    counts_match = file_counts == fresh_counts
    elapsed = time.perf_counter() - started
    ok = identical and counts_match and elapsed < 60
    _report(
        "7 census-determinism", ok,
        f"{len(records)} rows, {elapsed:.1f}s, counts={dict(file_counts)}",
    )
    assert identical
    assert counts_match
    assert elapsed < 60
