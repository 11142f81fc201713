"""Smoke tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench        # or: python3 -m unittest discover perfbench

Each workload runs one small pass, passes its own checks, and counts a
corrupted output as a failed operation; the traced pass reports every
per-layer metric; BENCHMARK.json names exactly what the runner prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from immaculates import hwords, predicates  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Verdicts  # noqa: E402


def small_workloads(out_dir: Path):
    for cls in workloads.WORKLOADS.values():
        yield cls(7, small=True, out_dir=out_dir)


class WorkloadSmoke(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_each_workload_passes_its_checks(self):
        for w in small_workloads(self.out):
            with self.subTest(workload=w.name):
                latencies = []
                outputs = w.run_pass(latencies)
                self.assertEqual(len(outputs), w.op_count)
                self.assertTrue(latencies)
                self.assertEqual(w.check(outputs), [True] * w.op_count)

    def test_inputs_follow_the_seed(self):
        self.assertEqual(workloads.ClassifySkew(3, small=True).pairs,
                         workloads.ClassifySkew(3, small=True).pairs)
        self.assertNotEqual(workloads.ClassifySkew(3, small=True).pairs,
                            workloads.ClassifySkew(4, small=True).pairs)

    def test_corrupted_output_is_a_failed_operation(self):
        for w in small_workloads(self.out):
            with self.subTest(workload=w.name):
                verdicts = Verdicts(w)
                outputs = list(w.run_pass(None))
                outputs[-1] = "X" + outputs[-1]
                verdicts.record(outputs)
                self.assertEqual((verdicts.failed, verdicts.attempted), (1, w.op_count))
                # a later pass is held to the first pass's outputs
                outputs = list(w.run_pass(None))
                outputs[0] = None
                verdicts.record(outputs)
                self.assertEqual(verdicts.failed, 3)

    def test_wrong_expansion_from_the_program_is_caught(self):
        original = hwords.HExpansion.render

        def flipped(self):
            text = original(self)
            return ("-" + text[1:]) if text.startswith("+") else text

        w = workloads.ExpandDense(7, small=True)
        hwords.HExpansion.render = flipped
        try:
            outputs = w.run_pass(None)
        finally:
            hwords.HExpansion.render = original
        self.assertEqual(w.check(outputs), [False] * w.op_count)

    def test_swapped_factors_are_caught(self):
        w = workloads.ExpandDense(7, small=True)
        outputs = w.run_pass(None)
        terms = outputs[0].rstrip("\n").split(" ")
        k, word = next((k, t.split("[")[1][:-1].split(",")) for k, t in enumerate(terms)
                       if len(set(t.split("[")[1].split(",")[:2])) == 2)
        word[0], word[1] = word[1], word[0]
        terms[k] = terms[k].split("[")[0] + "[" + ",".join(word) + "]"
        outputs[0] = " ".join(terms)
        self.assertEqual(w.check(outputs)[0], False)

    def test_default_seed_digest_covers_the_full_size_outputs(self):
        w = workloads.ClassifySkew(workloads.DEFAULT_SEED)
        w.ops = w.ops[:5]
        outputs = w.run_pass(None)
        # five of 3000 outputs cannot match the digest of the whole pass
        self.assertEqual(w.check(outputs), [False] * 5)


class TracedSmoke(unittest.TestCase):
    def test_traced_pass_reports_every_layer_metric(self):
        expected = [n for n in run.per_layer_units() if n != "trace.overhead_share"]
        with tempfile.TemporaryDirectory() as tmp:
            for w in small_workloads(Path(tmp)):
                with self.subTest(workload=w.name):
                    tracer = Tracer()
                    tracer.install()
                    try:
                        summaries = []
                        for _ in range(2):
                            tracer.reset()
                            outputs = w.run_pass(None)
                            summaries.append(tracer.summary())
                        tracer.write_spans(Path(tmp) / "spans.csv")
                    finally:
                        tracer.uninstall()
                    self.assertEqual(w.check(outputs), [True] * w.op_count)
                    self.assertEqual(list(summaries[0]), expected)
                    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
                    self.assertEqual(counts[0], counts[1])
        self.assertFalse(hasattr(predicates.classify, "__wrapped__"))

    def test_spans_nest_and_self_time_excludes_children(self):
        w = workloads.ClassifySkew(7, small=True)
        tracer = Tracer()
        tracer.install()
        try:
            w.run_pass(None)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        classify_calls = summary["predicates.classify.calls"]
        self.assertEqual(classify_calls, len(w.pairs))
        self.assertEqual(summary["matrix.build_matrix.calls"] >= classify_calls, True)
        total = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))
                    if tracer.parent[i] < 0)
        self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_total, total / 1e9, places=6)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_the_runner_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        gated = [w["name"] for w in spec["workloads"]]
        self.assertEqual(gated, [w for w in run.WORKLOADS if w in gated])
        self.assertEqual(list(run.WORKLOADS), list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())

    def test_refuses_a_tree_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "census-full",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
