"""Spans and counters around the public functions of ``immaculates``.

Tracing is installed from the benchmark's side: each traced function is
replaced by a wrapper in every module of the package that binds it, so a
call is caught wherever it is looked up (``predicates.build_matrix``,
``cli.classify``, ...).  Nothing under ``src/`` changes.

A span is a row of five parallel arrays (name, start, end, parent, op),
kept in memory and written out at the end.  Self time is a span's
duration minus the time its child spans cover; a run is single-threaded,
so child spans never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import immaculates
from immaculates import hwords, symfunc
from immaculates.predicates import Outcome

# (metric name, owner, attribute): the owner is a module, or a class whose
# method is patched in place.  A generator function gets one span per next().
SPANS = (
    ("compositions.enumerate_compositions", "compositions", "enumerate_compositions"),
    ("matrix.build_matrix", "matrix", "build_matrix"),
    ("predicates.classify", "predicates", "classify"),
    ("predicates.necessary_condition_holds", "predicates", "necessary_condition_holds"),
    ("predicates.nocancel_conditions_hold", "predicates", "nocancel_conditions_hold"),
    ("predicates.greedy_h0_term", "predicates", "greedy_h0_term"),
    ("predicates.find_matching_certificate", "predicates", "find_matching_certificate"),
    ("ndet.ndet_laplace", "ndet", "ndet_laplace"),
    ("hwords.HExpansion", hwords.HExpansion, "__init__"),
    ("hwords.render", hwords.HExpansion, "render"),
    ("symfunc.schur_via_tableaux", "symfunc", "schur_via_tableaux"),
    ("symfunc.schur_via_jacobi_trudi", "symfunc", "schur_via_jacobi_trudi"),
    ("symfunc.forgetful", "symfunc", "forgetful"),
    ("symfunc.schur_decompose", "symfunc", "schur_decompose"),
    ("symfunc.Poly.mul", symfunc.Poly, "__mul__"),
    ("cli.main", "cli", "main"),
    ("cli.census_records", "cli", "census_records"),
    ("cli.write_census", "cli", "_write_census"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)
GENERATORS = {"compositions.enumerate_compositions", "cli.census_records"}

# Counts and ratios, each with its base in the comment.
COUNTS = (
    *(f"predicates.outcome.{o.value}" for o in Outcome),  # classify results
    "predicates.oracle_share",  # ndet_laplace calls inside classify / classify calls
    "matrix.wasted_build_share",  # builds inside an ALL_ZERO classify / all builds
    "ndet.terms_out",  # terms in all ndet_laplace results
    "ndet.zero_share",  # zero results / ndet_laplace calls
    "hwords.render_bytes",  # UTF-8 bytes of all render() results
    "cli.output_bytes",  # bytes the CLI wrote to stdout and census files
    "symfunc.tableaux",  # fillings yielded by generate_ssyt
)


def _package_modules():
    prefix = immaculates.__name__
    return [m for name, m in sys.modules.items() if name == prefix or name.startswith(prefix + ".")]


class Tracer:
    """Span store and counters for one pass; ``install`` patches the package."""

    def __init__(self):
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = 0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.ndet_zeros = 0
        self.classify_outcome: dict[int, Outcome] = {}
        self._undo: list = []

    def reset(self) -> None:
        for column in (self.name, self.start, self.end, self.parent, self.op):
            del column[:]
        self.stack[:] = [-1]
        self.counts.update(dict.fromkeys(COUNTS, 0))
        self.ndet_zeros = 0
        self.classify_outcome.clear()

    # --------------------------------------------------------- patching

    def install(self) -> None:
        modules = _package_modules()
        hooks = self._after_hooks()
        for nid, (name, owner, attr) in enumerate(SPANS):
            after = hooks.get(name)
            if isinstance(owner, str):
                original = getattr(getattr(immaculates, owner), attr)
                if name in GENERATORS:
                    wrapper = self._wrap_generator(nid, original)
                else:
                    wrapper = self._wrap_call(nid, original, after)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            else:
                original = owner.__dict__[attr]
                wrapper = self._wrap_call(nid, original, after)
                for key, value in list(owner.__dict__.items()):
                    if value is original:  # catches __rmul__ = __mul__
                        self._patch(owner, key, wrapper)
        original = symfunc.generate_ssyt
        self._patch(symfunc, "generate_ssyt", self._count_yields(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap_call(self, nid, fn, after):
        clock = time.perf_counter_ns
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, idx)
            return result

        return wrapper

    def _wrap_generator(self, nid, fn):
        clock = time.perf_counter_ns
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ops.append(self.current_op)
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                yield item

        return wrapper

    def _count_yields(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["symfunc.tableaux"] += 1
                yield item

        return wrapper

    def _after_hooks(self):
        counts = self.counts

        def classify(result, idx):
            counts[f"predicates.outcome.{result.outcome.value}"] += 1
            self.classify_outcome[idx] = result.outcome

        def ndet_laplace(result, idx):
            counts["ndet.terms_out"] += len(result)
            self.ndet_zeros += result.is_zero()

        def render(result, idx):
            counts["hwords.render_bytes"] += len(result.encode())

        return {
            "predicates.classify": classify,
            "ndet.ndet_laplace": ndet_laplace,
            "hwords.render": render,
        }

    # -------------------------------------------------------- summaries

    def _nearest_classify(self, idx: int) -> int:
        classify_id = SPAN_NAMES.index("predicates.classify")
        p = self.parent[idx]
        while p >= 0 and self.name[p] != classify_id:
            p = self.parent[p]
        return p

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counts and shares."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPANS)
        self_ns = [0] * len(SPANS)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child[i]
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
        out.update(self.counts)

        build_id = SPAN_NAMES.index("matrix.build_matrix")
        ndet_id = SPAN_NAMES.index("ndet.ndet_laplace")
        classify_calls = calls[SPAN_NAMES.index("predicates.classify")]
        oracle = wasted = 0
        for i in range(n):
            nid = self.name[i]
            if nid == ndet_id and self._nearest_classify(i) >= 0:
                oracle += 1
            elif nid == build_id:
                owner = self._nearest_classify(i)
                if self.classify_outcome.get(owner) is Outcome.ALL_ZERO_PRE_CANCELLATION:
                    wasted += 1
        out["predicates.oracle_share"] = oracle / classify_calls if classify_calls else 0.0
        out["matrix.wasted_build_share"] = wasted / calls[build_id] if calls[build_id] else 0.0
        out["ndet.zero_share"] = self.ndet_zeros / calls[ndet_id] if calls[ndet_id] else 0.0
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                f.write(
                    f"{SPAN_NAMES[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
