"""In-memory tracing of one pass, from outside the package.

``Tracer.installed()`` replaces the package's public names, in the
namespaces that call them, by timing wrappers: ``algebra.mul_twist`` (what
``Element.__mul__`` calls), ``analysis.mul_doubling``, ``Element.__init__``,
``cli.main`` and so on. ``twist.twist_recursive`` itself is never wrapped,
so its memo recursion is untouched; the runner reads the memo only through
``cache_info()``.

Calls that take milliseconds get one span each: name, start, end and parent
index, kept in memory and written out when the run ends. Calls that take
about a microsecond (scalar ``twist``/``split_twist`` and
``Element.__init__``) get an aggregated count and time instead. A span's
self time is its duration minus the time covered by its child spans and
aggregated calls.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import os
from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns

from cdtwist import algebra, analysis, cli
from workloads import ENGINE_LEVELS, FORMATS, SUITES, TABLE_LEVELS


def _engine_label(args) -> str:
    x, y = args[0], args[1]
    if any(type(c) is Fraction for c in x.coeffs) or any(type(c) is Fraction for c in y.coeffs):
        return "fraction"
    return f"n{x.signature.level}"


def _cli_format(args) -> str:
    argv = args[0]
    return argv[argv.index("--format") + 1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start ns, end ns, parent index]
        self._stack: list[list] = []  # open spans: [index, child ns, name, array bytes]
        self.stats = defaultdict(lambda: [0, 0, 0])  # key -> [calls, total ns, self ns]
        self.counts = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0, name, 0]
        self.spans.append([name, 0, 0, parent])
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, t0: int, t1: int, keys) -> None:
        self._stack.pop()
        span = self.spans[frame[0]]
        span[1], span[2] = t0, t1
        duration = t1 - t0
        for key in keys:
            stat = self.stats[key]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, name: str, fn):
        """Run ``fn()`` as a span named ``name``."""
        frame = self._enter(name)
        t0 = perf_counter_ns()
        try:
            return fn()
        finally:
            self._leave(frame, t0, perf_counter_ns(), ())

    def _span(self, name: str, fn, label=None, after=None):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                keys = (name,) if label is None else (name, f"{name}.{label(args)}")
                self.spans[frame[0]][0] = keys[-1]
                self._leave(frame, t0, t1, keys)
            if after is not None:
                after(args, kwargs, result, frame)
            return result

        return wrapper

    def _aggregate(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - t0
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # -- counters fed from results -----------------------------------------

    def _suite_cases(self, suite: str):
        def after(args, kwargs, reports, frame):
            self.counts[f"analysis.{suite}.cases"] += sum(r.checked for r in reports)

        return after

    def _zero_divisor_hits(self, fn):
        bind = inspect.signature(fn).bind

        def wrapper(*args, **kwargs):
            pairs = fn(*args, **kwargs)
            bound = bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["analysis.zero_divisors.hits"] += len(pairs)
            self.counts["analysis.zero_divisors.budget"] += bound.arguments["search_budget"]
            return pairs

        return wrapper

    def _batch_after(self, args, kwargs, result, frame):
        nbytes = args[0].nbytes + args[1].nbytes + result.nbytes
        self.counts["twist.batch.lanes"] += result.size
        for open_frame in self._stack:
            if open_frame[2] == "analysis.build_table":
                open_frame[3] += nbytes

    def _build_after(self, args, kwargs, table, frame):
        # Computed from array sizes, not measured: the twist_batch operands
        # and results plus the returned sign array.
        key = f"analysis.build_table.bytes_computed.n{table.signature.level}"
        self.counts[key] += frame[3] + table.signs.nbytes

    def _cli_after(self, args, kwargs, code, frame):
        argv = args[0]
        path = argv[argv.index("--out") + 1]
        self.counts[f"cli.table.bytes_out.{_cli_format(args)}"] += os.path.getsize(path)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        undo = []

        def patch(owner, attr, make):
            original = getattr(owner, attr)
            undo.append((owner, attr, original))
            setattr(owner, attr, make(original))

        try:
            for owner in (algebra, analysis):
                for attr in ("twist", "split_twist"):
                    patch(owner, attr, lambda f: self._aggregate("twist.scalar", f))
                for attr in ("mul_twist", "mul_doubling"):
                    patch(owner, attr, lambda f, a=attr: self._span(f"algebra.{a}", f, _engine_label))
                patch(owner, "norm", lambda f: self._span("algebra.norm", f))
            patch(algebra.Element, "__init__", lambda f: self._aggregate("algebra.element_init", f))
            for attr in ("twist_batch", "split_twist_batch"):
                patch(analysis, attr, lambda f: self._span("twist.batch", f, after=self._batch_after))
            for suite in SUITES:
                patch(
                    analysis,
                    f"verify_{suite}",
                    lambda f, s=suite: self._span(f"analysis.{s}", f, after=self._suite_cases(s)),
                )
            patch(analysis, "find_zero_divisors", self._zero_divisor_hits)
            patch(
                analysis,
                "build_table",
                lambda f: self._span(
                    "analysis.build_table",
                    f,
                    lambda args: f"n{args[0].level}",
                    after=self._build_after,
                ),
            )
            patch(cli, "main", lambda f: self._span("cli.main", f, _cli_format, after=self._cli_after))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self, recursive_hits: int, recursive_misses: int, overhead_frac: float) -> dict:
        """Per-layer values of one traced pass, keyed by the names in BENCHMARK.json."""
        stats, counts = self.stats, self.counts

        def calls(key):
            return stats[key][0] if key in stats else 0

        def seconds(key, slot):
            return stats[key][slot] / 1e9 if key in stats else 0.0

        def per_call(key, scale):
            return stats[key][1] / stats[key][0] * scale if calls(key) else 0.0

        values = {
            "twist.scalar.calls": calls("twist.scalar"),
            "twist.scalar.s": seconds("twist.scalar", 1),
            "twist.recursive.hits": recursive_hits,
            "twist.recursive.misses": recursive_misses,
            "twist.batch.calls": calls("twist.batch"),
            "twist.batch.lanes": counts["twist.batch.lanes"],
            "twist.batch.s": seconds("twist.batch", 1),
            "algebra.element_init.calls": calls("algebra.element_init"),
            "algebra.element_init.self_s": seconds("algebra.element_init", 2),
            "trace.overhead_frac": overhead_frac,
        }
        for fn in ("mul_twist", "mul_doubling", "norm"):
            values[f"algebra.{fn}.calls"] = calls(f"algebra.{fn}")
            values[f"algebra.{fn}.self_s"] = seconds(f"algebra.{fn}", 2)
        for fn in ("mul_twist", "mul_doubling"):
            for label in [f"n{k}" for k in ENGINE_LEVELS] + ["fraction"]:
                values[f"algebra.{fn}.ms_per_call.{label}"] = per_call(f"algebra.{fn}.{label}", 1e-6)
        for suite in SUITES:
            values[f"analysis.{suite}.self_s"] = seconds(f"analysis.{suite}", 2)
            # The sum of `checked` as reported. zero_divisors reports its
            # search budget there; BENCHMARK.json gives it the unit "reported".
            values[f"analysis.{suite}.cases"] = counts[f"analysis.{suite}.cases"]
        hits, budget = counts["analysis.zero_divisors.hits"], counts["analysis.zero_divisors.budget"]
        values["analysis.zero_divisors.hits"] = hits
        values["analysis.zero_divisors.hit_ratio"] = hits / budget if budget else 0.0
        for k in TABLE_LEVELS:
            key = f"analysis.build_table.n{k}"
            values[f"analysis.build_table.s.n{k}"] = per_call(key, 1e-9)
            built = calls(key)
            computed = counts[f"analysis.build_table.bytes_computed.n{k}"]
            values[f"analysis.build_table.bytes_computed.n{k}"] = computed / built if built else 0
        for fmt in FORMATS:
            values[f"cli.table.render_s.{fmt}"] = seconds(f"cli.main.{fmt}", 2)
            values[f"cli.table.bytes_out.{fmt}"] = counts[f"cli.table.bytes_out.{fmt}"]
        return values

    def write(self, path: str, header: dict) -> None:
        """Write every span, gzipped JSON, with ``header`` alongside."""
        with gzip.open(path, "wt") as fh:
            json.dump({**header, "span_fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)
