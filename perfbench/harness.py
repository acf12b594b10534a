"""Closed-loop runner: spans and counts at the benchmark's calls into
coxtools, a per-op deadline, failure accounting and the metrics.

One client with one thread runs the ops of a workload back to back.
Ops are plain data (`Op`); the workload module turns each kind into
calls through `Tracer.call`, which names the coxtools module and
function it enters.  With tracing off, `call` only counts; with tracing
on it also records a span (name, start, end, parent) that is kept in
memory and reduced to self times per name when the round ends.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

# An op that runs longer than this is stopped and counted as failed with
# reason "deadline".  The slowest ops that succeed today take up to about
# 7 s on a 2-vCPU x86_64 VM (find_isomorphism on W(F4) against itself,
# the centralizer op on H4; baseline/BENCH_1.json records the maximum as
# slowest_ok), so 25 s leaves them more than three times their time.
# The W(D4) `aut --verify` op (about 160 s) spends all of it on every
# pass.
DEADLINE_S = 25.0

OP_SPAN = "bench.op"
# Reasons that mean a wrong answer rather than an op that could not finish.
WRONG_REASONS = ("wrong", "VerificationError")


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler.  It derives from BaseException so
    that no ``except Exception`` inside coxtools can swallow it."""


class WrongAnswer(Exception):
    """An op's answer failed its check."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass(frozen=True)
class Op:
    """One request: a kind, JSON-able parameters and, optionally, the
    answer the op must return."""

    kind: str
    params: dict
    expect: Any = None

    def key(self) -> str:
        return json.dumps([self.kind, self.params, self.expect], sort_keys=True)


@dataclass
class OpResult:
    kind: str
    seconds: float
    answer: Any = None
    reason: Optional[str] = None   # None when the op succeeded
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.reason is None


class Tracer:
    """Counts every call the benchmark makes into coxtools and, when
    ``enabled``, records a span around it."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counts: Counter = Counter()
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        self.counts[name + ".calls"] += 1
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def add(self, name: str, n: int):
        """Add to an exact count (roots enumerated, elements, maps...)."""
        self.counts[name] += n

    def take_spans(self) -> list[list]:
        spans, self.spans, self._stack = self.spans, [], []
        return spans


def _ends(spans: list[list]) -> list[float]:
    """Span ends.  A span whose end was never written (the alarm fired
    inside the tracer's own bookkeeping) ends where its parent ends, or
    where it started."""
    ends = [s[2] for s in spans]
    for i, s in enumerate(spans):
        if ends[i] is None:
            parent = s[3]
            ends[i] = ends[parent] if parent >= 0 and ends[parent] is not None else s[1]
    return ends


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, minus the time covered by child spans."""
    ends = _ends(spans)
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += ends[i] - s[1]
    out: Counter = Counter()
    for i, s in enumerate(spans):
        out[s[0]] += (ends[i] - s[1]) - child[i]
    return dict(out)


def op_wall(spans: list[list]) -> float:
    return sum(end - s[1] for s, end in zip(spans, _ends(spans))
               if s[0] == OP_SPAN and s[3] == -1)


def run_op(op: Op, execute: Callable, state: Any, tracer: Tracer,
           deadline: float = DEADLINE_S) -> OpResult:
    """Run one op under the deadline; never raises for a failed op."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    result = OpResult(op.kind, 0.0)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            answer = tracer.call(OP_SPAN, execute, op, state, tracer)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if op.expect is not None and answer != op.expect:
            raise WrongAnswer(f"answer {answer!r}, expected {op.expect!r}")
        result.answer = answer
    except DeadlineExceeded:
        result.reason, result.message = "deadline", f"over {deadline:g} s"
    except WrongAnswer as exc:
        result.reason, result.message = "wrong", str(exc)
    except Exception as exc:  # every other failure is counted, not fatal
        result.reason, result.message = type(exc).__name__, str(exc)[:200]
    finally:
        result.seconds = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return result


@dataclass
class Round:
    """One pass over the op list."""

    results: list[OpResult]
    seconds: float
    counts: Counter
    spans: list[list] = field(default_factory=list)
    traced: bool = False

    def exact(self) -> dict[str, int]:
        """The counts that must repeat exactly for the same op list."""
        out = dict(self.counts)
        out.update(Counter(f"ops.failed.{r.kind}.{r.reason}" for r in self.results if not r.ok))
        out["ops.failed.total"] = sum(not r.ok for r in self.results)
        out["rootspace.root_lookup_errors"] = sum(
            r.reason == "RootLookupError" for r in self.results)
        return dict(sorted(out.items()))

    def digest(self) -> str:
        """Hash of every op's answer, or of its failure reason."""
        rows = [[i, r.answer if r.ok else ["failed", r.reason]]
                for i, r in enumerate(self.results)]
        return sha256(rows)


def run_round(ops: list[Op], execute: Callable, state: Any, tracer: Tracer,
              deadline: float = DEADLINE_S,
              on_deadline: Optional[Callable[[Op], None]] = None) -> Round:
    tracer.counts = Counter()
    tracer.take_spans()
    results = []
    start = perf_counter()
    for op in ops:
        r = run_op(op, execute, state, tracer, deadline)
        results.append(r)
        if r.reason == "deadline" and on_deadline is not None:
            on_deadline(op)
    seconds = perf_counter() - start
    return Round(results, seconds, tracer.counts, tracer.take_spans(), tracer.enabled)


def sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0 < q < 100), interpolated between order
    statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def end_to_end(rounds: list[Round], setup_s: float, peak_rss_mb: float) -> dict:
    """Throughput over the whole run, latency percentiles over every op
    attempted, failures over every op attempted."""
    results = [r for rnd in rounds for r in rnd.results]
    latencies = [r.seconds * 1e3 for r in results]
    return {
        "ops_per_s": {"value": len(results) / sum(rnd.seconds for rnd in rounds),
                      "unit": "1/s"},
        "latency_p50_ms": {"value": percentile(latencies, 50), "unit": "ms"},
        "latency_p90_ms": {"value": percentile(latencies, 90), "unit": "ms"},
        "error_rate": {"value": sum(not r.ok for r in results) / len(results),
                       "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(traced: list[Round], untraced: list[Round],
              names: list[tuple[str, str]]) -> dict:
    """Per-layer metrics: self seconds summed over the traced passes,
    exact counts of one pass, and the tracing overhead: the median
    traced pass against the median untraced pass."""
    seconds: Counter = Counter()
    wall = 0.0
    for rnd in traced:
        seconds.update(self_times(rnd.spans))
        wall += op_wall(rnd.spans)
    exact = traced[0].exact()
    overhead = 100.0 * (statistics.median(r.seconds for r in traced)
                        / statistics.median(r.seconds for r in untraced) - 1.0)
    out = {}
    for name, unit in names:
        if name == "trace.overhead_pct":
            value = overhead
        elif name == "trace.unattributed.s":
            value = seconds.get(OP_SPAN, 0.0)
        elif name == "ops.wall.s":
            value = wall
        elif name.endswith(".s"):
            value = seconds.get(name[:-2], 0.0)
        else:
            value = exact.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
