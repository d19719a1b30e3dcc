"""The benchmark's own arithmetic and instrumentation (standard library only).

Everything here is independent of the program under test, so it can be
unit-tested with fake clocks and fake servers (``test_perfbench.py``):

* summary statistics: medians, quartiles, the percentile-support rule, the
  median of per-pair ratios, and ``ok_pct``;
* :class:`Tally` — operations attempted / failed (by exception type) / wrong;
* :func:`run_open_loop` — an open-loop request generator that times every
  request from its *scheduled* send time and records how late it ran;
* :class:`SpanRecorder` and :class:`MemoryProbe` — wrappers the benchmark
  installs around public calls of the program to time them (spans with name,
  start, end, parent and attributes) or to take their ``tracemalloc`` peak.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

MIB = float(1 << 20)

#: A percentile is only reported when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


# ------------------------------------------------------------------ statistics
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def samples_beyond(p: float, n: int) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile of ``n``."""
    return n - math.ceil(p / 100.0 * n)


def percentile_supported(p: float, n: int) -> bool:
    """True when ``n`` samples leave at least ten beyond the ``p``-th percentile."""
    return n > 0 and samples_beyond(p, n) >= MIN_SAMPLES_BEYOND


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; raises when the sample cannot support it."""
    n = len(values)
    if not percentile_supported(p, n):
        raise ValueError(
            f"p{p:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; {n} samples leave "
            f"{max(samples_beyond(p, n), 0)}"
        )
    return float(sorted(values)[math.ceil(p / 100.0 * n) - 1])


def pair_ratio_median(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Median over interleaved pairs of ``numerator / denominator``.

    Both arms of a pair run back to back, so a slow spell of the machine
    scales both; the per-pair ratio cancels it where a ratio of medians would
    not.
    """
    if len(numerators) != len(denominators) or not numerators:
        raise ValueError("pair_ratio_median needs equally many, non-zero pairs")
    return median([a / b for a, b in zip(numerators, denominators)])


def ok_pct(attempted: int, failed: int) -> float:
    """Share of attempted operations that completed and passed their check."""
    if attempted < 1:
        raise ValueError("ok_pct of no attempted operations")
    return 100.0 * (attempted - failed) / attempted


# ---------------------------------------------------------------- outcome tally
@dataclass
class Tally:
    """Operations attempted, and the failures among them.

    A raised exception is a failure, counted under its type name; a result
    that fails its output check is a failure counted under ``"wrong_output"``
    and also clears :attr:`correct`.
    """

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    correct: bool = True

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def attempt(self, fn: Callable, *args, **kwargs):
        """Call ``fn``; returns ``(True, value)`` or ``(False, None)`` if it raised."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # every exception of the program is a counted failure
            self.fail(type(exc).__name__)
            return False, None

    def wrong(self) -> None:
        """Record an operation that completed with a wrong output."""
        self.correct = False
        self.fail("wrong_output")

    def ok_pct(self) -> float:
        return ok_pct(self.attempted, self.failed)


# ------------------------------------------------------------------- open loop
@dataclass
class OpenLoopResult:
    """What :func:`run_open_loop` observed; times in seconds."""

    scheduled: Dict[str, float]
    latency: Dict[str, float]
    results: Dict[str, object]
    failures: Dict[str, str]
    lateness: List[float]
    busy_s: float
    wall_s: float


def run_open_loop(
    requests: Sequence[object],
    offsets: Sequence[float],
    server,
    request_id: Callable[[object], str],
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Send ``requests[i]`` at ``start + offsets[i]`` whatever the server is doing.

    ``server`` needs ``enqueue(request)``, ``step() -> results`` (each with a
    ``request_id``), ``pending_count`` and ``next_deadline()``, as
    :class:`repro.serve.AttentionServer` has.  Latency runs from a request's
    scheduled time to the moment the ``step`` call that returned its result
    ended, so a stall of the loop is charged to every request it delayed;
    ``lateness`` holds, per request, how far behind schedule it was sent.  A
    request whose ``enqueue`` raises is a failure under the exception's type
    name; one that was queued but never returned (its batch raised in
    ``step``) is a failure under the type that ``step`` raised.
    """
    if len(requests) != len(offsets):
        raise ValueError("one scheduled offset per request")
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("offsets must be non-decreasing")
    scheduled: Dict[str, float] = {}
    latency: Dict[str, float] = {}
    results: Dict[str, object] = {}
    failures: Dict[str, str] = {}
    queued: List[str] = []
    lateness: List[float] = []
    step_error = "LostRequest"
    busy = 0.0
    start = clock()
    i, n = 0, len(requests)
    while i < n or server.pending_count:
        now = clock()
        while i < n and start + offsets[i] <= now:
            rid = request_id(requests[i])
            scheduled[rid] = start + offsets[i]
            lateness.append(now - scheduled[rid])
            try:
                server.enqueue(requests[i])
                queued.append(rid)
            except Exception as exc:  # the program refused the request: a failure
                failures[rid] = type(exc).__name__
            i += 1
            end = clock()
            busy += end - now
            now = end
        try:
            done = server.step()
        except Exception as exc:  # the popped batch is lost; counted below
            done = []
            step_error = type(exc).__name__
        end = clock()
        if done:
            busy += end - now
            for result in done:
                latency[result.request_id] = end - scheduled[result.request_id]
                results[result.request_id] = result
            continue
        wake = [start + offsets[i]] if i < n else []
        deadline = server.next_deadline()
        if deadline is not None:
            wake.append(deadline)
        if wake:
            sleep(max(min(wake) - clock(), 0.0))
    for rid in queued:
        if rid not in results:
            failures[rid] = step_error
    return OpenLoopResult(
        scheduled, latency, results, failures, lateness, busy, clock() - start
    )


# ------------------------------------------------------------- instrumentation
class _Instrument:
    """Patch callables with wrappers that call ``_enter``/``_exit`` around them."""

    def _enter(self, name: str, attrs: dict):  # pragma: no cover - abstract
        raise NotImplementedError

    def _exit(self, token, attrs: dict) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    @contextmanager
    def region(self, name: str, **attrs):
        """Record the ``with`` block itself under ``name``."""
        token = self._enter(name, attrs)
        try:
            yield
        finally:
            self._exit(token, attrs)

    def _wrapper(self, fn, name, attrs_of_call, attrs_of_result):
        def wrapped(*args, **kwargs):
            attrs = attrs_of_call(*args, **kwargs) if attrs_of_call else {}
            token = self._enter(name, attrs)
            try:
                result = fn(*args, **kwargs)
                if attrs_of_result is not None:
                    attrs.update(attrs_of_result(result))
                return result
            finally:
                self._exit(token, attrs)

        wrapped.__wrapped__ = fn
        return wrapped

    @contextmanager
    def installed(self, targets: Iterable[tuple]):
        """Wrap each ``(owner, attribute, name[, attrs_of_call[, attrs_of_result]])``.

        ``owner`` is a class or a module; the original attributes are put
        back when the block ends, even if it raises.
        """
        saved = []
        try:
            for owner, attr, name, *hooks in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                hooks = hooks + [None] * (2 - len(hooks))
                setattr(owner, attr, self._wrapper(original, name, *hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder(_Instrument):
    """Timed spans kept in memory; :meth:`dump` writes them as a Chrome trace."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _enter(self, name, attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent, attrs))
        self._stack.append(index)
        return index

    def _exit(self, index, attrs):
        self.spans[index].end = self.clock()
        self._stack.pop()

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def within(self, root: int, name: str) -> float:
        """Seconds spent in ``name`` spans nested anywhere under span ``root``."""
        total = 0.0
        for span in self.spans[root + 1:]:
            if span.start > self.spans[root].end:
                break
            if span.name == name and self._descends(span, root):
                total += span.duration
        return total

    def _descends(self, span: Span, root: int) -> bool:
        parent = span.parent
        while parent is not None:
            if parent == root:
                return True
            parent = self.spans[parent].parent
        return False

    def per_root(self, root_name: str, name: str) -> List[float]:
        """For every ``root_name`` span, the seconds its ``name`` descendants took."""
        return [
            self.within(i, name)
            for i, span in enumerate(self.spans)
            if span.name == root_name
        ]

    def dump(self, path: str, metadata: Optional[dict] = None) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": i, "parent": s.parent, **s.attrs},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "metadata": metadata or {}}, fh, default=str)


class MemoryProbe(_Instrument):
    """``tracemalloc`` peak of each wrapped call above what was live at its start.

    ``tracemalloc`` keeps one global peak, so entering a nested call resets it;
    the enclosing call's running maximum is folded in before every reset, so
    outer peaks stay exact.  ``peaks[name]`` lists one value in bytes per call.
    """

    def __init__(self) -> None:
        self.peaks: Dict[str, List[float]] = {}
        self._stack: List[list] = []

    @contextmanager
    def tracing(self):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            yield self
        finally:
            if started:
                tracemalloc.stop()

    def _enter(self, name, attrs):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()
        frame = [name, current, current]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, attrs):
        _, peak = tracemalloc.get_traced_memory()
        frame[2] = max(frame[2], peak)
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], frame[2])
        name, base, high = frame
        self.peaks.setdefault(name, []).append(high - base)

    def mib(self, name: str) -> float:
        """Largest peak of ``name`` calls, in MiB (0 when never called)."""
        values = self.peaks.get(name)
        return max(values) / MIB if values else 0.0
