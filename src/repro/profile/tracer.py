"""Chrome-trace tracer: the recording half of the ``repro.profile`` subsystem.

Every instrumented site in the repository — the kernel registry dispatch,
the compiled-plan stages, the autograd backward pass, the serving batch flushes —
asks this module for the *current tracer* and emits events only when one is
installed.  The disabled fast path is a single module-global read returning
``None``, so production runs pay essentially nothing (the acceptance bar is
<2% on the fused attention path at smoke scale; measured ~0%, see
EXPERIMENTS.md).

Events use the Chrome trace-event JSON format (the ``chrome://tracing`` /
Perfetto interchange format): complete events (``ph="X"``) carry ``name``,
``cat``, ``ts``/``dur`` in microseconds, ``pid``/``tid`` and an ``args``
payload; instant events (``ph="i"``) mark cache hits/misses.  Event
categories used by the repo:

* ``kernel`` — one registry-kernel invocation (op name, backend, shape,
  phase ``fwd``/``bwd``, plus any active labels such as the plan's mechanism
  and shape-class).  These are the nodes of the op DAG.
* ``step`` — one logical unit of work (a train step, a serving burst); the
  replayer validates its prediction against this span's wall time.
* ``serve`` — serving-engine batch flushes.
* ``cache`` — instant events for plan-cache and structure-cache outcomes.
* ``phase`` — the autograd backward region marker.

Activation, in decreasing priority: an explicit :func:`trace` context (or
:func:`start_trace`/:func:`stop_trace` pair), and the ``REPRO_TRACE=path``
environment variable, which installs a process-wide tracer at import time and
writes the trace file at interpreter exit.

This module deliberately imports nothing from the rest of ``repro`` — the
kernel registry imports *it*, so any repro import here would be a cycle.
Cross-module coupling goes through two tiny registries instead:

* session hooks (:func:`register_session_hook`) run at trace start *and*
  stop — the plan cache registers its ``clear`` so kernels resolved before
  the session get re-resolved through the tracing wrapper, and wrappers
  never outlive the session;
* metadata providers (:func:`register_metadata_provider`) are sampled at
  stop time into the trace's ``metadata`` block — cache hit/miss/eviction
  statistics travel inside the artifact they describe.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "TRACE_ENV_VAR",
    "Tracer",
    "current_tracer",
    "is_tracing",
    "start_trace",
    "stop_trace",
    "trace",
    "phase_scope",
    "register_session_hook",
    "register_metadata_provider",
]

#: Environment variable holding the trace output path for whole-process runs.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Phases an event can belong to (forward by default; the autograd engine and
#: the fused backward switch to ``bwd`` for the duration of the backward pass).
FORWARD = "fwd"
BACKWARD = "bwd"

_ACTIVE: Optional["Tracer"] = None
_SESSION_HOOKS: List[Callable[[], None]] = []
_METADATA_PROVIDERS: Dict[str, Callable[[], Any]] = {}


class Tracer:
    """Collects Chrome-trace events with microsecond timestamps.

    Thread-safe in the cheap sense: appends hold a lock, and thread idents
    are mapped to small stable ``tid`` integers in first-seen order so the
    trace (and the DAG built from it) is deterministic for single-threaded
    runs and readable for multi-threaded ones.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._t0 = clock()
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._tids: Dict[int, int] = {}
        self._thread_names: Dict[int, str] = {}
        self._phase = threading.local()
        self._labels = threading.local()
        self.metadata: Dict[str, Any] = {}
        self.pid = os.getpid()

    # ------------------------------------------------------------ time / ids
    def _now_us(self) -> float:
        return (self._clock() - self._t0) / 1e3

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            name = threading.current_thread().name
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
                # Stable tid → thread-name mapping, recorded at first use so
                # worker lanes stay identifiable even after the pool is gone.
                self._thread_names.setdefault(tid, name)
        return tid

    def thread_names(self) -> Dict[int, str]:
        """Snapshot of the stable ``tid -> thread name`` mapping."""
        with self._lock:
            return dict(self._thread_names)

    @property
    def phase(self) -> str:
        return getattr(self._phase, "value", FORWARD)

    def _current_labels(self) -> Dict[str, Any]:
        stack = getattr(self._labels, "stack", None)
        if not stack:
            return {}
        merged: Dict[str, Any] = {}
        for frame in stack:
            merged.update(frame)
        return merged

    # --------------------------------------------------------------- emitters
    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    def emit_complete(
        self,
        name: str,
        cat: str,
        start_us: float,
        dur_us: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append a complete (``ph="X"``) event covering ``[start, start+dur]``."""
        payload = self._current_labels()
        payload["phase"] = self.phase
        if args:
            payload.update(args)
        self._append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": float(start_us),
                "dur": float(dur_us),
                "pid": self.pid,
                "tid": self._tid(),
                "args": payload,
            }
        )

    def instant(self, name: str, cat: str = "cache", **args: Any) -> None:
        """Append an instant (``ph="i"``) event at the current time."""
        payload = self._current_labels()
        payload["phase"] = self.phase
        payload.update(args)
        self._append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": self._now_us(),
                "pid": self.pid,
                "tid": self._tid(),
                "args": payload,
            }
        )

    @contextmanager
    def span(self, name: str, cat: str = "kernel", **args: Any) -> Iterator[None]:
        """Context manager timing its body as one complete event."""
        start = self._now_us()
        try:
            yield
        finally:
            self.emit_complete(name, cat, start, self._now_us() - start, args)

    @contextmanager
    def phase_scope(self, phase: str) -> Iterator[None]:
        """Set the phase (``fwd``/``bwd``) stamped on events inside the block."""
        previous = getattr(self._phase, "value", None)
        self._phase.value = phase
        try:
            yield
        finally:
            if previous is None:
                del self._phase.value
            else:
                self._phase.value = previous

    # ----------------------------------------------- cross-thread propagation
    def capture_context(self) -> Dict[str, Any]:
        """Snapshot the calling thread's phase and merged labels.

        Phase and labels are thread-local; a worker pool executing tiles on
        behalf of a submitting thread captures this on the submitter and
        re-applies it around each tile (:meth:`apply_context`), so worker-lane
        events carry the same ``fwd``/``bwd`` phase and plan labels the work
        would have carried inline.
        """
        return {
            "phase": getattr(self._phase, "value", None),
            "labels": self._current_labels(),
        }

    @contextmanager
    def apply_context(self, context: Dict[str, Any]) -> Iterator[None]:
        """Re-apply a :meth:`capture_context` snapshot on the current thread."""
        phase = context.get("phase")
        labels = context.get("labels") or {}
        if phase is None:
            if labels:
                with self.label_scope(**labels):
                    yield
            else:
                yield
        elif labels:
            with self.phase_scope(phase), self.label_scope(**labels):
                yield
        else:
            with self.phase_scope(phase):
                yield

    @contextmanager
    def label_scope(self, **labels: Any) -> Iterator[None]:
        """Merge ``labels`` into the ``args`` of every event inside the block."""
        stack = getattr(self._labels, "stack", None)
        if stack is None:
            stack = self._labels.stack = []
        stack.append(labels)
        try:
            yield
        finally:
            stack.pop()

    # ----------------------------------------------------------------- output
    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def payload(self) -> Dict[str, Any]:
        """The Chrome-trace JSON object (``traceEvents`` + ``metadata``)."""
        with self._lock:
            events = list(self._events)
            names = dict(self._thread_names)
        # ``ph="M"`` thread_name metadata events give every recorded lane a
        # human-readable label in chrome://tracing / Perfetto.  Appended after
        # the recorded events (viewers accept them anywhere), so
        # ``traceEvents[i]`` keeps indexing the i-th recorded event.
        name_events = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": self.pid,
                "tid": tid,
                "args": {"name": name},
            }
            for tid, name in sorted(names.items())
        ]
        return {
            "traceEvents": events + name_events,
            "displayTimeUnit": "ms",
            "metadata": dict(self.metadata),
        }

    def write(self, path: str) -> None:
        """Write the trace as Chrome-trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.payload(), fh)
            fh.write("\n")


# ------------------------------------------------------------- global session
def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` — the disabled-path check every
    instrumented site performs first."""
    return _ACTIVE


def is_tracing() -> bool:
    return _ACTIVE is not None


def register_session_hook(hook: Callable[[], None]) -> None:
    """Run ``hook`` at every trace start and stop (idempotent per function).

    Used by caches that memoise resolved kernel functions: clearing at both
    boundaries means kernels resolved before the session are re-resolved
    through the tracing wrapper, and no wrapper survives past the session.
    """
    if hook not in _SESSION_HOOKS:
        _SESSION_HOOKS.append(hook)


def register_metadata_provider(name: str, provider: Callable[[], Any]) -> None:
    """Sample ``provider()`` into the trace metadata under ``name`` at stop."""
    _METADATA_PROVIDERS[name] = provider


def _run_session_hooks() -> None:
    for hook in _SESSION_HOOKS:
        hook()


def start_trace(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process-wide tracer."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a trace session is already active")
    _ACTIVE = tracer if tracer is not None else Tracer()
    _run_session_hooks()
    return _ACTIVE


def stop_trace(path: Optional[str] = None) -> Tracer:
    """Uninstall the tracer; collect metadata and optionally write the file."""
    global _ACTIVE
    if _ACTIVE is None:
        raise RuntimeError("no trace session is active")
    tracer = _ACTIVE
    for name, provider in _METADATA_PROVIDERS.items():
        try:
            tracer.metadata[name] = provider()
        except Exception as exc:  # metadata must never kill a recorded trace
            tracer.metadata[name] = f"<provider failed: {exc}>"
    _ACTIVE = None
    _run_session_hooks()
    if path:
        tracer.write(path)
    return tracer


@contextmanager
def trace(path: Optional[str] = None) -> Iterator[Tracer]:
    """Record a trace for the duration of the block::

        with repro.profile.trace("step.trace.json") as tracer:
            run_train_step()
    """
    tracer = start_trace()
    try:
        yield tracer
    finally:
        stop_trace(path)


@contextmanager
def phase_scope(phase: str) -> Iterator[None]:
    """Module-level phase scope: no-op when tracing is disabled."""
    tracer = _ACTIVE
    if tracer is None:
        yield
    else:
        with tracer.phase_scope(phase):
            yield


def _install_from_env() -> None:
    """``REPRO_TRACE=path`` starts a whole-process trace written at exit."""
    path = os.environ.get(TRACE_ENV_VAR, "").strip()
    if not path or _ACTIVE is not None:
        return
    start_trace()

    def _flush() -> None:
        if _ACTIVE is not None:
            stop_trace(path)

    atexit.register(_flush)


_install_from_env()
