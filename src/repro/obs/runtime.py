"""Process-global observability switchboard.

Instrumentation points throughout the pipeline check two module
attributes — :data:`TRACER` and :data:`METRICS` — and do nothing when
both are ``None`` (the default).  That makes the disabled path one
attribute load and branch per *call site* (never per propagated
literal; the solver's phase timers guard on a cached local), the path
perfbench's untraced passes time.

The module also keeps the **live in-flight state** heartbeats sample:
the current task id and weak references to the stats objects the
solver and finder are mutating right now.  Registration is a single
assignment per solve/search, cheap enough to do unconditionally, so
live progress works even when tracing and metrics are off.

Worker subprocesses are forked mid-campaign and would inherit the
parent's file-backed tracer (same fd!): :func:`forget` drops every
inherited global without touching the file, after which the worker
configures its own in-memory collectors from the payload.
"""

from __future__ import annotations

import os
import time
import weakref
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer

#: the active span tracer, or None (disabled)
TRACER: Optional[SpanTracer] = None

#: the active metrics registry, or None (disabled)
METRICS: Optional[MetricsRegistry] = None

# live in-flight state for heartbeats / progress sampling
_task: Optional[str] = None
_task_started: Optional[float] = None
_solver_stats = None  # weakref to the active solver's SatStats
_finder_stats = None  # weakref to the active search's FinderStats


def configure(
    *,
    trace_path: Optional[str] = None,
    trace: bool = False,
    metrics: bool = False,
) -> None:
    """Turn collectors on: a file-backed tracer (``trace_path``), an
    in-memory tracer (``trace=True``; workers drain it over the pipe),
    and/or a metrics registry.  Omitted collectors keep their state."""
    global TRACER, METRICS
    if trace_path is not None:
        TRACER = SpanTracer(trace_path)
    elif trace:
        TRACER = SpanTracer()
    if metrics:
        METRICS = MetricsRegistry()


def enabled() -> bool:
    return TRACER is not None or METRICS is not None


def reset() -> None:
    """Close and clear every collector (end of run, test isolation)."""
    global TRACER, METRICS
    if TRACER is not None:
        TRACER.close()
    TRACER = None
    METRICS = None
    task_finished()


def forget() -> None:
    """Drop inherited collectors without closing them (post-fork: the
    file handle belongs to the parent process)."""
    global TRACER, METRICS
    TRACER = None
    METRICS = None
    task_finished()


# ---------------------------------------------------------------------------
# live in-flight state (the heartbeat source)


def task_started(task_id: str) -> None:
    global _task, _task_started, _solver_stats, _finder_stats
    _task = task_id
    _task_started = time.monotonic()
    _solver_stats = None
    _finder_stats = None


def task_finished() -> None:
    global _task, _task_started, _solver_stats, _finder_stats
    _task = None
    _task_started = None
    _solver_stats = None
    _finder_stats = None


def watch_solver_stats(stats) -> None:
    """Point the live sample at the SatStats being mutated right now."""
    global _solver_stats
    try:
        _solver_stats = weakref.ref(stats)
    except TypeError:  # exotic backend stats object: live counts absent
        _solver_stats = None


def watch_finder_stats(stats) -> None:
    global _finder_stats
    try:
        _finder_stats = weakref.ref(stats)
    except TypeError:
        _finder_stats = None


def rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (POSIX only)."""
    try:
        import resource
    except ImportError:
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def live_sample() -> dict:
    """One heartbeat-shaped snapshot of the in-flight task.

    Fields (heartbeat event schema v1): ``task`` (id or None),
    ``elapsed`` (seconds in the task), ``conflicts`` / ``propagations``
    (cumulative solver counters), ``vectors`` (size vectors dispatched:
    attempted + skipped-by-core), ``rss_kb``, ``pid``.  The emitter
    adds ``conflicts_per_s`` from consecutive samples.
    """
    sample: dict = {
        "task": _task,
        "elapsed": (
            time.monotonic() - _task_started
            if _task_started is not None
            else 0.0
        ),
        "conflicts": 0,
        "propagations": 0,
        "vectors": 0,
        "rss_kb": rss_kb(),
        "pid": os.getpid(),
    }
    stats = _solver_stats() if _solver_stats is not None else None
    if stats is not None:
        sample["conflicts"] = stats.conflicts
        sample["propagations"] = stats.propagations
    finder = _finder_stats() if _finder_stats is not None else None
    if finder is not None:
        sample["vectors"] = finder.attempts + finder.vectors_skipped
    return sample
