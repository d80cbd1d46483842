"""Unified observability layer: spans, metrics, events, live progress.

Zero-dependency telemetry for every layer of the pipeline (SAT solver →
incremental finder → engine pool → supervised exec → harness):

* :mod:`repro.obs.tracer` — hierarchical span tracer (``campaign >
  task > solve > vector > propagate/analyze/encode``) recorded
  to JSONL and exportable as Chrome ``trace_event`` JSON;
* :mod:`repro.obs.metrics` — counters / gauges / timing histograms the
  existing stats dataclasses (``SatStats``, ``FinderStats``,
  ``PoolStats``, ``ExecStats``) publish into, yielding one merged
  machine-readable snapshot per run;
* :mod:`repro.obs.events` — the event bus behind campaign progress:
  finished-task events, worker heartbeats, throttled rendering;
* :mod:`repro.obs.runtime` — the process-global switchboard all
  instrumentation points check.  Everything is a no-op (one attribute
  load and branch) until :func:`repro.obs.runtime.configure` turns a
  collector on; perfbench's untraced passes time that disabled path.
* :mod:`repro.obs.profiler` — optional per-task cProfile capture with a
  pstats dump (the CLI's ``--profile DIR``).

Schemas (span records, heartbeat events, metrics snapshots) are
versioned like the warm cache's engine headers; see ``docs/OBSERVABILITY.md``
for the field reference and a how-to for viewing traces.
"""

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventBus,
    HeartbeatRenderer,
    ProgressMonitor,
    heartbeat_event,
    legacy_line_subscriber,
)
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.profiler import maybe_profile, profile_path
from repro.obs.tracer import (
    TRACE_SCHEMA_VERSION,
    SpanTracer,
    load_trace,
    to_chrome,
    write_chrome,
)

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "HeartbeatRenderer",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "ProgressMonitor",
    "SpanTracer",
    "TRACE_SCHEMA_VERSION",
    "heartbeat_event",
    "legacy_line_subscriber",
    "load_trace",
    "maybe_profile",
    "profile_path",
    "to_chrome",
    "write_chrome",
]
