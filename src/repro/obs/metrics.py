"""Metrics registry: counters, gauges and timing histograms.

One registry per run collects everything the layers already count —
the stats dataclasses (``SatStats``, ``FinderStats``, ``PoolStats``,
``ExecStats``) publish their numeric fields via :meth:`publish`, phase
timers land as ``phase.*`` counters, and per-task wall times feed the
``task.elapsed`` histogram — yielding one merged machine-readable
snapshot per run (the CLI's ``--metrics FILE``).

Snapshot schema (``METRICS_SCHEMA_VERSION`` = 1)::

    {"schema": "metrics", "version": 1,
     "counters":   {name: number},        # additive
     "gauges":     {name: number},        # last write wins
     "histograms": {name: {"count", "total", "min", "max",
                           "buckets": [{"le": bound, "count": n}, ...]}}

Counters are additive by design: worker subprocesses build their own
registry and ship what they recorded since their previous message with
every verdict (:meth:`drain`), and the supervisor :meth:`merge`-s it
into the campaign's — sums stay sums.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

METRICS_SCHEMA_VERSION = 1

#: upper bounds (seconds) of the timing-histogram buckets; one overflow
#: bucket (``"+inf"``) is always appended
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    60.0,
)


class Histogram:
    """Fixed-bucket timing histogram with min/max/total tracking."""

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def as_dict(self) -> dict:
        buckets = [
            {"le": bound, "count": self.counts[i]}
            for i, bound in enumerate(self.bounds)
        ]
        buckets.append({"le": "+inf", "count": self.counts[-1]})
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }

    def merge(self, snap: dict) -> None:
        """Fold another histogram's :meth:`as_dict` into this one
        (bucket layouts must match — both sides use the defaults)."""
        self.count += int(snap.get("count", 0))
        self.total += float(snap.get("total", 0.0))
        if snap.get("min") is not None:
            self.min = (
                snap["min"] if self.min is None
                else min(self.min, snap["min"])
            )
        if snap.get("max") is not None:
            self.max = (
                snap["max"] if self.max is None
                else max(self.max, snap["max"])
            )
        theirs = snap.get("buckets") or []
        for i, bucket in enumerate(theirs):
            if i < len(self.counts):
                self.counts[i] += int(bucket.get("count", 0))


class MetricsRegistry:
    """Counters / gauges / timing histograms with a versioned snapshot."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._hists: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def timing(self, name: str, seconds: float) -> None:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        hist.observe(seconds)

    def publish(self, prefix: str, mapping: Optional[dict]) -> None:
        """Fold a stats dataclass dict into the counters.

        Numeric fields add under ``prefix.field`` (so publishing many
        per-problem ``FinderStats`` dicts naturally sums them); nested
        dicts recurse with a dotted prefix; bools, strings and None are
        labels or flags, not measurements, and are skipped.
        """
        for key, value in (mapping or {}).items():
            name = f"{prefix}.{key}"
            if isinstance(value, bool) or value is None:
                continue
            if isinstance(value, (int, float)):
                self.inc(name, value)
            elif isinstance(value, dict):
                self.publish(name, value)

    def merge(self, snap: Optional[dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one
        (counters add, gauges last-write-wins, histograms merge)."""
        if not snap:
            return
        for name, value in (snap.get("counters") or {}).items():
            self.inc(name, value)
        for name, value in (snap.get("gauges") or {}).items():
            self.gauge(name, value)
        for name, hist_snap in (snap.get("histograms") or {}).items():
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = Histogram()
            hist.merge(hist_snap)

    def drain(self) -> dict:
        """:meth:`snapshot`, then clear: what was recorded since the
        previous drain.  Workers ship one with every message, so a
        killed worker loses nothing it had already reported."""
        snap = self.snapshot()
        self.counters.clear()
        self.gauges.clear()
        self._hists.clear()
        return snap

    def snapshot(self) -> dict:
        return {
            "schema": "metrics",
            "version": METRICS_SCHEMA_VERSION,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.as_dict()
                for name, hist in self._hists.items()
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
