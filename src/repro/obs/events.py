"""The campaign event bus: finished tasks, heartbeats, progress lines.

The supervisor used to push bare strings at a ``Callable[[str], None]``
callback; it now emits structured events here and the legacy callback
rides an adapter that renders byte-identical lines.  Event schema
(``EVENT_SCHEMA_VERSION`` = 1) — plain dicts with a ``kind``:

``task_finished``
    ``{"kind": "task_finished", "task": str, "status": str,
    "elapsed": float, "error_kind": str | None, "attempts": int}`` —
    one per verdict, emitted by the supervisor's finish path.

``heartbeat``
    ``{"kind": "heartbeat", "v": 1, "task": str, "elapsed": float,
    "conflicts": int, "propagations": int, "vectors": int,
    "conflicts_per_s": float, "rss_kb": int | None, "pid": int}`` —
    periodic in-flight samples, always from a :class:`ProgressMonitor`
    sampling thread: in-process runs emit them onto the campaign's bus,
    and isolated workers send them over the verdict pipe.

Subscribers are plain callables; exceptions propagate to the emitter,
matching the old direct-callback behaviour.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.obs import runtime

EVENT_SCHEMA_VERSION = 1

Progress = Callable[[str], None]


class EventBus:
    """Synchronous fan-out of event dicts to subscribers."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[dict], None]] = []

    def subscribe(self, fn: Callable[[dict], None]) -> Callable:
        self._subscribers.append(fn)
        return fn

    def emit(self, event: dict) -> None:
        for fn in list(self._subscribers):
            fn(event)


def legacy_line_subscriber(progress: Progress) -> Callable[[dict], None]:
    """Adapt ``task_finished`` events to the historical progress lines.

    Renders exactly what the supervisor's ``progress`` callback used to
    receive (``"<task>: <status> (<elapsed>s)[ [<error_kind>]]"``), so
    existing callers — the CLI passes ``print`` — see no change.
    """

    def on_event(event: dict) -> None:
        if event.get("kind") != "task_finished":
            return
        kind = event.get("error_kind")
        suffix = f" [{kind}]" if kind else ""
        progress(
            f"{event['task']}: {event['status']} "
            f"({event['elapsed']:.2f}s){suffix}"
        )

    return on_event


class HeartbeatRenderer:
    """Throttled one-line rendering of ``heartbeat`` events.

    At most one line per ``min_interval`` seconds regardless of the
    heartbeat rate, so a 10 Hz worker stream does not flood a terminal.
    ``renders`` counts lines actually written (tests assert on it).
    """

    def __init__(
        self, write: Progress, *, min_interval: float = 1.0
    ) -> None:
        self._write = write
        self._min_interval = min_interval
        self._last = 0.0
        self.renders = 0

    def __call__(self, event: dict) -> None:
        if event.get("kind") != "heartbeat":
            return
        now = time.monotonic()
        if self.renders and now - self._last < self._min_interval:
            return
        self._last = now
        self.renders += 1
        rss = event.get("rss_kb")
        rss_note = f", rss {rss} KiB" if rss is not None else ""
        self._write(
            f"[progress] {event.get('task')}: "
            f"{event.get('elapsed', 0.0):.1f}s, "
            f"{event.get('conflicts', 0)} conflicts "
            f"({event.get('conflicts_per_s', 0.0):.0f}/s), "
            f"{event.get('vectors', 0)} vectors{rss_note}"
        )


def heartbeat_event(
    sample: dict, previous: Optional[dict] = None
) -> dict:
    """Shape a :func:`repro.obs.runtime.live_sample` into a heartbeat
    event, deriving ``conflicts_per_s`` from the previous sample."""
    rate = 0.0
    if previous is not None and previous.get("task") == sample.get("task"):
        dt = sample.get("elapsed", 0.0) - previous.get("elapsed", 0.0)
        if dt > 0:
            rate = (
                sample.get("conflicts", 0) - previous.get("conflicts", 0)
            ) / dt
    return {
        "kind": "heartbeat",
        "v": EVENT_SCHEMA_VERSION,
        "conflicts_per_s": max(rate, 0.0),
        **sample,
    }


class ProgressMonitor(threading.Thread):
    """In-process heartbeat source: samples the live runtime state on an
    interval and emits heartbeat events onto a bus.

    The one heartbeat sampler: in-process campaigns and the ``solve``
    verb run it on their own bus, and each isolated worker on a bus
    whose one subscriber sends to the verdict pipe.  Daemon thread;
    :meth:`stop` joins it.
    """

    def __init__(self, bus: EventBus, *, interval: float = 1.0) -> None:
        super().__init__(name="repro-obs-progress", daemon=True)
        self._bus = bus
        self._interval = interval
        # not named _stop: threading.Thread calls self._stop() internally
        self._halt = threading.Event()

    def run(self) -> None:
        previous: Optional[dict] = None
        while not self._halt.wait(self._interval):
            sample = runtime.live_sample()
            if sample.get("task") is None:
                previous = None
                continue
            self._bus.emit(heartbeat_event(sample, previous))
            previous = sample

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)
