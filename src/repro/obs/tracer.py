"""Hierarchical span tracer with Chrome ``trace_event`` export.

A span is one timed region of work with a name, a parent, and optional
attributes; nesting follows the call structure (``campaign > task >
solve > vector``).  The two phase levels below a vector — propagate /
analyze from the SAT solver's phase timers, encode from the finder —
are emitted as *aggregate* child spans: one synthetic span per
vector carrying the summed duration and call count, because recording
every ``_propagate`` call individually (hundreds of thousands per
solve) would dwarf the work being measured.

Record schema (``TRACE_SCHEMA_VERSION`` = 1), one JSON object per JSONL
line::

    {"kind": "span", "v": 1, "name": str, "cat": str,
     "id": "pid:seq", "parent": "pid:seq" | None, "pid": int,
     "ts": float,   # wall-clock microseconds since the epoch
     "dur": float,  # microseconds, monotonic-derived
     "args": dict}  # span attributes; aggregates carry "count" and
                    # "aggregate": true

A file-backed tracer streams records as spans finish; an in-memory
tracer (worker subprocesses) buffers them for :meth:`SpanTracer.drain`,
and the supervisor :meth:`SpanTracer.absorb`-s them into the campaign's
file — span ids embed the emitting pid, so merged traces stay unique
and Chrome renders one timeline lane per worker.

Convert a trace for chrome://tracing (or https://ui.perfetto.dev)::

    python -m repro.obs.tracer run-trace.jsonl run-trace.chrome.json
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Iterator, Optional, Sequence, TextIO

TRACE_SCHEMA_VERSION = 1

#: record discriminator, future-proofing the JSONL stream against
#: non-span record kinds (counter samples, instant events)
TRACE_KIND = "span"


class _OpenSpan:
    """A begun-but-unfinished span (hand back to :meth:`SpanTracer.end`)."""

    __slots__ = ("name", "cat", "sid", "parent", "ts_us", "t0", "args")

    def __init__(self, name, cat, sid, parent, ts_us, t0, args):
        self.name = name
        self.cat = cat
        self.sid = sid
        self.parent = parent
        self.ts_us = ts_us
        self.t0 = t0
        self.args = args


class SpanTracer:
    """Low-overhead span recorder (single producer thread per process).

    ``path=None`` buffers records in memory (see :meth:`drain`); a path
    appends JSONL lines as spans close.  The tracer itself is never in
    any hot loop — instrumentation sites guard on the process-global
    :data:`repro.obs.runtime.TRACER` being non-None, so a disabled run
    pays one attribute load per site.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._handle: Optional[TextIO] = (
            open(path, "w", encoding="utf-8") if path else None
        )
        self._records: list[dict] = []
        self._stack: list[_OpenSpan] = []
        self._seq = 0
        self._pid = os.getpid()

    # -- span lifecycle ---------------------------------------------------
    def begin(
        self, name: str, args: Optional[dict] = None, cat: str = "repro"
    ) -> _OpenSpan:
        self._seq += 1
        span = _OpenSpan(
            name,
            cat,
            f"{self._pid}:{self._seq}",
            self._stack[-1].sid if self._stack else None,
            time.time() * 1e6,
            time.monotonic(),
            args if args is not None else {},
        )
        self._stack.append(span)
        return span

    def end(self, span: _OpenSpan) -> None:
        dur_us = (time.monotonic() - span.t0) * 1e6
        # tolerate out-of-order ends (an exception unwound past inner
        # begins): close everything the span encloses
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._emit(
            {
                "kind": TRACE_KIND,
                "v": TRACE_SCHEMA_VERSION,
                "name": span.name,
                "cat": span.cat,
                "id": span.sid,
                "parent": span.parent,
                "pid": self._pid,
                "ts": span.ts_us,
                "dur": dur_us,
                "args": span.args,
            }
        )

    @contextlib.contextmanager
    def span(
        self, name: str, args: Optional[dict] = None, cat: str = "repro"
    ) -> Iterator[_OpenSpan]:
        handle = self.begin(name, args, cat)
        try:
            yield handle
        finally:
            self.end(handle)

    def aggregate(
        self,
        name: str,
        seconds: float,
        count: int = 1,
        args: Optional[dict] = None,
    ) -> None:
        """Emit a completed summary span under the current stack top.

        Placed so it *ends* now: phase totals are read after the work
        they measure, and a trailing placement keeps aggregate siblings
        from visually stacking on the lane's left edge.
        """
        self._seq += 1
        dur_us = seconds * 1e6
        payload = {"aggregate": True, "count": count}
        if args:
            payload.update(args)
        self._emit(
            {
                "kind": TRACE_KIND,
                "v": TRACE_SCHEMA_VERSION,
                "name": name,
                "cat": "phase",
                "id": f"{self._pid}:{self._seq}",
                "parent": self._stack[-1].sid if self._stack else None,
                "pid": self._pid,
                "ts": time.time() * 1e6 - dur_us,
                "dur": dur_us,
                "args": payload,
            }
        )

    # -- record transport -------------------------------------------------
    def _emit(self, record: dict) -> None:
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        else:
            self._records.append(record)

    def drain(self) -> list[dict]:
        """Take (and clear) the buffered records of an in-memory tracer."""
        records, self._records = self._records, []
        return records

    def absorb(self, records: Sequence[dict]) -> None:
        """Adopt finished records from another process's tracer verbatim
        (ids embed the originating pid, so no remapping is needed)."""
        for record in records:
            if isinstance(record, dict) and record.get("kind") == TRACE_KIND:
                self._emit(record)

    def close(self) -> None:
        # close any spans an interrupt left open, so the file is whole
        while self._stack:
            self.end(self._stack[-1])
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# loading + Chrome trace_event export


def load_trace(path: str) -> list[dict]:
    """Read a JSONL trace back as a list of span records.

    A truncated final line (a killed run) is dropped silently, matching
    the results journal's tolerance; other malformed lines raise.
    """
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                continue
            raise
        if payload.get("kind") == TRACE_KIND:
            records.append(payload)
    return records


def to_chrome(records: Sequence[dict]) -> dict:
    """Render span records as a Chrome ``trace_event`` JSON object.

    Complete ("ph": "X") events with timestamps rebased to the earliest
    span, one pid lane per originating process; loads directly in
    chrome://tracing and Perfetto.
    """
    base = min((r["ts"] for r in records), default=0.0)
    events = [
        {
            "name": r["name"],
            "cat": r.get("cat", "repro"),
            "ph": "X",
            "ts": r["ts"] - base,
            "dur": r["dur"],
            "pid": r.get("pid", 0),
            "tid": r.get("pid", 0),
            "args": r.get("args", {}),
        }
        for r in records
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(jsonl_path: str, out_path: str) -> int:
    """Convert a JSONL trace file to Chrome JSON; returns event count."""
    chrome = to_chrome(load_trace(jsonl_path))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(chrome, handle)
    return len(chrome["traceEvents"])


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.tracer",
        description="Convert a repro JSONL span trace to Chrome "
        "trace_event JSON (open in chrome://tracing or Perfetto)",
    )
    parser.add_argument("trace", help="JSONL trace written by --trace")
    parser.add_argument("out", help="Chrome trace_event JSON to write")
    args = parser.parse_args(argv)
    count = write_chrome(args.trace, args.out)
    print(f"{args.out}: {count} events")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
