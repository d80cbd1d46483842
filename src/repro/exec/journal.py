"""Append-only JSONL results journal with checkpoint/resume.

One line per finished (problem, solver) task, flushed to disk as soon
as the verdict exists, so a campaign killed at any point — SIGKILL,
power loss, a watchdog tripping on the supervisor itself — loses at
most the task in flight.  ``--resume`` loads the journal back, replays
the finished verdicts into the campaign, and re-executes only the
remainder.

Format: the first line is a ``meta`` record (schema version, per-run
timeout, solver list, creation time); every other line is a ``record``
entry keyed by ``task`` id.  Loading tolerates a truncated final line
(the torn write of the fatal moment) but warns about — and skips —
any other malformed line rather than silently dropping verdicts.  A
journal whose header write was torn has no ``meta`` record, and
loading refuses it: no configuration vouches for its verdicts.
Reopening a journal whose last line is torn ends that line first, so
the next record starts a line of its own instead of merging into the
fragment.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import logging
import os
import time
from typing import Optional, TextIO

logger = logging.getLogger(__name__)

JOURNAL_VERSION = 1


class JournalError(ValueError):
    """Raised when a journal cannot be used: a record without a task
    id, a journal without a header, or a campaign configured unlike the
    journal it opens."""


#: RInGenConfig fields the fingerprint ignores: the warm cache and the
#: engine pool change where solver state comes from, never what
#: verdicts mean (a resume may point at a different or no cache), and
#: timeouts are checked on their own (see check_meta)
FINGERPRINT_EXEMPT = frozenset({"engine_cache_dir", "engine_pool", "timeout"})


def config_fingerprint(solver_opts: Optional[dict]) -> str:
    """Short stable hash of the solver configuration a journal ran under.

    Splicing verdicts produced under one solver configuration into a
    campaign running another silently mixes incomparable results, so
    the fingerprint is recorded in the journal meta and enforced on
    resume.  It hashes the *resolved* configuration — ``solver_opts``
    applied to :class:`~repro.core.ringen.RInGenConfig` with every
    default filled in — so spelling a default out changes nothing.
    """
    from repro.core.ringen import RInGenConfig

    config = RInGenConfig(**(solver_opts or {}))
    resolved = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in FINGERPRINT_EXEMPT
    }
    blob = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ResultsJournal:
    """Append-side handle: one flushed JSON line per finished task."""

    def __init__(self, path: str, *, meta: Optional[dict] = None):
        self.path = path
        self._handle: Optional[TextIO] = None
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._handle = open(path, "a", encoding="utf-8")
        if fresh:
            created = time.time()
            header = {
                "kind": "meta",
                "version": JOURNAL_VERSION,
                "created": created,
                # the same instant twice: the float for arithmetic, the
                # ISO-8601 UTC form for humans reading the raw file
                "created_iso": datetime.datetime.fromtimestamp(
                    created, tz=datetime.timezone.utc
                ).isoformat(),
            }
            header.update(meta or {})
            self._write(header)
        else:
            with open(path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                torn = tail.read(1) != b"\n"
            if torn:
                # a kill mid-write left the last line unterminated; the
                # next record appended to it would be lost with it
                self._append("\n")

    def record(self, entry: dict) -> None:
        """Append one finished task's verdict and force it to disk.

        Each entry is stamped with the wall-clock write time (``ts``,
        epoch seconds) unless the caller already supplied one, so a
        journal doubles as a campaign timeline.
        """
        if "task" not in entry:
            raise JournalError("journal records must carry a 'task' id")
        payload = {"kind": "record", **entry}
        payload.setdefault("ts", time.time())
        self._write(payload)

    def _write(self, payload: dict) -> None:
        self._append(json.dumps(payload, sort_keys=True) + "\n")

    def _append(self, text: str) -> None:
        assert self._handle is not None
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultsJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_journal(path: str) -> tuple[dict, dict[str, dict]]:
    """Read a journal back as ``(meta, {task_id: entry})``.

    Later entries for the same task win (a task journaled twice — e.g.
    once before an interrupt was fully processed — keeps its freshest
    verdict).  A truncated final line is expected after a hard kill and
    is dropped silently; malformed lines elsewhere are skipped loudly.
    A missing or empty file is an empty journal (``meta == {}``); a file
    that holds any line but no meta record — its header write was torn,
    or it is no journal at all — raises :class:`JournalError`, since no
    configuration vouches for its verdicts.
    """
    meta: dict = {}
    entries: dict[str, dict] = {}
    if not os.path.exists(path):
        return meta, entries
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                logger.warning(
                    "journal %s: dropping truncated final line "
                    "(torn write from an earlier kill)",
                    path,
                )
            else:
                logger.warning(
                    "journal %s: skipping malformed line %d", path, lineno
                )
            continue
        kind = payload.get("kind")
        if kind == "meta":
            meta = payload
        elif kind == "record" and "task" in payload:
            entries[payload["task"]] = payload
        else:
            logger.warning(
                "journal %s: skipping unrecognized line %d", path, lineno
            )
    if lines and not meta:
        raise JournalError(
            f"journal {path} has no header (a torn header write?), so "
            f"the configuration of its verdicts is unknown; use a fresh "
            f"journal"
        )
    return meta, entries


def check_meta(
    meta: dict,
    *,
    timeout: float,
    solvers: list[str],
    fingerprint: Optional[str] = None,
) -> None:
    """Validate a journal's meta against the current configuration.

    Every campaign that opens a non-empty journal calls this, whether
    it resumes the journal or only appends to it.  Mixing *timeouts* or
    *solver sets* across the splice only skews comparability, so those
    mismatches warn and proceed — the journaled verdicts are real
    verdicts.  Mixing *solver configurations* (``config_fingerprint``)
    changes what the verdicts mean, so when the journal recorded a
    fingerprint and it disagrees, the campaign is refused with a
    :class:`JournalError` naming both sides before any task runs.
    Journals written before the fingerprint existed lack it and pass,
    and so does the empty meta of a missing or empty journal
    (:func:`load_journal` refuses a non-empty one without a header).
    """
    if not meta:
        return
    j_fingerprint = meta.get("config_fingerprint")
    if (
        fingerprint is not None
        and j_fingerprint is not None
        and j_fingerprint != fingerprint
    ):
        raise JournalError(
            f"journal was recorded under solver configuration "
            f"{j_fingerprint} but this campaign is configured as "
            f"{fingerprint}; continuing it would mix incomparable verdicts "
            f"— use a fresh journal or the recorded configuration"
        )
    j_timeout = meta.get("timeout")
    if j_timeout is not None and abs(j_timeout - timeout) > 1e-9:
        logger.warning(
            "continuing journal recorded with timeout %.3fs in a "
            "campaign with timeout %.3fs",
            j_timeout,
            timeout,
        )
    j_solvers = meta.get("solvers")
    if j_solvers is not None and list(j_solvers) != list(solvers):
        logger.warning(
            "continuing journal recorded with solvers %s in a campaign "
            "with solvers %s",
            j_solvers,
            solvers,
        )
