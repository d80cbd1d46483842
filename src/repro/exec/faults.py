"""Deterministic fault injection for the supervised execution layer.

Every failure path of :mod:`repro.exec.supervisor` — worker crashes,
hangs killed by the hard watchdog, OOMs under the address-space cap,
and flaky-then-succeed worker deaths retried with backoff — must be
exercised in tests and CI, not discovered in week-long campaigns.  A
:class:`ReproFaultPlan` is a small, fully deterministic description of
which task should fail and how:

    crash@2            raise inside task index 2 (structured error:crash)
    hang@tree/size     spin forever in any task whose id contains the key
                       (the watchdog kills it: error:timeout_hard)
    oom@7              trip the memory cap, or raise MemoryError
                       without one (error:oom)
    flaky@3x2          die without a result on the first 2 attempts of
                       task 3, then succeed (exercises retry + backoff)
    interrupt@4        stop the campaign before task 4, as SIGINT would

Plans are comma-separated specs, constructed programmatically or read
from the ``REPRO_FAULT_PLAN`` environment variable, and are threaded
verbatim into worker subprocesses so the *worker* side of each failure
fires in the worker, exactly where a real fault would.  ``flaky`` models
a worker that dies and ``hang`` one the watchdog must kill, so both need
``isolate=True``: in-process no worker dies and no watchdog runs, and
:func:`~repro.exec.supervisor.execute_tasks` refuses a plan holding
either with :class:`FaultPlanError` before any task runs.  ``crash``,
``oom`` and ``interrupt`` fire in both modes.  A spec keys on the task's
campaign index when the key is an integer, and on a task-id substring
otherwise; firing is a pure function of (task, attempt), so a resumed
or retried campaign replays identically.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: exit code a flaky worker dies with (no result written) — the
#: supervisor classifies any result-less death as transient and retries
FLAKY_EXIT_CODE = 86

KINDS = ("crash", "hang", "oom", "flaky", "interrupt")
#: the kinds only a worker subprocess can model (see the module docstring)
WORKER_ONLY_KINDS = ("flaky", "hang")


class FaultPlanError(ValueError):
    """Raised on a malformed fault-plan spec string, or on a worker-only
    fault (:data:`WORKER_ONLY_KINDS`) in an in-process campaign."""


class InjectedCrash(RuntimeError):
    """A deterministic solver crash injected by a fault plan."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` fires on the task matching ``key``."""

    kind: str
    key: str
    times: int = 1  # flaky only: attempts that fail before success

    def matches(self, task_id: str, index: int) -> bool:
        if self.key.isdigit():
            return index == int(self.key)
        return self.key in task_id


class ReproFaultPlan:
    """A deterministic set of :class:`FaultSpec` entries."""

    def __init__(self, specs: tuple[FaultSpec, ...] = ()):
        self.specs = tuple(specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    # -- construction ------------------------------------------------------
    @classmethod
    def parse(cls, text: Optional[str]) -> "ReproFaultPlan":
        """Parse ``kind@key[xN],...``; empty/None gives the empty plan."""
        if not text or not text.strip():
            return cls()
        specs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "@" not in chunk:
                raise FaultPlanError(
                    f"fault spec {chunk!r} is missing '@key'"
                )
            kind, key = chunk.split("@", 1)
            kind = kind.strip()
            if kind not in KINDS:
                raise FaultPlanError(
                    f"unknown fault kind {kind!r} "
                    f"(expected one of {', '.join(KINDS)})"
                )
            times = 1
            if "x" in key:
                key, _, reps = key.rpartition("x")
                if not reps.isdigit() or not key:
                    raise FaultPlanError(
                        f"malformed flaky repetition in {chunk!r}"
                    )
                times = int(reps)
            key = key.strip()
            if not key:
                raise FaultPlanError(f"empty fault key in {chunk!r}")
            specs.append(FaultSpec(kind, key, times))
        return cls(tuple(specs))

    @classmethod
    def from_env(cls, environ=None) -> "ReproFaultPlan":
        env = os.environ if environ is None else environ
        return cls.parse(env.get(FAULT_PLAN_ENV))

    def encode(self) -> str:
        """Inverse of :meth:`parse` — the form shipped to workers."""
        parts = []
        for spec in self.specs:
            suffix = f"x{spec.times}" if spec.times != 1 else ""
            parts.append(f"{spec.kind}@{spec.key}{suffix}")
        return ",".join(parts)

    # -- firing ------------------------------------------------------------
    def spec_for(self, task_id: str, index: int) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.matches(task_id, index):
                return spec
        return None

    def fire(
        self,
        task_id: str,
        index: int,
        attempt: int,
        *,
        mem_limit_mb: Optional[int] = None,
    ) -> None:
        """Inject the matching fault, if any, for this (task, attempt).

        ``crash`` raises :class:`InjectedCrash`.  ``oom`` trips the
        ``mem_limit_mb`` cap when handed one (a worker's) and raises
        MemoryError either way.  ``flaky`` kills the process without a
        result on its first ``times`` attempts, and ``hang`` spins until
        the watchdog kills it, so both fire only in workers.
        ``interrupt`` specs are supervisor-level (they simulate SIGINT
        between tasks) and never fire here.
        """
        spec = self.spec_for(task_id, index)
        if spec is None or spec.kind == "interrupt":
            return
        if spec.kind == "crash":
            raise InjectedCrash(
                f"injected crash in {task_id} (attempt {attempt})"
            )
        if spec.kind == "oom":
            if mem_limit_mb is not None:
                _trip_memory_cap(mem_limit_mb)
            raise MemoryError(f"injected oom in {task_id}")
        if spec.kind == "flaky":
            if attempt <= spec.times:
                # die without writing a result: the supervisor sees a
                # result-less worker death, exactly like a real
                # transient kill, and retries with backoff
                os._exit(FLAKY_EXIT_CODE)
            return
        if spec.kind == "hang":
            while True:  # only the out-of-process watchdog ends this
                time.sleep(0.05)


def _trip_memory_cap(mem_limit_mb: int) -> None:
    """Trip the worker's RLIMIT_AS cap, raising :class:`MemoryError`.

    A single anonymous mmap of 2x the cap fails at reservation time —
    no pages are ever touched, so the failure is instant regardless of
    how slow faulting-in memory is on the host, and nothing is left
    pinned in the exception traceback.  If the reservation somehow
    succeeds (the cap was not applied), the lazily-mapped region costs
    nothing and is released before raising.
    """
    import mmap

    try:
        probe = mmap.mmap(-1, (2 * mem_limit_mb) << 20)
    except (MemoryError, OSError, OverflowError, ValueError):
        raise MemoryError(
            f"injected oom: address-space cap ({mem_limit_mb} MiB) tripped"
        ) from None
    probe.close()
    raise MemoryError("injected oom (cap did not trip)")
