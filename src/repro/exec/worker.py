"""The task body of the execution layer, and its worker subprocesses.

:func:`run_task` is the one sequence every campaign task runs, in the
campaign process (the default) and in a worker alike: register the
task for live progress and open its ``task`` span, profile it if asked,
fire the fault plan, build the system, build the solver (by its name in
:data:`repro.solvers.SOLVERS`) and solve.  A
solver exception becomes ``error:crash`` with its type and traceback,
and a MemoryError (e.g. under the worker's address-space cap) becomes
``error:oom``; isolated and in-process campaigns therefore produce
identical verdicts by construction.  In-process each task runs once:
nothing there can die without a result, so only a worker's death is
retried, and only a worker is handed the address-space cap that an
injected ``oom`` trips.

A worker (:func:`worker_entry`) receives one batch of tasks (usually a
single task; with campaign engine-sharing on, a whole
signature-compatible group) over a pipe, runs them one at a time and
streams one structured result message back per task, so the supervisor
can apply its hard wall-clock watchdog *per task* and keep every
already-finished verdict, with the telemetry and pool counters riding
it, when the worker later dies.  Hangs and hard kills are the
supervisor's business (a hung worker never writes, so the watchdog
classifies it).  Heartbeats come from a
:class:`~repro.obs.events.ProgressMonitor`, as in-process.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import threading
import time
import traceback
from typing import Any, Optional

from repro.exec.faults import ReproFaultPlan
from repro.obs import runtime as obs_runtime
from repro.obs.events import EventBus, ProgressMonitor
from repro.obs.profiler import maybe_profile, profile_path
from repro.solvers import make_solver

#: message sent after the last task so the supervisor can tell a clean
#: finish from a death right after the final result
DONE = "done"


def jsonable(value: Any, depth: int = 6) -> Any:
    """Strip a result-details structure down to JSON-serializable data.

    Solver details can carry rich objects (invariants, derivations);
    only plain data survives the pipe and the journal.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if depth <= 0:
        return str(value)
    if isinstance(value, dict):
        return {
            str(k): jsonable(v, depth - 1)
            for k, v in value.items()
            if isinstance(v, (str, int, float, bool, dict, list, tuple))
            or v is None
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(v, depth - 1) for v in value]
    return str(value)


def crash_record(error: BaseException, elapsed: float) -> dict:
    """Structured ``error:crash`` verdict for an in-task exception."""
    kind = "oom" if isinstance(error, MemoryError) else "crash"
    return {
        "status": "unknown",
        "elapsed": elapsed,
        "correct": True,  # an error is an honest non-answer, not a wrong one
        "model_size": None,
        "reason": f"error:{kind}: {type(error).__name__}: {error}",
        "error_kind": kind,
        "traceback": traceback.format_exc(limit=20),
        "transient": False,
        "details": {"exception_type": type(error).__name__},
    }


def run_task(
    task,
    attempt: int,
    plan: ReproFaultPlan,
    *,
    engine_pool=None,
    solver_opts: Optional[dict] = None,
    mem_limit_mb: Optional[int] = None,
    profile_dir: Optional[str] = None,
) -> dict:
    """Run one :class:`~repro.exec.supervisor.TaskSpec` and return its
    plain-dict verdict record.

    ``elapsed`` covers building the system, constructing the solver and
    solving.  ``solver_opts`` are RInGen options (the baselines have
    none).  A solver crash yields ``error:crash`` and a MemoryError
    ``error:oom``, each with the exception type and traceback; only
    interrupts escape.  ``mem_limit_mb`` is the worker's address-space
    cap, which an injected ``oom`` trips; the campaign process has none.
    """
    obs_runtime.task_started(task.task_id)
    tracer = obs_runtime.TRACER
    span = (
        tracer.begin("task", {"task": task.task_id})
        if tracer is not None
        else None
    )
    prof = profile_path(profile_dir, task.task_id) if profile_dir else None
    record: dict = {}
    start = time.monotonic()
    try:
        with maybe_profile(prof):
            # fired after task_started so an injected hang still shows
            # up in heartbeats (that is what live progress is for)
            plan.fire(
                task.task_id, task.index, attempt, mem_limit_mb=mem_limit_mb
            )
            system = task.build_system()
            solver = make_solver(
                task.solver,
                task.timeout,
                engine_pool=engine_pool,
                **(solver_opts or {}),
            )
            result = solver.solve(system)
        elapsed = time.monotonic() - start
        status = result.status.value
        record = {
            "status": status,
            "elapsed": elapsed,
            "correct": status == "unknown"
            or task.expected_status is None
            or status == task.expected_status,
            "model_size": (
                result.details.get("model_size") if status == "sat" else None
            ),
            "reason": result.reason,
            "error_kind": None,
            "traceback": "",
            "transient": False,
            "details": jsonable(dict(result.details)),
        }
    except MemoryError as error:
        # free the hoard before building the response under a tight cap
        gc.collect()
        record = crash_record(error, time.monotonic() - start)
    except Exception as error:
        record = crash_record(error, time.monotonic() - start)
    finally:
        if span is not None:
            span.args["status"] = record.get("status")
            tracer.end(span)
        obs_runtime.task_finished()
    return record


def _apply_mem_limit(mem_limit_mb: Optional[int]) -> None:
    """Cap the worker's address space so runaway allocation raises
    MemoryError in-process (a structured ``error:oom``) instead of
    taking the machine to the kernel OOM killer."""
    if mem_limit_mb is None:
        return
    try:
        import resource
    except ImportError:  # non-POSIX: the watchdog is the only backstop
        return
    limit = mem_limit_mb << 20
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        new_hard = hard if hard != resource.RLIM_INFINITY else limit
        resource.setrlimit(
            resource.RLIMIT_AS, (min(limit, new_hard), new_hard)
        )
    except (ValueError, OSError):
        pass  # tighter than the hard cap we inherited: keep the cap


def worker_entry(conn, payload: dict) -> None:
    """Subprocess main: solve the batch, streaming one message per task.

    ``payload``::

        {"tasks": [(TaskSpec carrying smt_text, attempt), ...],
         "share_engines": bool, "mem_limit_mb": int | None,
         "fault_plan": str | None, "solver_opts": dict | None,
         "obs": {"trace": bool, "metrics": bool,
                 "heartbeat": float, "profile_dir": str | None} | None}

    ``share_engines`` gives the batch one private, freshly built
    :class:`~repro.mace.pool.EnginePool`.  Engine state reaches a
    worker only through the disk warm cache
    (``solver_opts["engine_cache_dir"]``), which the pool reads on a
    miss and is flushed to before the done message.  Each verdict
    carries the pool's cumulative counters (``record["pool_stats"]``)
    and the done message the final ones, so the supervisor keeps the
    counts of every verdict the worker sent even if it dies before
    finishing.

    ``obs`` turns the worker's own collectors on: an in-memory tracer
    and a metrics registry whose spans and metrics recorded since the
    previous message ship back inside each verdict
    (``record["obs_spans"]``, ``record["obs_metrics"]``; the done
    message carries the remainder), a progress monitor sending
    heartbeats over the verdict pipe every ``heartbeat`` seconds (0
    disables it; it stops before the done message), and per-task
    cProfile dumps under ``profile_dir``.
    """
    # the supervisor owns interrupt handling; a Ctrl-C aimed at the
    # campaign must not corrupt a worker mid-message
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _apply_mem_limit(payload.get("mem_limit_mb"))
    # the fork inherited the parent's collectors — including an open
    # file handle the parent still writes — so drop them all before
    # configuring this process's own
    obs_runtime.forget()
    obs_cfg = payload.get("obs") or {}
    obs_runtime.configure(
        trace=bool(obs_cfg.get("trace")),
        metrics=bool(obs_cfg.get("metrics")),
    )
    profile_dir = obs_cfg.get("profile_dir")
    heartbeat = float(obs_cfg.get("heartbeat") or 0.0)
    # every pipe write (verdicts, done, heartbeats from the monitor
    # thread) holds this lock: multiprocessing.Connection sends are not
    # atomic across threads
    send_lock = threading.Lock()

    def send(message: dict) -> None:
        with send_lock:
            conn.send(message)

    def send_heartbeat(event: dict) -> None:
        # a closed pipe means the supervisor is tearing down
        with contextlib.suppress(OSError, ValueError):
            send(event)

    monitor: Optional[ProgressMonitor] = None
    if heartbeat > 0:
        bus = EventBus()
        bus.subscribe(send_heartbeat)
        monitor = ProgressMonitor(bus, interval=heartbeat)
        monitor.start()
    plan = ReproFaultPlan.parse(payload.get("fault_plan"))
    solver_opts = payload.get("solver_opts") or None
    tracer = obs_runtime.TRACER
    pool = None
    if payload.get("share_engines"):
        from repro.mace.pool import EnginePool

        pool = EnginePool(
            cache_dir=(solver_opts or {}).get("engine_cache_dir")
        )
    try:
        for task, attempt in payload["tasks"]:
            record = run_task(
                task,
                attempt,
                plan,
                engine_pool=pool,
                solver_opts=solver_opts,
                mem_limit_mb=payload.get("mem_limit_mb"),
                profile_dir=profile_dir,
            )
            record["task"] = task.task_id
            # finished spans, metrics and pool counters ride each verdict
            # so the supervisor has them as they happen, not only if the
            # worker survives to the done message
            if tracer is not None:
                record["obs_spans"] = tracer.drain()
            if obs_runtime.METRICS is not None:
                record["obs_metrics"] = obs_runtime.METRICS.drain()
            if pool is not None:
                record["pool_stats"] = pool.as_dict()
            send(record)
        done: dict = {DONE: True}
        if pool is not None:
            pool.flush_cache()
            # the final counters (the flush adds snapshot_saves); they
            # are published once at campaign level, never into this
            # worker's registry, which the supervisor merges too
            done["pool_stats"] = pool.as_dict()
        if obs_runtime.METRICS is not None:
            done["obs_metrics"] = obs_runtime.METRICS.drain()
        # the monitor must not race a close()d pipe
        if monitor is not None:
            monitor.stop()
        send(done)
    finally:
        if monitor is not None:
            monitor.stop()
        conn.close()
