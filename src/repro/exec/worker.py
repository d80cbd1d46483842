"""Worker-subprocess side of the supervised execution layer.

A worker receives one batch of tasks (usually a single task; with
campaign engine-sharing on, a whole signature-compatible group) over a
pipe, solves them one at a time and streams one structured result
message back per task, so the supervisor can apply its hard wall-clock
watchdog *per task* and keep every already-finished verdict when the
worker later dies.  All failure handling that can be done in-process is
done here — a solver exception becomes ``error:crash`` with its
traceback, a MemoryError under the RSS/address-space cap becomes
``error:oom`` — while hangs and hard kills are the supervisor's
business (a hung worker never writes, so the watchdog classifies it).

The same :func:`solve_task` drives the in-process execution path, so
isolated and in-process campaigns produce identical verdicts by
construction (``benchmarks/bench_exec.py`` gates this).
"""

from __future__ import annotations

import gc
import signal
import threading
import time
import traceback
from collections import deque
from typing import Any, Optional

from repro.exec.faults import ReproFaultPlan
from repro.obs import runtime as obs_runtime
from repro.obs.events import heartbeat_event
from repro.obs.profiler import maybe_profile, profile_path

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


def make_task_solver(
    solver_name: str,
    timeout: float,
    *,
    engine_pool=None,
    solver_opts: Optional[dict] = None,
):
    """Instantiate a solver; ``solver_opts`` are RInGen-only knobs."""
    from repro.harness.runner import make_solver

    if solver_name == "ringen" and solver_opts:
        from repro.core.ringen import RInGen, RInGenConfig

        return RInGen(
            RInGenConfig(
                timeout=timeout, engine_pool=engine_pool, **solver_opts
            )
        )
    return make_solver(solver_name, timeout, engine_pool=engine_pool)


def crash_record(
    error: BaseException, elapsed: float, *, transient: bool = False
) -> dict:
    """Structured ``error:crash`` verdict for an in-task exception."""
    kind = "oom" if isinstance(error, MemoryError) else "crash"
    return {
        "status": "unknown",
        "elapsed": elapsed,
        "correct": True,  # an error is an honest non-answer, not a wrong one
        "model_size": None,
        "reason": f"error:{kind}: {type(error).__name__}: {error}",
        "error_kind": kind,
        "exception_type": type(error).__name__,
        "traceback": traceback.format_exc(limit=20),
        "transient": transient,
        "details": {},
    }


def solve_task(
    system,
    solver_name: str,
    timeout: float,
    expected_status: Optional[str],
    *,
    engine_pool=None,
    solver_opts: Optional[dict] = None,
) -> dict:
    """Solve one task and return a plain-dict verdict record.

    Exceptions never escape: a solver crash (or recursion blowout)
    yields ``error:crash`` with the exception type and traceback, and a
    MemoryError yields ``error:oom`` — the structured verdicts the
    supervisor journals instead of losing the campaign.
    """
    start = time.monotonic()
    try:
        solver = make_task_solver(
            solver_name,
            timeout,
            engine_pool=engine_pool,
            solver_opts=solver_opts,
        )
        result = solver.solve(system)
    except MemoryError as error:
        # free the hoard before building the response under a tight cap
        gc.collect()
        return crash_record(error, time.monotonic() - start)
    except Exception as error:
        return crash_record(error, time.monotonic() - start)
    elapsed = time.monotonic() - start
    status = result.status.value
    correct = (
        status == "unknown"
        or expected_status is None
        or status == expected_status
    )
    model_size = None
    if status == "sat":
        model_size = result.details.get("model_size")
    return {
        "status": status,
        "elapsed": elapsed,
        "correct": correct,
        "model_size": model_size,
        "reason": result.reason,
        "error_kind": None,
        "exception_type": None,
        "traceback": "",
        "transient": False,
        "details": jsonable(dict(result.details)),
    }


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

        {"tasks": [{"task_id", "smt_text", "solver", "timeout",
                    "expected_status", "index", "attempt"}, ...],
         "share_engines": bool, "mem_limit_mb": int | None,
         "fault_plan": str | None, "solver_opts": dict | None,
         "engine_snapshot": dict | None,
         "obs": {"trace": bool, "metrics": bool,
                 "heartbeat": float, "profile_dir": str | None} | None}

    ``engine_snapshot`` (engine sharing only) warm-starts the worker's
    pool from a predecessor's serialized engine; each verdict message
    carries the pool's current snapshot back so the supervisor can
    reschedule the batch remainder warm after a worker death.

    ``obs`` turns the worker's own collectors on: an in-memory tracer
    whose finished spans ship back inside each verdict
    (``record["obs_spans"]``), a metrics registry whose snapshot rides
    the done message (``obs_metrics``), a heartbeat thread streaming
    live-progress samples over the verdict pipe every ``heartbeat``
    seconds (0 disables it), and per-task cProfile dumps under
    ``profile_dir``.
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
    # every pipe write (verdicts, done, heartbeats from the sampler
    # thread) holds this lock: multiprocessing.Connection sends are not
    # atomic across threads
    send_lock = threading.Lock()
    stop_heartbeat = threading.Event()
    beater: Optional[threading.Thread] = None
    if heartbeat > 0:

        def _beat() -> None:
            previous: Optional[dict] = None
            while not stop_heartbeat.wait(heartbeat):
                sample = obs_runtime.live_sample()
                if sample.get("task") is None:
                    previous = None
                    continue
                event = heartbeat_event(sample, previous)
                previous = sample
                try:
                    with send_lock:
                        conn.send(event)
                except (OSError, ValueError):
                    return  # pipe gone: the supervisor is tearing down

        beater = threading.Thread(
            target=_beat, name="repro-worker-heartbeat", daemon=True
        )
        beater.start()
    plan = ReproFaultPlan.parse(payload.get("fault_plan"))
    solver_opts = payload.get("solver_opts") or None
    # per-worker monotonic snapshot sequence, seeded from the stamp of
    # the snapshot this worker warm-started from: every snapshot this
    # worker ships outranks its seed, so the supervisor's newest-wins
    # store orders concurrent workers sharing one fingerprint by
    # progress instead of by message arrival
    snap_seq = int(payload.get("engine_snapshot_seq") or 0)
    pool = None
    if payload.get("share_engines"):
        from repro.core.ringen import RInGenConfig
        from repro.mace.pool import EnginePool

        config = RInGenConfig(**(solver_opts or {}))
        pool = EnginePool(cache_dir=config.engine_cache_dir)
        warm = payload.get("engine_snapshot")
        if warm is not None:
            # warm start: a predecessor's engine state for this batch's
            # signature (adoption failure silently falls back cold)
            pool.adopt_snapshot(warm, config.finder_options())
    from repro.chc.parser import parse_chc

    try:
        for task in payload["tasks"]:
            task_id = task["task_id"]
            start = time.monotonic()
            # registered before plan.fire so an injected hang still
            # shows up in heartbeats (that is what live progress is for)
            obs_runtime.task_started(task_id)
            tracer = obs_runtime.TRACER
            span = (
                tracer.begin("task", {"task": task_id})
                if tracer is not None
                else None
            )
            prof = (
                profile_path(profile_dir, task_id) if profile_dir else None
            )
            record: dict = {}
            try:
                with maybe_profile(prof):
                    plan.fire(
                        task_id,
                        task.get("index", 0),
                        task.get("attempt", 1),
                        isolated=True,
                        timeout=task.get("timeout"),
                        mem_limit_mb=payload.get("mem_limit_mb"),
                    )
                    system = parse_chc(task["smt_text"], name=task_id)
                    record = solve_task(
                        system,
                        task["solver"],
                        task["timeout"],
                        task.get("expected_status"),
                        engine_pool=pool,
                        solver_opts=solver_opts,
                    )
            except MemoryError as error:
                gc.collect()
                record = crash_record(error, time.monotonic() - start)
            except Exception as error:
                record = crash_record(error, time.monotonic() - start)
            finally:
                if span is not None:
                    span.args["status"] = record.get("status")
                    tracer.end(span)
                obs_runtime.task_finished()
            record["task"] = task_id
            if tracer is not None:
                # finished spans ride each verdict so the supervisor's
                # file-backed tracer absorbs them as they happen, not
                # only if the worker survives to the done message
                record["obs_spans"] = tracer.drain()
            if pool is not None:
                # ship the engine state with every verdict: whatever
                # the worker last managed to send seeds a warm restart
                # of the batch remainder if this process dies next
                snap = pool.last_snapshot()
                if snap is not None:
                    snap_seq += 1
                    record["engine_snapshot"] = snap
                    record["engine_snapshot_seq"] = snap_seq
            with send_lock:
                conn.send(record)
        done: dict = {DONE: True}
        if pool is not None:
            pool.flush_cache()
            # pool counters ride pool_stats and are published once at
            # campaign level; publishing them into this registry too
            # would double-count after the supervisor's merge
            done["pool_stats"] = pool.as_dict()
        if obs_runtime.METRICS is not None:
            done["obs_metrics"] = obs_runtime.METRICS.snapshot()
        # the heartbeat thread must not race a close()d pipe
        stop_heartbeat.set()
        if beater is not None:
            beater.join(timeout=2.0)
        with send_lock:
            conn.send(done)
    finally:
        stop_heartbeat.set()
        conn.close()


def shard_entry(conn, payload: dict) -> None:
    """Subprocess main of one parallel-sweep engine shard.

    The vector-granularity sibling of :func:`worker_entry`, serving the
    :class:`repro.mace.parallel.SweepScheduler`.  Down the pipe come
    ``{"kind": "vector", "seq", "sizes", "attempt", "deadline"}``
    dispatches, ``{"kind": "core", "bounds"}`` broadcasts from sibling
    shards, and ``{"kind": "stop"}``; every vector is answered with a
    result dict (verdict, fresh core bounds, cumulative
    ``FinderStats``, drained obs spans) and ``stop`` with a done
    message carrying the shard's metrics snapshot.  An exception dies
    *without* a done message so the scheduler's EOF path respawns the
    shard — the vector-level analogue of a result-less worker death.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    obs_runtime.forget()
    obs_cfg = payload.get("obs") or {}
    obs_runtime.configure(
        trace=bool(obs_cfg.get("trace")),
        metrics=bool(obs_cfg.get("metrics")),
    )
    from repro.mace.parallel import _ShardRunner

    tracer = obs_runtime.TRACER
    span = (
        tracer.begin("shard", {"shard": payload.get("shard")})
        if tracer is not None
        else None
    )
    crashed = False
    try:
        runner = _ShardRunner(payload)
        obs_runtime.watch_finder_stats(runner.stats)
        # Vectors buffer locally so core broadcasts arriving *behind*
        # queued dispatches are adopted before those vectors start —
        # processing the pipe strictly in order would let a shard grind
        # through its whole queue while a sibling's refutation core that
        # prunes it sits unread one message later.
        pending: deque = deque()
        stopped = False
        while not stopped or pending:
            while not stopped and (not pending or conn.poll(0)):
                msg = conn.recv()
                kind = msg.get("kind")
                if kind == "vector":
                    pending.append(msg)
                elif kind == "core":
                    runner.adopt_bounds(msg.get("bounds") or ())
                elif kind == "stop":
                    # outstanding speculation is cancelled, not drained
                    pending.clear()
                    stopped = True
            if pending:
                msg = pending.popleft()
                result = runner.solve_vector(
                    msg["seq"],
                    tuple(msg["sizes"]),
                    msg.get("attempt", 1),
                    msg.get("deadline"),
                )
                if tracer is not None:
                    # close the current shard-span segment so this
                    # result ships a parent for its vector span — a
                    # single whole-life shard span would leave every
                    # already-shipped vector dangling when a SAT
                    # commit kills the shard before its done message
                    tracer.end(span)
                    result["obs_spans"] = tracer.drain()
                    span = tracer.begin(
                        "shard", {"shard": payload.get("shard")}
                    )
                conn.send(result)
    except EOFError:
        pass  # scheduler went away (speculation cancelled): just exit
    except Exception:
        crashed = True  # die result-less; the scheduler respawns us
    finally:
        if not crashed:
            done: dict = {"kind": "done"}
            if span is not None:
                tracer.end(span)
                done["obs_spans"] = tracer.drain()
            if obs_runtime.METRICS is not None:
                done["obs_metrics"] = obs_runtime.METRICS.snapshot()
            try:
                conn.send(done)
            except (OSError, ValueError):
                pass
        conn.close()
