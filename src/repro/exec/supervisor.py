"""Supervised, fault-tolerant task execution for solver campaigns.

The paper's finite-model search is an unbounded sweep: a pathological
CHC problem can hang propagation, exhaust memory, or blow the recursion
limit, and before this layer existed any one of those took the whole
campaign down with it.  :func:`execute_tasks` is the only way a
campaign runs (the harness's ``run_campaign`` and the CLI's
``campaign`` command only build its tasks; it owns the in-process engine
pool, ``pool_stats``, the ``campaign`` span and the one metrics
publication), and it turns individual-task failure into structured
per-task verdicts:

* by default tasks run **in-process**, one after another, each once
  through :func:`repro.exec.worker.run_task`: exceptions become
  ``error:crash`` / ``error:oom`` verdicts and the solver's cooperative
  deadline is the only timeout;
* ``isolate=True`` runs each task in a **worker subprocess** with a
  hard out-of-process **wall-clock watchdog** (``timeout * factor +
  grace``) and an optional address-space cap, so hangs become
  ``error:timeout_hard``, allocation blowups become ``error:oom``, and
  crashes become ``error:crash`` — each with the campaign continuing;
* result-less worker deaths (a kill, a fork failure, a flaky
  environment) are **retried with exponential backoff + deterministic
  jitter** up to ``max_retries`` times;
* every finished verdict is flushed to a **JSONL journal** the moment
  it exists, and ``resume=True`` replays a journal so an interrupted
  campaign re-executes only the remainder;
* SIGINT/SIGTERM trigger a **graceful shutdown**: the in-flight worker
  is killed, the journal is flushed, and the partial results are
  returned, marked ``ExecStats.interrupted`` (the harness's
  ``Campaign.interrupted``).

With campaign engine-sharing on, consecutive tasks with the same
signature ``group_key`` ride one worker, which hosts a private
:class:`~repro.mace.pool.EnginePool` — the in-process sharing mode,
preserved per worker — and streams one result per task so the watchdog
still applies per task.  If a batch worker dies midway, its finished
verdicts are kept, the task it died on is retried (or scored) on its
own, and the survivors are re-batched by ``group_key`` onto one fresh
worker.  Engine state never crosses from one worker to the next except
through the disk warm cache, which every worker's pool reads when one
is configured.

Every failure path is exercised deterministically through
:class:`~repro.exec.faults.ReproFaultPlan` (``REPRO_FAULT_PLAN``).
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import signal
import threading
import time
import zlib
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.exec import worker as worker_mod
from repro.exec.faults import WORKER_ONLY_KINDS, FaultPlanError, ReproFaultPlan
from repro.exec.journal import (
    ResultsJournal,
    check_meta,
    config_fingerprint,
    load_journal,
)
from repro.mace.pool import EnginePool, publish_pool_stats
from repro.obs import runtime as obs_runtime
from repro.obs.events import (
    EventBus,
    HeartbeatRenderer,
    Progress,
    ProgressMonitor,
    legacy_line_subscriber,
)

logger = logging.getLogger(__name__)


class CampaignInterrupted(BaseException):
    """SIGINT/SIGTERM (or an injected interrupt) stopped the campaign.

    A BaseException, like KeyboardInterrupt, so a SIGTERM arriving
    mid-solve is not scored as that task's ``error:crash``.
    """


#: the watchdog gives a worker ``timeout * HARD_TIMEOUT_FACTOR +
#: HARD_TIMEOUT_GRACE`` of wall clock per task before it is killed —
#: strictly beyond the solver's cooperative deadline, so it only fires
#: on genuinely stuck tasks
HARD_TIMEOUT_FACTOR = 1.5
HARD_TIMEOUT_GRACE = 1.0
#: a retried task waits ``BACKOFF_BASE * BACKOFF_FACTOR ** (attempt -
#: 2)`` seconds, plus up to ``BACKOFF_JITTER`` of that as jitter
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25


def hard_timeout(timeout: float) -> float:
    """The watchdog's wall-clock allowance for a task of ``timeout``."""
    return timeout * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_GRACE


def backoff(task_id: str, attempt: int) -> float:
    """Sleep before dispatching ``attempt`` (>= 2) of a task.

    Exponential in the attempt number with a deterministic jitter
    derived from the task id, so reruns are reproducible while herds of
    retried tasks still spread out.
    """
    base = BACKOFF_BASE * BACKOFF_FACTOR ** max(attempt - 2, 0)
    salt = zlib.crc32(f"{task_id}:{attempt}".encode()) % 1000
    return base * (1.0 + BACKOFF_JITTER * (salt / 1000.0))


@dataclass
class ExecPolicy:
    """Execution-layer knobs, independent of any solver configuration.

    ``isolate`` runs each task in a worker under the watchdog (see
    :func:`hard_timeout`), capped at ``mem_limit_mb`` of address space.
    ``max_retries`` bounds retries of *transient* failures (a worker
    that died without writing a result), each after a :func:`backoff`;
    deterministic faults — a structured crash, a hard timeout, an OOM —
    are never retried.  The cap and the retries apply to workers only:
    an in-process task runs once, uncapped.

    The observability block: ``heartbeat_interval`` > 0 makes workers
    (and an in-process sampling thread) emit periodic live-progress
    heartbeats onto the event bus, rendered at most once a second
    (:class:`~repro.obs.events.HeartbeatRenderer`); ``profile_dir``
    dumps one cProfile pstats file per task there.
    """

    isolate: bool = False
    max_retries: int = 2
    mem_limit_mb: Optional[int] = None
    share_engines: bool = False
    solver_opts: Optional[dict] = None
    heartbeat_interval: float = 0.0
    profile_dir: Optional[str] = None
    # None = read REPRO_FAULT_PLAN from the environment (empty plan if
    # unset); pass an explicit plan (possibly empty) to override
    fault_plan: Optional[ReproFaultPlan] = None

    def plan(self) -> ReproFaultPlan:
        if self.fault_plan is not None:
            return self.fault_plan
        return ReproFaultPlan.from_env()


@dataclass
class TaskSpec:
    """One (problem, solver) unit of supervised work.

    Harness tasks carry a live ``problem`` (rendered to SMT-LIB text
    only when a worker actually needs it); CLI tasks carry ``smt_text``
    directly.  ``group_key`` marks signature-compatible tasks: with
    engine sharing on, consecutive tasks with equal keys batch into one
    worker.
    """

    task_id: str
    solver: str
    timeout: float
    expected_status: Optional[str] = None
    problem: Optional[object] = None
    smt_text: Optional[str] = None
    index: int = 0
    group_key: Optional[object] = None

    def build_system(self):
        if self.problem is not None:
            return self.problem.build()
        from repro.chc.parser import parse_chc

        return parse_chc(self.smt_text or "", name=self.task_id)

    def payload_text(self) -> str:
        """The SMT-LIB form shipped to workers (rendered once)."""
        if self.smt_text is None:
            from repro.chc.printer import print_system

            assert self.problem is not None
            self.smt_text = print_system(self.problem.build())
        return self.smt_text


@dataclass
class ExecStats:
    """Campaign-level accounting of the execution layer."""

    tasks_total: int = 0
    tasks_executed: int = 0
    tasks_resumed: int = 0
    retries: int = 0
    workers_spawned: int = 0
    interrupted: bool = False
    isolate: bool = False
    # live progress: heartbeats seen on the verdict pipes, and the most
    # recent one (the supervisor's view of in-flight worker state)
    heartbeats_received: int = 0
    last_heartbeat: Optional[dict] = None
    error_counts: dict[str, int] = field(default_factory=dict)
    pool_stats: Optional[dict] = None

    def count_error(self, kind: Optional[str]) -> None:
        if kind:
            self.error_counts[kind] = self.error_counts.get(kind, 0) + 1

    def merge_pool(self, other: dict) -> None:
        """Fold one worker's EnginePool counters into the campaign's.

        Counters add; the ``engines_live`` gauge keeps the last
        worker's value, as :meth:`MetricsRegistry.merge` does for
        gauges.
        """
        if self.pool_stats is None:
            self.pool_stats = dict(other)
            return
        for key, value in other.items():
            if key == "engines_live":
                self.pool_stats[key] = value
            elif isinstance(value, (int, float)):
                self.pool_stats[key] = self.pool_stats.get(key, 0) + value

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# entry point


def execute_tasks(
    tasks: Sequence[TaskSpec],
    policy: Optional[ExecPolicy] = None,
    *,
    journal_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Progress] = None,
    engine_pool=None,
    bus: Optional[EventBus] = None,
) -> tuple[dict[str, dict], ExecStats]:
    """Run every task under the policy; never lose finished verdicts.

    Returns ``(records, stats)``: ``records`` maps task ids to plain
    verdict dicts (see :func:`repro.exec.worker.run_task`), including
    verdicts replayed from the journal on resume.  On SIGINT/SIGTERM
    the partial records collected so far are returned with
    ``stats.interrupted`` set — the journal already holds all of them.
    A non-empty journal must have a header
    (:func:`~repro.exec.journal.load_journal`) matching this campaign's
    solver configuration (:func:`~repro.exec.journal.check_meta`), on
    resume and append alike, or :class:`~repro.exec.journal.JournalError`
    is raised before any task runs.  An in-process campaign raises
    :class:`~repro.exec.faults.FaultPlanError` on a fault plan holding a
    worker-only kind (``flaky``, ``hang``), before the journal is opened.

    It assembles the campaign for every front-end.  In-process, with
    ``policy.share_engines`` or a caller's ``engine_pool``, all tasks
    ride one pool (the caller's, or one over ``policy.solver_opts``'s
    warm cache), flushed at the end; isolated workers host their own.
    ``stats.pool_stats`` is set on every path, the run is one
    ``campaign`` span, and metrics are published once.

    Progress reporting rides the :class:`~repro.obs.events.EventBus`:
    every verdict becomes a ``task_finished`` event and (with
    ``policy.heartbeat_interval`` > 0) live ``heartbeat`` events flow in
    between.  The legacy ``progress`` string callback still works — it
    is subscribed through an adapter rendering the historical lines —
    and callers needing structured events pass their own ``bus``.
    """
    policy = policy or ExecPolicy()
    plan = policy.plan()
    if not policy.isolate:
        for spec in plan.specs:
            if spec.kind in WORKER_ONLY_KINDS:
                raise FaultPlanError(
                    f"fault {ReproFaultPlan((spec,)).encode()} needs an "
                    "isolated campaign (isolate=True, or --isolate): "
                    "in-process no worker dies and no watchdog runs"
                )
    stats = ExecStats(tasks_total=len(tasks), isolate=policy.isolate)
    bus = bus if bus is not None else EventBus()
    if progress is not None:
        bus.subscribe(legacy_line_subscriber(progress))
        if policy.heartbeat_interval > 0:
            bus.subscribe(HeartbeatRenderer(progress))
    results: dict[str, dict] = {}
    pending = list(tasks)
    journal: Optional[ResultsJournal] = None
    if journal_path:
        meta = {
            "timeout": tasks[0].timeout if tasks else None,
            "solvers": sorted({t.solver for t in tasks}),
            "config_fingerprint": config_fingerprint(policy.solver_opts),
        }
        # appending and resuming alike: verdicts must never land under
        # (or be replayed from) a header of another configuration
        old_meta, entries = load_journal(journal_path)
        check_meta(
            old_meta,
            timeout=meta["timeout"] or 0.0,
            solvers=meta["solvers"],
            fingerprint=meta["config_fingerprint"],
        )
        if resume:
            for task in tasks:
                entry = entries.get(task.task_id)
                if entry is None:
                    continue
                record = {
                    k: v for k, v in entry.items() if k != "kind"
                }
                record["resumed"] = True
                results[task.task_id] = record
                stats.tasks_resumed += 1
            pending = [t for t in tasks if t.task_id not in results]
        journal = ResultsJournal(journal_path, meta=meta)
    pool = None if policy.isolate else engine_pool
    if pool is None and policy.share_engines and not policy.isolate:
        opts = policy.solver_opts or {}
        pool = EnginePool(cache_dir=opts.get("engine_cache_dir"))
    tracer = obs_runtime.TRACER
    span = (
        tracer.begin(
            "campaign", {"tasks": len(tasks), "isolate": policy.isolate}
        )
        if tracer is not None
        else None
    )
    try:
        with _graceful_signals():
            try:
                if policy.isolate:
                    _execute_isolated(
                        pending, policy, plan, stats, results, journal,
                        bus,
                    )
                else:
                    _execute_inprocess(
                        pending, policy, plan, stats, results, journal,
                        bus, pool,
                    )
            except (KeyboardInterrupt, CampaignInterrupted) as stop:
                logger.warning(
                    "campaign interrupted (%s): %d/%d verdicts journaled, "
                    "resume with the same journal to finish",
                    type(stop).__name__,
                    len(results),
                    len(tasks),
                )
                stats.interrupted = True
    finally:
        if journal is not None:
            journal.close()
        if span is not None:
            tracer.end(span)
    if pool is not None:
        pool.flush_cache()
        stats.pool_stats = pool.as_dict()
    _publish_campaign(results, stats)
    return results, stats


def _publish_campaign(results: dict[str, dict], stats: ExecStats) -> None:
    """Fold a finished campaign into the metrics registry, if any: per
    verdict ``task.*`` and ``finder.*``, then the ``pool.*`` and
    ``exec.*`` counters (``phase.*``/``sat.*`` came at solve time)."""
    metrics = obs_runtime.METRICS
    if metrics is None:
        return
    for record in results.values():
        metrics.timing("task.elapsed", float(record.get("elapsed") or 0.0))
        metrics.inc(f"task.status.{record.get('status', 'unknown')}")
        if record.get("error_kind"):
            metrics.inc(f"task.error.{record['error_kind']}")
        finder = (record.get("details") or {}).get("finder")
        if isinstance(finder, dict):
            metrics.publish("finder", finder)
    if stats.pool_stats:
        publish_pool_stats(metrics, stats.pool_stats)
    exec_stats = stats.as_dict()
    # pool counters went in under their own prefix; the last heartbeat
    # is a point sample, not a counter
    del exec_stats["pool_stats"], exec_stats["last_heartbeat"]
    metrics.publish("exec", exec_stats)


# ---------------------------------------------------------------------------
# shared helpers


def _check_injected_interrupt(
    task: TaskSpec, plan: ReproFaultPlan, attempt: int
) -> None:
    """Simulated SIGINT between tasks (the supervisor-level fault)."""
    spec = plan.spec_for(task.task_id, task.index)
    if spec is not None and spec.kind == "interrupt" and attempt == 1:
        raise CampaignInterrupted(
            f"injected interrupt before {task.task_id}"
        )


def _finish(
    task: TaskSpec,
    record: dict,
    attempt: int,
    stats: ExecStats,
    results: dict[str, dict],
    journal: Optional[ResultsJournal],
    bus: Optional[EventBus],
) -> None:
    record["task"] = task.task_id
    record["attempts"] = attempt
    stats.tasks_executed += 1
    kind = record.get("error_kind")
    stats.count_error(kind)
    results[task.task_id] = record
    if journal is not None:
        journal.record(record)
    if bus is not None:
        bus.emit(
            {
                "kind": "task_finished",
                "task": task.task_id,
                "status": record["status"],
                "elapsed": record["elapsed"],
                "error_kind": kind,
                "attempts": attempt,
            }
        )


@contextlib.contextmanager
def _graceful_signals():
    """Convert SIGTERM into :class:`CampaignInterrupted` (main thread).

    SIGINT already arrives as KeyboardInterrupt; both are caught at the
    same place so a terminated campaign flushes its journal and returns
    its partial results instead of dying mid-write.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def handler(signum, frame):
        raise CampaignInterrupted(f"signal {signum}")

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# ---------------------------------------------------------------------------
# in-process execution (the default)


def _execute_inprocess(
    pending: Sequence[TaskSpec],
    policy: ExecPolicy,
    plan: ReproFaultPlan,
    stats: ExecStats,
    results: dict[str, dict],
    journal: Optional[ResultsJournal],
    bus: Optional[EventBus],
    engine_pool,
) -> None:
    """Run each task once, at attempt 1, in this process.

    Nothing here can die without a result and no watchdog runs, so
    nothing is retried (worker deaths and hangs are the isolated
    path's), and no address-space cap is handed to the task.
    """
    monitor: Optional[ProgressMonitor] = None
    if bus is not None and policy.heartbeat_interval > 0:
        monitor = ProgressMonitor(bus, interval=policy.heartbeat_interval)
        monitor.start()

    def heartbeat_tally(event: dict) -> None:
        if event.get("kind") == "heartbeat":
            stats.heartbeats_received += 1
            stats.last_heartbeat = event

    if monitor is not None:
        bus.subscribe(heartbeat_tally)
    try:
        for task in pending:
            _check_injected_interrupt(task, plan, 1)
            record = worker_mod.run_task(
                task,
                1,
                plan,
                engine_pool=engine_pool,
                solver_opts=policy.solver_opts,
                profile_dir=policy.profile_dir,
            )
            _finish(task, record, 1, stats, results, journal, bus)
    finally:
        if monitor is not None:
            monitor.stop()


# ---------------------------------------------------------------------------
# isolated execution (worker subprocesses under the watchdog)

_EOF = object()


def _execute_isolated(
    pending: Sequence[TaskSpec],
    policy: ExecPolicy,
    plan: ReproFaultPlan,
    stats: ExecStats,
    results: dict[str, dict],
    journal: Optional[ResultsJournal],
    bus: Optional[EventBus],
) -> None:
    attempts = {t.task_id: 1 for t in pending}
    queue: deque[list[TaskSpec]] = deque(_batches(pending, policy))
    while queue:
        batch = queue.popleft()
        for task in batch:
            _check_injected_interrupt(
                task, plan, attempts[task.task_id]
            )
        first = batch[0]
        if attempts[first.task_id] > 1:
            time.sleep(backoff(first.task_id, attempts[first.task_id]))

        def finish(task: TaskSpec, record: dict) -> None:
            _finish(
                task, record, attempts[task.task_id], stats, results,
                journal, bus,
            )

        retry, reschedule = _run_worker_batch(
            batch, policy, plan, attempts, stats, finish, bus
        )
        # retried tasks run next (singleton workers, attempt bumped);
        # rescheduled tasks were bystanders of a batch failure and keep
        # their attempt count.  Survivors are re-batched by group_key so
        # several tasks sharing a fingerprint ride one pooled worker
        # again instead of degenerating into singletons.
        for task in reversed(retry):
            attempts[task.task_id] += 1
            stats.retries += 1
            queue.appendleft([task])
        for regrouped in _batches(reschedule, policy):
            queue.append(regrouped)


def _batches(
    tasks: Sequence[TaskSpec], policy: ExecPolicy
) -> list[list[TaskSpec]]:
    """Group consecutive same-signature tasks when engines are shared."""
    batches: list[list[TaskSpec]] = []
    for task in tasks:
        if (
            policy.share_engines
            and task.group_key is not None
            and batches
            and batches[-1][0].group_key == task.group_key
        ):
            batches[-1].append(task)
        else:
            batches.append([task])
    return batches


def _timeout_hard_record(task: TaskSpec, hard: float) -> dict:
    return {
        "status": "unknown",
        "elapsed": hard,
        "correct": True,
        "model_size": None,
        "reason": (
            f"error:timeout_hard: worker killed after {hard:.1f}s hard "
            f"wall clock (cooperative timeout {task.timeout:g}s)"
        ),
        "error_kind": "timeout_hard",
        "traceback": "",
        "transient": False,
        "details": {},
    }


def _worker_death_record(
    task: TaskSpec,
    exitcode: Optional[int],
    attempts: int,
    policy: ExecPolicy,
) -> dict:
    if exitcode is not None and exitcode < 0:
        desc = f"killed by signal {-exitcode}"
        if policy.mem_limit_mb and -exitcode == signal.SIGKILL:
            desc += " (possible kernel OOM kill)"
    else:
        desc = f"exit code {exitcode}"
    return {
        "status": "unknown",
        "elapsed": 0.0,
        "correct": True,
        "model_size": None,
        "reason": (
            f"error:crash: worker died without a result ({desc}) "
            f"after {attempts} attempts"
        ),
        "error_kind": "crash",
        "traceback": "",
        "transient": True,
        "details": {"exitcode": exitcode},
    }


def _kill(proc) -> None:
    if not proc.is_alive():
        proc.join()
        return
    proc.terminate()
    proc.join(timeout=2.0)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=5.0)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _run_worker_batch(
    batch: list[TaskSpec],
    policy: ExecPolicy,
    plan: ReproFaultPlan,
    attempts: dict[str, int],
    stats: ExecStats,
    finish: Callable[[TaskSpec, dict], None],
    bus: Optional[EventBus] = None,
) -> tuple[list[TaskSpec], list[TaskSpec]]:
    """Run one batch in one worker; classify every way it can end.

    Calls ``finish`` for each task that reached a verdict (including
    ``error:timeout_hard`` from the watchdog and terminal worker-death
    crashes) the moment the verdict exists, so an interrupt arriving
    mid-batch loses nothing already decided.  Returns
    ``(retry, reschedule)``: transient failures with budget left, and
    innocent bystanders of a batch failure.

    With engine sharing on, a batch of several tasks runs on one fresh
    pooled worker.  Each verdict message carries the worker's
    cumulative pool counters; the latest ones (the done message's, if
    it arrives) are merged into ``stats`` once, when the batch ends —
    done, death or watchdog kill — so a dying worker's counters for the
    verdicts it sent are kept.  This freight, like the worker's spans
    and metrics, is stripped from the record before it reaches the
    journal.
    """
    ctx = _mp_context()
    parent, child = ctx.Pipe(duplex=False)
    payload = {
        # workers parse the SMT-LIB text; a live problem (whose factory
        # may be a lambda) never crosses the process boundary
        "tasks": [
            (
                replace(t, problem=None, smt_text=t.payload_text()),
                attempts[t.task_id],
            )
            for t in batch
        ],
        "share_engines": policy.share_engines and len(batch) > 1,
        "mem_limit_mb": policy.mem_limit_mb,
        "fault_plan": plan.encode() if plan else None,
        "solver_opts": policy.solver_opts,
        # workers mirror the supervisor's collector configuration with
        # their own in-memory instances; spans/metrics ship back over
        # the pipe and merge here
        "obs": {
            "trace": obs_runtime.TRACER is not None,
            "metrics": obs_runtime.METRICS is not None,
            "heartbeat": policy.heartbeat_interval,
            "profile_dir": policy.profile_dir,
        },
    }
    # the worker's latest cumulative pool counters
    pool_stats: Optional[dict] = None

    def collect(record: dict) -> None:
        """Pull supervisor-side freight out of a verdict or done
        message."""
        nonlocal pool_stats
        pool_stats = record.pop("pool_stats", None) or pool_stats
        spans = record.pop("obs_spans", None)
        if spans and obs_runtime.TRACER is not None:
            obs_runtime.TRACER.absorb(spans)
        metrics = record.pop("obs_metrics", None)
        if metrics and obs_runtime.METRICS is not None:
            obs_runtime.METRICS.merge(metrics)

    def heartbeat(msg: dict) -> None:
        stats.heartbeats_received += 1
        stats.last_heartbeat = msg
        if bus is not None:
            bus.emit(msg)
    proc = ctx.Process(
        target=worker_mod.worker_entry, args=(child, payload), daemon=True
    )
    retry: list[TaskSpec] = []
    reschedule: list[TaskSpec] = []
    try:
        proc.start()
    except OSError as error:  # fork/spawn failure: transient by nature
        logger.warning("worker start failed (%s); will retry", error)
        parent.close()
        child.close()
        for task in batch:
            if attempts[task.task_id] <= policy.max_retries:
                retry.append(task)
            else:
                finish(
                    task,
                    _worker_death_record(
                        task, None, attempts[task.task_id], policy
                    ),
                )
        return retry, reschedule
    child.close()
    stats.workers_spawned += 1
    try:
        index = 0
        while index < len(batch):
            task = batch[index]
            hard = hard_timeout(task.timeout)
            deadline = time.monotonic() + hard
            msg: object = None
            while msg is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if parent.poll(min(remaining, 0.2)):
                    try:
                        msg = parent.recv()
                    except EOFError:
                        msg = _EOF
                if (
                    isinstance(msg, dict)
                    and msg.get("kind") == "heartbeat"
                ):
                    # liveness telemetry, not a verdict: surface it and
                    # keep waiting — deliberately WITHOUT resetting the
                    # watchdog deadline (a hung solver's heartbeat
                    # thread still beats; heartbeats must never keep a
                    # stuck task alive)
                    heartbeat(msg)
                    msg = None
            if msg is None:
                # the hard watchdog: no result within the wall budget
                _kill(proc)
                finish(task, _timeout_hard_record(task, hard))
                reschedule.extend(batch[index + 1:])
                return retry, reschedule
            if msg is _EOF:
                # the worker died without a result for the current task
                proc.join(timeout=5.0)
                if attempts[task.task_id] <= policy.max_retries:
                    retry.append(task)
                else:
                    finish(
                        task,
                        _worker_death_record(
                            task,
                            proc.exitcode,
                            attempts[task.task_id],
                            policy,
                        ),
                    )
                reschedule.extend(batch[index + 1:])
                return retry, reschedule
            assert isinstance(msg, dict)
            collect(msg)
            finish(task, msg)
            index += 1
        # drain the done message (pool counters + worker metrics),
        # stepping over any heartbeats still in flight
        drain_deadline = time.monotonic() + 2.0
        while time.monotonic() < drain_deadline:
            if not parent.poll(drain_deadline - time.monotonic()):
                break
            try:
                done = parent.recv()
            except EOFError:
                break
            if isinstance(done, dict) and done.get("kind") == "heartbeat":
                heartbeat(done)
                continue
            if isinstance(done, dict):
                collect(done)
            break
        proc.join(timeout=5.0)
        return retry, reschedule
    finally:
        parent.close()
        if proc.is_alive():
            _kill(proc)
        if pool_stats is not None:
            stats.merge_pool(pool_stats)
