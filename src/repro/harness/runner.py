"""Multi-solver experiment runner (the engine behind Table 1 and Figs 4-6).

Runs every solver on every problem of a suite with per-run timeouts,
records verdicts + wall times, checks each verdict against the problem's
ground truth (a wrong SAT/UNSAT is counted as *incorrect* and excluded
from the solved tallies, mirroring how solver competitions score), and
aggregates into the paper's tables and figures.
"""

from __future__ import annotations

import contextlib
import logging
import time
import traceback as traceback_mod
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.benchgen.suite import Problem, Suite
from repro.chc.transform import preprocess
from repro.core.result import SolveResult, Status
from repro.core.ringen import RInGen, RInGenConfig
from repro.mace.pool import EnginePool, signature_fingerprint
from repro.obs import runtime as obs_runtime
from repro.solvers.elem import ElemConfig, ElemSolver
from repro.solvers.induct import InductConfig, InductSolver
from repro.solvers.sizeelem import SizeElemConfig, SizeElemSolver
from repro.solvers.verimap import VeriMapConfig, VeriMapSolver

logger = logging.getLogger(__name__)

SOLVER_ORDER = ["ringen", "eldarica", "spacer", "cvc4-ind", "verimap-iddt"]

# Table 1's header row: the representation class of each solver.
REPRESENTATION_ROW = {
    "ringen": "Reg",
    "eldarica": "SizeElem",
    "spacer": "Elem",
    "cvc4-ind": "-",
    "verimap-iddt": "-",
}


def make_solver(
    name: str,
    timeout: float,
    *,
    engine_pool: Optional[EnginePool] = None,
):
    """Instantiate a solver under its Table 1 alias.

    ``engine_pool`` (campaign batch mode) only concerns RInGen — the
    baselines have no incremental engine to share and ignore it.
    """
    if name == "ringen":
        return RInGen(RInGenConfig(timeout=timeout, engine_pool=engine_pool))
    if name == "eldarica":
        return SizeElemSolver(SizeElemConfig(timeout=timeout))
    if name == "spacer":
        return ElemSolver(ElemConfig(timeout=timeout))
    if name == "cvc4-ind":
        return InductSolver(InductConfig(timeout=timeout))
    if name == "verimap-iddt":
        return VeriMapSolver(VeriMapConfig(timeout=timeout))
    raise ValueError(f"unknown solver {name!r}")


@dataclass
class RunRecord:
    """One (problem, solver) measurement."""

    problem: Problem
    solver: str
    status: Status
    elapsed: float
    correct: bool
    model_size: Optional[int] = None
    reason: str = ""
    # solver-reported extras (e.g. the model finder's incremental-engine
    # statistics under "finder"), surfaced by the report generator
    details: dict = field(default_factory=dict)
    # execution-layer outcome: None for an honest solver verdict;
    # "crash" / "timeout_hard" / "oom" when the task failed and the
    # supervisor turned the failure into a structured verdict.  These
    # records stay UNKNOWN for scoring (they are non-answers, not wrong
    # answers) but the report surfaces them in a dedicated errors
    # section instead of folding them into the unknowns.
    error_kind: Optional[str] = None
    attempts: int = 1
    traceback: str = ""

    @property
    def solved(self) -> bool:
        return self.correct and self.status is not Status.UNKNOWN

    @property
    def errored(self) -> bool:
        return self.error_kind is not None


@dataclass
class Campaign:
    """All measurements of one experiment run."""

    records: list[RunRecord] = field(default_factory=list)
    timeout: float = 1.0
    # campaign batch mode: cross-problem engine reuse counters from the
    # shared EnginePool (None when every problem got a fresh engine)
    pool_stats: Optional[dict] = None
    # supervised execution: retry/resume/worker accounting from
    # repro.exec (None for the plain in-process fast path), plus
    # whether the campaign was stopped by SIGINT/SIGTERM — in which
    # case the records are the partial, journaled prefix
    exec_stats: Optional[dict] = None
    interrupted: bool = False
    # observability: the merged metrics snapshot of the run (see
    # repro.obs.metrics) when metrics collection was on, else None
    obs: Optional[dict] = None

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    # -- selections ------------------------------------------------------
    def for_solver(self, solver: str) -> list[RunRecord]:
        return [r for r in self.records if r.solver == solver]

    def for_suite(self, suite: str) -> list[RunRecord]:
        return [r for r in self.records if r.problem.suite == suite]

    def record(self, problem_name: str, solver: str) -> Optional[RunRecord]:
        for r in self.records:
            if r.problem.name == problem_name and r.solver == solver:
                return r
        return None

    # -- Table 1 aggregation ----------------------------------------------
    def count(self, suite: str, solver: str, status: Status) -> int:
        return sum(
            1
            for r in self.records
            if r.problem.suite == suite
            and r.solver == solver
            and r.status is status
            and r.correct
        )

    def unique_count(
        self, suite: str, solver: str, status: Status, others: Sequence[str]
    ) -> int:
        """Problems only this solver answered with ``status`` (correctly)."""
        mine = {
            r.problem.name
            for r in self.records
            if r.problem.suite == suite
            and r.solver == solver
            and r.status is status
            and r.correct
        }
        for other in others:
            if other == solver:
                continue
            mine -= {
                r.problem.name
                for r in self.records
                if r.problem.suite == suite
                and r.solver == other
                and r.status is status
                and r.correct
            }
        return len(mine)

    # -- figure data --------------------------------------------------------
    def scatter_points(
        self, competitor: str, *, sat_only: bool = False
    ) -> list[tuple[float, float, str]]:
        """Figure 4/5 points: (ringen time, competitor time, problem).

        Unsolved runs sit at the timeout value (the paper places timeouts
        on the dashed boundary lines).
        """
        points = []
        by_name: dict[str, dict[str, RunRecord]] = {}
        for r in self.records:
            by_name.setdefault(r.problem.name, {})[r.solver] = r
        for name, runs in by_name.items():
            mine = runs.get("ringen")
            theirs = runs.get(competitor)
            if mine is None or theirs is None:
                continue
            if sat_only and not (
                (mine.solved and mine.status is Status.SAT)
                or (theirs.solved and theirs.status is Status.SAT)
            ):
                continue
            x = mine.elapsed if mine.solved else self.timeout
            y = theirs.elapsed if theirs.solved else self.timeout
            points.append((x, y, name))
        return points

    def model_size_histogram(self) -> dict[int, int]:
        """Figure 6: distribution of finite-model sizes among SAT answers."""
        histogram: dict[int, int] = {}
        for r in self.records:
            if (
                r.solver == "ringen"
                and r.status is Status.SAT
                and r.correct
                and r.model_size is not None
            ):
                histogram[r.model_size] = histogram.get(r.model_size, 0) + 1
        return histogram


def batch_order(problems: Sequence[Problem]) -> list[Problem]:
    """Order a batch so signature-compatible problems run back-to-back.

    The engine pool keys persistent engines by signature fingerprint, so
    grouping compatible problems maximizes warm-engine hits and keeps
    the working set to one engine at a time (the pool's LRU never
    thrashes).  Problems are fingerprinted on their *preprocessed* form
    — the same form RInGen hands to the pool, so the schedule groups
    exactly by the pool's engine keys (preprocessing can add ``diseq``
    predicates that split raw-compatible systems apart).  Grouping is
    stable: groups appear in first-occurrence order and problems keep
    their relative order within a group.
    """
    groups: dict[tuple, list[Problem]] = {}
    order: list[tuple] = []
    for problem in problems:
        try:
            key = signature_fingerprint(preprocess(problem.build()))
        except Exception as error:
            # an unfingerprintable problem still runs (in its own group,
            # on a fresh engine) — but a build/preprocess failure here
            # predicts a failure at solve time, so say so instead of
            # hiding it
            logger.warning(
                "batch_order: could not fingerprint %s/%s (%s: %s); "
                "scheduling it unshared",
                problem.suite,
                problem.name,
                type(error).__name__,
                error,
            )
            key = ("unfingerprintable", problem.suite, problem.name)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(problem)
    return [p for key in order for p in groups[key]]


def run_problem(
    problem: Problem,
    solver_name: str,
    timeout: float,
    *,
    engine_pool: Optional[EnginePool] = None,
) -> RunRecord:
    """Run one solver on one problem and score the verdict."""
    task_id = task_id_for(problem, solver_name)
    obs_runtime.task_started(task_id)
    tracer = obs_runtime.TRACER
    span_cm = (
        tracer.span("task", {"task": task_id})
        if tracer is not None
        else contextlib.nullcontext()
    )
    try:
        with span_cm:
            return _run_problem_impl(
                problem, solver_name, timeout, engine_pool=engine_pool
            )
    finally:
        obs_runtime.task_finished()


def _run_problem_impl(
    problem: Problem,
    solver_name: str,
    timeout: float,
    *,
    engine_pool: Optional[EnginePool] = None,
) -> RunRecord:
    start = time.monotonic()
    try:
        solver = make_solver(solver_name, timeout, engine_pool=engine_pool)
        system = problem.build()
        result = solver.solve(system)
    except Exception as error:
        # A crash is a structured error verdict, not an honest
        # "unknown": the record keeps the exception type and traceback
        # and the report lists it in a dedicated errors section.
        logger.warning(
            "%s/%s %s crashed: %s: %s",
            problem.suite,
            problem.name,
            solver_name,
            type(error).__name__,
            error,
        )
        return RunRecord(
            problem,
            solver_name,
            Status.UNKNOWN,
            time.monotonic() - start,
            True,
            reason=f"error:crash: {type(error).__name__}: {error}",
            details={"exception_type": type(error).__name__},
            error_kind="crash",
            traceback=traceback_mod.format_exc(limit=20),
        )
    elapsed = time.monotonic() - start
    correct = (
        result.status is Status.UNKNOWN
        or result.status.value == problem.expected_status
    )
    model_size = None
    if result.is_sat:
        model_size = result.details.get("model_size")
    return RunRecord(
        problem,
        solver_name,
        result.status,
        elapsed,
        correct,
        model_size,
        result.reason,
        dict(result.details),
    )


def run_campaign(
    suites: Sequence[Suite],
    *,
    solvers: Optional[Sequence[str]] = None,
    timeout: float = 1.0,
    progress: Optional[Callable[[str], None]] = None,
    problem_filter: Optional[Callable[[Problem], bool]] = None,
    share_engines: bool = False,
    engine_pool: Optional[EnginePool] = None,
    isolate: bool = False,
    journal_path: Optional[str] = None,
    resume: bool = False,
    policy: Optional[object] = None,
    engine_cache_dir: Optional[str] = None,
) -> Campaign:
    """Run the full (suite x solver) product.

    ``share_engines`` switches on campaign batch mode: one
    :class:`~repro.mace.pool.EnginePool` spans the whole run (pass
    ``engine_pool`` to supply your own), problems are scheduled in
    :func:`batch_order` so signature-compatible systems run
    back-to-back, and the pool's cross-problem reuse counters land in
    ``Campaign.pool_stats``.  Verdicts are unaffected — the pool only
    changes which solver state the model finder starts from.
    ``engine_cache_dir`` additionally persists engines to a disk warm
    cache, so a later campaign over the same benchmark families starts
    from this one's solver state (flushed when the run completes).

    Supervised execution (``isolate``, ``journal_path``, ``resume``, or
    an explicit :class:`repro.exec.ExecPolicy` in ``policy``) routes
    every task through :mod:`repro.exec`: worker subprocesses with a
    hard watchdog and memory cap, retry with backoff for transient
    failures, a flushed JSONL journal with checkpoint/resume, and
    graceful SIGINT/SIGTERM shutdown that returns the partial campaign
    (``Campaign.interrupted``).  In isolated + ``share_engines`` mode
    each signature-compatible batch rides one worker with a private
    engine pool — the in-process sharing, preserved per worker.  The
    plain in-process path below stays the default and is byte-for-byte
    the pre-supervisor behaviour.
    """
    solvers = list(solvers or SOLVER_ORDER)
    if isolate or journal_path or resume or policy is not None:
        return _run_campaign_supervised(
            suites,
            solvers=solvers,
            timeout=timeout,
            progress=progress,
            problem_filter=problem_filter,
            share_engines=share_engines,
            engine_pool=engine_pool,
            isolate=isolate,
            journal_path=journal_path,
            resume=resume,
            policy=policy,
            engine_cache_dir=engine_cache_dir,
        )
    campaign = Campaign(timeout=timeout)
    pool = engine_pool
    if share_engines and pool is None:
        pool = EnginePool(cache_dir=engine_cache_dir)
    tracer = obs_runtime.TRACER
    span_cm = (
        tracer.span(
            "campaign", {"suites": len(suites), "solvers": list(solvers)}
        )
        if tracer is not None
        else contextlib.nullcontext()
    )
    with span_cm:
        for suite in suites:
            problems = [
                p
                for p in suite
                if problem_filter is None or problem_filter(p)
            ]
            if pool is not None:
                problems = batch_order(problems)
            for problem in problems:
                for solver_name in solvers:
                    record = run_problem(
                        problem, solver_name, timeout, engine_pool=pool
                    )
                    campaign.add(record)
                    if progress is not None:
                        progress(
                            f"{problem.suite}/{problem.name} "
                            f"{solver_name}: {record.status} "
                            f"({record.elapsed:.2f}s)"
                        )
    if pool is not None:
        pool.flush_cache()
        campaign.pool_stats = pool.as_dict()
    _publish_campaign_obs(campaign)
    return campaign


def task_id_for(problem: Problem, solver_name: str) -> str:
    """The stable journal/task key of one (problem, solver) pair."""
    return f"{problem.suite}/{problem.name}/{solver_name}"


def _publish_campaign_obs(campaign: Campaign) -> None:
    """Fold the finished campaign into the metrics registry (if any)
    and hang the merged snapshot on ``campaign.obs``.

    Per-record: the ``task.elapsed`` timing histogram, status and error
    tallies, and the model finder's stats dict.  Campaign-level: the
    pool and execution-layer counters.  The ``phase.*`` and ``sat.*``
    counters were already published at solve time by the instrumented
    layers themselves.
    """
    metrics = obs_runtime.METRICS
    if metrics is None:
        return
    for r in campaign.records:
        metrics.timing("task.elapsed", r.elapsed)
        metrics.inc(f"task.status.{r.status.value}")
        if r.error_kind:
            metrics.inc(f"task.error.{r.error_kind}")
        finder = r.details.get("finder")
        if isinstance(finder, dict):
            metrics.publish("finder", finder)
    if campaign.pool_stats:
        metrics.publish("pool", campaign.pool_stats)
    if campaign.exec_stats:
        metrics.publish(
            "exec",
            {
                k: v
                for k, v in campaign.exec_stats.items()
                # pool counters go in under their own prefix above; the
                # last heartbeat is a point sample, not a counter
                if k not in ("pool_stats", "last_heartbeat")
            },
        )
    campaign.obs = metrics.snapshot()


def _record_from_exec(problem: Problem, solver_name: str, rec: dict) -> RunRecord:
    """Rehydrate a supervisor verdict dict into a :class:`RunRecord`."""
    return RunRecord(
        problem,
        solver_name,
        Status(rec.get("status", "unknown")),
        float(rec.get("elapsed") or 0.0),
        bool(rec.get("correct", True)),
        rec.get("model_size"),
        rec.get("reason") or "",
        dict(rec.get("details") or {}),
        error_kind=rec.get("error_kind"),
        attempts=int(rec.get("attempts") or 1),
        traceback=rec.get("traceback") or "",
    )


def _run_campaign_supervised(
    suites: Sequence[Suite],
    *,
    solvers: Sequence[str],
    timeout: float,
    progress: Optional[Callable[[str], None]],
    problem_filter: Optional[Callable[[Problem], bool]],
    share_engines: bool,
    engine_pool: Optional[EnginePool],
    isolate: bool,
    journal_path: Optional[str],
    resume: bool,
    policy: Optional[object],
    engine_cache_dir: Optional[str] = None,
) -> Campaign:
    """The supervised campaign loop (see :func:`run_campaign`)."""
    # imported here so the default fast path never pays for (or cycles
    # with) the execution layer
    from repro.exec.supervisor import ExecPolicy, TaskSpec, execute_tasks

    if policy is None:
        policy = ExecPolicy()
    policy.isolate = policy.isolate or isolate
    policy.share_engines = policy.share_engines or share_engines
    if engine_cache_dir:
        # ship the warm-cache location to workers through the solver
        # options (RInGenConfig.engine_cache_dir); the journal's config
        # fingerprint deliberately ignores this key
        opts = dict(policy.solver_opts or {})
        opts.setdefault("engine_cache_dir", engine_cache_dir)
        policy.solver_opts = opts
    tasks: list[TaskSpec] = []
    task_problems: dict[str, tuple[Problem, str]] = {}
    index = 0
    for suite in suites:
        problems = [
            p
            for p in suite
            if problem_filter is None or problem_filter(p)
        ]
        if policy.share_engines:
            problems = batch_order(problems)
        for problem in problems:
            group_key = None
            if policy.share_engines and policy.isolate:
                try:
                    group_key = signature_fingerprint(
                        preprocess(problem.build())
                    )
                except Exception as error:
                    logger.warning(
                        "could not fingerprint %s/%s for batching "
                        "(%s); running it unshared",
                        problem.suite,
                        problem.name,
                        error,
                    )
            for solver_name in solvers:
                tid = task_id_for(problem, solver_name)
                tasks.append(
                    TaskSpec(
                        task_id=tid,
                        solver=solver_name,
                        timeout=timeout,
                        expected_status=problem.expected_status,
                        problem=problem,
                        index=index,
                        # only ringen rides the engine pool; batching
                        # the baselines by signature would be pointless
                        group_key=(
                            group_key if solver_name == "ringen" else None
                        ),
                    )
                )
                task_problems[tid] = (problem, solver_name)
                index += 1
    pool = engine_pool
    if policy.share_engines and not policy.isolate and pool is None:
        pool = EnginePool(cache_dir=engine_cache_dir)
    tracer = obs_runtime.TRACER
    span_cm = (
        tracer.span(
            "campaign",
            {
                "suites": len(suites),
                "solvers": list(solvers),
                "isolate": policy.isolate,
            },
        )
        if tracer is not None
        else contextlib.nullcontext()
    )
    with span_cm:
        records, stats = execute_tasks(
            tasks,
            policy,
            journal_path=journal_path,
            resume=resume,
            progress=progress,
            engine_pool=pool,
        )
    campaign = Campaign(timeout=timeout)
    for task in tasks:
        rec = records.get(task.task_id)
        if rec is None:
            continue  # interrupted before this task ran
        problem, solver_name = task_problems[task.task_id]
        campaign.add(_record_from_exec(problem, solver_name, rec))
    campaign.exec_stats = stats.as_dict()
    campaign.interrupted = stats.interrupted
    if pool is not None:
        pool.flush_cache()
        campaign.pool_stats = pool.as_dict()
    elif stats.pool_stats is not None:
        campaign.pool_stats = stats.pool_stats
    _publish_campaign_obs(campaign)
    return campaign
