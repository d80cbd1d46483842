"""Multi-solver experiment runner (the engine behind Table 1 and Figs 4-6).

Runs every solver on every problem of a suite with per-run timeouts,
records verdicts + wall times, checks each verdict against the problem's
ground truth (a wrong SAT/UNSAT is counted as *incorrect* and excluded
from the solved tallies, mirroring how solver competitions score), and
aggregates into the paper's tables and figures.  Every campaign runs
through the execution layer (:func:`repro.exec.execute_tasks`), in the
campaign process by default, so a crashing solver, an injected fault or
an interrupt is handled the same way in every mode.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.benchgen.suite import Problem, Suite
from repro.chc.transform import preprocess
from repro.core.result import Status
from repro.core.ringen import RInGen, RInGenConfig
from repro.exec.supervisor import (
    CampaignInterrupted,
    ExecPolicy,
    TaskSpec,
    execute_tasks,
)
from repro.mace.pool import (
    EnginePool,
    publish_pool_stats,
    signature_fingerprint,
)
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


def make_solver(name: str, timeout: float, **ringen_opts):
    """Instantiate a solver under its Table 1 alias.

    ``ringen_opts`` are :class:`~repro.core.ringen.RInGenConfig` fields
    (e.g. ``engine_pool`` for campaign batch mode, ``engine_cache_dir``
    for the warm cache); the baselines have no such options and ignore
    them.
    """
    if name == "ringen":
        return RInGen(RInGenConfig(timeout=timeout, **ringen_opts))
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
    # execution-layer accounting from repro.exec (mode, retries,
    # resumed tasks, workers), plus whether the campaign was stopped by
    # SIGINT/SIGTERM — in which case the records are the partial prefix
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
    groups = _signature_groups(problems)
    return [p for group in groups.values() for p in group]


def _signature_groups(
    problems: Sequence[Problem],
) -> dict[object, list[Problem]]:
    """:func:`batch_order`'s groups, keyed by signature fingerprint in
    first-occurrence order."""
    groups: dict[object, list[Problem]] = {}
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
        groups.setdefault(key, []).append(problem)
    return groups


def run_problem(
    problem: Problem,
    solver_name: str,
    timeout: float,
    *,
    engine_pool: Optional[EnginePool] = None,
) -> RunRecord:
    """Run one solver on one problem and score the verdict — the
    one-problem form of :func:`run_campaign`."""
    records = run_campaign(
        [Suite(problem.suite, [problem])],
        solvers=[solver_name],
        timeout=timeout,
        engine_pool=engine_pool,
    ).records
    if not records:
        raise CampaignInterrupted(
            f"interrupted before {task_id_for(problem, solver_name)} "
            f"had a verdict"
        )
    return records[0]


def run_campaign(
    suites: Sequence[Suite],
    *,
    solvers: Optional[Sequence[str]] = None,
    timeout: float = 1.0,
    progress: Optional[Callable[[str], None]] = None,
    problem_filter: Optional[Callable[[Problem], bool]] = None,
    share_engines: bool = False,
    engine_pool: Optional[EnginePool] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    policy: Optional[ExecPolicy] = None,
    engine_cache_dir: Optional[str] = None,
) -> Campaign:
    """Run the full (suite x solver) product through
    :func:`repro.exec.execute_tasks`.

    ``share_engines`` (or passing an ``engine_pool``) switches on
    campaign batch mode: one :class:`~repro.mace.pool.EnginePool` spans
    the whole run, problems are scheduled in :func:`batch_order` so
    signature-compatible systems run back-to-back, and the pool's
    cross-problem reuse counters land in ``Campaign.pool_stats``.
    Verdicts are unaffected — the pool only changes which solver state
    the model finder starts from.  ``engine_cache_dir`` persists engines
    to a disk warm cache, so a later campaign over the same benchmark
    families starts from this one's solver state (flushed when the run
    completes); without engine sharing each solve uses the cache alone.

    Tasks run in-process by default.  ``policy``
    (:class:`repro.exec.ExecPolicy`) selects worker subprocesses with a
    hard watchdog and memory cap (``isolate``), retry with backoff, and
    observability; ``journal_path``/``resume`` add a flushed JSONL
    journal with checkpoint/resume.  Exceptions become structured
    ``error:*`` verdicts, ``REPRO_FAULT_PLAN`` injects faults, and
    SIGINT/SIGTERM return the partial campaign
    (``Campaign.interrupted``).  In isolated + shared mode each
    signature-compatible batch rides one worker with a private engine
    pool.  The caller's ``policy`` is never modified.
    """
    solvers = list(solvers or SOLVER_ORDER)
    policy = policy or ExecPolicy()
    shared = (
        share_engines or engine_pool is not None or policy.share_engines
    )
    solver_opts = dict(policy.solver_opts or {})
    if engine_cache_dir:
        # ship the warm-cache location to workers and per-solve pools
        # through the solver options (RInGenConfig.engine_cache_dir); the
        # journal's config fingerprint deliberately ignores this key
        solver_opts.setdefault("engine_cache_dir", engine_cache_dir)
    policy = replace(
        policy, share_engines=shared, solver_opts=solver_opts or None
    )
    tasks: list[TaskSpec] = []
    for suite in suites:
        problems = [
            p
            for p in suite
            if problem_filter is None or problem_filter(p)
        ]
        groups = (
            _signature_groups(problems) if shared else {None: problems}
        )
        for key, group in groups.items():
            for problem in group:
                for solver_name in solvers:
                    # only ringen rides the engine pool; batching the
                    # baselines by signature would be pointless
                    ringen = solver_name == "ringen"
                    tasks.append(
                        TaskSpec(
                            task_id=task_id_for(problem, solver_name),
                            solver=solver_name,
                            timeout=timeout,
                            expected_status=problem.expected_status,
                            problem=problem,
                            index=len(tasks),
                            group_key=key if ringen else None,
                        )
                    )
    pool = engine_pool
    if shared and not policy.isolate and pool is None:
        pool = EnginePool(cache_dir=engine_cache_dir)
    tracer = obs_runtime.TRACER
    span_cm = (
        tracer.span(
            "campaign",
            {
                "suites": len(suites),
                "solvers": solvers,
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
    campaign = Campaign(
        timeout=timeout,
        exec_stats=stats.as_dict(),
        interrupted=stats.interrupted,
    )
    for task in tasks:
        rec = records.get(task.task_id)
        if rec is not None:  # None: interrupted before this task ran
            campaign.add(_record_from_exec(task, rec))
    if pool is not None:
        pool.flush_cache()
        campaign.pool_stats = pool.as_dict()
    else:
        campaign.pool_stats = stats.pool_stats
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
        publish_pool_stats(metrics, campaign.pool_stats)
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


def _record_from_exec(task: TaskSpec, rec: dict) -> RunRecord:
    """Rehydrate a verdict dict from :mod:`repro.exec` into a
    :class:`RunRecord`."""
    return RunRecord(
        task.problem,
        task.solver,
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
