"""Multi-solver experiment runner (the engine behind Table 1 and Figs 4-6).

Runs every solver on every problem of a suite with per-run timeouts,
records verdicts + wall times, checks each verdict against the problem's
ground truth (a wrong SAT/UNSAT is counted as *incorrect* and excluded
from the solved tallies, mirroring how solver competitions score), and
aggregates into the paper's tables and figures.  :func:`run_campaign`
only builds the tasks: :func:`repro.exec.execute_tasks` runs them (in
the campaign process by default) and assembles the campaign, so a
crashing solver, an injected fault or an interrupt is handled the same
way in every mode and by every front-end.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

from repro.benchgen.suite import Problem, Suite
from repro.chc.transform import preprocess
from repro.core.result import Status
from repro.exec.supervisor import (
    CampaignInterrupted,
    ExecPolicy,
    TaskSpec,
    execute_tasks,
)
from repro.mace.pool import EnginePool, signature_fingerprint
from repro.solvers import make_solver  # importable from here too

logger = logging.getLogger(__name__)

#: Table 1's columns, under the names of the tools each solver stands for
SOLVER_ORDER = ["ringen", "eldarica", "spacer", "cvc4-ind", "verimap-iddt"]


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
    # statistics under "finder")
    details: dict = field(default_factory=dict)
    # execution-layer outcome: None for an honest solver verdict;
    # "crash" / "timeout_hard" / "oom" when the task failed and the
    # supervisor turned the failure into a structured verdict.  These
    # records stay UNKNOWN for scoring (they are non-answers, not wrong
    # answers); ``errored`` tells them apart from honest unknowns.
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
    their relative order within a group.  :func:`run_campaign` and the
    CLI's ``campaign`` schedule their tasks in this order.
    """
    groups = signature_groups(problems, Problem.build)
    return [p for group in groups.values() for p in group]


def signature_groups(
    items: Iterable, system_of: Callable[[object], object]
) -> dict[object, list]:
    """:func:`batch_order`'s groups, used by both campaign front-ends:
    ``items`` keyed by the signature fingerprint of ``system_of(item)``
    preprocessed, in first-occurrence order."""
    groups: dict[object, list] = {}
    for item in items:
        try:
            key = signature_fingerprint(preprocess(system_of(item)))
        except Exception as error:
            # an unfingerprintable item still runs (in its own group, on
            # a fresh engine) — but a build/preprocess failure here
            # predicts a failure at solve time, so say so instead of
            # hiding it
            logger.warning(
                "could not fingerprint %s (%s: %s); scheduling it unshared",
                item,
                type(error).__name__,
                error,
            )
            key = ("unfingerprintable", str(item))
        groups.setdefault(key, []).append(item)
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
    share_engines: bool = False,
    engine_pool: Optional[EnginePool] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    policy: Optional[ExecPolicy] = None,
    engine_cache_dir: Optional[str] = None,
) -> Campaign:
    """Run the full (suite x solver) product through
    :func:`repro.exec.execute_tasks`, which assembles the campaign.

    ``share_engines`` (or passing an ``engine_pool``) switches on
    campaign batch mode: one :class:`~repro.mace.pool.EnginePool` spans
    the whole run (the caller's ``engine_pool`` in-process, else one
    built by ``execute_tasks``), problems are scheduled in
    :func:`batch_order` so signature-compatible systems run
    back-to-back, and the pool's cross-problem reuse counters land in
    ``Campaign.pool_stats``.
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
    pool, and ``Campaign.pool_stats`` sums the workers' counters (a
    caller's ``engine_pool`` goes unused).  With metrics on, the
    campaign's metrics are in :data:`repro.obs.runtime.METRICS`, which
    ``execute_tasks`` publishes once.  The caller's ``policy`` is never
    modified.
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
        problems = list(suite)
        groups = (
            signature_groups(problems, Problem.build)
            if shared
            else {None: problems}
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
    records, stats = execute_tasks(
        tasks,
        policy,
        journal_path=journal_path,
        resume=resume,
        progress=progress,
        engine_pool=engine_pool,
    )
    campaign = Campaign(
        timeout=timeout,
        pool_stats=stats.pool_stats,
        exec_stats=stats.as_dict(),
        interrupted=stats.interrupted,
    )
    for task in tasks:
        rec = records.get(task.task_id)
        if rec is not None:  # None: interrupted before this task ran
            campaign.add(_record_from_exec(task, rec))
    return campaign


def task_id_for(problem: Problem, solver_name: str) -> str:
    """The stable journal/task key of one (problem, solver) pair."""
    return f"{problem.suite}/{problem.name}/{solver_name}"


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
