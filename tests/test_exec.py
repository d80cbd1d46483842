"""Tests for the supervised execution layer: workers, watchdog, faults,
journal/resume, and graceful interruption.

Every failure mode is driven deterministically through
:class:`repro.exec.ReproFaultPlan` — the same plans CI's fault-injection
job runs against a full campaign.
"""

import os
import signal
import threading
import time

import pytest

from repro.benchgen.builders import nat_mod_system
from repro.benchgen.suite import Problem, Suite
from repro.core.result import Status
from repro.exec import (
    CampaignInterrupted,
    ExecPolicy,
    FaultPlanError,
    ReproFaultPlan,
    ResultsJournal,
    load_journal,
)
from repro.exec import faults
from repro.exec.faults import FaultSpec
from repro.exec import supervisor
from repro.exec.journal import JournalError
from repro.exec.supervisor import _graceful_signals
from repro.harness.runner import run_campaign, run_problem, task_id_for
from repro.mace.pool import EnginePool
from repro.problems import (
    diag_system,
    even_system,
    incdec_system,
    odd_unsat_system,
)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retries wait 10 ms instead of 50 ms."""
    monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.01)


def tiny_suite() -> Suite:
    suite = Suite("Tiny")
    suite.add("even", "parity", even_system, "sat")
    suite.add("incdec", "offset", incdec_system, "sat")
    suite.add("broken", "broken", odd_unsat_system, "unsat")
    return suite


def nat_mod_suite() -> Suite:
    """The tiny suite plus five ``nat_mod`` problems (safe iff
    ``c % m != 0``): the isolated-vs-in-process parity suite."""
    suite = tiny_suite()
    for m in (2, 3, 4):
        for r, c in ((0, 1), (1, 2)):
            if c % m == 0:
                continue
            suite.add(
                f"nat-mod{m}-r{r}-c{c}",
                "nat_mod",
                (lambda m=m, r=r, c=c: nat_mod_system(m, r, c)),
                "sat",
            )
    return suite


def fault10_suite() -> Suite:
    """Ten quick problems with known answers (acceptance-style campaign)."""
    suite = Suite("Fault10")
    factories = [even_system, incdec_system, odd_unsat_system]
    expected = ["sat", "sat", "unsat"]
    for i in range(10):
        suite.add(f"p{i}", "fam", factories[i % 3], expected[i % 3])
    return suite


def verdicts(campaign):
    """The comparable core of a campaign: per-task (status, correctness)."""
    return {
        task_id_for(r.problem, r.solver): (r.status.value, r.correct)
        for r in campaign.records
    }


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = ReproFaultPlan.parse("crash@2,hang@tree/size,oom@7,flaky@3x2")
        assert len(plan) == 4
        assert plan.encode() == "crash@2,hang@tree/size,oom@7,flaky@3x2"
        assert ReproFaultPlan.parse(plan.encode()).encode() == plan.encode()

    def test_empty_plans(self):
        assert not ReproFaultPlan.parse(None)
        assert not ReproFaultPlan.parse("")
        assert not ReproFaultPlan.parse("  ")
        assert ReproFaultPlan.parse("crash@1")

    def test_parse_errors(self):
        with pytest.raises(FaultPlanError):
            ReproFaultPlan.parse("crash2")  # missing @key
        with pytest.raises(FaultPlanError):
            ReproFaultPlan.parse("explode@2")  # unknown kind
        with pytest.raises(FaultPlanError):
            ReproFaultPlan.parse("crash@")  # empty key
        with pytest.raises(FaultPlanError):
            ReproFaultPlan.parse("flaky@x3")  # repetition without key

    def test_from_env(self):
        plan = ReproFaultPlan.from_env({"REPRO_FAULT_PLAN": "crash@0"})
        assert len(plan) == 1 and plan.specs[0].kind == "crash"
        assert not ReproFaultPlan.from_env({})

    def test_matching_by_index_and_substring(self):
        spec = FaultSpec("crash", "3")
        assert spec.matches("Suite/p9/ringen", 3)
        assert not spec.matches("Suite/p3/ringen", 4)
        by_id = FaultSpec("hang", "p3/ringen")
        assert by_id.matches("Suite/p3/ringen", 0)
        assert not by_id.matches("Suite/p30/eldarica", 0)

    def test_crash_fires_only_on_match(self):
        plan = ReproFaultPlan.parse("crash@1")
        plan.fire("t0", 0, 1)  # no match: no raise
        with pytest.raises(Exception, match="injected crash"):
            plan.fire("t1", 1, 1)

    def test_flaky_succeeds_after_n_attempts(self, monkeypatch):
        class Exited(Exception):
            pass

        def fake_exit(code):
            raise Exited(code)

        monkeypatch.setattr(faults.os, "_exit", fake_exit)
        plan = ReproFaultPlan.parse("flaky@0x2")
        for attempt in (1, 2):
            with pytest.raises(Exited) as exited:
                plan.fire("t0", 0, attempt)
            assert exited.value.args == (faults.FLAKY_EXIT_CODE,)
        plan.fire("t0", 0, 3)  # succeeds


class TestJournal:
    def test_roundtrip_and_later_entry_wins(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with ResultsJournal(path, meta={"timeout": 1.0}) as journal:
            journal.record({"task": "a", "status": "unknown"})
            journal.record({"task": "b", "status": "sat"})
            journal.record({"task": "a", "status": "sat"})
        meta, entries = load_journal(path)
        assert meta["timeout"] == 1.0 and meta["kind"] == "meta"
        assert set(entries) == {"a", "b"}
        assert entries["a"]["status"] == "sat"  # later entry wins

    def test_record_requires_task_id(self, tmp_path):
        with ResultsJournal(str(tmp_path / "j.jsonl")) as journal:
            with pytest.raises(JournalError):
                journal.record({"status": "sat"})

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with ResultsJournal(path) as journal:
            journal.record({"task": "a", "status": "sat"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "task": "b", "sta')  # torn
        meta, entries = load_journal(path)
        assert set(entries) == {"a"}

    def test_reopen_after_torn_write_keeps_the_next_record(self, tmp_path):
        # resuming a hard-killed campaign: the first verdict written
        # after the reopen must not merge into the torn fragment
        path = str(tmp_path / "torn.jsonl")
        with ResultsJournal(path) as journal:
            journal.record({"task": "a", "status": "sat"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "task": "b", "sta')  # torn
        with ResultsJournal(path) as journal:
            journal.record({"task": "b", "status": "sat"})
            journal.record({"task": "c", "status": "sat"})
        meta, entries = load_journal(path)
        assert set(entries) == {"a", "b", "c"}

    def test_missing_journal_is_empty(self, tmp_path):
        meta, entries = load_journal(str(tmp_path / "nope.jsonl"))
        assert meta == {} and entries == {}

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultsJournal(path, meta={"timeout": 1.0}) as journal:
            journal.record({"task": "a", "status": "sat"})
        with ResultsJournal(path, meta={"timeout": 2.0}) as journal:
            journal.record({"task": "b", "status": "unsat"})
        with open(path, encoding="utf-8") as handle:
            headers = [l for l in handle if '"kind": "meta"' in l]
        assert len(headers) == 1
        meta, entries = load_journal(path)
        assert meta["timeout"] == 1.0 and set(entries) == {"a", "b"}


class TestRunProblemErrors:
    def test_crash_captures_type_and_traceback(self):
        def exploding_factory():
            raise RuntimeError("boom at build time")

        problem = Problem("bad", "Tiny", "fam", exploding_factory, "sat")
        record = run_problem(problem, "ringen", timeout=1.0)
        assert record.status is Status.UNKNOWN
        assert record.errored and record.error_kind == "crash"
        assert record.details["exception_type"] == "RuntimeError"
        assert "boom at build time" in record.reason
        assert record.reason.startswith("error:crash:")
        assert "exploding_factory" in record.traceback


class TestSupervisedInprocess:
    def test_default_campaign_runs_through_the_supervisor(self):
        campaign = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0
        )
        assert campaign.exec_stats["isolate"] is False
        assert campaign.exec_stats["tasks_executed"] == 3
        assert all(r.solved for r in campaign.records)

    @pytest.mark.parametrize("isolate", [False, True])
    def test_fault_plan_from_environment(self, monkeypatch, isolate):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "crash@0,oom@1")
        campaign = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            policy=ExecPolicy(isolate=True) if isolate else None,
        )
        even = campaign.record("even", "ringen")
        assert even.error_kind == "crash"
        assert even.details["exception_type"] == "InjectedCrash"
        assert campaign.record("incdec", "ringen").reason.startswith(
            "error:oom:"
        )
        assert campaign.record("broken", "ringen").status is Status.UNSAT

    def test_caller_policy_is_not_modified(self, tmp_path):
        policy = ExecPolicy()
        shared = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            share_engines=True, engine_cache_dir=str(tmp_path / "engines"),
            policy=policy,
        )
        assert shared.pool_stats is not None
        assert policy == ExecPolicy()
        # a later run with the same policy neither shares engines nor
        # reads the first run's warm cache
        again = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0, policy=policy
        )
        assert again.pool_stats is None
        assert all("engine_pool" not in r.details for r in again.records)

    def test_warm_cache_without_engine_sharing(self, tmp_path):
        cache = tmp_path / "engines"
        campaign = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            engine_cache_dir=str(cache),
        )
        assert campaign.pool_stats is None
        # each solve persisted its engine through a private pool
        assert list(cache.glob("*.engine"))

    def test_flaky_exhausts_retry_budget(self, fast_backoff):
        # a worker that dies on every attempt: one retry, then scored
        plan = ReproFaultPlan.parse("flaky@0x5")
        campaign = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            policy=ExecPolicy(isolate=True, fault_plan=plan, max_retries=1),
        )
        record = campaign.record("even", "ringen")
        assert record.errored and record.error_kind == "crash"
        assert record.reason == (
            "error:crash: worker died without a result "
            f"(exit code {faults.FLAKY_EXIT_CODE}) after 2 attempts"
        )
        assert record.attempts == 2
        assert campaign.exec_stats["retries"] == 1
        assert campaign.record("incdec", "ringen").solved

    def test_crash_and_oom_become_structured_verdicts(self):
        plan = ReproFaultPlan.parse("crash@0,oom@1")
        campaign = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            policy=ExecPolicy(fault_plan=plan),
        )
        assert campaign.record("even", "ringen").error_kind == "crash"
        assert campaign.record("incdec", "ringen").error_kind == "oom"
        assert campaign.record("broken", "ringen").status is Status.UNSAT

    @pytest.mark.parametrize("spec", ["flaky@0x1", "hang@1"])
    def test_worker_only_faults_are_refused(self, tmp_path, monkeypatch, spec):
        """In-process no worker dies and no watchdog runs, so a plan
        holding ``flaky`` or ``hang`` is refused before the journal is
        opened or any task runs; ``crash`` and ``oom`` still fire here
        (``test_crash_and_oom_become_structured_verdicts``)."""
        journal = tmp_path / "run.jsonl"
        ran = []
        monkeypatch.setattr(
            supervisor.worker_mod, "run_task",
            lambda *args, **kwargs: ran.append(args),
        )

        def refused(policy):
            with pytest.raises(FaultPlanError, match="isolated campaign"):
                run_campaign(
                    [tiny_suite()], solvers=["ringen"], timeout=5.0,
                    policy=policy, journal_path=str(journal),
                )

        refused(ExecPolicy(fault_plan=ReproFaultPlan.parse(f"crash@0,{spec}")))
        monkeypatch.setenv("REPRO_FAULT_PLAN", spec)
        refused(ExecPolicy())
        assert ran == []
        assert not journal.exists()

    def test_backoff_is_deterministic_and_growing(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.1)
        second = supervisor.backoff("t", 2)
        third = supervisor.backoff("t", 3)
        assert second == supervisor.backoff("t", 2)  # deterministic
        assert 0.1 <= second <= 0.1 * 1.25
        assert third > second  # exponential growth dominates jitter

    def test_cooperative_timeout_overshoot_bounded(self):
        """A genuinely slow solve is cut off close to its deadline."""
        timeout = 0.3
        start = time.monotonic()
        record = run_problem(
            Problem("diag", "Tiny", "fam", diag_system, "unsat"),
            "ringen",
            timeout,
        )
        elapsed = time.monotonic() - start
        assert record.status is Status.UNKNOWN
        assert record.details.get("timeout_hit") is True
        assert "wall-clock timeout" in record.reason
        # the cooperative deadline is checked between solver steps, so
        # some overshoot is inherent — but it must stay bounded
        assert elapsed < timeout + 2.0


class TestIsolated:
    def test_acceptance_fault_campaign(self, fast_backoff):
        """ISSUE acceptance: crash + hang + OOM + flaky in 10 problems."""
        plan = ReproFaultPlan.parse("crash@1,hang@3,oom@5,flaky@7x1")
        policy = ExecPolicy(isolate=True, fault_plan=plan, mem_limit_mb=512)
        campaign = run_campaign(
            [fault10_suite()], solvers=["ringen"], timeout=1.0,
            policy=policy,
        )
        assert len(campaign.records) == 10
        kinds = {r.error_kind for r in campaign.records if r.errored}
        assert kinds == {"crash", "timeout_hard", "oom"}
        assert campaign.record("p1", "ringen").reason.startswith(
            "error:crash:"
        )
        assert campaign.record("p3", "ringen").reason.startswith(
            "error:timeout_hard:"
        )
        assert campaign.record("p5", "ringen").reason.startswith(
            "error:oom:"
        )
        flaky = campaign.record("p7", "ringen")
        assert flaky.status is Status.SAT and flaky.attempts == 2
        assert campaign.exec_stats["retries"] == 1
        # every non-faulted task still gets its honest verdict
        for name in ("p0", "p2", "p4", "p6", "p8", "p9"):
            assert campaign.record(name, "ringen").solved, name

    @pytest.mark.parametrize(
        "suite, timeout, mem_limit_mb",
        [
            pytest.param(tiny_suite, 5.0, None, id="tiny"),
            # eight problems, each worker under a 1 GiB cap
            pytest.param(nat_mod_suite, 30.0, 1024, id="nat-mod"),
        ],
    )
    def test_verdicts_match_inprocess(self, suite, timeout, mem_limit_mb):
        inproc = run_campaign(
            [suite()], solvers=["ringen"], timeout=timeout,
            policy=ExecPolicy(),
        )
        isolated = run_campaign(
            [suite()], solvers=["ringen"], timeout=timeout,
            policy=ExecPolicy(isolate=True, mem_limit_mb=mem_limit_mb),
        )
        assert verdicts(inproc) == verdicts(isolated)
        assert isolated.exec_stats["isolate"] is True
        assert isolated.exec_stats["workers_spawned"] == len(suite())

    def test_watchdog_kills_hang_within_bound(self):
        plan = ReproFaultPlan.parse("hang@0")
        timeout = 0.2
        policy = ExecPolicy(isolate=True, fault_plan=plan)
        hard = supervisor.hard_timeout(timeout)
        start = time.monotonic()
        campaign = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=timeout,
            policy=policy,
        )
        elapsed = time.monotonic() - start
        record = campaign.record("even", "ringen")
        assert record.error_kind == "timeout_hard"
        assert record.status is Status.UNKNOWN
        # the worker spins forever; only the watchdog ends it — within
        # the hard budget plus kill/cleanup slack
        assert elapsed < hard + 5.0
        # the bystanders were rescheduled and still answered
        assert campaign.record("incdec", "ringen").solved
        assert campaign.record("broken", "ringen").solved

    def test_oom_under_memory_cap(self):
        plan = ReproFaultPlan.parse("oom@0")
        campaign = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            policy=ExecPolicy(isolate=True, fault_plan=plan,
                              mem_limit_mb=512),
        )
        record = campaign.record("even", "ringen")
        assert record.error_kind == "oom"
        assert record.reason.startswith("error:oom:")
        assert campaign.record("incdec", "ringen").solved

    def test_share_engines_batches_and_matches(self):
        # fault10 repeats three systems, so batch_order groups the
        # signature-identical copies and each group rides one worker
        shared = run_campaign(
            [fault10_suite()], solvers=["ringen"], timeout=5.0,
            share_engines=True,
            policy=ExecPolicy(isolate=True),
        )
        plain = run_campaign(
            [fault10_suite()], solvers=["ringen"], timeout=5.0,
            policy=ExecPolicy(isolate=True),
        )
        assert verdicts(shared) == verdicts(plain)
        # 10 tasks in 3 signature groups: strictly fewer workers
        assert shared.exec_stats["workers_spawned"] < 10
        assert plain.exec_stats["workers_spawned"] == 10
        # the workers' private pools report aggregated reuse counters
        assert shared.pool_stats is not None
        assert shared.pool_stats.get("problems", 0) >= 2

    def test_callers_pool_yields_to_the_workers_pools(self):
        # isolated workers host their own pools: the campaign reports
        # their counters, not those of the caller's pool, which no task
        # rode
        suite = Suite("Pooled")
        for i, factory in enumerate(
            [even_system, even_system, incdec_system, incdec_system]
        ):
            suite.add(f"p{i}", "fam", factory, "sat")
        campaign = run_campaign(
            [suite], solvers=["ringen"], timeout=5.0,
            engine_pool=EnginePool(),
            policy=ExecPolicy(isolate=True),
        )
        assert campaign.exec_stats["workers_spawned"] == 2
        assert campaign.pool_stats["problems"] == 4
        assert campaign.pool_stats["engine_hits"] == 2


class TestResumeAndInterrupt:
    def test_sigterm_becomes_campaign_interrupted(self):
        with pytest.raises(CampaignInterrupted):
            with _graceful_signals():
                os.kill(os.getpid(), signal.SIGTERM)
                # the handler raises synchronously on delivery; give the
                # kernel a beat in case delivery is deferred
                for _ in range(100):
                    time.sleep(0.01)
        # the previous handler is restored afterwards
        assert signal.getsignal(signal.SIGTERM) is not None

    def test_sigterm_mid_solve_returns_partial_campaign(self):
        suite = Suite("Slow")
        suite.add("diag", "fam", diag_system, "unsat")
        suite.add("even", "parity", even_system, "sat")
        # arrives while the slow first solve is running
        timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            campaign = run_campaign(
                [suite], solvers=["ringen"], timeout=5.0,
                policy=ExecPolicy(),
            )
        finally:
            timer.cancel()
        assert campaign.interrupted
        assert campaign.records == []

    def test_interrupt_flushes_partial_journal_then_resume(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        # injected interrupt before task 2: simulates Ctrl-C mid-campaign
        plan = ReproFaultPlan.parse("interrupt@2")
        partial = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal,
            policy=ExecPolicy(fault_plan=plan),
        )
        assert partial.interrupted
        assert len(partial.records) == 2  # only the journaled prefix
        meta, entries = load_journal(journal)
        assert len(entries) == 2

        # resume: only the remainder executes, verdicts identical to an
        # uninterrupted run
        resumed = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, resume=True,
            policy=ExecPolicy(),
        )
        assert not resumed.interrupted
        assert resumed.exec_stats["tasks_resumed"] == 2
        assert resumed.exec_stats["tasks_executed"] == 1
        reference = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            policy=ExecPolicy(),
        )
        assert verdicts(resumed) == verdicts(reference)

    def test_resume_complete_journal_executes_nothing(self, tmp_path):
        journal = str(tmp_path / "done.jsonl")
        first = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, policy=ExecPolicy(),
        )
        resumed = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, resume=True, policy=ExecPolicy(),
        )
        assert resumed.exec_stats["tasks_executed"] == 0
        assert resumed.exec_stats["tasks_resumed"] == 3
        assert verdicts(resumed) == verdicts(first)

    def test_journal_written_in_isolated_mode(self, tmp_path):
        journal = str(tmp_path / "iso.jsonl")
        campaign = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, policy=ExecPolicy(isolate=True),
        )
        meta, entries = load_journal(journal)
        assert meta["solvers"] == ["ringen"]
        assert len(entries) == 3
        for record in campaign.records:
            task_id = task_id_for(record.problem, record.solver)
            assert entries[task_id]["status"] == record.status.value


@pytest.mark.usefixtures("fast_backoff")
class TestBatchReschedule:
    """A worker death mid-batch in an isolated, engine-sharing campaign.

    fault10's batches are even p0/p3/p6/p9 (task indices 0-3), incdec
    p1/p4/p7 (4-6) and odd p2/p5/p8 (7-9); odd_unsat is refuted by the
    counterexample search, so its verdicts never reach the pool.
    """

    def shared_faulted(self, plan: str, **kwargs):
        return run_campaign(
            [fault10_suite()], solvers=["ringen"], timeout=5.0,
            share_engines=True,
            policy=ExecPolicy(
                isolate=True, fault_plan=ReproFaultPlan.parse(plan)
            ),
            **kwargs,
        )

    def test_survivors_rebatch_onto_one_pooled_worker(self):
        # flaky@4x1 kills the incdec batch's worker on its first task:
        # p1 is retried alone, and the survivors p4 and p7 ride one
        # fresh pooled worker, so the second hits the first's engine
        faulted = self.shared_faulted("flaky@4x1")
        clean = run_campaign(
            [fault10_suite()], solvers=["ringen"], timeout=5.0,
            share_engines=True,
            policy=ExecPolicy(isolate=True),
        )
        assert verdicts(faulted) == verdicts(clean)
        assert faulted.exec_stats["retries"] == 1
        assert faulted.exec_stats["workers_spawned"] == 5
        assert faulted.pool_stats["problems"] == 6
        assert faulted.pool_stats["engine_hits"] == 4

    def test_dead_worker_keeps_its_pool_counters(self):
        # flaky@5x1 kills the incdec worker after it solved p1 on its
        # pool: p1's counters rode its verdict, so they still count
        faulted = self.shared_faulted("flaky@5x1")
        pooled = sum(
            1 for r in faulted.records
            if r.details.get("engine_pool", {}).get("pooled")
        )
        assert faulted.pool_stats["problems"] == pooled
        assert pooled == 5

    def test_supervisor_freight_stays_out_of_the_journal(self, tmp_path):
        from repro.obs import runtime as obs_runtime

        journal = str(tmp_path / "freight.jsonl")
        obs_runtime.configure(trace=True, metrics=True)
        try:
            self.shared_faulted("flaky@5x1", journal_path=journal)
        finally:
            obs_runtime.reset()
        meta, entries = load_journal(journal)
        assert len(entries) == 10
        for entry in entries.values():
            assert not {"obs_spans", "obs_metrics", "pool_stats"} & set(entry)


class TestJournalConfigGuard:
    """Resume must refuse journals from an incompatible configuration."""

    def test_meta_records_fingerprint(self, tmp_path):
        journal = str(tmp_path / "meta.jsonl")
        run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, policy=ExecPolicy(),
        )
        meta, _ = load_journal(journal)
        assert meta["config_fingerprint"]

    def test_equivalent_config_spelling_resumes(self, tmp_path):
        journal = str(tmp_path / "spelled.jsonl")
        first = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, policy=ExecPolicy(),
        )
        # spelling out a default is the same configuration
        resumed = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, resume=True,
            policy=ExecPolicy(solver_opts={"symmetry_breaking": True}),
        )
        assert resumed.exec_stats["tasks_resumed"] == 3
        assert verdicts(resumed) == verdicts(first)

    def test_mismatched_config_refused(self, tmp_path):
        journal = str(tmp_path / "guard.jsonl")
        run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal,
            policy=ExecPolicy(
                solver_opts={"symmetry_breaking": True}
            ),
        )
        with pytest.raises(JournalError, match="configuration"):
            run_campaign(
                [tiny_suite()], solvers=["ringen"], timeout=5.0,
                journal_path=journal, resume=True,
                policy=ExecPolicy(
                    solver_opts={"symmetry_breaking": False}
                ),
            )

    def test_mismatched_config_refused_on_append(self, tmp_path):
        # no resume: appending under another configuration's header
        # would later let a resume replay verdicts it never produced
        journal = tmp_path / "append.jsonl"
        run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=str(journal),
            policy=ExecPolicy(
                solver_opts={"symmetry_breaking": True}
            ),
        )
        lines = journal.read_text().splitlines()
        with pytest.raises(JournalError, match="configuration"):
            run_campaign(
                [tiny_suite()], solvers=["ringen"], timeout=5.0,
                journal_path=str(journal),
                policy=ExecPolicy(
                    solver_opts={"symmetry_breaking": False}
                ),
            )
        assert journal.read_text().splitlines() == lines
        # the same configuration still appends, as --journal documents
        run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=str(journal), policy=ExecPolicy(),
        )
        assert len(journal.read_text().splitlines()) == 2 * len(lines) - 1

    @pytest.mark.parametrize("resume", [False, True])
    def test_headerless_journal_refused(self, tmp_path, monkeypatch, resume):
        # a kill during the header write leaves a journal with no meta
        # record for good; a reopen under fingerprint aaaa appends to it,
        # and a campaign under bbbb must not splice its verdicts in
        journal = tmp_path / "torn-header.jsonl"
        journal.write_text('{"kind": "meta", "version": 1, "config_finger')
        with ResultsJournal(
            str(journal), meta={"config_fingerprint": "aaaa"}
        ) as handle:
            handle.record({"task": "a", "status": "sat"})
        lines = journal.read_text().splitlines()
        monkeypatch.setattr(
            supervisor, "config_fingerprint", lambda opts: "bbbb"
        )
        with pytest.raises(JournalError, match="no header"):
            run_campaign(
                [tiny_suite()], solvers=["ringen"], timeout=5.0,
                journal_path=str(journal), resume=resume,
                policy=ExecPolicy(),
            )
        assert journal.read_text().splitlines() == lines

    def test_cache_dir_never_affects_the_fingerprint(self, tmp_path):
        journal = str(tmp_path / "cache.jsonl")
        run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, policy=ExecPolicy(),
        )
        # same configuration, different warm cache: resume is fine
        resumed = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=journal, resume=True,
            engine_cache_dir=str(tmp_path / "engines"),
            policy=ExecPolicy(),
        )
        assert resumed.exec_stats["tasks_resumed"] == 3

    def test_legacy_journal_without_fields_resumes(self, tmp_path):
        import json

        journal = tmp_path / "legacy.jsonl"
        first = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=str(journal), policy=ExecPolicy(),
        )
        # strip the fingerprint, as a journal from an older build
        lines = journal.read_text().splitlines()
        meta = json.loads(lines[0])
        meta.pop("config_fingerprint", None)
        journal.write_text(
            "\n".join([json.dumps(meta)] + lines[1:]) + "\n"
        )
        resumed = run_campaign(
            [tiny_suite()], solvers=["ringen"], timeout=5.0,
            journal_path=str(journal), resume=True, policy=ExecPolicy(),
        )
        assert resumed.exec_stats["tasks_resumed"] == 3
        assert verdicts(resumed) == verdicts(first)
