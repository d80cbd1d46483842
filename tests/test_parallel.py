"""Differential tests for the speculative parallel size sweep.

The parity contract (see ``repro/mace/parallel.py``): for any lane
count and mode, :class:`repro.mace.finder.ModelFinder` commits
candidate size vectors in exactly the one-lane sweep's order, so the
*verdict* (found / complete), the winning total size (``model_size``),
and model validity are identical to the sequential sweep's.  Model
*internals* may differ — CDCL models are history-dependent — which is
why the contract is stated over verdicts and sizes, not table contents.

Fault tolerance rides the same contract: a shard killed mid-speculation
is respawned with the refutation bounds replayed, its orphaned vectors
are rescheduled, and the verdict must not drift.
"""

import multiprocessing

import pytest

from repro.chc.transform import preprocess
from repro.exec import ReproFaultPlan
from repro.mace.finder import (
    FinderError,
    FinderOptions,
    ModelFinder,
    _SweepState,
    find_model,
)
from repro.mace.model import validate_model
from repro.mace.pool import EnginePool
from repro.obs import runtime as obs_runtime
from repro.problems import (
    diag_system,
    diseq_zz_system,
    even_system,
    incdec_system,
    odd_unsat_system,
)

# (name, factory, search kwargs) — SAT problems check the winning
# vector, UNSAT ones check that speculative refutations commit in the
# same order as the sequential sweep.
PROBLEMS = [
    ("even", even_system, {}),
    ("incdec", incdec_system, {}),
    ("diseq_zz", diseq_zz_system, {}),
    ("odd_unsat", odd_unsat_system, {"max_total_size": 5}),
    ("diag", diag_system, {"max_total_size": 5}),
]


def sequential(prepared, **kwargs):
    return ModelFinder(prepared, FinderOptions(**kwargs)).search()


def parallel(prepared, shards, mode="process", fault_plan=None, **kwargs):
    options = FinderOptions(sweep_shards=shards, **kwargs)
    return ModelFinder(
        prepared, options, mode=mode, fault_plan=fault_plan
    ).search()


def assert_parity(seq_result, par_result, label=""):
    assert par_result.found == seq_result.found, label
    assert par_result.complete == seq_result.complete, label
    assert par_result.stats.model_size == seq_result.stats.model_size, label
    if par_result.found:
        validate_model(par_result.model)


class TestDifferential:
    """Parallel verdicts match sequential, vector by committed vector."""

    @pytest.mark.parametrize("name,factory,kwargs", PROBLEMS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_process_mode_matches_sequential(self, name, factory, kwargs,
                                             shards):
        prepared = preprocess(factory())
        seq = sequential(prepared, **kwargs)
        par = parallel(prepared, shards, mode="process", **kwargs)
        assert_parity(seq, par, f"{name}/shards={shards}")

    @pytest.mark.parametrize("name,factory,kwargs", PROBLEMS)
    def test_inprocess_mode_matches_sequential(self, name, factory, kwargs):
        prepared = preprocess(factory())
        seq = sequential(prepared, **kwargs)
        par = parallel(prepared, 2, mode="inprocess", **kwargs)
        assert_parity(seq, par, name)

    def test_one_options_value_configures_both_finders(self):
        # every way to build a finder honours sweep_shards: the finder
        # itself and find_model run two lanes, and a pooled engine
        # refuses a second lane instead of silently running one
        prepared = preprocess(incdec_system())
        options = FinderOptions(max_total_size=6, sweep_shards=2)
        seq = ModelFinder(prepared, FinderOptions(max_total_size=6)).search()
        par = ModelFinder(prepared, options).search()
        one_call = find_model(prepared, max_total_size=6, sweep_shards=2)
        assert_parity(seq, par)
        assert_parity(seq, one_call)
        assert seq.stats.sweep_shards == 1
        assert par.stats.sweep_shards == 2
        assert one_call.stats.sweep_shards == 2
        with pytest.raises(FinderError):
            EnginePool().finder(prepared, options)

    def test_core_guidance_off_still_agrees(self):
        prepared = preprocess(even_system())
        seq = sequential(prepared, core_guided_sweep=False)
        par = parallel(prepared, 2, core_guided_sweep=False)
        assert_parity(seq, par)
        assert par.stats.cores_broadcast == 0

    def test_incremental_off_gates_to_sequential(self):
        # the from-scratch ablation resets its one engine before every
        # vector, so ModelFinder runs it as a single lane whatever
        # sweep_shards says
        from repro.core.ringen import RInGen, RInGenConfig

        solver = RInGen(
            RInGenConfig(timeout=10.0, incremental=False, sweep_shards=4)
        )
        result = solver.solve(even_system())
        assert result.is_sat
        assert result.details["finder"]["sweep_shards"] == 1

    def test_speculation_and_broadcast_counted(self):
        prepared = preprocess(incdec_system())
        par = parallel(prepared, 2, mode="process")
        assert par.found
        assert par.stats.sweep_shards == 2
        assert par.stats.vectors_speculated > 0
        assert par.stats.cores_broadcast > 0

    def test_shards_one_is_portfolio_of_one(self):
        prepared = preprocess(even_system())
        par = parallel(prepared, 1, mode="process")
        seq = sequential(prepared)
        assert_parity(seq, par)
        assert par.stats.cores_broadcast == 0  # nobody to broadcast to

    def test_bad_config_rejected(self):
        prepared = preprocess(even_system())
        with pytest.raises(FinderError):
            ModelFinder(prepared, FinderOptions(sweep_shards=0))
        with pytest.raises(FinderError):
            ModelFinder(prepared, mode="threads")


class TestRInGenIntegration:
    """End-to-end through the solver facade (Herbrand loop included)."""

    def test_solver_verdicts_match(self):
        from repro.core.ringen import RInGen, RInGenConfig

        for factory, expected in [
            (even_system, "is_sat"),
            (incdec_system, "is_sat"),
            (odd_unsat_system, "is_unsat"),
        ]:
            base = RInGen(RInGenConfig(timeout=30.0)).solve(factory())
            par = RInGen(
                RInGenConfig(timeout=30.0, sweep_shards=2)
            ).solve(factory())
            assert getattr(par, expected), factory.__name__
            assert par.status == base.status, factory.__name__


class TestFaultInjection:
    """A shard killed mid-speculation must not change the verdict."""

    def test_killed_shard_rescheduled(self):
        # flaky@1x1: the worker solving vector seq 1 exits hard on its
        # first attempt.  The scheduler must respawn the shard, replay
        # the refutation bounds, requeue the orphaned vectors, and
        # commit the same verdict as the clean run.
        prepared = preprocess(incdec_system())
        plan = ReproFaultPlan.parse("flaky@1x1")
        clean = parallel(prepared, 2, mode="process")
        hurt = parallel(prepared, 2, mode="process", fault_plan=plan)
        assert_parity(clean, hurt)
        assert hurt.stats.shard_restarts >= 1

    def test_shard_death_on_later_vector_rescheduled(self):
        # The shard holding vector 2 dies on its first attempt; the
        # requeued vector (attempt 2) no longer fires, so the verdict
        # matches the never-faulted sequential sweep exactly.
        prepared = preprocess(even_system())
        plan = ReproFaultPlan.parse("flaky@2x1")
        seq = sequential(prepared)
        hurt = parallel(prepared, 2, mode="process", fault_plan=plan)
        assert_parity(seq, hurt)

    def test_core_broadcast_survives_shard_death(self):
        # Respawned shards receive the accumulated bounds in their
        # spawn payload, so pruning keeps working after the death.
        prepared = preprocess(diag_system())
        plan = ReproFaultPlan.parse("flaky@1x1")
        clean = parallel(prepared, 2, mode="process", max_total_size=5)
        hurt = parallel(
            prepared, 2, mode="process", max_total_size=5,
            fault_plan=plan,
        )
        assert_parity(clean, hurt)
        assert hurt.stats.cores_broadcast > 0

    @pytest.mark.parametrize(
        "factory,kwargs",
        [
            (even_system, {}),
            (incdec_system, {}),
            (diag_system, {"max_total_size": 5}),
        ],
        ids=["even", "incdec", "diag"],
    )
    def test_killed_shard_matches_sequential(self, factory, kwargs):
        # a shard dies mid-vector: the sweep must respawn it with the
        # refutation bounds replayed, requeue the orphaned vectors, and
        # commit the sequential sweep's verdict
        prepared = preprocess(factory())
        plan = ReproFaultPlan.parse("flaky@1x1")
        seq = sequential(prepared, **kwargs)
        hurt = parallel(
            prepared, 2, mode="process", fault_plan=plan, **kwargs
        )
        assert_parity(seq, hurt, factory.__name__)
        assert hurt.stats.shard_restarts >= 1

    def test_all_shards_dead_is_honest_unknown(self):
        # Every vector faults on every attempt: after the per-slot
        # restart budget both shards stay dead; the sweep must report
        # an incomplete (budget-style) verdict, not hang or lie.
        prepared = preprocess(even_system())
        plan = ReproFaultPlan.parse("flaky@shardx9")
        result = parallel(prepared, 2, mode="process", fault_plan=plan)
        assert not result.found
        assert not result.complete


class TestTelemetry:
    """Every lane's work reaches the metrics and live progress as each
    result is folded in, whichever transport carried it."""

    @pytest.fixture(autouse=True)
    def clean_obs_runtime(self):
        obs_runtime.reset()
        yield
        obs_runtime.reset()

    @pytest.mark.parametrize("mode", ["process", "inprocess"])
    def test_sweep_publishes_sat_counters(self, mode):
        obs_runtime.configure(metrics=True)
        result = parallel(
            preprocess(diag_system()), 2, mode=mode, max_total_size=5
        )
        counters = obs_runtime.METRICS.snapshot()["counters"]
        assert counters.get("sat.solve_calls", 0) >= result.stats.attempts
        assert counters.get("sat.conflicts", 0) > 0

    @pytest.mark.parametrize("mode", ["process", "inprocess"])
    def test_live_progress_counts_each_folded_result(
        self, mode, monkeypatch
    ):
        samples = []
        resolve = _SweepState.resolve

        def sampled(state, seq, outcome):
            samples.append(obs_runtime.live_sample()["vectors"])
            return resolve(state, seq, outcome)

        monkeypatch.setattr(_SweepState, "resolve", sampled)
        parallel(preprocess(diag_system()), 2, mode=mode, max_total_size=5)
        assert samples
        for k, vectors in enumerate(samples, 1):
            assert vectors >= k, (k, samples)

    def test_killed_shards_keep_their_metrics(self):
        # the SAT commit kills both shards before their done messages:
        # the metrics must already have arrived with their results
        obs_runtime.configure(metrics=True)
        result = parallel(preprocess(incdec_system()), 2, mode="process")
        assert result.found
        counters = obs_runtime.METRICS.snapshot()["counters"]
        assert counters.get("phase.encode_n", 0) >= 1
        assert counters.get("sat.solve_calls", 0) >= 1


def _daemon_sweep(conn, name):
    """Daemonic-process body: an ``auto``-mode 2-shard sweep, which can
    only succeed here through the in-process portfolio (a daemon may
    not spawn shard subprocesses)."""
    _, factory, kwargs = next(p for p in PROBLEMS if p[0] == name)
    options = FinderOptions(sweep_shards=2, **kwargs)
    result = ModelFinder(preprocess(factory()), options).search()
    conn.send(
        (
            multiprocessing.current_process().daemon,
            result.found,
            result.complete,
            result.stats.model_size,
        )
    )
    conn.close()


class TestModeSelection:
    def test_auto_mode_in_daemon_falls_back(self):
        # Daemonic processes may not have children; `auto` must pick
        # the in-process portfolio there.  Outside a daemon it runs
        # process shards.
        prepared = preprocess(even_system())
        finder = ModelFinder(prepared, FinderOptions(sweep_shards=2))
        assert finder.mode == "auto"
        if multiprocessing.current_process().daemon:
            pytest.skip("test runner itself is daemonic")
        result = finder.search()
        assert result.found

    @pytest.mark.parametrize("name", ["even", "diag"])
    def test_auto_mode_inside_a_daemon_matches_sequential(self, name):
        _, factory, kwargs = next(p for p in PROBLEMS if p[0] == name)
        seq = sequential(preprocess(factory()), **kwargs)
        parent, child = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_daemon_sweep, args=(child, name), daemon=True
        )
        proc.start()
        child.close()
        try:
            assert parent.poll(120), "daemonic sweep produced no verdict"
            daemonic, found, complete, model_size = parent.recv()
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert daemonic
        assert found == seq.found
        assert complete == seq.complete
        assert model_size == seq.stats.model_size

    def test_scheduler_stats_carry_shard_count(self):
        prepared = preprocess(even_system())
        finder = ModelFinder(
            prepared, FinderOptions(sweep_shards=3), mode="inprocess"
        )
        assert finder.search().stats.sweep_shards == 3
