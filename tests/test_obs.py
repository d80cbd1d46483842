"""Tests for the observability layer: tracer, metrics, event bus,
live progress, profiling hook, and — most importantly — the
differential guarantee that turning observability on changes nothing
about verdicts (``benchmarks/bench_obs.py`` gates the same property
with an overhead budget on top).
"""

import json
import pstats

import pytest

from repro.benchgen.suite import Suite
from repro.chc.transform import preprocess
from repro.exec import ExecPolicy, ReproFaultPlan, ResultsJournal, load_journal
from repro.exec import supervisor
from repro.harness import campaign_report
from repro.harness.runner import run_campaign, task_id_for
from repro.mace.finder import _SweepState, find_model
from repro.obs import (
    EventBus,
    HeartbeatRenderer,
    MetricsRegistry,
    ProgressMonitor,
    SpanTracer,
    heartbeat_event,
    legacy_line_subscriber,
    load_trace,
    maybe_profile,
    profile_path,
    to_chrome,
    write_chrome,
)
from repro.obs import runtime as obs_runtime
from repro.problems import (
    diag_system,
    even_system,
    incdec_system,
    odd_unsat_system,
)


@pytest.fixture(autouse=True)
def clean_obs_runtime():
    """Every test starts and ends with the switchboard off."""
    obs_runtime.reset()
    yield
    obs_runtime.reset()


def tiny_suite() -> Suite:
    suite = Suite("Tiny")
    suite.add("even", "parity", even_system, "sat")
    suite.add("incdec", "offset", incdec_system, "sat")
    suite.add("broken", "broken", odd_unsat_system, "unsat")
    return suite


def comparable(campaign):
    """The obs-independent core of a campaign's verdicts."""
    return {
        task_id_for(r.problem, r.solver): (
            r.status.value,
            r.correct,
            r.details.get("model_size"),
        )
        for r in campaign.records
    }


class TestTracer:
    def test_spans_nest_and_ids_are_unique(self):
        tracer = SpanTracer()
        outer = tracer.begin("campaign")
        inner = tracer.begin("task", {"task": "t0"})
        tracer.end(inner)
        tracer.end(outer)
        records = tracer.drain()
        assert [r["name"] for r in records] == ["task", "campaign"]
        by_name = {r["name"]: r for r in records}
        assert by_name["campaign"]["parent"] is None
        assert by_name["task"]["parent"] == by_name["campaign"]["id"]
        ids = [r["id"] for r in records]
        assert len(set(ids)) == len(ids)
        assert all(r["dur"] >= 0 for r in records)

    def test_aggregate_is_child_of_stack_top(self):
        tracer = SpanTracer()
        with tracer.span("vector") as vec:
            tracer.aggregate("propagate", 0.25, count=123)
        records = tracer.drain()
        agg = next(r for r in records if r["name"] == "propagate")
        assert agg["parent"] == vec.sid
        assert agg["args"]["aggregate"] is True
        assert agg["args"]["count"] == 123
        assert agg["dur"] == pytest.approx(0.25e6)

    def test_out_of_order_end_unwinds_cleanly(self):
        tracer = SpanTracer()
        outer = tracer.begin("solve")
        tracer.begin("vector")  # never explicitly ended
        tracer.end(outer)
        records = tracer.drain()
        # the abandoned inner span is unwound (dropped), not recorded
        # as a sibling — nesting stays consistent for later spans
        assert [r["name"] for r in records] == ["solve"]
        with tracer.span("task"):
            pass
        assert tracer.drain()[0]["parent"] is None

    def test_close_finishes_open_spans(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = SpanTracer(path)
        tracer.begin("campaign")
        tracer.begin("task")
        tracer.close()
        records = load_trace(path)
        assert {r["name"] for r in records} == {"campaign", "task"}

    def test_file_roundtrip_and_chrome_export(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = SpanTracer(path)
        with tracer.span("campaign", {"files": 2}):
            with tracer.span("task", {"task": "t0"}):
                tracer.aggregate("encode", 0.01, count=3)
        tracer.close()
        records = load_trace(path)
        assert len(records) == 3
        assert all(r["kind"] == "span" and r["v"] == 1 for r in records)
        ids = {r["id"] for r in records}
        for r in records:
            assert r["parent"] is None or r["parent"] in ids
        chrome = to_chrome(records)
        assert len(chrome["traceEvents"]) == 3
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])
        assert min(e["ts"] for e in chrome["traceEvents"]) == 0.0
        out = str(tmp_path / "trace.chrome.json")
        assert write_chrome(path, out) == 3
        with open(out) as handle:
            assert len(json.load(handle)["traceEvents"]) == 3

    def test_load_trace_drops_truncated_final_line(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        tracer = SpanTracer(path)
        with tracer.span("task"):
            pass
        tracer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "name": "tor')
        assert [r["name"] for r in load_trace(path)] == ["task"]

    def test_absorb_adopts_worker_records(self):
        worker = SpanTracer()
        with worker.span("task", {"task": "w0"}):
            pass
        shipped = worker.drain()
        parent = SpanTracer()
        parent.absorb(shipped + ["garbage", {"kind": "other"}])
        records = parent.drain()
        assert [r["name"] for r in records] == ["task"]


class TestMetrics:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("conflicts", 5)
        reg.inc("conflicts", 2)
        reg.gauge("engines_live", 3)
        reg.gauge("engines_live", 1)
        reg.timing("task.elapsed", 0.05)
        reg.timing("task.elapsed", 2.0)
        snap = reg.snapshot()
        assert snap["schema"] == "metrics" and snap["version"] == 1
        assert snap["counters"]["conflicts"] == 7
        assert snap["gauges"]["engines_live"] == 1
        hist = snap["histograms"]["task.elapsed"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(2.05)
        assert hist["min"] == 0.05 and hist["max"] == 2.0
        assert sum(b["count"] for b in hist["buckets"]) == 2

    def test_publish_skips_labels_and_recurses(self):
        reg = MetricsRegistry()
        reg.publish(
            "sat",
            {
                "conflicts": 10,
                "restarts": 2,
                "backend": "python",  # label, not a measurement
                "enabled": True,  # flag, not a count
                "missing": None,
                "nested": {"inner": 4},
            },
        )
        reg.publish("sat", {"conflicts": 5})
        counters = reg.snapshot()["counters"]
        assert counters["sat.conflicts"] == 15
        assert counters["sat.restarts"] == 2
        assert counters["sat.nested.inner"] == 4
        assert "sat.backend" not in counters
        assert "sat.enabled" not in counters
        assert "sat.missing" not in counters

    def test_merge_is_additive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x", 1)
        a.timing("t", 0.5)
        b.inc("x", 2)
        b.timing("t", 1.5)
        b.gauge("g", 7)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["x"] == 3
        assert snap["gauges"]["g"] == 7
        assert snap["histograms"]["t"]["count"] == 2
        assert snap["histograms"]["t"]["total"] == pytest.approx(2.0)
        a.merge(None)  # tolerated
        a.merge({})

    def test_write_is_loadable_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("n")
        path = str(tmp_path / "metrics.json")
        reg.write(path)
        with open(path) as handle:
            assert json.load(handle)["counters"]["n"] == 1


class TestRuntime:
    def test_configure_and_reset(self, tmp_path):
        assert not obs_runtime.enabled()
        obs_runtime.configure(
            trace_path=str(tmp_path / "t.jsonl"), metrics=True
        )
        assert obs_runtime.TRACER is not None
        assert obs_runtime.METRICS is not None
        assert obs_runtime.enabled()
        obs_runtime.reset()
        assert not obs_runtime.enabled()

    def test_live_sample_tracks_watched_stats(self):
        class FakeSatStats:
            conflicts = 42
            propagations = 1000

        class FakeFinderStats:
            attempts = 3
            vectors_skipped = 2

        sample = obs_runtime.live_sample()
        assert sample["task"] is None
        obs_runtime.task_started("suite/p0/ringen")
        obs_runtime.watch_solver_stats(FakeSatStats())
        obs_runtime.watch_finder_stats(FakeFinderStats())
        # the watched objects are gone (weakrefs died) — counts zero out
        sample = obs_runtime.live_sample()
        assert sample["task"] == "suite/p0/ringen"
        assert sample["conflicts"] == 0
        sat, finder = FakeSatStats(), FakeFinderStats()
        obs_runtime.watch_solver_stats(sat)
        obs_runtime.watch_finder_stats(finder)
        sample = obs_runtime.live_sample()
        assert sample["conflicts"] == 42
        assert sample["propagations"] == 1000
        assert sample["vectors"] == 5
        assert sample["elapsed"] >= 0.0
        obs_runtime.task_finished()
        assert obs_runtime.live_sample()["task"] is None


class TestSweepTelemetry:
    """The sweep's one fold point publishes each vector's work to the
    metrics and to live progress as it is folded in."""

    def test_sweep_publishes_sat_counters(self):
        obs_runtime.configure(metrics=True)
        result = find_model(preprocess(diag_system()), max_total_size=5)
        counters = obs_runtime.METRICS.snapshot()["counters"]
        assert counters.get("sat.solve_calls", 0) >= result.stats.attempts
        assert counters.get("sat.conflicts", 0) > 0

    def test_live_progress_counts_each_folded_result(self, monkeypatch):
        # the k-th vector folded shows at least k vectors
        samples = []
        consume = _SweepState.consume

        def sampled(state, *result):
            consume(state, *result)
            samples.append(obs_runtime.live_sample()["vectors"])

        monkeypatch.setattr(_SweepState, "consume", sampled)
        find_model(preprocess(diag_system()), max_total_size=5)
        assert samples
        for k, vectors in enumerate(samples, 1):
            assert vectors >= k, (k, samples)


class TestEvents:
    def test_legacy_adapter_renders_historical_lines(self):
        lines = []
        on_event = legacy_line_subscriber(lines.append)
        on_event(
            {
                "kind": "task_finished",
                "task": "Tiny/even/ringen",
                "status": "sat",
                "elapsed": 0.1234,
                "error_kind": None,
                "attempts": 1,
            }
        )
        on_event(
            {
                "kind": "task_finished",
                "task": "Tiny/broken/ringen",
                "status": "unknown",
                "elapsed": 1.0,
                "error_kind": "timeout",
                "attempts": 2,
            }
        )
        on_event({"kind": "heartbeat", "task": "x"})  # ignored
        assert lines == [
            "Tiny/even/ringen: sat (0.12s)",
            "Tiny/broken/ringen: unknown (1.00s) [timeout]",
        ]

    def test_heartbeat_renderer_throttles(self):
        lines = []
        renderer = HeartbeatRenderer(lines.append, min_interval=3600.0)
        beat = {
            "kind": "heartbeat",
            "task": "t0",
            "elapsed": 1.0,
            "conflicts": 10,
            "conflicts_per_s": 10.0,
            "vectors": 2,
            "rss_kb": 4096,
        }
        for _ in range(5):
            renderer(beat)
        assert renderer.renders == 1
        assert len(lines) == 1
        assert "t0" in lines[0] and "rss 4096 KiB" in lines[0]
        eager = HeartbeatRenderer(lines.append, min_interval=0.0)
        for _ in range(3):
            eager(beat)
        assert eager.renders == 3

    def test_heartbeat_event_derives_rate(self):
        first = {"task": "t", "elapsed": 1.0, "conflicts": 100}
        second = {"task": "t", "elapsed": 2.0, "conflicts": 350}
        event = heartbeat_event(second, first)
        assert event["kind"] == "heartbeat"
        assert event["conflicts_per_s"] == pytest.approx(250.0)
        # different task: no rate carries over
        assert heartbeat_event(second, {"task": "u", "elapsed": 1.0})[
            "conflicts_per_s"
        ] == 0.0

    def test_progress_monitor_emits_for_inflight_task(self):
        bus = EventBus()
        beats = []
        bus.subscribe(
            lambda e: beats.append(e) if e["kind"] == "heartbeat" else None
        )
        monitor = ProgressMonitor(bus, interval=0.01)
        obs_runtime.task_started("live/task")
        monitor.start()
        deadline = __import__("time").monotonic() + 2.0
        while not beats and __import__("time").monotonic() < deadline:
            __import__("time").sleep(0.01)
        monitor.stop()
        assert beats and beats[0]["task"] == "live/task"


class TestProfiler:
    def test_profile_path_sanitizes(self, tmp_path):
        path = profile_path(str(tmp_path), "Suite/p0/ringen")
        assert path.endswith("Suite_p0_ringen.prof")

    def test_maybe_profile_writes_loadable_pstats(self, tmp_path):
        path = str(tmp_path / "profiles" / "t.prof")
        with maybe_profile(path):
            sum(range(1000))
        stats = pstats.Stats(path)
        assert stats.total_calls >= 1

    def test_maybe_profile_none_is_noop(self):
        with maybe_profile(None):
            pass


class TestSolverPhaseTiming:
    def test_phase_times_on_off(self):
        from repro.sat.solver import CDCLSolver

        solver = CDCLSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.phase_times() == {}
        solver.set_phase_timing(True)
        assert solver.solve() is True
        times = solver.phase_times()
        assert "propagate" in times
        secs, calls = times["propagate"]
        assert secs >= 0.0 and calls >= 1
        solver.set_phase_timing(False)
        assert solver.phase_times() == {}
        assert solver.solve() is True  # timing off: still solves


class TestJournalTimestamps:
    def test_records_are_timestamped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with ResultsJournal(path, meta={"timeout": 1.0}) as journal:
            journal.record({"task": "a", "status": "sat"})
            journal.record({"task": "b", "status": "sat", "ts": 123.0})
        meta, entries = load_journal(path)
        assert meta["version"] == 1
        assert isinstance(meta["created"], float)
        assert meta["created_iso"].endswith("+00:00")
        assert entries["a"]["ts"] > 1e9  # epoch seconds, stamped on write
        assert entries["b"]["ts"] == 123.0  # caller-supplied wins


class TestDifferential:
    """Observability must never change verdicts — on vs off, both paths."""

    def run_tiny(self, *, isolate: bool) -> object:
        return run_campaign(
            [tiny_suite()],
            solvers=["ringen"],
            timeout=5.0,
            policy=ExecPolicy(isolate=isolate),
        )

    @pytest.mark.parametrize("isolate", [False, True])
    def test_verdicts_identical_with_obs_on(self, tmp_path, isolate):
        baseline = self.run_tiny(isolate=isolate)
        trace = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.json")
        obs_runtime.configure(trace_path=trace, metrics=True)
        observed = self.run_tiny(isolate=isolate)
        obs_runtime.METRICS.write(metrics)
        obs_runtime.reset()
        assert comparable(observed) == comparable(baseline)
        records = load_trace(trace)
        names = {r["name"] for r in records}
        assert {"campaign", "task", "solve", "vector"} <= names
        ids = [r["id"] for r in records]
        assert len(set(ids)) == len(ids)
        known = set(ids)
        assert all(
            r["parent"] is None or r["parent"] in known for r in records
        )
        with open(metrics) as handle:
            snap = json.load(handle)
        assert snap["histograms"]["task.elapsed"]["count"] == 3
        assert snap["counters"]["task.status.sat"] == 2
        assert snap["counters"]["task.status.unsat"] == 1
        assert any(k.startswith("sat.") for k in snap["counters"])
        assert any(k.startswith("phase.") for k in snap["counters"])

    def test_campaign_obs_snapshot_feeds_report(self):
        obs_runtime.configure(metrics=True)
        campaign = self.run_tiny(isolate=False)
        obs_runtime.reset()
        assert campaign.obs is not None
        text = campaign_report(campaign, {"Tiny": 3})
        assert "## Timing breakdown — solver phases" in text
        assert "## Timing breakdown — task wall clock" in text

    def test_report_without_obs_has_no_timing_section(self):
        campaign = self.run_tiny(isolate=False)
        assert campaign.obs is None
        assert "Timing breakdown" not in campaign_report(campaign, {"Tiny": 3})


def _even_campaign_counts(n, *, plan=None, isolate=True):
    """``sat.*`` and ``phase.*_n`` counters of a metrics-on campaign of
    ``n`` even_system tasks sharing one engine (one worker, isolated)."""
    suite = Suite("Evens")
    for i in range(n):
        suite.add(f"e{i}", "parity", even_system, "sat")
    obs_runtime.configure(metrics=True)
    with pytest.MonkeyPatch.context() as patch:
        # the hung task is killed 1.5 s in rather than 2.5 s
        patch.setattr(supervisor, "HARD_TIMEOUT_FACTOR", 1.0)
        patch.setattr(supervisor, "HARD_TIMEOUT_GRACE", 0.5)
        run_campaign(
            [suite],
            solvers=["ringen"],
            timeout=1.0,
            share_engines=True,
            policy=ExecPolicy(isolate=isolate, fault_plan=plan),
        )
    counters = obs_runtime.METRICS.snapshot()["counters"]
    obs_runtime.reset()
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("sat.")
        or (name.startswith("phase.") and name.endswith("_n"))
    }


class TestMetricsTransport:
    """Workers ship metrics per verdict, not at exit."""

    def test_killed_worker_keeps_metrics_of_finished_verdicts(self):
        # the watchdog kills the worker on the third task, so it never
        # sends its done message; the first two verdicts' metrics count
        hurt = _even_campaign_counts(3, plan=ReproFaultPlan.parse("hang@2"))
        assert hurt == _even_campaign_counts(2)
        assert hurt["sat.solve_calls"] >= 1
        assert hurt["phase.encode_n"] >= 1

    def test_isolated_metrics_are_counted_once(self):
        isolated = _even_campaign_counts(3)
        assert isolated == _even_campaign_counts(3, isolate=False)
        assert isolated["sat.solve_calls"] == 4
        assert isolated["phase.encode_n"] == 4


class TestPoolMetrics:
    """Pool counters reach the registry one way on every path: summed
    under ``pool.``, with ``pool.engines_live`` a gauge.  The CLI's
    campaign publishes the same campaign metrics as ``run_campaign``
    (``finder.*``, ``task.error.*``): both are published once, by
    ``execute_tasks``."""

    FACTORIES = [even_system, even_system, incdec_system, incdec_system]

    @pytest.mark.parametrize("isolate", [False, True])
    def test_run_campaign_publishes_engines_live_as_a_gauge(self, isolate):
        suite = Suite("Pooled")
        for i, factory in enumerate(self.FACTORIES):
            suite.add(f"p{i}", "fam", factory, "sat")
        obs_runtime.configure(metrics=True)
        campaign = run_campaign(
            [suite],
            solvers=["ringen"],
            timeout=5.0,
            share_engines=True,
            policy=ExecPolicy(isolate=isolate),
        )
        snap = obs_runtime.METRICS.snapshot()
        stats = campaign.pool_stats
        assert stats["problems"] == 4
        # two signatures: one pool holds both engines in-process; each
        # isolated batch has its own worker, and the last one's counts
        assert stats["engines_live"] == (1 if isolate else 2)
        assert snap["gauges"]["pool.engines_live"] == stats["engines_live"]
        assert "pool.engines_live" not in snap["counters"]
        assert snap["counters"]["pool.problems"] == 4
        assert snap["counters"]["pool.engine_hits"] == stats["engine_hits"]

    @pytest.mark.parametrize("isolate", [False, True])
    def test_cli_campaign_publishes_pool_metrics(self, tmp_path, isolate):
        from repro.chc.printer import print_system
        from repro.cli import main

        paths = []
        for i, factory in enumerate(self.FACTORIES):
            path = tmp_path / f"p{i}.smt2"
            path.write_text(print_system(factory()))
            paths.append(str(path))
        metrics = tmp_path / "metrics.json"
        journal = tmp_path / "run.jsonl"
        argv = [
            "campaign", "--quiet", "--metrics", str(metrics),
            "--journal", str(journal), *paths,
        ]
        assert main(argv + (["--isolate"] if isolate else [])) == 0
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["pool.problems"] == 4
        assert snap["gauges"]["pool.engines_live"] == (1 if isolate else 2)
        assert "pool.engines_live" not in snap["counters"]
        # the model finder's per-problem stats, summed over the verdicts
        _, entries = load_journal(str(journal))
        attempts = sum(
            e["details"]["finder"]["attempts"] for e in entries.values()
        )
        assert attempts > 0
        assert snap["counters"]["finder.attempts"] == attempts

    def test_cli_campaign_counts_task_errors(self, tmp_path, monkeypatch):
        from repro.chc.printer import print_system
        from repro.cli import main

        paths = []
        for name, factory in (
            ("even", even_system),
            ("incdec", incdec_system),
        ):
            path = tmp_path / f"{name}.smt2"
            path.write_text(print_system(factory()))
            paths.append(str(path))
        metrics = tmp_path / "metrics.json"
        monkeypatch.setenv("REPRO_FAULT_PLAN", "crash@0")
        argv = ["campaign", "--quiet", "--metrics", str(metrics), *paths]
        assert main(argv) == 1
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["task.error.crash"] == 1
        assert snap["counters"]["task.status.unknown"] == 1


class TestTracedFaultCampaign:
    """Worker telemetry survives crashes and watchdog kills: spans and
    metrics ship per verdict, not at worker exit.  CI's fault-injection
    job runs this with ``--basetemp`` in its workspace and uploads the
    trace, its Chrome conversion and the metrics snapshot."""

    def test_trace_survives_crash_and_hang(self, tmp_path):
        suite = Suite("TracedCI")
        factories = [even_system, incdec_system, odd_unsat_system]
        expected = ["sat", "sat", "unsat"]
        for i in range(6):
            suite.add(f"p{i}", "fam", factories[i % 3], expected[i % 3])
        trace = str(tmp_path / "obs-trace.jsonl")
        obs_runtime.configure(trace_path=trace, metrics=True)
        campaign = run_campaign(
            [suite],
            solvers=["ringen"],
            timeout=1.0,
            policy=ExecPolicy(
                isolate=True,
                heartbeat_interval=0.1,
                fault_plan=ReproFaultPlan.parse("crash@1,hang@3"),
            ),
        )
        obs_runtime.METRICS.write(str(tmp_path / "obs-metrics.json"))
        obs_runtime.reset()
        errors = {
            task_id_for(r.problem, r.solver): r.error_kind
            for r in campaign.records
        }
        assert errors["TracedCI/p1/ringen"] == "crash"
        assert errors["TracedCI/p3/ringen"] == "timeout_hard"
        spans = load_trace(trace)
        assert {"campaign", "task"} <= {s["name"] for s in spans}
        ids = [s["id"] for s in spans]
        assert len(set(ids)) == len(ids)
        known = set(ids)
        assert all(s["parent"] is None or s["parent"] in known for s in spans)
        # the crashed task and the tasks after the killed worker still
        # report their spans; only the hung task's span dies with it
        traced = {
            s["args"].get("task") for s in spans if s["name"] == "task"
        }
        assert {
            f"TracedCI/p{i}/ringen" for i in (0, 1, 2, 4, 5)
        } <= traced
        chrome = str(tmp_path / "obs-trace.chrome.json")
        assert write_chrome(trace, chrome) == len(spans)


class TestLiveProgress:
    def test_isolated_hang_produces_heartbeat_renders(self, monkeypatch):
        """A hung isolated task emits heartbeats over the verdict pipe,
        and the supervisor renders them — exactly the situation live
        progress exists for (no verdicts to print, work in flight)."""
        monkeypatch.setattr(supervisor, "HARD_TIMEOUT_FACTOR", 1.0)
        monkeypatch.setattr(supervisor, "HARD_TIMEOUT_GRACE", 0.2)
        lines = []
        plan = ReproFaultPlan.parse("hang@0")
        campaign = run_campaign(
            [tiny_suite()],
            solvers=["ringen"],
            timeout=0.3,
            progress=lines.append,
            policy=ExecPolicy(
                isolate=True,
                fault_plan=plan,
                heartbeat_interval=0.02,
            ),
        )
        assert campaign.exec_stats["heartbeats_received"] >= 1
        assert campaign.exec_stats["last_heartbeat"]["task"]
        assert any(line.startswith("[progress]") for line in lines)
        # the hung task was killed by the watchdog, the others finished
        statuses = {
            task_id_for(r.problem, r.solver): r.status.value
            for r in campaign.records
        }
        assert statuses["Tiny/even/ringen"] == "unknown"
        assert statuses["Tiny/incdec/ringen"] == "sat"
