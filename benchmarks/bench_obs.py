"""Observability overhead + fidelity: tracing must be free when off.

Runs one quick campaign (the three tiny paper systems plus the
``nat_mod`` family) three ways:

* **baseline**: observability off — the default in-process campaign;
* **disabled**: observability off again — every instrumentation site is
  compiled in and guarded (one attribute load + branch per call site),
  so this leg re-measures the exact same path and the gate holds the
  pair within 5% of each other: if the guards ever leak work into the
  disabled path, this is where it shows;
* **enabled**: file-backed tracer + metrics registry on, verdicts must
  be identical and the produced trace must be well-formed (unique span
  ids, resolvable parents, expected span names, loadable Chrome
  export).

Both off legs take the best of ``REPEATS`` runs so scheduler noise does
not flap the 5% gate.  The measurements land in
``bench-artifacts/BENCH_obs.json`` (gitignored); ``benchmarks/smoke.sh``
fails on verdict divergence, a malformed trace, or disabled-path
overhead beyond the budget.

Usable both as a script (``python benchmarks/bench_obs.py``, exit code
1 on disagreement) and as a pytest module (parity and trace fidelity
only — wall-clock gates stay in smoke.sh where reruns are cheap).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
import time

from repro.benchgen.builders import nat_mod_system
from repro.benchgen.suite import Suite
from repro.harness.runner import run_campaign, task_id_for
from repro.obs import runtime as obs_runtime
from repro.obs.tracer import load_trace, to_chrome
from repro.problems import even_system, incdec_system, odd_unsat_system

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "bench-artifacts"
    / "BENCH_obs.json"
)

PER_PROBLEM_TIMEOUT = 30.0
REPEATS = 2

#: span names a traced campaign must contain (the hierarchy's spine;
#: the analyze aggregate appears only when the solver backtracks)
REQUIRED_SPANS = {"campaign", "task", "solve", "vector", "propagate"}


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def obs_suite() -> Suite:
    suite = Suite("Obs")
    suite.add("even", "parity", even_system, "sat")
    suite.add("incdec", "offset", incdec_system, "sat")
    suite.add("broken", "broken", odd_unsat_system, "unsat")
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


def _verdicts(campaign) -> dict[str, tuple[str, bool]]:
    return {
        task_id_for(r.problem, r.solver): (r.status.value, r.correct)
        for r in campaign.records
    }


def _measure() -> tuple[dict, float]:
    start = time.monotonic()
    campaign = run_campaign(
        [obs_suite()], solvers=["ringen"], timeout=PER_PROBLEM_TIMEOUT
    )
    return _verdicts(campaign), time.monotonic() - start


def _best_of(n: int) -> tuple[dict, float]:
    verdicts, best = _measure()
    for _ in range(n - 1):
        again, elapsed = _measure()
        assert again == verdicts, "obs-off reruns must agree"
        best = min(best, elapsed)
    return verdicts, best


def _validate_trace(trace_path: str) -> dict:
    records = load_trace(trace_path)
    ids = [r["id"] for r in records]
    known = set(ids)
    names = {r["name"] for r in records}
    chrome = to_chrome(records)
    problems = []
    if len(known) != len(ids):
        problems.append("duplicate span ids")
    if not all(r["parent"] is None or r["parent"] in known for r in records):
        problems.append("dangling parent ids")
    missing = REQUIRED_SPANS - names
    if missing:
        problems.append(f"missing span names: {sorted(missing)}")
    if len(chrome["traceEvents"]) != len(records):
        problems.append("chrome export dropped events")
    return {
        "trace_valid": not problems,
        "trace_problems": problems,
        "trace_spans": len(records),
        "span_names": sorted(names),
        "chrome_events": len(chrome["traceEvents"]),
    }


def run_obs_ablation() -> dict:
    obs_runtime.reset()
    baseline_verdicts, baseline_time = _best_of(REPEATS)
    disabled_verdicts, disabled_time = _best_of(REPEATS)

    with tempfile.TemporaryDirectory(prefix="bench_obs_") as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        obs_runtime.configure(trace_path=trace_path, metrics=True)
        start = time.monotonic()
        enabled_campaign = run_campaign(
            [obs_suite()], solvers=["ringen"], timeout=PER_PROBLEM_TIMEOUT
        )
        enabled_time = time.monotonic() - start
        metrics_snap = obs_runtime.METRICS.snapshot()
        obs_runtime.reset()  # closes the tracer; the file is whole
        trace_report = _validate_trace(trace_path)
    enabled_verdicts = _verdicts(enabled_campaign)

    counters = metrics_snap["counters"]
    totals = {
        "problems": len(baseline_verdicts),
        "baseline_time": baseline_time,
        "disabled_time": disabled_time,
        "enabled_time": enabled_time,
        "disabled_overhead": (
            disabled_time / baseline_time if baseline_time > 0 else 1.0
        ),
        "verdict_parity": (
            disabled_verdicts == baseline_verdicts
            and enabled_verdicts == baseline_verdicts
        ),
        "metrics_have_phases": any(
            k.startswith("phase.") for k in counters
        ),
        "metrics_have_sat": any(k.startswith("sat.") for k in counters),
        "task_elapsed_count": (
            metrics_snap["histograms"]
            .get("task.elapsed", {})
            .get("count", 0)
        ),
        **trace_report,
    }
    report = {
        "scale": bench_scale(),
        "repeats": REPEATS,
        "verdicts": {
            task: list(verdict)
            for task, verdict in baseline_verdicts.items()
        },
        "totals": totals,
    }
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_obs_ablation():
    """Obs on == obs off verdicts; traces well-formed; metrics populated."""
    report = run_obs_ablation()
    totals = report["totals"]
    assert totals["verdict_parity"], report
    assert totals["trace_valid"], totals["trace_problems"]
    assert totals["trace_spans"] > 0, totals
    assert totals["metrics_have_phases"], totals
    assert totals["metrics_have_sat"], totals
    assert totals["task_elapsed_count"] == totals["problems"], totals


def main() -> int:
    report = run_obs_ablation()
    totals = report["totals"]
    print(json.dumps(totals, indent=2))
    print(f"artifact: {ARTIFACT}")
    if not totals["verdict_parity"]:
        print("FAIL: verdicts changed with observability enabled")
        return 1
    if not totals["trace_valid"]:
        print(f"FAIL: malformed trace: {totals['trace_problems']}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
