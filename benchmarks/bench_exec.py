"""Isolated vs. in-process execution: verdict parity + overhead.

Runs one quick campaign (the ``nat_mod`` family plus the three tiny
paper systems) two ways:

* **inprocess**: the default, tasks run in the campaign process;
* **isolated**: one worker subprocess per task under the hard watchdog
  and a 1 GiB address-space cap.

Both must produce identical (status, correctness) verdicts —
:func:`repro.exec.worker.run_task` is the task body of both execution
modes, so any divergence is a supervisor bug, not solver noise.  A
third pass re-runs the isolated campaign under a fault plan injecting a
crash, a hang, an OOM and a flaky task, and checks the three structured
error verdicts land while every unfaulted task keeps its honest answer.

The measurements land in ``BENCH_exec.json`` at the repo root;
``benchmarks/smoke.sh`` fails on any verdict divergence or missing
fault verdict.

Usable both as a script (``python benchmarks/bench_exec.py``, exit
code 1 on disagreement) and as a pytest module.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from repro.benchgen.builders import nat_mod_system
from repro.benchgen.suite import Suite
from repro.exec import ExecPolicy, ReproFaultPlan
from repro.harness.runner import run_campaign, task_id_for
from repro.problems import even_system, incdec_system, odd_unsat_system

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_exec.json"
)

PER_PROBLEM_TIMEOUT = 30.0
FAULT_PLAN = "crash@1,hang@3,oom@5,flaky@7x1"
MEM_LIMIT_MB = 1024


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def exec_suite() -> Suite:
    suite = Suite("Exec")
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


def _measure(policy) -> tuple[dict, float, object]:
    start = time.monotonic()
    campaign = run_campaign(
        [exec_suite()],
        solvers=["ringen"],
        timeout=PER_PROBLEM_TIMEOUT,
        policy=policy,
    )
    elapsed = time.monotonic() - start
    return _verdicts(campaign), elapsed, campaign


def run_exec_ablation() -> dict:
    inproc_verdicts, inproc_time, _ = _measure(None)
    iso_verdicts, iso_time, iso_campaign = _measure(
        ExecPolicy(isolate=True, mem_limit_mb=MEM_LIMIT_MB)
    )

    # fault pass: the quick fault campaign every CI run exercises
    plan = ReproFaultPlan.parse(FAULT_PLAN)
    fault_start = time.monotonic()
    fault_campaign = run_campaign(
        [exec_suite()],
        solvers=["ringen"],
        timeout=2.0,
        policy=ExecPolicy(
            isolate=True,
            fault_plan=plan,
            mem_limit_mb=MEM_LIMIT_MB,
            backoff_base=0.01,
        ),
    )
    fault_time = time.monotonic() - fault_start
    fault_kinds = sorted(
        {r.error_kind for r in fault_campaign.records if r.errored}
    )
    flaky = fault_campaign.records[7]
    unfaulted_ok = all(
        r.solved
        for i, r in enumerate(fault_campaign.records)
        if i not in (1, 3, 5)
    )

    totals = {
        "problems": len(inproc_verdicts),
        "inprocess_time": inproc_time,
        "isolated_time": iso_time,
        "fault_time": fault_time,
        "isolated_agrees": iso_verdicts == inproc_verdicts,
        "workers_spawned": iso_campaign.exec_stats["workers_spawned"],
        "fault_kinds": fault_kinds,
        "flaky_attempts": flaky.attempts,
        "flaky_recovered": flaky.solved and flaky.attempts > 1,
        "unfaulted_tasks_ok": unfaulted_ok,
        "fault_retries": fault_campaign.exec_stats["retries"],
    }
    report = {
        "scale": bench_scale(),
        "fault_plan": FAULT_PLAN,
        "verdicts": {
            task: list(verdict) for task, verdict in inproc_verdicts.items()
        },
        "totals": totals,
    }
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_exec_ablation():
    """Isolated == in-process verdicts; faults structured."""
    report = run_exec_ablation()
    totals = report["totals"]
    assert totals["isolated_agrees"], report
    assert totals["fault_kinds"] == ["crash", "oom", "timeout_hard"], totals
    assert totals["flaky_recovered"], totals
    assert totals["unfaulted_tasks_ok"], totals


def main() -> int:
    report = run_exec_ablation()
    totals = report["totals"]
    print(json.dumps(totals, indent=2))
    print(f"artifact: {ARTIFACT}")
    if not totals["isolated_agrees"]:
        print("FAIL: isolated verdicts diverge from in-process")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
