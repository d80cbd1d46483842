"""Gate: speculative parallel size sweeps vs. the sequential sweep.

Runs the STLC classical-only suite (uninhabited goals with no small
regular invariant: the sweep refutes every candidate vector up to the
bound, the workload the shard portfolio exists for) three ways with
:class:`ModelFinder` — the sequential one-lane sweep (the exact path
``RInGenConfig(sweep_shards=1)`` takes), a one-shard process portfolio,
and a two-shard process portfolio — and checks:

* **verdict parity**: found/complete/model_size identical across all
  three (the commit-in-sweep-order construction, measured);
* **speedup**: the 2-shard portfolio is >= 10% faster than the 1-shard
  portfolio in wall clock;
* **speculation is real**: ``vectors_speculated`` and
  ``cores_broadcast`` are both positive, and at least one broadcast
  core pruned a sibling shard's queue (``speculative_pruned``);
* **no tax when disabled**: the 1-shard portfolio stays within 5% of
  the sequential baseline (plus a small absolute slack for timer
  noise) — enabling the machinery must not slow anyone who doesn't
  ask for it.

Each leg's time is the best of ``REPEATS`` runs, interleaved across the
three legs so load drift hits every leg alike (the method gate 5 uses).
The 1-shard portfolio costs a roughly constant amount more than the
sequential sweep, so the tax bound tightens as the sweep gets faster;
with single runs a one-sided load blip decided it.

The measurements are written to ``BENCH_parallel.json`` at the repo
root; ``benchmarks/smoke.sh`` runs the quick scale as gate 8.

Usable both as a script (``python benchmarks/bench_parallel.py``, exit
code 1 on a failed gate) and as a pytest module.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from repro.chc.transform import preprocess
from repro.mace.finder import FinderOptions, ModelFinder
from repro.stlc.problems import stlc_problems

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_parallel.json"
)

#: sweep bound: every classical-only goal is refuted vector by vector
#: up to this total size — deep enough that solving dominates the
#: portfolio's fork/restore overhead, shallow enough for CI
MAX_TOTAL_SIZE = 7

SPEEDUP_FLOOR = 1.10  # 2 shards must beat 1 shard by >= 10%
TAX_FACTOR = 1.05  # 1 shard must stay within 5% of sequential...
TAX_SLACK = 0.25  # ...plus absolute seconds of timer-noise slack
REPEATS = 3  # runs per leg; the fastest one counts


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def suite():
    problems = [
        p for p in stlc_problems() if p.category == "classical-only"
    ]
    if bench_scale() != "full":
        return [(p.name, p, MAX_TOTAL_SIZE) for p in problems]
    # full scale additionally sweeps one size deeper (8x the work)
    return [(p.name, p, MAX_TOTAL_SIZE) for p in problems] + [
        (f"{p.name}-deep", p, MAX_TOTAL_SIZE + 1) for p in problems[:1]
    ]


def _verdict(result) -> dict:
    return {
        "found": result.found,
        "complete": result.complete,
        "model_size": result.stats.model_size,
    }


def _measure(prepared, shards: int, max_total: int) -> dict:
    start = time.monotonic()
    if shards == 0:  # the sequential baseline
        options = FinderOptions(max_total_size=max_total)
        result = ModelFinder(prepared, options).search()
    else:
        options = FinderOptions(max_total_size=max_total, sweep_shards=shards)
        result = ModelFinder(prepared, options, mode="process").search()
    elapsed = time.monotonic() - start
    row = _verdict(result)
    row["time"] = elapsed
    stats = result.stats
    row["vectors_speculated"] = stats.vectors_speculated
    row["cores_broadcast"] = stats.cores_broadcast
    row["speculative_pruned"] = stats.speculative_pruned
    row["shard_restarts"] = stats.shard_restarts
    return row


def _best_of(prepared, max_total: int) -> tuple[dict, bool]:
    """The fastest of ``REPEATS`` interleaved runs per leg (0 = the
    sequential baseline, else the shard count), and whether every run
    of every leg gave the same verdict."""
    best: dict = {}
    verdicts = set()
    for _ in range(REPEATS):
        for shards in (0, 1, 2):
            row = _measure(prepared, shards, max_total)
            verdicts.add(_verdict_of(row))
            if shards not in best or row["time"] < best[shards]["time"]:
                best[shards] = row
    return best, len(verdicts) == 1


def run_gate() -> dict:
    rows = []
    for name, problem, max_total in suite():
        prepared = preprocess(problem.system())
        best, parity = _best_of(prepared, max_total)
        rows.append(
            {
                "problem": name,
                "max_total_size": max_total,
                "sequential": best[0],
                "shards1": best[1],
                "shards2": best[2],
                "parity": parity,
            }
        )
    seq_time = sum(r["sequential"]["time"] for r in rows)
    one_time = sum(r["shards1"]["time"] for r in rows)
    two_time = sum(r["shards2"]["time"] for r in rows)
    totals = {
        "sequential_time": seq_time,
        "shards1_time": one_time,
        "shards2_time": two_time,
        "speedup_vs_shards1": one_time / two_time if two_time else 0.0,
        "vectors_speculated": sum(
            r["shards2"]["vectors_speculated"] for r in rows
        ),
        "cores_broadcast": sum(
            r["shards2"]["cores_broadcast"] for r in rows
        ),
        "speculative_pruned": sum(
            r["shards2"]["speculative_pruned"] for r in rows
        ),
        "all_parity": all(r["parity"] for r in rows),
    }
    gates = {
        "parity": totals["all_parity"],
        "speedup": totals["speedup_vs_shards1"] >= SPEEDUP_FLOOR,
        "speculation": totals["vectors_speculated"] > 0
        and totals["cores_broadcast"] > 0,
        "queue_pruned": totals["speculative_pruned"] > 0,
        "no_tax_disabled": not (
            one_time > TAX_FACTOR * seq_time + TAX_SLACK
        ),
    }
    report = {
        "scale": bench_scale(),
        "problems": rows,
        "totals": totals,
        "gates": gates,
    }
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _verdict_of(row: dict) -> tuple:
    return (row["found"], row["complete"], row["model_size"])


def test_parallel_gate():
    """All five gates hold on the quick suite."""
    report = run_gate()
    assert report["gates"]["parity"], report["problems"]
    assert report["gates"]["speculation"], report["totals"]
    assert report["gates"]["queue_pruned"], report["totals"]
    assert report["gates"]["no_tax_disabled"], report["totals"]
    assert report["gates"]["speedup"], report["totals"]


def main() -> int:
    report = run_gate()
    print(json.dumps(report["totals"], indent=2))
    print(json.dumps(report["gates"], indent=2))
    print(f"artifact: {ARTIFACT}")
    if not all(report["gates"].values()):
        failed = [k for k, ok in report["gates"].items() if not ok]
        print(f"FAIL: parallel sweep gate(s): {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
