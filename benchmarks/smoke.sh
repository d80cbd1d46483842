#!/usr/bin/env bash
# Quick performance gates for the model-finding engine.
#
# Gate 2 (PR 2): campaign-vs-fresh-engine ablation over a
# shared-signature batch; emits bench-artifacts/BENCH_campaign.json
# and fails if
#   * statuses disagree,
#   * campaign mode shows no cross-problem reuse, or
#   * campaign mode is more than 10% slower than fresh engines.
#
# Gate 6 (PR 8): engine snapshot/restore + warm cache; emits
# bench-artifacts/BENCH_snapshot.json and fails if
#   * a restored engine's verdicts diverge from cold runs,
#   * a warm-cache second campaign diverges from the cold first run, or
#   * the warm run is not at least 10% faster than the cold run.
#
# Gate 7 (PR 9): observability overhead + fidelity; emits
# bench-artifacts/BENCH_obs.json and fails if
#   * verdicts change with tracing/metrics enabled,
#   * the produced trace is malformed (duplicate span ids, dangling
#     parents, missing hierarchy levels, broken Chrome export), or
#   * the obs-off path is more than 5% slower than baseline (the
#     instrumentation guards must be free when disabled).
#
# The artifacts directory is gitignored, so a run leaves the tracked
# tree as it was.
#
# Usage: benchmarks/smoke.sh   (from anywhere; CI runs it as-is)
set -euo pipefail
cd "$(dirname "$0")/.."

export REPRO_BENCH_SCALE="${REPRO_BENCH_SCALE:-quick}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python benchmarks/bench_campaign.py

python - <<'EOF'
import json
import sys

with open("bench-artifacts/BENCH_campaign.json") as handle:
    report = json.load(handle)
totals = report["totals"]

if not totals["all_agree"]:
    sys.exit("FAIL: campaign and fresh-engine results disagree")
if totals["cross_problem_clauses"] <= 0:
    sys.exit("FAIL: campaign mode shows no cross-problem reuse")

camp, fresh = totals["campaign_time"], totals["fresh_time"]
print(f"campaign: {camp:.3f}s  fresh engines: {fresh:.3f}s  "
      f"speedup: {totals.get('speedup', float('nan')):.2f}x")
print(f"clauses encoded: {totals['campaign_clauses_encoded']} vs "
      f"{totals['fresh_clauses_encoded']} "
      f"(inherited {totals['cross_problem_clauses']})")
if camp > 1.10 * fresh:
    sys.exit(f"FAIL: campaign mode {camp:.3f}s is >10% slower than "
             f"fresh engines {fresh:.3f}s")
print("OK: campaign engine pool within budget")
EOF

python benchmarks/bench_snapshot.py

python - <<'EOF'
import json
import sys

with open("bench-artifacts/BENCH_snapshot.json") as handle:
    report = json.load(handle)

rt, wc = report["roundtrip"], report["warmcache"]
if not rt["parity"]:
    sys.exit("FAIL: restored-engine verdicts diverge from cold runs")
if not wc["parity"]:
    sys.exit("FAIL: warm-cache campaign verdicts diverge from cold run")
if not wc["fast_enough"]:
    sys.exit(f"FAIL: warm run {wc['warm_time']:.3f}s not >=10% faster "
             f"than cold {wc['cold_time']:.3f}s")

print(f"snapshot round-trip: {rt['agreed']}/{rt['problems']} agree "
      f"({rt['snapshot_bytes']} bytes, {rt['snapshot_groups']} groups)")
print(f"warm cache: cold {wc['cold_time']:.3f}s -> warm "
      f"{wc['warm_time']:.3f}s "
      f"({wc['warm_pool']['snapshot_hits']} snapshot hits)")
print("OK: engine snapshot/restore parity + warm-cache speedup")
EOF

python benchmarks/bench_obs.py

python - <<'EOF'
import json
import sys

with open("bench-artifacts/BENCH_obs.json") as handle:
    report = json.load(handle)
totals = report["totals"]

if not totals["verdict_parity"]:
    sys.exit("FAIL: verdicts changed with observability enabled")
if not totals["trace_valid"]:
    sys.exit(f"FAIL: malformed trace: {totals['trace_problems']}")
if totals["trace_spans"] <= 0:
    sys.exit("FAIL: enabled run produced an empty trace")
if not (totals["metrics_have_phases"] and totals["metrics_have_sat"]):
    sys.exit("FAIL: metrics snapshot is missing phase.* or sat.* counters")

base, off = totals["baseline_time"], totals["disabled_time"]
on = totals["enabled_time"]
print(f"baseline: {base:.3f}s  obs-off: {off:.3f}s  obs-on: {on:.3f}s  "
      f"({totals['trace_spans']} spans, "
      f"{totals['chrome_events']} chrome events)")
# 50ms absolute slack: the quick suite finishes in tens of ms, where
# scheduler noise alone can exceed a bare 5% ratio
if off > 1.05 * base + 0.05:
    sys.exit(f"FAIL: obs-off path {off:.3f}s is >5% slower than "
             f"baseline {base:.3f}s — disabled guards are not free")
print("OK: observability free when off, verdicts unchanged when on")
EOF
