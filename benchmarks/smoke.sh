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
# Gate 6: engine pickling + warm cache; emits
# bench-artifacts/BENCH_snapshot.json and fails if
#   * a pickled and unpickled engine's verdicts diverge from cold runs,
#   * a warm-cache second campaign diverges from the cold first run, or
#   * the warm run is not at least 10% faster than the cold run.
#
# Gate 7 (observability overhead + fidelity) is retired: its verdict
# and trace checks are tests/test_obs.py::TestDifferential, and
# perfbench's untraced passes run the obs-off path on every change.
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
    sys.exit("FAIL: unpickled-engine verdicts diverge from cold runs")
if not wc["parity"]:
    sys.exit("FAIL: warm-cache campaign verdicts diverge from cold run")
if not wc["fast_enough"]:
    sys.exit(f"FAIL: warm run {wc['warm_time']:.3f}s not >=10% faster "
             f"than cold {wc['cold_time']:.3f}s")

print(f"pickle round-trip: {rt['agreed']}/{rt['problems']} agree "
      f"({rt['snapshot_bytes']} bytes, {rt['snapshot_groups']} groups)")
print(f"warm cache: cold {wc['cold_time']:.3f}s -> warm "
      f"{wc['warm_time']:.3f}s "
      f"({wc['warm_pool']['snapshot_hits']} snapshot hits)")
print("OK: pickled-engine parity + warm-cache speedup")
EOF
