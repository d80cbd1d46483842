#!/usr/bin/env bash
# Quick performance gates for the model-finding engine.
#
# Gate 1 (PR 1): incremental-vs-from-scratch ablation; emits
# BENCH_incremental.json and fails if
#   * the two engines disagree on any verdict or model size, or
#   * the incremental engine is more than 10% slower than from-scratch
#     on the quick suite.
#
# Gate 2 (PR 2): campaign-vs-fresh-engine ablation over a
# shared-signature batch; emits BENCH_campaign.json and fails if
#   * statuses disagree,
#   * campaign mode shows no cross-problem reuse, or
#   * campaign mode is more than 10% slower than fresh engines.
#
# Gate 3 (PR 3): unsat-core-guided sweep ablation; emits
# BENCH_core.json and fails if
#   * the guided and unguided sweeps disagree on any verdict,
#   * no benchmark family shows measured vector skips, or
#   * the guided sweep is more than 10% slower than unguided.
#
# Gate 4 (PR 6): supervised execution parity; emits BENCH_exec.json
# and fails if
#   * isolated-mode or supervised-in-process verdicts diverge from the
#     plain in-process fast path on the quick suite, or
#   * the fault-injected campaign (crash + hang + OOM + flaky) fails
#     to produce its three structured error verdicts, or the flaky
#     task does not recover via retry.
#
# Gate 5 (PR 7): core-minimization ablation; emits BENCH_backend.json
# and fails if
#   * the pure-Python default and its no-minimization leg disagree on
#     a status or model size,
#   * core minimization never fires on the quick suite, or
#   * the pure-Python default is more than 10% slower than its
#     no-minimization baseline.
#
# Gate 6 (PR 8): engine snapshot/restore + warm cache; emits
# BENCH_snapshot.json and fails if
#   * a restored engine's verdicts diverge from cold runs,
#   * a warm-cache second campaign diverges from the cold first run,
#   * the warm run is not at least 10% faster than the cold run, or
#   * a fault-killed engine-sharing worker's batch remainder is not
#     rescheduled onto a warm-started worker with unchanged verdicts.
#
# Gate 7 (PR 9): observability overhead + fidelity; emits
# BENCH_obs.json and fails if
#   * verdicts change with tracing/metrics enabled,
#   * the produced trace is malformed (duplicate span ids, dangling
#     parents, missing hierarchy levels, broken Chrome export), or
#   * the obs-off path is more than 5% slower than baseline (the
#     instrumentation guards must be free when disabled).
#
# Gate 8 (PR 10): speculative parallel size sweeps; emits
# BENCH_parallel.json and fails if
#   * sequential, 1-shard, and 2-shard verdicts/model sizes disagree,
#   * the 2-shard portfolio is not >=10% faster than 1 shard,
#   * no speculation, core broadcast, or cross-shard queue prune was
#     observed, or
#   * the 1-shard path is more than 5% slower than the sequential
#     baseline (the machinery must be free when disabled).
#
# Usage: benchmarks/smoke.sh   (from anywhere; CI runs it as-is)
set -euo pipefail
cd "$(dirname "$0")/.."

export REPRO_BENCH_SCALE="${REPRO_BENCH_SCALE:-quick}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python benchmarks/bench_incremental.py

python - <<'EOF'
import json
import sys

with open("BENCH_incremental.json") as handle:
    report = json.load(handle)
totals = report["totals"]

if not totals["all_agree"]:
    sys.exit("FAIL: incremental and from-scratch results disagree")

inc, scr = totals["incremental_time"], totals["scratch_time"]
print(f"incremental: {inc:.3f}s  from-scratch: {scr:.3f}s  "
      f"speedup: {totals.get('speedup', float('nan')):.2f}x")
print(f"clauses encoded: {totals['incremental_clauses_encoded']} vs "
      f"{totals['scratch_clauses_encoded']} "
      f"(reused {totals['clauses_reused']})")
if inc > 1.10 * scr:
    sys.exit(f"FAIL: incremental engine {inc:.3f}s is >10% slower than "
             f"from-scratch {scr:.3f}s")
print("OK: incremental engine within budget")
EOF

python benchmarks/bench_campaign.py

python - <<'EOF'
import json
import sys

with open("BENCH_campaign.json") as handle:
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

python benchmarks/bench_core.py

python - <<'EOF'
import json
import sys

with open("BENCH_core.json") as handle:
    report = json.load(handle)
totals = report["totals"]

if not totals["all_agree"]:
    sys.exit("FAIL: core-guided and unguided sweeps disagree")
if totals["vectors_skipped"] <= 0:
    sys.exit("FAIL: core guidance skipped no vectors")

on, off = totals["guided_time"], totals["unguided_time"]
print(f"core-guided: {on:.3f}s  unguided: {off:.3f}s  "
      f"speedup: {totals.get('speedup', float('nan')):.2f}x")
print(f"vectors: {totals['attempts_guided']} attempted + "
      f"{totals['vectors_skipped']} skipped "
      f"(vs {totals['attempts_unguided']} unguided; "
      f"{totals['cores_extracted']} cores)")
if on > 1.10 * off:
    sys.exit(f"FAIL: core-guided sweep {on:.3f}s is >10% slower than "
             f"unguided {off:.3f}s")
print("OK: core-guided sweep within budget")
EOF

python benchmarks/bench_exec.py

python - <<'EOF'
import json
import sys

with open("BENCH_exec.json") as handle:
    report = json.load(handle)
totals = report["totals"]

if not totals["supervised_agrees"]:
    sys.exit("FAIL: supervised in-process verdicts diverge from legacy")
if not totals["isolated_agrees"]:
    sys.exit("FAIL: isolated-mode verdicts diverge from in-process")
if sorted(totals["fault_kinds"]) != ["crash", "oom", "timeout_hard"]:
    sys.exit(f"FAIL: fault campaign produced {totals['fault_kinds']} "
             f"instead of crash/oom/timeout_hard")
if not totals["flaky_recovered"]:
    sys.exit("FAIL: flaky task did not recover via retry")
if not totals["unfaulted_tasks_ok"]:
    sys.exit("FAIL: a fault leaked into an unfaulted task's verdict")

inproc, iso = totals["inprocess_time"], totals["isolated_time"]
print(f"in-process: {inproc:.3f}s  isolated: {iso:.3f}s  "
      f"({totals['workers_spawned']} workers)  "
      f"fault campaign: {totals['fault_time']:.3f}s "
      f"({totals['fault_retries']} retries)")
print("OK: supervised execution verdict parity + structured faults")
EOF

python benchmarks/bench_backend.py

python - <<'EOF'
import json
import sys

with open("BENCH_backend.json") as handle:
    report = json.load(handle)
totals = report["totals"]

if not totals["all_agree"]:
    sys.exit("FAIL: minimization on/off disagree on a status")
if totals["cores_minimized"] <= 0:
    sys.exit("FAIL: core minimization never fired on the quick suite")

on, off = totals["python_time"], totals["python-nomin_time"]
print(f"python: {on:.3f}s  python w/o minimization: {off:.3f}s  "
      f"({totals['cores_minimized']} cores minimized, "
      f"{totals['core_lits_dropped']} literals dropped)")
if on > 1.10 * off:
    sys.exit(f"FAIL: pure-Python default {on:.3f}s is >10% slower than "
             f"its no-minimization baseline {off:.3f}s")
print("OK: minimization status parity + pure-Python within budget")
EOF

python benchmarks/bench_snapshot.py

python - <<'EOF'
import json
import sys

with open("BENCH_snapshot.json") as handle:
    report = json.load(handle)

rt, wc, ww = report["roundtrip"], report["warmcache"], report["warmworkers"]
if not rt["parity"]:
    sys.exit("FAIL: restored-engine verdicts diverge from cold runs")
if not wc["parity"]:
    sys.exit("FAIL: warm-cache campaign verdicts diverge from cold run")
if not wc["fast_enough"]:
    sys.exit(f"FAIL: warm run {wc['warm_time']:.3f}s not >=10% faster "
             f"than cold {wc['cold_time']:.3f}s")
if not ww["parity"]:
    sys.exit("FAIL: warm-rescheduled campaign verdicts diverge")
if ww["workers_warm_started"] < 1:
    sys.exit("FAIL: no worker was warm-started after the injected death")

print(f"snapshot round-trip: {rt['agreed']}/{rt['problems']} agree "
      f"({rt['snapshot_bytes']} bytes, {rt['snapshot_groups']} groups)")
print(f"warm cache: cold {wc['cold_time']:.3f}s -> warm "
      f"{wc['warm_time']:.3f}s "
      f"({wc['warm_pool']['snapshot_hits']} snapshot hits)")
print(f"warm workers: {ww['workers_warm_started']} warm-started, "
      f"{ww['snapshots_collected']} snapshots collected, "
      f"{ww['retries']} retries")
print("OK: engine snapshot/restore parity + warm-cache speedup")
EOF

python benchmarks/bench_obs.py

python - <<'EOF'
import json
import sys

with open("BENCH_obs.json") as handle:
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

python benchmarks/bench_parallel.py

python - <<'EOF'
import json
import sys

with open("BENCH_parallel.json") as handle:
    report = json.load(handle)
totals, gates = report["totals"], report["gates"]

if not gates["parity"]:
    sys.exit("FAIL: parallel-sweep verdicts diverge from sequential")
if not gates["speculation"]:
    sys.exit("FAIL: no vector speculation or core broadcast observed")
if not gates["queue_pruned"]:
    sys.exit("FAIL: no broadcast core pruned a sibling shard's queue")

seq, one, two = (totals["sequential_time"], totals["shards1_time"],
                 totals["shards2_time"])
print(f"sequential: {seq:.3f}s  1 shard: {one:.3f}s  2 shards: {two:.3f}s  "
      f"speedup: {totals['speedup_vs_shards1']:.2f}x")
print(f"speculated {totals['vectors_speculated']} vectors, broadcast "
      f"{totals['cores_broadcast']} cores, pruned "
      f"{totals['speculative_pruned']} sibling-queue vectors")
if not gates["speedup"]:
    sys.exit(f"FAIL: 2-shard portfolio {two:.3f}s not >=10% faster than "
             f"1 shard {one:.3f}s")
if not gates["no_tax_disabled"]:
    sys.exit(f"FAIL: 1-shard path {one:.3f}s is >5% slower than the "
             f"sequential baseline {seq:.3f}s — parallel machinery "
             f"taxes the disabled path")
print("OK: parallel sweep parity + speedup, no tax when disabled")
EOF
