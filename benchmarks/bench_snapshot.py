"""Engine pickling: parity and warm-cache speedup.

Two legs, both gated by ``benchmarks/smoke.sh``:

* **roundtrip**: a warmed pool's engine is pickled, unpickled
  in-process, and re-driven over the family — the copy's verdicts must
  be identical to a cold run's;
* **warmcache**: the same campaign twice through a disk warm cache
  (``EnginePool(cache_dir=...)``): the second run must reproduce the
  first run's statuses exactly and finish at most 90% of the cold
  wall-clock (the cache carries clause databases, learned clauses,
  heuristic state and per-signature refutation cores across runs).

The measurements land in ``bench-artifacts/BENCH_snapshot.json``
(gitignored).
Usable both as a script (``python benchmarks/bench_snapshot.py``, exit
code 1 on any gate failure) and as a pytest module.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import sys
import time

from repro.benchgen.builders import nat_mod_system
from repro.benchgen.suite import Suite
from repro.chc.transform import preprocess
from repro.harness.runner import run_campaign, task_id_for
from repro.mace import EnginePool, find_model
from repro.mace.finder import ModelFinder

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "bench-artifacts"
    / "BENCH_snapshot.json"
)

PER_PROBLEM_TIMEOUT = 30.0
#: the warm run must come in at or under this fraction of the cold run
WARM_SPEEDUP_GATE = 0.90


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def nat_mod_cases(scale: str) -> list[tuple[int, int, int]]:
    cases = [(2, 0, 1), (3, 0, 1), (3, 1, 2), (4, 1, 2), (5, 2, 3)]
    if scale == "full":
        cases += [(6, 1, 2), (7, 3, 4), (8, 2, 5)]
    return cases


def snapshot_suite(scale: str) -> Suite:
    suite = Suite("Snapshot")
    for m, r, c in nat_mod_cases(scale):
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


def leg_roundtrip(scale: str) -> dict:
    """Pickle, unpickle, re-drive: statuses identical to cold runs."""
    pool = EnginePool()
    cases = nat_mod_cases(scale)
    for m, r, c in cases[: len(cases) // 2]:
        finder = pool.finder(preprocess(nat_mod_system(m, r, c)))
        finder.search()
        pool.release(finder)
    engine = next(iter(pool._engines.values())).engine
    payload = pickle.dumps(engine, pickle.HIGHEST_PROTOCOL)
    restored = pickle.loads(payload)
    agreed = 0
    for m, r, c in cases:
        prepared = preprocess(nat_mod_system(m, r, c))
        cold = find_model(prepared)
        warm = ModelFinder(prepared, engine=restored).search()
        if cold.found != warm.found:
            break
        if warm.found and not warm.model.satisfies(prepared):
            break
        agreed += 1
    return {
        "problems": len(cases),
        "agreed": agreed,
        "parity": agreed == len(cases),
        "snapshot_bytes": len(payload),
        "snapshot_groups": len(engine._groups),
    }


def leg_warmcache(scale: str, cache_root: pathlib.Path) -> dict:
    """Cold campaign populating the cache, warm campaign consuming it."""
    cache = cache_root / "engines"
    suite = snapshot_suite(scale)

    start = time.monotonic()
    cold = run_campaign(
        [suite],
        solvers=["ringen"],
        timeout=PER_PROBLEM_TIMEOUT,
        share_engines=True,
        engine_cache_dir=str(cache),
    )
    cold_time = time.monotonic() - start

    start = time.monotonic()
    warm = run_campaign(
        [suite],
        solvers=["ringen"],
        timeout=PER_PROBLEM_TIMEOUT,
        share_engines=True,
        engine_cache_dir=str(cache),
    )
    warm_time = time.monotonic() - start

    return {
        "problems": len(list(suite)),
        "cold_time": cold_time,
        "warm_time": warm_time,
        "speedup_gate": WARM_SPEEDUP_GATE,
        "parity": _verdicts(cold) == _verdicts(warm),
        "fast_enough": warm_time <= WARM_SPEEDUP_GATE * cold_time,
        "cold_pool": cold.pool_stats,
        "warm_pool": warm.pool_stats,
    }


def run_snapshot_bench(cache_root=None) -> dict:
    import tempfile

    scale = bench_scale()
    if cache_root is None:
        cache_root = pathlib.Path(tempfile.mkdtemp(prefix="bench-snap-"))
    report = {
        "scale": scale,
        "roundtrip": leg_roundtrip(scale),
        "warmcache": leg_warmcache(scale, pathlib.Path(cache_root)),
    }
    report["ok"] = (
        report["roundtrip"]["parity"]
        and report["warmcache"]["parity"]
        and report["warmcache"]["fast_enough"]
    )
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_snapshot_bench(tmp_path):
    report = run_snapshot_bench(cache_root=tmp_path)
    assert report["roundtrip"]["parity"], report["roundtrip"]
    assert report["warmcache"]["parity"], report["warmcache"]
    assert report["warmcache"]["fast_enough"], report["warmcache"]


def main() -> int:
    report = run_snapshot_bench()
    print(json.dumps(report, indent=2))
    print(f"artifact: {ARTIFACT}")
    if not report["ok"]:
        print("FAIL: snapshot gate (parity or warm speedup) violated")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
