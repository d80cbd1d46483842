"""Ablation gate for deletion-based unsat-core minimization.

Runs the finite model finder over the quick problem set once per
configuration and asserts minimization is *behavior-preserving*:

* ``python`` — the in-repo CDCL solver at its defaults (deletion-based
  core minimization, dynamic LBD re-computation);
* ``python-nomin`` — the same solver with
  ``FinderOptions(core_minimization=False)``, the baseline the
  regression gate compares against.

Statuses (model found / model size) must be identical across both
configurations — they may differ in *which* model they return and how
fast, never in the verdict.  The wall-clock gate protects the
pure-Python default path: with minimization on it must stay within 10%
of the no-minimization baseline over the suite (the probes are
budget-capped precisely so their cost stays in the noise while the
shrunken cores prune more of the sweep).

Measurements land in ``BENCH_backend.json`` at the repo root;
``benchmarks/smoke.sh`` runs the quick scale and fails on status
disagreement or a pure-Python regression beyond the threshold.

Usable both as a script (``python benchmarks/bench_backend.py``, exit
code 1 on a gate failure) and as a pytest module.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from repro.chc.transform import preprocess
from repro.mace.finder import FinderOptions, ModelFinder
from repro.problems import (
    diag_system,
    diseq_zz_system,
    even_system,
    evenleft_system,
    incdec_system,
    ltgt_system,
    odd_unsat_system,
    z_neq_sz_system,
)
from repro.stlc import stlc_problems

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_backend.json"
)

#: pure-Python default may be at most this much slower than the
#: no-minimization baseline over the whole suite
REGRESSION_THRESHOLD = 1.10

#: (name, FinderOptions overrides) per configuration
CONFIGS = [
    ("python", {}),
    ("python-nomin", {"core_minimization": False}),
]


def _stlc_systems(count: int):
    problems = [
        p for p in stlc_problems() if p.category == "non-tautology"
    ]
    return [
        (f"stlc/{p.name}", p.system, {"max_total_size": 7})
        for p in problems[:count]
    ]


def quick_problems():
    """(name, system factory, FinderOptions overrides) rows for the quick
    scale.

    Same spread as ``bench_core.py``: SAT problems prove minimization
    invents no refutation, exhaustive/UNSAT sweeps are where cores (and
    their minimization) actually run.
    """
    rows = [
        ("even", even_system, {}),
        ("incdec", incdec_system, {}),
        ("evenleft", evenleft_system, {}),
        ("diseq_zz", diseq_zz_system, {}),
        ("odd_unsat", odd_unsat_system, {"max_total_size": 5}),
        ("diag", diag_system, {"max_total_size": 5}),
        ("ltgt", ltgt_system, {"max_total_size": 5}),
        ("z_neq_sz", z_neq_sz_system, {"max_total_size": 6}),
    ]
    rows += _stlc_systems(3)
    return rows


def full_extra():
    return [
        ("diag-6", diag_system, {"max_total_size": 6}),
        ("ltgt-6", ltgt_system, {"max_total_size": 6}),
    ] + _stlc_systems(8)[3:]


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def _measure(prepared, active, kwargs: dict) -> dict:
    """Best-of-5 wall clock per configuration, repetitions interleaved
    across configurations so load drift on shared CI hardware hits
    every leg alike — the regression gate compares totals in the
    few-hundred-millisecond range, where a one-sided timer blip would
    dominate the 10% threshold."""
    best: dict = {}
    for _ in range(5):
        for cfg_name, overrides in active:
            start = time.monotonic()
            options = FinderOptions(**overrides, **kwargs)
            result = ModelFinder(prepared, options).search()
            elapsed = time.monotonic() - start
            slot = best.get(cfg_name)
            if slot is None or elapsed < slot[1]:
                best[cfg_name] = (result, elapsed)
    runs = {}
    for cfg_name, (result, elapsed) in best.items():
        stats = result.stats.as_dict()
        stats["time"] = elapsed
        stats["found"] = result.found
        stats["complete"] = result.complete
        runs[cfg_name] = stats
    return runs


def run_ablation() -> dict:
    scale = bench_scale()
    problems = quick_problems()
    if scale == "full":
        problems += full_extra()
    rows = []
    for name, factory, kwargs in problems:
        prepared = preprocess(factory())
        runs = _measure(prepared, CONFIGS, kwargs)
        reference = runs["python"]
        rows.append(
            {
                "problem": name,
                "runs": runs,
                # the gate is on statuses: found / model size must be
                # identical whichever core pipeline ran
                "agree": all(
                    r["found"] == reference["found"]
                    and r["model_size"] == reference["model_size"]
                    for r in runs.values()
                ),
            }
        )
    totals: dict = {
        "configs": [cfg_name for cfg_name, _ in CONFIGS],
        "all_agree": all(r["agree"] for r in rows),
        "cores_minimized": sum(
            r["runs"]["python"]["cores_minimized"] for r in rows
        ),
        "core_lits_dropped": sum(
            r["runs"]["python"]["core_lits_dropped"] for r in rows
        ),
    }
    for cfg_name, _ in CONFIGS:
        totals[f"{cfg_name}_time"] = sum(
            r["runs"][cfg_name]["time"] for r in rows
        )
    if totals["python-nomin_time"] > 0:
        totals["python_vs_baseline"] = (
            totals["python_time"] / totals["python-nomin_time"]
        )
    report = {"scale": scale, "problems": rows, "totals": totals}
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_backend_ablation():
    """Statuses identical with and without minimization; minimization
    within budget."""
    report = run_ablation()
    totals = report["totals"]
    assert totals["all_agree"], report
    assert totals["cores_minimized"] > 0, totals
    assert totals["core_lits_dropped"] >= 0, totals
    assert (
        totals["python_time"]
        <= REGRESSION_THRESHOLD * totals["python-nomin_time"]
    ), totals


def main() -> int:
    report = run_ablation()
    totals = report["totals"]
    print(json.dumps(totals, indent=2))
    print(f"artifact: {ARTIFACT}")
    failed = False
    if not totals["all_agree"]:
        print("FAIL: minimization on/off disagree on a status")
        failed = True
    ratio = totals.get("python_vs_baseline")
    if ratio is not None and ratio > REGRESSION_THRESHOLD:
        print(
            f"FAIL: core minimization regresses the pure-Python path "
            f"{ratio:.2f}x (threshold {REGRESSION_THRESHOLD:.2f}x)"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
