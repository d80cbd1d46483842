"""Ablation: unsat-core-guided size sweep vs. the unguided sweep.

Runs the finite model finder twice per problem — once with
``core_guided_sweep=True`` (refuted vectors leave their unsat core
behind as transferable size bounds; covered candidates are skipped
without re-solving, and a selector-only core stops the sweep outright)
and once unguided — and records wall-clock plus sweep statistics for
both.  The guidance is a pure pruning of *proven-unsat* candidates, so
verdicts (found / model size) must agree exactly; the benchmark exists
to demonstrate that and to measure the skipped work.

Multi-sort problems are where the pruning bites: their sweeps
enumerate many compositions of each total size, and a refutation core
that ignores one sort's bounds covers a whole band of later
compositions.  The STLC inhabitation problems (4 sorts) are the
representative family here; the single-sort paper examples mostly
check the no-regression side.

The measurements are written to ``BENCH_core.json`` at the repo root;
``benchmarks/smoke.sh`` runs the quick scale and fails if statuses
disagree, if no problem shows any vector skips, or if the guided sweep
is more than 10% slower than the unguided one.

Usable both as a script (``python benchmarks/bench_core.py``, exit
code 1 on disagreement) and as a pytest module.
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
    "BENCH_core.json"
)


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

    SAT problems check the guidance never skips a satisfiable vector;
    UNSAT/exhaustive sweeps are where cores accumulate and prune.
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


def _measure(prepared, core_guided: bool, kwargs: dict) -> dict:
    start = time.monotonic()
    options = FinderOptions(core_guided_sweep=core_guided, **kwargs)
    result = ModelFinder(prepared, options).search()
    elapsed = time.monotonic() - start
    stats = result.stats.as_dict()
    stats["time"] = elapsed
    stats["found"] = result.found
    stats["complete"] = result.complete
    return stats


def run_ablation() -> dict:
    scale = bench_scale()
    problems = quick_problems()
    if scale == "full":
        problems += full_extra()
    rows = []
    for name, factory, kwargs in problems:
        prepared = preprocess(factory())
        guided = _measure(prepared, True, kwargs)
        unguided = _measure(prepared, False, kwargs)
        rows.append(
            {
                "problem": name,
                "guided": guided,
                "unguided": unguided,
                # the ISSUE gate is on *statuses* (found / model size);
                # completeness may legitimately differ when a conflict
                # budget binds — the guidance can skip a vector the
                # unguided sweep exhausts its budget on, which is
                # exactly the intended benefit, not a disagreement
                "agree": (
                    guided["found"] == unguided["found"]
                    and guided["model_size"] == unguided["model_size"]
                ),
            }
        )
    totals = {
        "guided_time": sum(r["guided"]["time"] for r in rows),
        "unguided_time": sum(r["unguided"]["time"] for r in rows),
        "vectors_skipped": sum(
            r["guided"]["vectors_skipped"] for r in rows
        ),
        "cores_extracted": sum(
            r["guided"]["cores_extracted"] for r in rows
        ),
        "vectors_refuted": sum(
            r["guided"]["vectors_refuted"] for r in rows
        ),
        "attempts_guided": sum(r["guided"]["attempts"] for r in rows),
        "attempts_unguided": sum(
            r["unguided"]["attempts"] for r in rows
        ),
        "all_agree": all(r["agree"] for r in rows),
    }
    if totals["guided_time"] > 0:
        totals["speedup"] = (
            totals["unguided_time"] / totals["guided_time"]
        )
    report = {"scale": scale, "problems": rows, "totals": totals}
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_core_guided_ablation():
    """Verdicts agree and the guidance measurably prunes the sweep."""
    report = run_ablation()
    totals = report["totals"]
    assert totals["all_agree"], report
    assert totals["vectors_skipped"] > 0, totals
    assert totals["cores_extracted"] > 0, totals
    assert (
        totals["attempts_guided"] < totals["attempts_unguided"]
    ), totals


def main() -> int:
    report = run_ablation()
    totals = report["totals"]
    print(json.dumps(totals, indent=2))
    print(f"artifact: {ARTIFACT}")
    if not totals["all_agree"]:
        print("FAIL: core-guided and unguided results disagree")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
