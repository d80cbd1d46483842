"""Campaign batch mode vs. fresh-engine-per-problem (cross-problem reuse).

Solves shared-signature batches twice:

* **fresh**: a new RInGen (and hence a new incremental engine) per
  problem, the PR-1 behaviour;
* **campaign**: one :class:`repro.mace.pool.EnginePool` spans the batch,
  so every problem after the first inherits the warm engine — the
  signature-level cell encoding, every clause group it shares with
  earlier problems (ground instances *and* the learned clauses that
  mention their selectors), VSIDS activity and saved phases.

The quick batch is the ``nat_mod`` family (one Nat signature, heavily
overlapping clause sets — the shape of the paper's PositiveEq
campaign); the full scale adds the STLC inhabitation batch, whose five
typing-rule clauses are shared verbatim by all 23 problems.

Statuses must agree exactly — the pool only changes the solver state a
search starts from, never satisfiability.  Model sizes are compared
only for systems without universal blocks: on quantifier-alternating
systems (STLC) the model *found* at a given size depends on solver
state, and a candidate can fail the exact Herbrand check and resume at
a larger size, so equally-correct runs may report different (verified)
sizes.

The measurements land in ``bench-artifacts/BENCH_campaign.json``
(gitignored) and ``benchmarks/smoke.sh`` fails if campaign mode is more
than 10% slower than fresh mode or shows no cross-problem reuse.

Usable both as a script (``python benchmarks/bench_campaign.py``, exit
code 1 on disagreement) and as a pytest module.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from repro import solve
from repro.automata.ops import clear_op_caches
from repro.benchgen.builders import (
    nat_mod_system,
    nat_two_residues_system,
)
from repro.mace.pool import EnginePool
from repro.stlc import stlc_problems

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "bench-artifacts"
    / "BENCH_campaign.json"
)

PER_PROBLEM_TIMEOUT = 30.0


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def campaign_problems() -> list[tuple[str, object, bool]]:
    """(name, system factory, compare_model_size) batch entries."""
    problems: list[tuple[str, object, bool]] = []
    for m in (2, 3, 4, 5):
        for r, c in ((0, 1), (1, 2), (0, 3)):
            if c % m == 0:
                continue
            problems.append(
                (
                    f"nat-mod{m}-r{r}-c{c}",
                    (lambda m=m, r=r, c=c: nat_mod_system(m, r, c)),
                    True,
                )
            )
    for m, r1, r2 in ((2, 0, 1), (3, 0, 2)):
        problems.append(
            (
                f"nat-two-{m}-{r1}-{r2}",
                (
                    lambda m=m, r1=r1, r2=r2: nat_two_residues_system(
                        m, r1, r2
                    )
                ),
                True,
            )
        )
    if bench_scale() == "full":
        for p in stlc_problems():
            if p.category == "non-tautology":
                problems.append(
                    (f"stlc-{p.name}", p.system, False)
                )
    return problems


def _measure(factory, pool) -> dict:
    # the automata verdict caches are process-global and would let the
    # second run inherit Herbrand-verification work the first run paid
    # for; clearing isolates the effect under measurement (engine reuse)
    clear_op_caches()
    start = time.monotonic()
    result = solve(
        factory(), timeout=PER_PROBLEM_TIMEOUT, engine_pool=pool
    )
    elapsed = time.monotonic() - start
    finder = result.details.get("finder", {})
    return {
        "status": result.status.value,
        "model_size": result.details.get("model_size"),
        "time": elapsed,
        "clauses_encoded": finder.get("clauses_encoded", 0),
        "cross_problem_clauses": finder.get("cross_problem_clauses", 0),
    }


def run_campaign_ablation() -> dict:
    problems = campaign_problems()
    pool = EnginePool()
    rows = []
    for name, factory, strict_size in problems:
        fresh = _measure(factory, None)
        pooled = _measure(factory, pool)
        rows.append(
            {
                "problem": name,
                "fresh": fresh,
                "campaign": pooled,
                "agree": (
                    fresh["status"] == pooled["status"]
                    and (
                        not strict_size
                        or fresh["model_size"] == pooled["model_size"]
                    )
                ),
            }
        )
    totals = {
        "fresh_time": sum(r["fresh"]["time"] for r in rows),
        "campaign_time": sum(r["campaign"]["time"] for r in rows),
        "fresh_clauses_encoded": sum(
            r["fresh"]["clauses_encoded"] for r in rows
        ),
        "campaign_clauses_encoded": sum(
            r["campaign"]["clauses_encoded"] for r in rows
        ),
        "cross_problem_clauses": sum(
            r["campaign"]["cross_problem_clauses"] for r in rows
        ),
        "all_agree": all(r["agree"] for r in rows),
    }
    if totals["campaign_time"] > 0:
        totals["speedup"] = (
            totals["fresh_time"] / totals["campaign_time"]
        )
    report = {
        "scale": bench_scale(),
        "problems": rows,
        "totals": totals,
        "pool": pool.as_dict(),
    }
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_campaign_ablation():
    """Statuses agree and the pool produces real cross-problem reuse."""
    report = run_campaign_ablation()
    totals = report["totals"]
    assert totals["all_agree"], report
    assert totals["cross_problem_clauses"] > 0, totals
    assert report["pool"]["engine_hits"] >= len(report["problems"]) - 2
    # shared clause groups + shared cells: the campaign encodes less
    assert (
        totals["campaign_clauses_encoded"]
        < totals["fresh_clauses_encoded"]
    ), totals


def main() -> int:
    report = run_campaign_ablation()
    totals = report["totals"]
    print(json.dumps(totals, indent=2))
    print(f"artifact: {ARTIFACT}")
    if not totals["all_agree"]:
        print("FAIL: campaign and fresh-engine results disagree")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
