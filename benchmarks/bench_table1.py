"""Experiment E1-E3: regenerate Table 1 (Sec. 8).

Paper's shape (300 s timeout, the authors' testbed):

    PositiveEq (35):  RInGen 27 SAT  >>  Spacer 4, Eldarica 1
    Diseq (25):       RInGen 4 SAT + 1 UNSAT; others <= 2 SAT
    TIP (454):        Eldarica 46 SAT > RInGen 30 > Spacer 26;
                      UNSAT: RInGen 21 ~ Spacer 22 > CVC4-Ind 13 > Eldarica 12
    CVC4-Ind:         0 SAT everywhere

What must hold here (scaled-down timeouts; see EXPERIMENTS.md for the
measured numbers): RInGen dominates PositiveEq by a wide margin; the Diseq
subset collapses everyone's SAT counts; the single Diseq UNSAT is found;
on TIP the ordering problems make the SizeElem baseline the SAT leader
while the structural-parity problems are RInGen-only.

The rendered table is written to benchmarks/output/table1*.txt.

At the quick scale (2 s per run) two columns vary between runs of the
same code: Eldarica (SizeElem) Diseq SAT (4 then 6 in two runs) and TIP
SAT (6 then 5), because several SizeElem solves end within the last
tenths of a second of their budget.  Every other column repeats.  A
before/after Table-1 report therefore takes at least two runs per side.
The assertions below read the Diseq column not at all, and the TIP
column only through ``sat["eldarica"] >= sat["spacer"]`` and a unique
Eldarica solve, which held in every such run.
"""

import pytest

from repro.core.result import Status
from repro.harness import format_table1, table1
from repro.harness.runner import run_problem
from repro.problems import even_system

from conftest import write_artifact


def test_table1_positiveeq(benchmark, adtbench_campaign):
    campaign, sizes = adtbench_campaign
    rows = table1(campaign, {"PositiveEq": sizes["PositiveEq"]})
    text = format_table1(rows)
    write_artifact("table1_positiveeq.txt", text)
    print("\n" + text)

    sat = {
        s: campaign.count("PositiveEq", s, Status.SAT)
        for s in ("ringen", "spacer", "eldarica", "cvc4-ind")
    }
    # the paper's headline: regular invariants dominate this suite
    assert sat["ringen"] >= 20
    assert sat["ringen"] > sat["spacer"]
    assert sat["ringen"] > sat["eldarica"]
    assert sat["cvc4-ind"] == 0
    # no incorrect verdicts anywhere
    assert all(r.correct for r in campaign.for_suite("PositiveEq"))

    # benchmark proper: one representative RInGen solve
    from repro.benchgen import positiveeq_suite

    problem = positiveeq_suite().problems[0]
    benchmark.pedantic(
        lambda: run_problem(problem, "ringen", 2.0), rounds=3, iterations=1
    )


def test_table1_diseq(benchmark, adtbench_campaign):
    campaign, sizes = adtbench_campaign
    rows = table1(campaign, {"Diseq": sizes["Diseq"]})
    text = format_table1(rows)
    write_artifact("table1_diseq.txt", text)
    print("\n" + text)

    ringen_sat = campaign.count("Diseq", "ringen", Status.SAT)
    ringen_unsat = campaign.count("Diseq", "ringen", Status.UNSAT)
    pos_sat = campaign.count("PositiveEq", "ringen", Status.SAT)
    # Sec. 4.4's prediction: diseq problems rarely have finite models
    assert ringen_sat <= 8
    assert ringen_sat / sizes["Diseq"] < pos_sat / sizes["PositiveEq"]
    # the one UNSAT problem is refuted
    assert ringen_unsat == 1
    assert all(r.correct for r in campaign.for_suite("Diseq"))

    from repro.benchgen import diseq_suite

    problem = diseq_suite().problems[0]  # diseq-guard-2: solvable
    benchmark.pedantic(
        lambda: run_problem(problem, "ringen", 2.0), rounds=3, iterations=1
    )


def test_table1_tip(benchmark, tip_campaign):
    campaign, sizes = tip_campaign
    rows = table1(campaign, sizes)
    text = format_table1(rows)
    write_artifact("table1_tip.txt", text)
    print("\n" + text)

    sat = {
        s: campaign.count("TIP", s, Status.SAT)
        for s in ("ringen", "spacer", "eldarica", "cvc4-ind")
    }
    unsat = {
        s: campaign.count("TIP", s, Status.UNSAT)
        for s in ("ringen", "spacer", "eldarica", "cvc4-ind")
    }
    # shape: the SizeElem baseline leads SAT counts (orderings), every
    # solver leaves the long tail unsolved, CVC4-Ind proves nothing SAT
    assert sat["eldarica"] >= sat["spacer"]
    assert sat["ringen"] > 0
    assert sat["cvc4-ind"] == 0
    # unique SATs exist on both sides (structural vs ordering problems).
    # Uniqueness is computed among the *invariant-producing* solvers: our
    # VeriMAP proxy shares the size engine with the SizeElem baseline (the
    # original tool certifies at the transformed level), so including it
    # would structurally shadow Eldarica's ordering solves.
    invariant_solvers = ["ringen", "spacer", "eldarica", "cvc4-ind"]
    uniq_ringen = campaign.unique_count(
        "TIP", "ringen", Status.SAT, invariant_solvers
    )
    uniq_eldarica = campaign.unique_count(
        "TIP", "eldarica", Status.SAT, invariant_solvers
    )
    assert uniq_ringen > 0
    assert uniq_eldarica > 0
    # refutations: the graded broken problems are found by the deeper
    # searchers at least as often as by the shallow ones
    assert unsat["ringen"] > 0
    assert all(r.correct for r in campaign.for_suite("TIP"))

    benchmark.pedantic(
        lambda: run_problem(
            # a parity problem both RInGen and Eldarica solve
            [p for p in __import__("repro.benchgen", fromlist=["tip_suite"])
             .tip_suite().problems if p.family == "parity"][0],
            "ringen",
            2.0,
        ),
        rounds=3,
        iterations=1,
    )


def test_table1_total_row(benchmark, adtbench_campaign):
    campaign, sizes = adtbench_campaign
    rows = benchmark.pedantic(
        lambda: table1(campaign, sizes), rounds=1, iterations=1
    )
    total_sat = [r for r in rows if r.suite == "Total" and r.answer == "SAT"]
    assert len(total_sat) == 1
    assert total_sat[0].counts["ringen"] == (
        campaign.count("PositiveEq", "ringen", Status.SAT)
        + campaign.count("Diseq", "ringen", Status.SAT)
    )
