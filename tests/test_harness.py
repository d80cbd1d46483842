"""Tests for the experiment harness: campaigns, Table 1, figure data."""

import pytest

from repro.benchgen.suite import Suite
from repro.core.result import Status
from repro.harness import (
    SOLVER_ORDER,
    figure4_data,
    figure5_data,
    figure6_data,
    format_histogram,
    format_scatter,
    format_table1,
    make_solver,
    run_campaign,
    run_problem,
    table1,
)
from repro.problems import even_system, incdec_system, odd_unsat_system


def tiny_suite() -> Suite:
    suite = Suite("Tiny")
    suite.add("even", "parity", even_system, "sat", ("Reg", "SizeElem"))
    suite.add("incdec", "offset", incdec_system, "sat",
              ("Reg", "Elem", "SizeElem"))
    suite.add("broken", "broken", odd_unsat_system, "unsat")
    return suite


@pytest.fixture(scope="module")
def campaign():
    return run_campaign([tiny_suite()], timeout=6.0)


class TestRunner:
    def test_make_solver_aliases(self):
        for name in SOLVER_ORDER:
            solver = make_solver(name, timeout=1.0)
            assert hasattr(solver, "solve")
        with pytest.raises(ValueError):
            make_solver("z3", 1.0)

    def test_run_problem_scores_correctness(self):
        problem = tiny_suite().problems[0]
        record = run_problem(problem, "ringen", timeout=10)
        assert record.status is Status.SAT
        assert record.correct
        assert record.model_size == 2

    def test_campaign_shape(self, campaign):
        assert len(campaign.records) == 3 * len(SOLVER_ORDER)

    def test_ringen_solves_everything_in_tiny(self, campaign):
        for record in campaign.for_solver("ringen"):
            assert record.solved, record.problem.name

    def test_cvc4_ind_gets_only_unsat(self, campaign):
        sat = campaign.count("Tiny", "cvc4-ind", Status.SAT)
        unsat = campaign.count("Tiny", "cvc4-ind", Status.UNSAT)
        assert sat == 0
        assert unsat == 1

    def test_spacer_solves_incdec_not_even(self, campaign):
        even = campaign.record("even", "spacer")
        incdec = campaign.record("incdec", "spacer")
        assert even.status is Status.UNKNOWN
        assert incdec.status is Status.SAT


class TestTable1:
    def test_counts(self, campaign):
        rows = table1(campaign, {"Tiny": 3})
        sat_row = [r for r in rows if r.suite == "Tiny" and r.answer == "SAT"][0]
        assert sat_row.counts["ringen"] == 2
        assert sat_row.counts["cvc4-ind"] == 0
        unsat_row = [
            r for r in rows if r.suite == "Tiny" and r.answer == "UNSAT"
        ][0]
        assert unsat_row.counts["ringen"] == 1

    def test_formatting(self, campaign):
        rows = table1(campaign, {"Tiny": 3})
        text = format_table1(rows)
        assert "ringen (Reg)" in text
        assert "spacer (Elem)" in text
        assert "Total" in text

    def test_unique_counts(self, campaign):
        unique = campaign.unique_count(
            "Tiny", "ringen", Status.SAT, SOLVER_ORDER
        )
        # even is solved by ringen and eldarica; incdec by several —
        # uniqueness depends on the others, just check bounds
        assert 0 <= unique <= 2


class TestFigures:
    def test_figure4_pairs(self, campaign):
        data = figure4_data(campaign)
        assert set(data) == set(SOLVER_ORDER) - {"ringen"}
        for points in data.values():
            assert len(points) == 3
            for x, y, name in points:
                assert 0 <= x <= campaign.timeout + 1
                assert 0 <= y <= campaign.timeout + 1

    def test_figure5_sat_only(self, campaign):
        data = figure5_data(campaign)
        for solver, points in data.items():
            names = {name for _, _, name in points}
            assert "broken" not in names  # UNSAT problem excluded

    def test_figure6_histogram(self, campaign):
        histogram = figure6_data(campaign)
        assert histogram.get(2) == 1  # Even's model
        assert histogram.get(3) == 1  # IncDec's model

    def test_renderers(self, campaign):
        assert "vs" in format_scatter(figure4_data(campaign), title="t")
        assert "size" in format_histogram(figure6_data(campaign), title="t")
        assert "(no models)" in format_histogram({}, title="t")


class TestProblemMetadata:
    def test_problem_str(self):
        p = tiny_suite().problems[0]
        assert "Tiny/even" in str(p)
        assert "Reg" in str(p)

    def test_suite_selectors(self):
        suite = tiny_suite()
        assert len(suite.sat_problems()) == 2
        assert len(suite.unsat_problems()) == 1
        assert set(suite.by_family()) == {"parity", "offset", "broken"}
