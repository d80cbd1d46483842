"""Tests for the refutation checker (``repro.core.certify``)."""

import dataclasses

import pytest

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.semantics import Derivation
from repro.chc.transform import is_diseq_symbol, preprocess
from repro.core.certify import replay
from repro.core.cex import CexSearchResult, search_counterexample
from repro.logic.adt import NAT, nat_system
from repro.logic.formulas import Eq, Not, TRUE
from repro.logic.sorts import PredSymbol
from repro.logic.terms import Var
from repro.problems import odd_unsat_system, s, z

P = PredSymbol("P", (NAT,))


def two_numerals_system() -> CHCSystem:
    """``P`` holds of every numeral, and the query says two of them are
    equal: unsat, refuted through a ``diseq`` fact once preprocessed."""
    x, y = Var("x", NAT), Var("y", NAT)
    system = CHCSystem(nat_system(), name="two-numerals")
    system.add(Clause(TRUE, (), BodyAtom(P, (z(),)), "p-base"))
    system.add(
        Clause(TRUE, (BodyAtom(P, (x,)),), BodyAtom(P, (s(x),)), "p-step")
    )
    system.add(
        Clause(
            Not(Eq(x, y)),
            (BodyAtom(P, (x,)), BodyAtom(P, (y,))),
            None,
            "p-query",
        )
    )
    return system


@pytest.fixture
def refuted():
    """The preprocessed two-numerals system and its refutation."""
    prepared = preprocess(two_numerals_system())
    out = search_counterexample(prepared, max_height=3)
    assert out.found
    return prepared, out.refutation


def _rule(system, name):
    return next(c for c in system.clauses if c.name == name)


class TestReplay:
    def test_refutations_replay(self, refuted):
        prepared, refutation = refuted
        assert replay(prepared, refutation) is None
        odd = preprocess(odd_unsat_system())
        out = search_counterexample(odd, max_height=4)
        assert replay(odd, out.refutation) is None

    def test_swapped_premises_are_rejected(self, refuted):
        prepared, refutation = refuted
        first, second, *rest = refutation.premises
        assert first.conclusion != second.conclusion
        swapped = dataclasses.replace(
            refutation, premises=(second, first, *rest)
        )
        failure = replay(prepared, swapped)
        assert failure is not None and "does not match" in failure

    def test_a_conclusion_that_does_not_match_is_rejected(self, refuted):
        prepared, refutation = refuted
        # the base fact P(Z) changed to P(S(Z)), where the root needs
        # P(S(Z))
        names = [p.clause.name for p in refutation.premises]
        base = refutation.premises[names.index("p-base")]
        changed = dataclasses.replace(base, conclusion=(P, (s(z()),)))
        premises = list(refutation.premises)
        premises[names.index("p-step")] = changed
        root = dataclasses.replace(refutation, premises=tuple(premises))
        failure = replay(prepared, root)
        assert failure is not None and "does not match the head" in failure

    def test_a_clause_outside_the_system_is_rejected(self, refuted):
        prepared, refutation = refuted
        twin = dataclasses.replace(refutation.clause)
        assert twin == refutation.clause and twin is not refutation.clause
        failure = replay(
            prepared, dataclasses.replace(refutation, clause=twin)
        )
        assert failure is not None and "not in the system" in failure

    def test_an_equal_diseq_pair_is_rejected(self, refuted):
        prepared, refutation = refuted
        one = s(z())
        p_one = Derivation(
            _rule(prepared, "p-step"), (P, (one,)),
            (Derivation(_rule(prepared, "p-base"), (P, (z(),))),),
        )
        diseq_step = next(
            c
            for c in prepared.clauses
            if c.head is not None
            and is_diseq_symbol(c.head.pred)
            and c.body
        )
        # diseq(S(Z), S(Z)) matches the rule diseq(x, y) -> diseq(S(x),
        # S(y)); only its arguments' equality is wrong
        equal = Derivation(
            diseq_step, (diseq_step.head.pred, (one, one)),
            (Derivation(diseq_step, (diseq_step.head.pred, (z(), z()))),),
        )
        premises = []
        for atom in refutation.clause.body:
            premises.append(equal if is_diseq_symbol(atom.pred) else p_one)
        root = dataclasses.replace(refutation, premises=tuple(premises))
        failure = replay(prepared, root)
        assert failure is not None and "equal arguments" in failure

    def test_a_root_that_derives_a_fact_is_rejected(self, refuted):
        prepared, refutation = refuted
        assert "does not derive false" in replay(
            prepared, refutation.premises[0]
        )
        # a query step below the root derives false too early
        nested = Derivation(
            _rule(prepared, "p-step"), (P, (s(z()),)), (refutation,)
        )
        root = dataclasses.replace(
            refutation, premises=(nested, *refutation.premises[1:])
        )
        assert replay(prepared, root) is not None

    def test_a_universal_block_cannot_be_replayed(self):
        x, a = Var("x", NAT), Var("a", NAT)
        system = CHCSystem(nat_system())
        system.add(Clause(TRUE, (), BodyAtom(P, (x,)), "p-all"))
        query = system.add(
            Clause(
                TRUE, (BodyAtom(P, (a,), universal_vars=(a,)),), None, "q"
            )
        )
        failure = replay(system, Derivation(query, None, ()))
        assert failure is not None and "universal block" in failure


class TestUncertifiedAnswers:
    """A refutation that does not replay is never answered UNSAT."""

    def _bogus_search(self, system, **kwargs):
        clause = Clause(TRUE, (), None, "not-in-the-system")
        return CexSearchResult(Derivation(clause, None, ()), 2, 0.0)

    def test_ringen_answers_unknown(self, monkeypatch):
        import repro.core.ringen as ringen

        monkeypatch.setattr(
            ringen, "search_counterexample", self._bogus_search
        )
        result = ringen.solve(odd_unsat_system(), timeout=10)
        assert result.is_unknown
        assert result.reason.startswith("internal error: uncertified")

    def test_a_baseline_answers_unknown(self, monkeypatch):
        import repro.solvers.synth as synth
        from repro.solvers import make_solver

        monkeypatch.setattr(
            synth, "search_counterexample", self._bogus_search
        )
        result = make_solver("elem", 5).solve(odd_unsat_system())
        assert result.is_unknown
        assert result.reason.startswith("internal error: uncertified")


def test_baseline_refutations_replay():
    """The baselines' cex search (normalized, selector-free systems) on
    the TIP ``broken`` problems it refutes: every refutation replays."""
    from repro.benchgen import tip_suite
    from repro.chc.transform import normalize, remove_selectors

    found = 0
    for problem in tip_suite().problems:
        if problem.family != "broken":
            continue
        system = normalize(remove_selectors(problem.build()))
        out = search_counterexample(
            system, max_height=4, max_facts=100_000
        )
        if out.found:
            found += 1
            assert replay(system, out.refutation) is None, problem.name
    assert found == 17
