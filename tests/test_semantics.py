"""Tests for ground semantics: constraint evaluation, bounded fixpoints."""

import pytest

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.semantics import (
    ClauseViolation,
    SemanticsError,
    bounded_least_fixpoint,
    check_model_bounded,
    eval_constraint,
)
from repro.logic.adt import NAT, nat, nat_system, nat_value
from repro.logic.formulas import And, Eq, Not, Or, TRUE, Tester, conj
from repro.logic.sorts import PredSymbol
from repro.logic.terms import Var
from repro.problems import (
    even_system,
    incdec_system,
    odd_unsat_system,
    s,
    z,
)

ADTS = nat_system()
X = Var("x", NAT)


class TestEvalConstraint:
    def test_equality(self):
        assert eval_constraint(Eq(nat(2), nat(2)), ADTS)
        assert not eval_constraint(Eq(nat(2), nat(3)), ADTS)

    def test_tester(self):
        assert eval_constraint(Tester(ADTS.constructor("S"), nat(1)), ADTS)
        assert not eval_constraint(Tester(ADTS.constructor("S"), nat(0)), ADTS)

    def test_boolean_connectives(self):
        t = Eq(nat(1), nat(1))
        f = Eq(nat(1), nat(2))
        assert eval_constraint(And((t, t)), ADTS)
        assert not eval_constraint(And((t, f)), ADTS)
        assert eval_constraint(Or((f, t)), ADTS)
        assert eval_constraint(Not(f), ADTS)

    def test_non_ground_rejected(self):
        with pytest.raises(SemanticsError):
            eval_constraint(Eq(X, nat(1)), ADTS)


class TestBoundedFixpoint:
    def test_even_facts_are_the_even_numerals(self):
        result = bounded_least_fixpoint(
            even_system(), max_height=7, check_queries=False
        )
        even = even_system().predicates["even"]
        values = sorted(nat_value(args[0]) for args in result.facts[even])
        assert values == [0, 2, 4, 6]

    def test_incdec_facts(self):
        system = incdec_system()
        result = bounded_least_fixpoint(
            system, max_height=5, check_queries=False
        )
        inc = system.predicates["inc"]
        pairs = {
            (nat_value(a), nat_value(b)) for a, b in result.facts[inc]
        }
        assert pairs == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_safe_system_has_no_refutation(self):
        result = bounded_least_fixpoint(even_system(), max_height=6)
        assert result.refutation is None

    def test_unsat_system_finds_refutation(self):
        result = bounded_least_fixpoint(odd_unsat_system(), max_height=4)
        assert result.refutation is not None

    def test_refutation_is_a_derivation_of_false(self):
        result = bounded_least_fixpoint(odd_unsat_system(), max_height=4)
        d = result.refutation
        assert d.conclusion is None
        assert d.depth() >= 1
        assert "false" in d.format()

    def test_derivation_premises_are_derived_facts(self):
        result = bounded_least_fixpoint(odd_unsat_system(), max_height=4)

        def check(d):
            for premise in d.premises:
                pred, args = premise.conclusion
                assert result.holds(pred, args)
                check(premise)

        check(result.refutation)

    def test_max_facts_cap_marks_unsaturated(self):
        result = bounded_least_fixpoint(
            even_system(), max_height=12, max_facts=2, check_queries=False
        )
        assert not result.saturated

    def test_step_budget_marks_unsaturated(self):
        result = bounded_least_fixpoint(
            even_system(), max_height=7, max_steps=3, check_queries=False
        )
        assert not result.saturated

    def test_saturation_detected_for_closed_systems(self):
        # single fact, no recursion: saturates immediately
        system = CHCSystem(nat_system())
        p = PredSymbol("p", (NAT,))
        system.add(Clause(TRUE, (), BodyAtom(p, (z(),))))
        result = bounded_least_fixpoint(system, max_height=3)
        assert result.saturated
        assert result.fact_count() == 1


class TestCheckModelBounded:
    def test_true_invariant_passes(self):
        system = even_system()
        even = system.predicates["even"]

        def interp(pred, args):
            return nat_value(args[0]) % 2 == 0

        assert check_model_bounded(system, interp, max_height=5) is None

    def test_wrong_invariant_reports_violation(self):
        system = even_system()

        def interp(pred, args):
            return True  # accepts everything: violates the query

        violation = check_model_bounded(system, interp, max_height=4)
        assert isinstance(violation, ClauseViolation)
        assert violation.clause.is_query
        assert "violated" in str(violation)

    def test_non_inductive_invariant_reports_definite_violation(self):
        system = even_system()

        def interp(pred, args):
            return nat_value(args[0]) == 0  # not closed under the step

        violation = check_model_bounded(system, interp, max_height=4)
        assert violation is not None
        assert not violation.clause.is_query


def _reference_instances(cl, adts, max_height, max_instances):
    """Every assignment of the clause's variables over their shrunk
    pools under which its constraint holds, by brute force."""
    import itertools

    from repro.chc.semantics import _shrink_pools

    free = sorted(cl.free_vars(), key=lambda v: v.name)
    pools = _shrink_pools(
        [adts.terms_up_to_height(v.sort, max_height) for v in free],
        max_instances,
    )
    out = set()
    for combo in itertools.product(*pools):
        assignment = dict(zip(free, combo))
        if eval_constraint(cl.constraint, adts, assignment):
            out.add(frozenset(assignment.items()))
    return out


def _checked_systems():
    from repro.problems import diag_system
    from repro.stlc import stlc_problems

    systems = [p.system() for p in stlc_problems()]
    return systems + [even_system(), incdec_system(), diag_system()]


class TestBoundedInstances:
    """The bounded check computes the variables a top-level equality of
    the constraint defines instead of enumerating them; the instances it
    visits must be exactly the constrained product of the pools."""

    @pytest.mark.parametrize("max_height", [2, 3])
    def test_instances_equal_the_constrained_product(self, max_height):
        from repro.chc.semantics import _bounded_instances

        seen = set()
        checked = 0
        for system in _checked_systems():
            for cl in system.clauses:
                # the 23 STLC systems share all clauses but the query
                if str(cl) in seen:
                    continue
                seen.add(str(cl))
                got = [
                    frozenset(a.items())
                    for a in _bounded_instances(
                        cl, system.adts, max_height, 200_000
                    )
                ]
                assert len(got) == len(set(got))
                assert set(got) == _reference_instances(
                    cl, system.adts, max_height, 200_000
                ), str(cl)
                checked += 1
        assert checked == 4 + 23 + 3 + 5 + 5

    def test_equalities_define_variables(self):
        from repro.chc.semantics import _definitions
        from repro.stlc import stlc_problems

        system = stlc_problems()[0].system()
        skip = next(c for c in system.clauses if c.name == "tc-var-skip")
        defined = _definitions(skip.constraint)
        assert sorted(v.name for v in defined) == ["G", "e"]
        # x = S(x) mentions x itself, and y = S(x) would define a
        # variable the definition x = S(y) mentions
        y = Var("y", NAT)
        assert _definitions(Eq(X, s(X))) == {}
        assert _definitions(conj(Eq(s(y), X), Eq(y, s(X)))) == {X: s(y)}

    def test_planted_tc_var_skip_violation_is_reported(self):
        """An interpretation wrong on one instance of ``tc-var-skip``
        alone, two of whose variables equalities define, is caught."""
        from repro.stlc.adts import cons_env, empty, evar, prim_p, vx, vy
        from repro.stlc.vc import TYPECHECK, typecheck_vc

        system = typecheck_vc()
        # the query's universal block is checked exactly, not here
        definite = CHCSystem(system.adts, dict(system.predicates))
        definite.extend(c for c in system.clauses if not c.is_query)
        env, expr = cons_env(vy(), prim_p(), empty()), evar(vx())
        planted = (env, expr, prim_p())

        def interp(pred, args):
            return not (pred == TYPECHECK and args == planted)

        violation = check_model_bounded(definite, interp)
        assert violation is not None
        assert violation.clause.name == "tc-var-skip"
        values = {v.name: t for v, t in violation.assignment.items()}
        assert (values["G"], values["e"], values["t"]) == planted
        assert check_model_bounded(definite, lambda p, a: True) is None
