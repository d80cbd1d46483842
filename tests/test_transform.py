"""Tests for the Sec. 4 preprocessing: selectors, normalize, diseq encoding."""

import pytest

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.semantics import bounded_least_fixpoint
from repro.chc.transform import (
    diseq_rules,
    diseq_symbol,
    encode_diseq,
    has_disequalities,
    is_constraint_free,
    is_diseq_symbol,
    normalize,
    preprocess,
    remove_selectors,
    selector_func,
)
from repro.logic.adt import CONS, NAT, NATLIST, nat_system, natlist_system
from repro.logic.formulas import Eq, Not, TRUE, Tester, diseq as diseq_f
from repro.logic.sorts import PredSymbol
from repro.logic.terms import App, Var
from repro.problems import even_system, incdec_system, s, z

P1 = PredSymbol("p1", (NAT,))
P2 = PredSymbol("p2", (NATLIST, NATLIST))
X = Var("x", NAT)
Y = Var("y", NAT)
XS = Var("xs", NATLIST)
YS = Var("ys", NATLIST)


class TestSelectorRemoval:
    def test_paper_car_cdr_example(self):
        # ~(car(x) = cdr(y)) -> P(x, y)  becomes a constructor-equality
        # guarded clause (Sec. 4.5)
        adts = natlist_system()
        system = CHCSystem(adts)
        car = selector_func(CONS, 0)
        cdr = selector_func(CONS, 1)
        constraint = Not(
            Eq(App(car, (XS,)), App(s(z()).func, (App(car, (YS,)),)))
        )
        system.add(Clause(constraint, (), BodyAtom(P2, (XS, YS))))
        out = remove_selectors(system)
        # no selector symbols remain anywhere
        text = str(out)
        assert "cons.0" not in text
        assert "cons.1" not in text

    def test_selector_in_head_removed(self):
        adts = nat_system()
        system = CHCSystem(adts)
        prev = selector_func(adts.constructor("S"), 0)
        system.add(
            Clause(TRUE, (), BodyAtom(P1, (App(prev, (s(X),)),)))
        )
        out = remove_selectors(system)
        assert "S.0" not in str(out)

    def test_noop_without_selectors(self):
        system = even_system()
        out = remove_selectors(system)
        assert len(out) == len(system)


class TestNormalize:
    def test_even_normalizes_constraint_free(self):
        out = normalize(even_system())
        assert is_constraint_free(out)
        assert len(out) == 3

    def test_incdec_equalities_unified_away(self):
        out = normalize(incdec_system())
        assert is_constraint_free(out)
        # base clause head becomes inc(Z, S(Z))
        base = [c for c in out.clauses if c.name == "inc-base"][0]
        assert str(base.head) == "inc(Z, S(Z))"

    def test_trivially_true_clause_dropped(self):
        system = CHCSystem(nat_system())
        # Z = S(x) is unsatisfiable: clause disappears
        system.add(Clause(Eq(z(), s(X)), (), BodyAtom(P1, (X,))))
        out = normalize(system)
        assert len(out) == 0

    def test_ground_disequality_simplified(self):
        system = CHCSystem(nat_system())
        system.add(
            Clause(diseq_f(z(), s(z())), (), BodyAtom(P1, (X,)))
        )
        out = normalize(system)
        assert len(out) == 1
        assert out.clauses[0].constraint == TRUE

    def test_reflexive_disequality_drops_clause(self):
        system = CHCSystem(nat_system())
        system.add(Clause(diseq_f(X, X), (), BodyAtom(P1, (X,))))
        out = normalize(system)
        assert len(out) == 0

    def test_positive_tester_becomes_equality(self):
        adts = nat_system()
        system = CHCSystem(adts)
        system.add(
            Clause(
                Tester(adts.constructor("S"), X), (), BodyAtom(P1, (X,))
            )
        )
        out = normalize(system)
        assert is_constraint_free(out)
        assert str(out.clauses[0].head).startswith("p1(S(")

    def test_negative_tester_expands_to_others(self):
        adts = nat_system()
        system = CHCSystem(adts)
        system.add(
            Clause(
                Not(Tester(adts.constructor("S"), X)),
                (),
                BodyAtom(P1, (X,)),
            )
        )
        out = normalize(system)
        assert len(out) == 1
        assert str(out.clauses[0].head) == "p1(Z)"

    def test_disjunction_splits_clauses(self):
        from repro.logic.formulas import disj

        system = CHCSystem(nat_system())
        system.add(
            Clause(
                disj(Eq(X, z()), Eq(X, s(z()))), (), BodyAtom(P1, (X,))
            )
        )
        out = normalize(system)
        assert len(out) == 2


class TestDiseqEncoding:
    def test_rules_least_model_is_true_disequality(self):
        # Lemma 3 on a bounded universe: saturate the diseq rules and
        # compare with actual disequality of all term pairs
        adts = nat_system()
        system = CHCSystem(adts)
        for rule in diseq_rules(adts, NAT):
            system.add(rule)
        result = bounded_least_fixpoint(
            system, max_height=4, check_queries=False
        )
        facts = result.facts[diseq_symbol(NAT)]
        terms = adts.terms_up_to_height(NAT, 4)
        for a in terms:
            for b in terms:
                assert ((a, b) in facts) == (a != b)

    def test_encode_produces_constraint_free(self):
        system = CHCSystem(nat_system())
        system.add(
            Clause(diseq_f(X, Y), (BodyAtom(P1, (X,)),), BodyAtom(P1, (Y,)))
        )
        out = encode_diseq(normalize(system.copy()))
        assert is_constraint_free(out)
        assert any(is_diseq_symbol(p) for p in out.predicates.values())

    def test_transitive_sort_closure(self):
        # diseq over NatList requires diseq over Nat (element positions)
        system = CHCSystem(natlist_system())
        system.add(
            Clause(
                diseq_f(XS, YS), (BodyAtom(P2, (XS, YS)),), None
            )
        )
        out = encode_diseq(normalize(system))
        names = set(out.predicates)
        assert diseq_symbol(NATLIST).name in names
        assert diseq_symbol(NAT).name in names

    def test_paper_example_3_shape(self):
        # S = { Z != S(Z) -> false } produces rules + rewritten query;
        # with our normalizer the ground true literal is simplified first,
        # so encode the un-simplifiable variable form instead
        system = CHCSystem(nat_system())
        system.add(Clause(diseq_f(X, s(X)), (), None, "q"))
        out = encode_diseq(normalize(system))
        query = out.queries[0]
        assert is_diseq_symbol(query.body[0].pred)

    def test_has_disequalities(self):
        system = CHCSystem(nat_system())
        system.add(Clause(diseq_f(X, Y), (BodyAtom(P1, (X,)),), None))
        assert has_disequalities(system)
        assert not has_disequalities(even_system())


class TestPreprocess:
    @pytest.mark.parametrize(
        "factory",
        [even_system, incdec_system],
        ids=["even", "incdec"],
    )
    def test_preprocess_is_constraint_free(self, factory):
        assert is_constraint_free(preprocess(factory()))

    def test_preprocess_preserves_satisfiability_direction(self):
        # Theorem 5 direction used by the pipeline: any finite model of
        # the preprocessed system induces a Herbrand model of the
        # original; exercised end-to-end by the core tests.  Here: the
        # preprocessed Even admits the same bounded least model on the
        # original predicate.
        original = even_system()
        prepared = preprocess(original)
        fp_orig = bounded_least_fixpoint(
            original, max_height=5, check_queries=False
        )
        fp_prep = bounded_least_fixpoint(
            prepared, max_height=5, check_queries=False
        )
        even = original.predicates["even"]
        assert fp_orig.facts[even] == fp_prep.facts[even]
