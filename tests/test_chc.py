"""Tests for the CHC IR: clauses, systems, parser/printer round-trips."""

import pytest

from repro.chc.clauses import BodyAtom, CHCError, CHCSystem, Clause
from repro.chc.parser import ParseError, parse_chc, parse_sexprs, tokenize
from repro.chc.printer import print_system
from repro.logic.adt import NAT, nat_system
from repro.logic.formulas import Eq, TRUE
from repro.logic.sorts import PredSymbol, Sort
from repro.logic.terms import Var
from repro.problems import (
    diag_system,
    even_system,
    evenleft_system,
    incdec_system,
    ltgt_system,
    s,
    z,
)

P = PredSymbol("p", (NAT,))
X = Var("x", NAT)
Y = Var("y", NAT)


class TestClauses:
    def test_body_atom_arity_checked(self):
        with pytest.raises(CHCError):
            BodyAtom(P, (X, Y))

    def test_body_atom_sort_checked(self):
        q = PredSymbol("q", (Sort("Other"),))
        with pytest.raises(CHCError):
            BodyAtom(q, (X,))

    def test_query_clause(self):
        c = Clause(TRUE, (BodyAtom(P, (X,)),), None)
        assert c.is_query
        assert not c.is_fact

    def test_fact_clause(self):
        c = Clause(TRUE, (), BodyAtom(P, (z(),)))
        assert c.is_fact

    def test_head_universal_block_rejected(self):
        blocked = BodyAtom(P, (X,), universal_vars=(X,))
        with pytest.raises(CHCError):
            Clause(TRUE, (), blocked)

    def test_free_vars_excludes_universals(self):
        blocked = BodyAtom(P, (X,), universal_vars=(X,))
        c = Clause(TRUE, (blocked,), None)
        assert c.free_vars() == set()

    def test_free_vars_includes_constraint(self):
        c = Clause(Eq(X, z()), (), BodyAtom(P, (Y,)))
        assert c.free_vars() == {X, Y}

    def test_substituted(self):
        c = Clause(Eq(X, z()), (BodyAtom(P, (X,)),), BodyAtom(P, (s(X),)))
        d = c.substituted({X: s(z())})
        assert d.body[0].args[0] == s(z())
        assert d.head.args[0] == s(s(z()))

    def test_renamed_is_alpha_equivalent(self):
        c = Clause(TRUE, (BodyAtom(P, (X,)),), BodyAtom(P, (s(X),)))
        d = c.renamed("_1")
        assert d.free_vars() == {Var("x_1", NAT)}

    def test_universal_vars_not_substituted(self):
        blocked = BodyAtom(P, (X,), universal_vars=(X,))
        c = Clause(TRUE, (blocked,), None)
        d = c.substituted({X: z()})
        assert d.body[0].args[0] == X


class TestSystems:
    def test_declare_and_add(self):
        system = CHCSystem(nat_system())
        c = Clause(TRUE, (), BodyAtom(P, (z(),)))
        system.add(c)
        assert "p" in system.predicates
        assert len(system) == 1

    def test_redeclaration_conflict(self):
        system = CHCSystem(nat_system())
        system.declare(P)
        with pytest.raises(CHCError):
            system.declare(PredSymbol("p", (NAT, NAT)))

    def test_queries_and_definites(self):
        system = even_system()
        assert len(system.queries) == 1
        assert len(system.definite_clauses) == 2

    def test_clauses_defining(self):
        system = even_system()
        even = system.predicates["even"]
        assert len(system.clauses_defining(even)) == 2

    def test_copy_is_independent(self):
        system = even_system()
        other = system.copy()
        other.add(Clause(TRUE, (), BodyAtom(P, (z(),))))
        assert len(other) == len(system) + 1

    def test_fresh_pred_name(self):
        system = even_system()
        assert system.fresh_pred_name("even") == "even_1"
        assert system.fresh_pred_name("new") == "new"


class TestTokenizer:
    def test_basic_tokens(self):
        assert list(tokenize("(a (b c))")) == ["(", "a", "(", "b", "c", ")", ")"]

    def test_comments_stripped(self):
        assert list(tokenize("a ; comment\nb")) == ["a", "b"]

    def test_quoted_symbols(self):
        assert list(tokenize("|hello world|")) == ["hello world"]

    def test_unterminated_quote(self):
        with pytest.raises(ParseError):
            list(tokenize("|oops"))

    def test_sexpr_parsing(self):
        assert parse_sexprs("(a (b) c) d") == [["a", ["b"], "c"], "d"]

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_sexprs("(a (b)")
        with pytest.raises(ParseError):
            parse_sexprs("a)")


EVEN_SMT = """
(set-logic HORN)
(declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
(declare-fun even (Nat) Bool)
(assert (forall ((x Nat)) (=> (= x Z) (even x))))
(assert (forall ((x Nat) (y Nat))
  (=> (and (= x (S (S y))) (even y)) (even x))))
(assert (forall ((x Nat) (y Nat))
  (=> (and (even x) (even y) (= y (S x))) false)))
(check-sat)
"""


class TestParser:
    def test_parse_even(self):
        system = parse_chc(EVEN_SMT)
        assert len(system) == 3
        assert len(system.queries) == 1
        assert "even" in system.predicates

    def test_selector_parsing(self):
        text = EVEN_SMT.replace(
            "(= x (S (S y)))", "(= (prev x) (S y))"
        )
        system = parse_chc(text)
        assert len(system) == 3

    def test_tester_parsing(self):
        text = """
        (declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (forall ((x Nat)) (=> ((_ is Z) x) (p x))))
        """
        system = parse_chc(text)
        assert len(system) == 1

    def test_distinct_parsing(self):
        text = """
        (declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (forall ((x Nat)) (=> (distinct x Z) (p x))))
        """
        system = parse_chc(text)
        assert len(system) == 1

    def test_unknown_symbol_rejected(self):
        text = """
        (declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (forall ((x Nat)) (=> (= x W) (p x))))
        """
        with pytest.raises(ParseError):
            parse_chc(text)

    def test_unsupported_command_rejected(self):
        with pytest.raises(ParseError):
            parse_chc("(define-fun f () Bool true)")

    def test_no_datatypes_rejected(self):
        with pytest.raises(ParseError):
            parse_chc("(declare-fun p () Bool)(assert p)")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [even_system, incdec_system, diag_system, ltgt_system, evenleft_system],
        ids=["even", "incdec", "diag", "ltgt", "evenleft"],
    )
    def test_print_parse_roundtrip(self, factory):
        system = factory()
        text = print_system(system)
        reparsed = parse_chc(text)
        assert len(reparsed) == len(system)
        assert set(reparsed.predicates) == set(system.predicates)
        # round-trip again: printing the reparse is a fixpoint
        assert print_system(reparsed) == text

    def test_solver_agrees_after_roundtrip(self):
        from repro import solve

        system = even_system()
        reparsed = parse_chc(print_system(system))
        assert solve(reparsed, timeout=10).is_sat
