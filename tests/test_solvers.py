"""Tests for the baseline solvers: Elem, SizeElem, Induct, VeriMAP.

The key assertions mirror Figure 3: each solver succeeds exactly on the
programs whose invariants its representation class contains (and within
its search budgets), and diverges on the rest.
"""

import pytest

from repro.logic.adt import NAT, nat, nat_system, nat_value
from repro.problems import (
    diag_system,
    even_system,
    evenleft_system,
    incdec_system,
    ltgt_system,
    odd_unsat_system,
)
from repro.solvers.elem import (
    ElemConfig,
    ElemSolver,
    ground_instances,
    implied_negatives,
    solve_elem,
    terms_capped,
)
from repro.solvers.induct import solve_induct
from repro.solvers.sizeelem import (
    SizeAtom,
    SizeTemplate,
    abstract_system,
    size_expr,
    solve_sizeelem,
)
from repro.solvers.verimap import solve_verimap
from repro.theory.normal_form import (
    ELEM_FALSE,
    ELEM_TRUE,
    ElemFormula,
    GroundEqAtom,
    Literal,
    PathEqAtom,
    PathTesterAtom,
)
from repro.theory.paths import EMPTY_PATH, Path, Step

NATS = nat_system()


class TestNormalFormEval:
    def test_tester_guarded(self):
        atom = PathTesterAtom(0, Path((Step("S", 0),)), "Z")
        # S.0(Z) is undefined: guarded false
        assert not atom.eval((nat(0),), NATS)
        assert atom.eval((nat(1),), NATS)
        assert not atom.eval((nat(2),), NATS)

    def test_path_eq(self):
        atom = PathEqAtom(0, Path((Step("S", 0),)), 1, EMPTY_PATH)
        assert atom.eval((nat(3), nat(2)), NATS)  # pred(3) = 2
        assert not atom.eval((nat(3), nat(3)), NATS)
        assert not atom.eval((nat(0), nat(0)), NATS)  # undefined

    def test_ground_eq(self):
        atom = GroundEqAtom(0, EMPTY_PATH, nat(2))
        assert atom.eval((nat(2),), NATS)
        assert not atom.eval((nat(1),), NATS)

    def test_literal_negation(self):
        atom = GroundEqAtom(0, EMPTY_PATH, nat(0))
        assert Literal(atom, False).eval((nat(1),), NATS)
        assert not Literal(atom, False).eval((nat(0),), NATS)

    def test_formula_dnf_semantics(self):
        a = Literal(GroundEqAtom(0, EMPTY_PATH, nat(0)), True)
        b = Literal(GroundEqAtom(0, EMPTY_PATH, nat(1)), True)
        either = ElemFormula(((a,), (b,)))
        assert either.eval((nat(0),), NATS)
        assert either.eval((nat(1),), NATS)
        assert not either.eval((nat(2),), NATS)

    def test_true_and_false(self):
        assert ELEM_TRUE.eval((nat(5),), NATS)
        assert not ELEM_FALSE.eval((nat(5),), NATS)
        assert str(ELEM_FALSE) == "false"


class TestElemSolver:
    def test_incdec_sat_with_offset_invariant(self):
        result = solve_elem(incdec_system(), timeout=20)
        assert result.is_sat
        text = result.invariant.describe()
        assert "inc" in text and "dec" in text
        # the inc invariant must hold exactly on the +1 pairs near zero
        inc = [p for p in result.invariant.formulas if p.name == "inc"][0]
        assert result.invariant.member(inc, (nat(2), nat(3)))
        assert not result.invariant.member(inc, (nat(2), nat(2)))

    def test_diag_sat_with_equality_invariant(self):
        result = solve_elem(diag_system(), timeout=20)
        assert result.is_sat
        eqp = [p for p in result.invariant.formulas if p.name == "eqp"][0]
        assert result.invariant.member(eqp, (nat(4), nat(4)))
        assert not result.invariant.member(eqp, (nat(4), nat(5)))

    def test_even_diverges(self):
        # Prop. 1: no elementary invariant exists
        result = solve_elem(even_system(), timeout=10)
        assert result.is_unknown

    def test_evenleft_diverges(self):
        result = solve_elem(evenleft_system(), timeout=8)
        assert result.is_unknown

    def test_ltgt_diverges(self):
        result = solve_elem(ltgt_system(), timeout=8)
        assert result.is_unknown

    def test_unsat_found(self):
        result = solve_elem(odd_unsat_system(), timeout=10)
        assert result.is_unsat

    def test_terms_capped_reaches_deep(self):
        terms = terms_capped(NATS, NAT, 8)
        assert len(terms) == 8
        assert nat_value(terms[-1]) == 7

    def test_implied_negatives_for_even(self):
        from repro.chc.semantics import bounded_least_fixpoint

        system = even_system()
        fixpoint = bounded_least_fixpoint(
            system, max_height=4, check_queries=False
        )
        positives = {
            p: set(fixpoint.facts.get(p, set()))
            for p in system.predicates.values()
        }
        instances = ground_instances(system, terms_per_sort=8)
        negatives = implied_negatives(instances, positives)
        even = system.predicates["even"]
        neg_values = {nat_value(args[0]) for args in negatives[even]}
        # successors of known evens can never be in a safe invariant
        assert 1 in neg_values
        assert 3 in neg_values


class TestSizeExpr:
    def test_ground_term_size(self):
        e = size_expr(nat(3))
        assert e.const == 4 and not e.coeffs

    def test_variable_coefficient(self):
        from repro.logic.terms import Var
        from repro.problems import s

        x = Var("x", NAT)
        e = size_expr(s(s(x)))
        assert e.const == 2
        assert dict(e.coeffs) == {x: 1}
        assert e.eval({x: 5}) == 7

    def test_abstract_system_shape(self):
        clauses = abstract_system(even_system())
        assert clauses is not None
        assert len(clauses) == 3


class TestSizeTemplates:
    def test_mod_template(self):
        t = SizeTemplate((SizeAtom("mod", 0, m=2, r=1),))
        assert t.eval([3])
        assert not t.eval([4])

    def test_cmp_template(self):
        t = SizeTemplate((SizeAtom("cmp", 0, 1, op="<"),))
        assert t.eval([2, 5])
        assert not t.eval([5, 2])

    def test_offset_template(self):
        t = SizeTemplate((SizeAtom("offset", 1, 0, c=1),))
        assert t.eval([2, 3])
        assert not t.eval([2, 4])

    def test_modsum_template(self):
        t = SizeTemplate((SizeAtom("modsum", 0, 1, m=2, r=0),))
        assert t.eval([1, 3])
        assert not t.eval([1, 2])

    def test_conjunction(self):
        t = SizeTemplate(
            (SizeAtom("mod", 0, m=2, r=1), SizeAtom("const", 0, op=">=", c=3))
        )
        assert t.eval([5])
        assert not t.eval([1])
        assert not t.eval([4])

    def test_describe(self):
        t = SizeTemplate((SizeAtom("mod", 0, m=2, r=1),))
        assert "mod" in str(t)


class TestSizeElemSolver:
    def test_even_sat_via_parity(self):
        # Prop. 8: size(x) = 1 + 2n, i.e. size ≡ 1 (mod 2)
        result = solve_sizeelem(even_system(), timeout=20)
        assert result.is_sat
        assert result.details.get("phase") == "size"
        even = [p for p in result.invariant.templates if p.name == "even"][0]
        for n in range(8):
            assert result.invariant.member(even, (nat(n),)) == (n % 2 == 0)

    def test_ltgt_sat_via_orderings(self):
        # Prop. 12
        result = solve_sizeelem(ltgt_system(), timeout=30)
        assert result.is_sat
        lt = [p for p in result.invariant.templates if p.name == "lt"][0]
        assert result.invariant.member(lt, (nat(1), nat(4)))
        assert not result.invariant.member(lt, (nat(4), nat(1)))

    def test_incdec_sat(self):
        result = solve_sizeelem(incdec_system(), timeout=30)
        assert result.is_sat

    def test_diag_sat_through_elem_phase(self):
        result = solve_sizeelem(diag_system(), timeout=30)
        assert result.is_sat
        assert result.details.get("phase") == "elem"

    def test_evenleft_diverges(self):
        # Prop. 2: EvenLeft has no SizeElem invariant
        result = solve_sizeelem(evenleft_system(), timeout=12)
        assert result.is_unknown

    def test_unsat_found(self):
        result = solve_sizeelem(odd_unsat_system(), timeout=10)
        assert result.is_unsat


class TestInductAndVerimap:
    def test_induct_never_sat(self):
        for factory in (even_system, incdec_system):
            result = solve_induct(factory(), timeout=3)
            assert result.is_unknown

    def test_induct_finds_unsat(self):
        result = solve_induct(odd_unsat_system(), timeout=10)
        assert result.is_unsat

    def test_verimap_solves_size_abstractable(self):
        result = solve_verimap(even_system(), timeout=15)
        assert result.is_sat
        # no ADT-level invariant is produced (transformational tool)
        assert result.invariant is None
        assert "transformed_certificate" in result.details

    def test_verimap_finds_unsat(self):
        result = solve_verimap(odd_unsat_system(), timeout=10)
        assert result.is_unsat

    def test_verimap_diverges_on_evenleft(self):
        result = solve_verimap(evenleft_system(), timeout=8)
        assert result.is_unknown


class TestSolverRegistry:
    def test_registry_contents(self):
        from repro.solvers import SOLVERS

        assert set(SOLVERS) == {
            "ringen", "elem", "sizeelem", "cvc4-ind", "verimap-iddt",
            "spacer", "eldarica",
        }
        assert SOLVERS["ringen"].representation == "Reg"
        assert SOLVERS["sizeelem"].representation == "SizeElem"
        assert SOLVERS["elem"].representation == "Elem"
        # Table 1's aliases name the baselines they stand for
        assert SOLVERS["eldarica"].representation == "SizeElem"
        assert SOLVERS["spacer"].representation == "Elem"

    def test_unknown_options_rejected(self):
        with pytest.raises(TypeError):
            solve_elem(even_system(), bogus=1)
        with pytest.raises(TypeError):
            solve_sizeelem(even_system(), bogus=1)
        with pytest.raises(TypeError):
            solve_induct(even_system(), bogus=1)
        with pytest.raises(TypeError):
            solve_verimap(even_system(), bogus=1)
