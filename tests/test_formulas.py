"""Tests for quantifier-free formulas: NNF, DNF, substitution, evaluation."""

import pytest
from hypothesis import given, strategies as st

from repro.chc.semantics import SemanticsError, eval_constraint
from repro.logic.adt import NAT, S, Z, nat, nat_system
from repro.logic.formulas import (
    And,
    Eq,
    FALSE,
    FormulaError,
    Not,
    Or,
    PredAtom,
    TRUE,
    Tester,
    atoms,
    conj,
    diseq,
    disj,
    dnf,
    formula_vars,
    literal_parts,
    neg,
    nnf,
    substitute_formula,
)
from repro.logic.sorts import PredSymbol, Sort
from repro.logic.terms import App, Var

ADTS = nat_system()
X = Var("x", NAT)
Y = Var("y", NAT)


def z():
    return App(Z)


def s(t):
    return App(S, (t,))


class TestConstruction:
    def test_ill_sorted_equality_rejected(self):
        other = Var("o", Sort("Other"))
        with pytest.raises(FormulaError):
            Eq(X, other)

    def test_tester_sort_checked(self):
        with pytest.raises(FormulaError):
            Tester(S, Var("o", Sort("Other")))

    def test_pred_atom_arity_checked(self):
        p = PredSymbol("p", (NAT, NAT))
        with pytest.raises(FormulaError):
            PredAtom(p, (z(),))

    def test_conj_flattens(self):
        f = conj(Eq(X, z()), conj(Eq(Y, z()), TRUE))
        assert isinstance(f, And)
        assert len(f.operands) == 2

    def test_conj_of_false_is_false(self):
        assert conj(Eq(X, z()), FALSE) == FALSE

    def test_disj_of_true_is_true(self):
        assert disj(Eq(X, z()), TRUE) == TRUE

    def test_neg_cancels_double_negation(self):
        f = Eq(X, z())
        assert neg(neg(f)) == f

    def test_diseq_builds_negated_equality(self):
        f = diseq(z(), s(z()))
        assert isinstance(f, Not)
        assert isinstance(f.operand, Eq)


class TestTraversal:
    def test_formula_vars(self):
        f = conj(Eq(X, z()), diseq(Y, s(X)))
        assert formula_vars(f) == {X, Y}

    def test_atoms_ignores_polarity(self):
        f = conj(Eq(X, z()), Not(Eq(Y, z())))
        assert len(list(atoms(f))) == 2

    def test_literal_parts(self):
        atom, positive = literal_parts(Not(Eq(X, z())))
        assert not positive
        assert isinstance(atom, Eq)
        atom, positive = literal_parts(Eq(X, z()))
        assert positive

    def test_literal_parts_rejects_non_literal(self):
        with pytest.raises(FormulaError):
            literal_parts(Not(conj(Eq(X, z()), Eq(Y, z()))))

    def test_substitute_formula(self):
        f = conj(Eq(X, z()), Not(Eq(Y, s(X))))
        g = substitute_formula(f, {X: s(z())})
        assert Eq(s(z()), z()) in g.operands


# ----------------------------------------------------------------------
# semantic equivalence of NNF / DNF, via ground evaluation
# ----------------------------------------------------------------------
def ground_formulas():
    """Strategy producing ground Nat constraints of bounded depth."""
    terms = st.integers(min_value=0, max_value=3).map(nat)
    leaves = st.builds(Eq, terms, terms)
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
        ),
        max_leaves=8,
    )


@given(ground_formulas())
def test_nnf_preserves_truth(formula):
    assert eval_constraint(formula, ADTS) == eval_constraint(
        nnf(formula), ADTS
    )


@given(ground_formulas())
def test_nnf_pushes_negations_to_atoms(formula):
    def check(f):
        if isinstance(f, Not):
            assert isinstance(f.operand, (Eq, Tester, PredAtom))
        elif isinstance(f, (And, Or)):
            for operand in f.operands:
                check(operand)

    check(nnf(formula))


@given(ground_formulas())
def test_dnf_preserves_truth(formula):
    cubes = dnf(formula)
    value = any(
        all(eval_constraint(lit, ADTS) for lit in cube) for cube in cubes
    )
    assert value == eval_constraint(formula, ADTS)


@given(ground_formulas())
def test_double_negation_evaluates_identically(formula):
    assert eval_constraint(Not(Not(formula)), ADTS) == eval_constraint(
        formula, ADTS
    )


# ----------------------------------------------------------------------
# evaluation through a substitution, against the substituted formula
# ----------------------------------------------------------------------
VARS = (X, Y, Var("w", NAT))


def open_terms():
    """Nat terms over ``VARS``, ground or not."""
    leaves = st.one_of(
        st.integers(min_value=0, max_value=2).map(nat), st.sampled_from(VARS)
    )
    return st.recursive(leaves, lambda t: t.map(s), max_leaves=3)


def open_formulas():
    """Nat constraints over ``VARS``: equalities and testers under
    negation, conjunction and disjunction."""
    terms = open_terms()
    leaves = st.one_of(
        st.builds(Eq, terms, terms),
        st.builds(Tester, st.sampled_from((Z, S)), terms),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
        ),
        max_leaves=8,
    )


def _outcome(evaluate):
    try:
        return evaluate()
    except SemanticsError:
        return SemanticsError


@given(
    open_formulas(),
    st.dictionaries(
        st.sampled_from(VARS),
        st.one_of(
            st.integers(min_value=0, max_value=3).map(nat), open_terms()
        ),
    ),
)
def test_eval_through_substitution_matches_substituted_formula(
    formula, subst
):
    assert _outcome(lambda: eval_constraint(formula, ADTS, subst)) == (
        _outcome(
            lambda: eval_constraint(substitute_formula(formula, subst), ADTS)
        )
    )


def test_eval_through_substitution_rejects_unbound_variables():
    assert eval_constraint(Eq(X, s(Y)), ADTS, {X: s(z()), Y: z()})
    assert not eval_constraint(Tester(S, X), ADTS, {X: z()})
    for subst in ({Y: z()}, {X: Y}, {X: s(Y)}):
        with pytest.raises(SemanticsError):
            eval_constraint(Eq(X, z()), ADTS, subst)
    with pytest.raises(SemanticsError):
        eval_constraint(Tester(S, s(X)), ADTS, {Y: z()})
