"""Verification conditions of the typeCheck program (Fig. 2).

``typecheck_vc(goal)`` builds the five-clause CHC system whose last clause
asserts that no closed term inhabits ``goal(a, b)`` for *all* types a, b —
the quantifier alternation of the paper: the assertion
``¬∃e ∀a,b. typeCheck(empty, e, goal(a,b))`` becomes the query clause
``∀e. (∀a,b. typeCheck(empty, e, goal(a,b))) → ⊥`` (a universal block in
the body, see :class:`repro.chc.clauses.BodyAtom`).
"""

from __future__ import annotations

from typing import Callable

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.logic.formulas import Eq, Not, TRUE, conj, disj
from repro.logic.sorts import PredSymbol
from repro.logic.terms import Term, Var

from repro.stlc.adts import (
    ENV,
    EXPR,
    TYPE,
    VAR,
    abs_,
    app_,
    arrow,
    cons_env,
    empty,
    evar,
    stlc_adts,
)

TYPECHECK = PredSymbol("typeCheck", (ENV, EXPR, TYPE))

GoalBuilder = Callable[[Term, Term], Term]


def goal_not_classical(a: Term, b: Term) -> Term:
    """The paper's main goal: ``(a -> b) -> a`` (not a classical tautology,
    hence uninhabited and provable by the regular invariant)."""
    return arrow(arrow(a, b), a)


def goal_peirce(a: Term, b: Term) -> Term:
    """Peirce's law ``((a -> b) -> a) -> a``: a classical but not
    intuitionistic tautology — uninhabited, yet the paper's tool diverges
    (Sec. 5's closing discussion)."""
    return arrow(arrow(arrow(a, b), a), a)


def goal_identity(a: Term, b: Term) -> Term:
    """``a -> a``: inhabited by ``λx.x`` — the assertion is violated."""
    return arrow(a, a)


def typecheck_vc(
    goal: GoalBuilder = goal_not_classical, *, name: str = "STLC"
) -> CHCSystem:
    """The verification conditions of Fig. 2, parameterized by the goal."""
    system = CHCSystem(stlc_adts(), name=name)
    g = Var("G", ENV)
    g1 = Var("G1", ENV)
    e = Var("e", EXPR)
    e1 = Var("e1", EXPR)
    e2 = Var("e2", EXPR)
    t = Var("t", TYPE)
    t1 = Var("t1", TYPE)
    u = Var("u", TYPE)
    v = Var("v", VAR)
    v1 = Var("v1", VAR)

    # clause 1: matching head binding types the variable
    system.add(
        Clause(
            conj(Eq(g, cons_env(v, t, g1)), Eq(e, evar(v))),
            (),
            BodyAtom(TYPECHECK, (g, e, t)),
            "tc-var-hit",
        )
    )
    # clause 2: skip a non-matching binding
    system.add(
        Clause(
            conj(
                Eq(g, cons_env(v1, t1, g1)),
                Eq(e, evar(v)),
                disj(Not(Eq(v, v1)), Not(Eq(t, t1))),
            ),
            (BodyAtom(TYPECHECK, (g1, e, t)),),
            BodyAtom(TYPECHECK, (g, e, t)),
            "tc-var-skip",
        )
    )
    # clause 3: abstraction
    system.add(
        Clause(
            conj(Eq(e, abs_(v, e1)), Eq(t, arrow(t1, u))),
            (BodyAtom(TYPECHECK, (cons_env(v, t1, g), e1, u)),),
            BodyAtom(TYPECHECK, (g, e, t)),
            "tc-abs",
        )
    )
    # clause 4: application
    system.add(
        Clause(
            Eq(e, app_(e1, e2)),
            (
                BodyAtom(TYPECHECK, (g, e2, u)),
                BodyAtom(TYPECHECK, (g, e1, arrow(u, t))),
            ),
            BodyAtom(TYPECHECK, (g, e, t)),
            "tc-app",
        )
    )
    # query: no closed term has the goal type at *every* instantiation
    a = Var("a", TYPE)
    b = Var("b", TYPE)
    system.add(
        Clause(
            TRUE,
            (
                BodyAtom(
                    TYPECHECK,
                    (empty(), e, goal(a, b)),
                    universal_vars=(a, b),
                ),
            ),
            None,
            "tc-query",
        )
    )
    return system
