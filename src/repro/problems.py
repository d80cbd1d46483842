"""The paper's running example programs as CHC systems.

These are the verification conditions used throughout the paper to separate
the representation classes (Figure 3):

* :func:`even_system` — Example 1 (*Even*): no two consecutive evens.
  Invariant is Reg and SizeElem but **not** Elem (Prop. 1, 6, 8).
* :func:`incdec_system` — Example 4 (*IncDec*): increment vs decrement.
  Invariant in all three classes (Prop. 4).
* :func:`evenleft_system` — Example 5 (*EvenLeft*): leftmost branch parity.
  Reg but **not** SizeElem (Prop. 2, 9).
* :func:`diag_system` — Example 11 (*Diag*): equality vs disequality.
  Elem but **not** Reg (Prop. 11).
* :func:`ltgt_system` — Example 12 (*LtGt*): Peano orderings.
  SizeElem but **not** Reg and not Elem (Prop. 12).

Plus small satisfiable/unsatisfiable sanity systems used in Sec. 4.4.
"""

from __future__ import annotations

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.logic.adt import (
    LEAF,
    NAT,
    NODE,
    S,
    TREE,
    Z,
    nat_system,
    tree_system,
)
from repro.logic.formulas import Eq, TRUE, conj, diseq
from repro.logic.sorts import PredSymbol
from repro.logic.terms import App, Term, Var


def _nat_var(name: str) -> Var:
    return Var(name, NAT)


def _tree_var(name: str) -> Var:
    return Var(name, TREE)


def s(t: Term) -> Term:
    return App(S, (t,))


def z() -> Term:
    return App(Z)


def node(left: Term, right: Term) -> Term:
    return App(NODE, (left, right))


def leaf() -> Term:
    return App(LEAF)


# ----------------------------------------------------------------------
# Example 1: Even
# ----------------------------------------------------------------------
EVEN = PredSymbol("even", (NAT,))


def even_system() -> CHCSystem:
    """Example 1: ``even(Z)``, ``even(x) -> even(S(S(x)))``, no two
    consecutive evens.  The only safe invariant is ``{S^2n(Z)}``."""
    system = CHCSystem(nat_system(), name="Even")
    x, y = _nat_var("x"), _nat_var("y")
    system.add(Clause(TRUE, (), BodyAtom(EVEN, (z(),)), "even-base"))
    system.add(
        Clause(
            TRUE,
            (BodyAtom(EVEN, (x,)),),
            BodyAtom(EVEN, (s(s(x)),)),
            "even-step",
        )
    )
    system.add(
        Clause(
            Eq(y, s(x)),
            (BodyAtom(EVEN, (x,)), BodyAtom(EVEN, (y,))),
            None,
            "even-query",
        )
    )
    return system


# ----------------------------------------------------------------------
# Example 4: IncDec
# ----------------------------------------------------------------------
INC = PredSymbol("inc", (NAT, NAT))
DEC = PredSymbol("dec", (NAT, NAT))


def incdec_system() -> CHCSystem:
    """Example 4: ``inc`` is +1, ``dec`` is -1; they never coincide."""
    system = CHCSystem(nat_system(), name="IncDec")
    x, y = _nat_var("x"), _nat_var("y")
    xp, yp = _nat_var("x1"), _nat_var("y1")
    system.add(
        Clause(
            conj(Eq(x, z()), Eq(y, s(z()))),
            (),
            BodyAtom(INC, (x, y)),
            "inc-base",
        )
    )
    system.add(
        Clause(
            conj(Eq(x, s(xp)), Eq(y, s(yp))),
            (BodyAtom(INC, (xp, yp)),),
            BodyAtom(INC, (x, y)),
            "inc-step",
        )
    )
    system.add(
        Clause(
            conj(Eq(x, s(z())), Eq(y, z())),
            (),
            BodyAtom(DEC, (x, y)),
            "dec-base",
        )
    )
    system.add(
        Clause(
            conj(Eq(x, s(xp)), Eq(y, s(yp))),
            (BodyAtom(DEC, (xp, yp)),),
            BodyAtom(DEC, (x, y)),
            "dec-step",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(INC, (x, y)), BodyAtom(DEC, (x, y))),
            None,
            "incdec-query",
        )
    )
    return system


# ----------------------------------------------------------------------
# Example 5 / 10: EvenLeft
# ----------------------------------------------------------------------
EVENLEFT = PredSymbol("evenleft", (TREE,))


def evenleft_system() -> CHCSystem:
    """Example 5: the leftmost branch has an even number of nodes."""
    system = CHCSystem(tree_system(), name="EvenLeft")
    x, xp = _tree_var("x"), _tree_var("x1")
    y, yy = _tree_var("y"), _tree_var("yy")
    zz = _tree_var("z")
    system.add(
        Clause(Eq(x, leaf()), (), BodyAtom(EVENLEFT, (x,)), "evenleft-base")
    )
    system.add(
        Clause(
            Eq(x, node(node(xp, y), zz)),
            (BodyAtom(EVENLEFT, (xp,)),),
            BodyAtom(EVENLEFT, (x,)),
            "evenleft-step",
        )
    )
    system.add(
        Clause(
            TRUE,
            (
                BodyAtom(EVENLEFT, (x,)),
                BodyAtom(EVENLEFT, (node(x, yy),)),
            ),
            None,
            "evenleft-query",
        )
    )
    return system


# ----------------------------------------------------------------------
# Example 11: Diag
# ----------------------------------------------------------------------
EQP = PredSymbol("eqp", (NAT, NAT))
DISEQP = PredSymbol("diseqp", (NAT, NAT))


def diag_system() -> CHCSystem:
    """Example 11: recursive equality vs disequality of Peano numbers."""
    system = CHCSystem(nat_system(), name="Diag")
    x, y = _nat_var("x"), _nat_var("y")
    xp, yp = _nat_var("x1"), _nat_var("y1")
    system.add(Clause(Eq(x, y), (), BodyAtom(EQP, (x, y)), "eq-refl"))
    system.add(
        Clause(
            conj(Eq(x, s(xp)), Eq(y, z())),
            (),
            BodyAtom(DISEQP, (x, y)),
            "diseq-sz",
        )
    )
    system.add(
        Clause(
            conj(Eq(y, s(yp)), Eq(x, z())),
            (),
            BodyAtom(DISEQP, (x, y)),
            "diseq-zs",
        )
    )
    system.add(
        Clause(
            conj(Eq(x, s(xp)), Eq(y, s(yp))),
            (BodyAtom(DISEQP, (xp, yp)),),
            BodyAtom(DISEQP, (x, y)),
            "diseq-ss",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(EQP, (x, y)), BodyAtom(DISEQP, (x, y))),
            None,
            "diag-query",
        )
    )
    return system


# ----------------------------------------------------------------------
# Example 12: LtGt
# ----------------------------------------------------------------------
LT = PredSymbol("lt", (NAT, NAT))
GT = PredSymbol("gt", (NAT, NAT))


def ltgt_system() -> CHCSystem:
    """Example 12: strict orderings; ``lt`` and ``gt`` are disjoint."""
    system = CHCSystem(nat_system(), name="LtGt")
    x, y = _nat_var("x"), _nat_var("y")
    xp, yp = _nat_var("x1"), _nat_var("y1")
    system.add(
        Clause(
            conj(Eq(x, z()), Eq(y, s(yp))),
            (),
            BodyAtom(LT, (x, y)),
            "lt-base",
        )
    )
    system.add(
        Clause(
            conj(Eq(x, s(xp)), Eq(y, s(yp))),
            (BodyAtom(LT, (xp, yp)),),
            BodyAtom(LT, (x, y)),
            "lt-step",
        )
    )
    system.add(
        Clause(
            conj(Eq(x, s(xp)), Eq(y, z())),
            (),
            BodyAtom(GT, (x, y)),
            "gt-base",
        )
    )
    system.add(
        Clause(
            conj(Eq(x, s(xp)), Eq(y, s(yp))),
            (BodyAtom(GT, (xp, yp)),),
            BodyAtom(GT, (x, y)),
            "gt-step",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(LT, (x, y)), BodyAtom(GT, (x, y))),
            None,
            "ltgt-query",
        )
    )
    return system


# ----------------------------------------------------------------------
# Sec. 4.4 sanity systems
# ----------------------------------------------------------------------
def z_neq_sz_system() -> CHCSystem:
    """``Z != S(Z) -> false``: UNSAT over ADTs (Sec. 4.4's example)."""
    system = CHCSystem(nat_system(), name="ZneqSZ")
    system.add(
        Clause(diseq(z(), s(z())), (), None, "z-neq-sz-query")
    )
    return system


def diseq_zz_system() -> CHCSystem:
    """``diseq(Z, Z) -> false``: SAT, has a finite model (Sec. 4.4)."""
    system = CHCSystem(nat_system(), name="DiseqZZ")
    system.add(Clause(diseq(z(), z()), (), None, "z-neq-z-query"))
    return system


def odd_unsat_system() -> CHCSystem:
    """An unsatisfiable Even variant: asserts ``even(S(Z))`` is impossible
    while the rules derive it — used to exercise counterexample search."""
    system = CHCSystem(nat_system(), name="EvenBroken")
    x = _nat_var("x")
    p = PredSymbol("evenb", (NAT,))
    system.add(Clause(TRUE, (), BodyAtom(p, (z(),)), "base"))
    system.add(
        Clause(TRUE, (BodyAtom(p, (x,)),), BodyAtom(p, (s(x),)), "step")
    )
    system.add(
        Clause(Eq(x, s(s(z()))), (BodyAtom(p, (x,)),), None, "query")
    )
    return system


ALL_PAPER_SYSTEMS = {
    "Even": even_system,
    "IncDec": incdec_system,
    "EvenLeft": evenleft_system,
    "Diag": diag_system,
    "LtGt": ltgt_system,
}
