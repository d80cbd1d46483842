"""ADT declarations for the STLC case study (Sec. 5).

The program sketch of the paper fixes four ADTs::

    Var  ::= x | y
    Type ::= arrow(Type, Type) | p | q        (primitive types)
    Expr ::= var(Var) | abs(Var, Expr) | app(Expr, Expr)
    Env  ::= empty | cons(Var, Type, Env)

Two variables and two primitive types suffice for every example in the
paper (the goal types mention at most two type metavariables).
"""

from __future__ import annotations

from repro.logic.adt import ADT, ADTSystem
from repro.logic.sorts import FuncSymbol, Sort
from repro.logic.terms import App, Term

VAR = Sort("Var")
TYPE = Sort("Type")
EXPR = Sort("Expr")
ENV = Sort("Env")

VAR_X = FuncSymbol("vx", (), VAR)
VAR_Y = FuncSymbol("vy", (), VAR)

PRIM_P = FuncSymbol("p", (), TYPE)
PRIM_Q = FuncSymbol("q", (), TYPE)
ARROW = FuncSymbol("arrow", (TYPE, TYPE), TYPE)

EVAR = FuncSymbol("var", (VAR,), EXPR)
ABS = FuncSymbol("abs", (VAR, EXPR), EXPR)
APP_E = FuncSymbol("app", (EXPR, EXPR), EXPR)

EMPTY = FuncSymbol("empty", (), ENV)
CONS_ENV = FuncSymbol("cons", (VAR, TYPE, ENV), ENV)


def stlc_adts() -> ADTSystem:
    """The four-sort ADT system of the case study."""
    return ADTSystem(
        [
            ADT(VAR, (VAR_X, VAR_Y)),
            ADT(TYPE, (PRIM_P, PRIM_Q, ARROW)),
            ADT(EXPR, (EVAR, ABS, APP_E)),
            ADT(ENV, (EMPTY, CONS_ENV)),
        ]
    )


# -- term builders -----------------------------------------------------
def vx() -> Term:
    return App(VAR_X)


def vy() -> Term:
    return App(VAR_Y)


def prim_p() -> Term:
    return App(PRIM_P)


def prim_q() -> Term:
    return App(PRIM_Q)


def arrow(dom: Term, cod: Term) -> Term:
    return App(ARROW, (dom, cod))


def evar(v: Term) -> Term:
    return App(EVAR, (v,))


def abs_(v: Term, body: Term) -> Term:
    return App(ABS, (v, body))


def app_(fn: Term, arg: Term) -> Term:
    return App(APP_E, (fn, arg))


def empty() -> Term:
    return App(EMPTY)


def cons_env(v: Term, t: Term, rest: Term) -> Term:
    return App(CONS_ENV, (v, t, rest))


def env_of(bindings: list[tuple[Term, Term]]) -> Term:
    """An Env term from a list of (variable, type) bindings."""
    out = empty()
    for v, t in reversed(bindings):
        out = cons_env(v, t, out)
    return out
