"""Reference STLC type checker and inhabitant search.

An executable version of the ``typeCheck`` program of Sec. 5 (the least
model of its verification conditions) plus a small inhabitation prover —
the ground truth against which the invariant ℐ and RInGen's models are
compared by the tests, and the engine behind the 23 type-theory problems
of Sec. 8's "Other experiments".
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.logic.terms import App, Term
from repro.stlc.adts import (
    ABS,
    APP_E,
    ARROW,
    CONS_ENV,
    EVAR,
    abs_,
    app_,
    arrow,
    cons_env,
    empty,
    evar,
    prim_p,
    prim_q,
    vx,
    vy,
)


def lookup(env: Term, v: Term) -> Iterator[Term]:
    """All types bound to ``v`` in ``env`` (outermost binding first).

    The paper's ``typeCheck`` can *skip* a matching binding through its
    second clause (the ``v ≠ v' ∨ t ≠ t'`` guard allows skipping when the
    type differs), so lookup yields every binding of ``v``.
    """
    while isinstance(env, App) and env.func == CONS_ENV:
        if env.args[0] == v:
            yield env.args[1]
        env = env.args[2]


def type_checks(env: Term, expr: Term, t: Term, *, fuel: int = 64) -> bool:
    """The least-model typing relation ``Γ ⊢ e : t`` (STLC, paper rules)."""
    if fuel <= 0:
        return False
    if not isinstance(expr, App):
        raise ValueError(f"not a ground Expr term: {expr}")
    if expr.func == EVAR:
        return any(bound == t for bound in lookup(env, expr.args[0]))
    if expr.func == ABS:
        if not (isinstance(t, App) and t.func == ARROW):
            return False
        v, body = expr.args
        dom, cod = t.args
        return type_checks(
            cons_env(v, dom, env), body, cod, fuel=fuel - 1
        )
    if expr.func == APP_E:
        e1, e2 = expr.args
        # infer candidate argument types by enumerating the subterm's
        # possible types from the environment and goal structure
        for u in candidate_types(env, e2, t):
            if type_checks(env, e2, u, fuel=fuel - 1) and type_checks(
                env, e1, arrow(u, t), fuel=fuel - 1
            ):
                return True
        return False
    raise ValueError(f"unknown Expr constructor {expr.func.name}")


def candidate_types(env: Term, expr: Term, goal: Term) -> list[Term]:
    """A finite candidate set for the existential ``u`` of the app rule.

    Complete for the examples used here: every type occurring (as a
    subterm) in the environment or the goal, closed once under arrows.
    """
    seen: set[Term] = set()
    stack: list[Term] = [goal]
    e = env
    while isinstance(e, App) and e.func == CONS_ENV:
        stack.append(e.args[1])
        e = e.args[2]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if isinstance(t, App) and t.func == ARROW:
            stack.extend(t.args)
    return sorted(seen, key=str)


def expressions_up_to(depth: int) -> Iterator[Term]:
    """Closed-ish STLC terms over variables {x, y} up to ``depth``."""
    variables = [vx(), vy()]
    layers: list[list[Term]] = [[evar(v) for v in variables]]
    yield from layers[0]
    for _ in range(depth - 1):
        previous = [t for layer in layers for t in layer]
        fresh: list[Term] = []
        for v in variables:
            for body in layers[-1]:
                fresh.append(abs_(v, body))
        for f, a in itertools.product(layers[-1], previous):
            fresh.append(app_(f, a))
            if len(fresh) > 2000:
                break
        layers.append(fresh)
        yield from fresh


def find_inhabitant(
    t: Term, *, max_depth: int = 4
) -> Optional[Term]:
    """A closed term of type ``t``, or ``None`` if none exists up to the
    search depth.  ``λx.x : a -> a`` style witnesses for the tests."""
    for expr in expressions_up_to(max_depth):
        if type_checks(empty(), expr, t):
            return expr
    return None


# a few nameable types used by tests and the problem generator
def t_identity() -> Term:
    return arrow(prim_p(), prim_p())


def t_konst() -> Term:
    return arrow(prim_p(), arrow(prim_q(), prim_p()))


def t_not_taut() -> Term:
    return arrow(arrow(prim_p(), prim_q()), prim_p())


def t_peirce() -> Term:
    return arrow(arrow(arrow(prim_p(), prim_q()), prim_p()), prim_p())
