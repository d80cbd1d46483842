"""The paper's hand-built STLC invariant (Sec. 5) and its semantics.

The invariant ℐ over-approximating the typing relation:

    ℐ = { <Γ, e, t> | for all propositional interpretations M,
                       either M ⊨ t, or M ̸⊨ u for some type u in Γ }

with types read as propositional formulas (atomic types are variables,
``arrow`` is implication) — the Curry-Howard / classical-tautology
argument.  The paper represents ℐ by the 6-state tree automaton with
transition table reproduced below; we provide that automaton both as a
:class:`~repro.automata.dfta.DFTA` and as the corresponding finite model
(so it can be checked exactly against the VC's clauses, including the
quantifier-alternating query).
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.automata.dfta import DFTA, make_dfta
from repro.logic.sorts import FuncSymbol, PredSymbol
from repro.logic.terms import App, Term
from repro.mace.model import FiniteModel
from repro.stlc.adts import (
    ARROW,
    CONS_ENV,
    ENV,
    EXPR,
    TYPE,
    VAR,
    stlc_adts,
)
from repro.stlc.vc import TYPECHECK

# state conventions (Type): 0 = "false under M", 1 = "true under M"
# (Env): 0 = "no false type in Γ" (paper's ∉), 1 = "some false type" (∈)


def invariant_automaton() -> DFTA:
    """The paper's automaton A with L(A) = ℐ (projected to <Γ, t>).

    Transition table from Sec. 5, with the propositional interpretation
    fixed to "every primitive type is false" — the specific M the finite
    model finder chose; any single M yields an inductive invariant, and
    this one is enough to kill the goal ``(a→b)→a``.
    """
    adts = stlc_adts()
    transitions = {
        ("vx", ()): 0,
        ("vy", ()): 0,
        ("p", ()): 0,
        ("q", ()): 0,
        ("var", (0,)): 0,
        ("abs", (0, 0)): 0,
        ("app", (0, 0)): 0,
        ("arrow", (1, 0)): 0,
        ("arrow", (0, 0)): 1,
        ("arrow", (0, 1)): 1,
        ("arrow", (1, 1)): 1,
        ("empty", ()): 0,
        # cons(v, u, env): track whether some type in Γ is false (state 1)
        ("cons", (0, 0, 0)): 1,  # u false -> some false type
        ("cons", (0, 0, 1)): 1,
        ("cons", (0, 1, 0)): 0,  # u true, none false before
        ("cons", (0, 1, 1)): 1,
    }
    finals = [
        (1, 0, 0),  # some type in Γ false  -> accept regardless of t
        (1, 0, 1),
        (0, 0, 1),  # Γ all-true and M ⊨ t
    ]
    return make_dfta(
        adts,
        {VAR: 1, TYPE: 2, EXPR: 1, ENV: 2},
        transitions,
        finals,
        (ENV, EXPR, TYPE),
    )


def invariant_model() -> FiniteModel:
    """The finite-model view of the invariant automaton.

    Besides ``typeCheck``, the preprocessed VC mentions the ``diseq``
    predicates of Sec. 4.4; interpreting them by the *full* relation is a
    sound over-approximation (Lemma 4 allows any superset of true
    disequality on the reachable elements), and with one-element Var/Expr
    domains it is also the only choice that satisfies the constructor
    rules.
    """
    from repro.chc.transform import diseq_symbol

    auto = invariant_automaton()
    functions: dict[FuncSymbol, dict[tuple[int, ...], int]] = {}
    adts = stlc_adts()
    for (name, args), value in auto.transitions.items():
        functions.setdefault(adts.constructor(name), {})[args] = value
    predicates: dict[PredSymbol, set[tuple[int, ...]]] = {
        TYPECHECK: set(auto.finals)
    }
    domains = dict(auto.states)
    for sort in (VAR, TYPE, EXPR, ENV):
        rel = {
            pair
            for pair in itertools.product(
                range(domains[sort]), repeat=2
            )
        }
        predicates[diseq_symbol(sort)] = rel
    return FiniteModel(domains, functions, predicates)


# ----------------------------------------------------------------------
# semantic view of ℐ (used to cross-check the automaton)
# ----------------------------------------------------------------------
Interpretation = dict[str, bool]


def interpretations() -> Iterator[Interpretation]:
    """All propositional interpretations of the two primitive types."""
    for p_val, q_val in itertools.product((False, True), repeat=2):
        yield {"p": p_val, "q": q_val}


def type_truth(t: Term, interp: Interpretation) -> bool:
    """``M ⊨ t``: types as propositional formulas (arrow = implication)."""
    if isinstance(t, App) and t.func == ARROW:
        return (not type_truth(t.args[0], interp)) or type_truth(
            t.args[1], interp
        )
    if isinstance(t, App) and t.func.arity == 0:
        return interp[t.func.name]
    raise ValueError(f"not a ground Type term: {t}")


def env_types(env: Term) -> list[Term]:
    """The types stored in an Env term, outermost first."""
    out = []
    while isinstance(env, App) and env.func == CONS_ENV:
        out.append(env.args[1])
        env = env.args[2]
    return out


def in_invariant(env: Term, expr: Term, t: Term) -> bool:
    """Membership in ℐ (quantifying over *all* interpretations M)."""
    for interp in interpretations():
        if not in_invariant_under(env, expr, t, interp):
            return False
    return True


def in_invariant_under(
    env: Term, expr: Term, t: Term, interp: Interpretation
) -> bool:
    """Membership in ℐ_M for one fixed interpretation M.

    ``ℐ = ⋂_M ℐ_M`` and each ``ℐ_M`` is itself an inductive invariant;
    :func:`invariant_automaton` realizes ``ℐ_M`` for the all-false M (its
    two Type states are exactly "false/true under that M"), which is what
    a *finite* automaton with two Type states can track — and enough to
    refute the ``(a→b)→a`` goal."""
    return type_truth(t, interp) or any(
        not type_truth(u, interp) for u in env_types(env)
    )


def is_classical_tautology(t: Term) -> bool:
    """Whether a ground Type term is a classical propositional tautology."""
    return all(type_truth(t, interp) for interp in interpretations())
