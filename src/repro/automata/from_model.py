"""Finite models ↔ tree automata (Sec. 4.2, Theorem 1).

Given a finite structure M, the automaton for predicate P is
``A_P = <|M|, Sigma_F, M(P), tau>`` where the shared transition function is
``tau(f)(x1..xn) = M(f)(x1..xn)``.  Theorem 1: ``A_P`` accepts exactly the
term tuples whose M-values lie in ``M(P)``.  The converse direction
(automaton → finite model) is the isomorphism of Matzinger cited by the
paper; we implement both, which lets hand-written automata (e.g. the STLC
invariant of Sec. 5) be checked as finite models.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.automata.dfta import DFTA, AutomatonError, State, make_dfta
from repro.logic.adt import ADTSystem
from repro.logic.sorts import FuncSymbol, PredSymbol, Sort
from repro.mace.model import FiniteModel


def shared_transitions(
    model: FiniteModel, adts: ADTSystem
) -> dict[tuple[str, tuple[State, ...]], State]:
    """The shared transition set ``tau`` built from M's function tables.

    Only ADT constructors contribute transitions; auxiliary functions of
    the model (none in the standard pipeline) are ignored.
    """
    transitions: dict[tuple[str, tuple[State, ...]], State] = {}
    for func, table in model.functions.items():
        if not adts.is_constructor(func):
            continue
        for args, value in table.items():
            transitions[(func.name, args)] = value
    return transitions


def model_to_automaton(
    model: FiniteModel, adts: ADTSystem, pred: PredSymbol
) -> DFTA:
    """The automaton ``A_P`` of Theorem 1 for one predicate symbol."""
    relation = model.predicates.get(pred)
    if relation is None:
        raise AutomatonError(f"model does not interpret {pred.name}")
    return make_dfta(
        adts,
        {sort: model.domains[sort] for sort in adts.sorts},
        shared_transitions(model, adts),
        relation,
        pred.arg_sorts,
    )


def model_to_automata(
    model: FiniteModel, adts: ADTSystem, preds: Iterable[PredSymbol]
) -> dict[PredSymbol, DFTA]:
    """Automata for all predicates, sharing one transition table."""
    return {p: model_to_automaton(model, adts, p) for p in preds}


def automata_to_model(
    adts: ADTSystem,
    automata: Mapping[PredSymbol, DFTA],
    *,
    states: Optional[Mapping[Sort, int]] = None,
) -> FiniteModel:
    """Inverse of Theorem 1: read automata as a finite structure.

    All automata must share their state spaces and transitions (as those
    produced from one model do, and as hand-written invariants are).  The
    resulting model interprets constructors by the transition table and
    each predicate by its automaton's final set — evaluating clauses on
    the model is then exactly evaluating them through automata runs.
    """
    if not automata:
        raise AutomatonError("no automata given")
    reference = next(iter(automata.values()))
    for pred, auto in automata.items():
        if dict(auto.states) != dict(reference.states):
            raise AutomatonError(
                f"automaton for {pred.name} has mismatched state spaces"
            )
        if dict(auto.transitions) != dict(reference.transitions):
            raise AutomatonError(
                f"automaton for {pred.name} has mismatched transitions"
            )
        if auto.final_sorts != pred.arg_sorts:
            raise AutomatonError(
                f"automaton for {pred.name} has mismatched final sorts"
            )
    if not reference.is_complete():
        raise AutomatonError(
            "automata must be complete to form a finite model; "
            "apply repro.automata.ops.complete first"
        )
    domains = dict(states or reference.states)
    functions: dict[FuncSymbol, dict[tuple[int, ...], int]] = {}
    for (name, args), result in reference.transitions.items():
        func = adts.constructor(name)
        functions.setdefault(func, {})[args] = result
    predicates: dict[PredSymbol, set[tuple[int, ...]]] = {
        pred: set(auto.finals) for pred, auto in automata.items()
    }
    return FiniteModel(domains, functions, predicates)


def herbrand_relation_member(
    model: FiniteModel, pred: PredSymbol, terms: tuple
) -> bool:
    """Membership in the induced Herbrand relation ``X_P`` of Lemma 2.

    ``X_P = { <t1..tn> | <M[[t1]], ..., M[[tn]]> in M(P) }`` — evaluated
    directly through the model, equivalent to running ``A_P`` (Theorem 1).
    """
    values = tuple(model.eval_term(t) for t in terms)
    return model.holds(pred, values)
