"""Replaying refutations: an independent check of every UNSAT answer.

An UNSAT answer carries a :class:`~repro.chc.semantics.Derivation` of ⊥
over the system the solver searched.  :func:`replay` re-checks every
step of it against that system, with its own matcher: nothing here
shares matching code with the saturation engine that built the
derivation (:mod:`repro.chc.semantics`), so a fault there cannot
certify its own output.  Only the evaluation of a ground constraint
(:func:`~repro.chc.semantics.eval_constraint`, the assertion language's
semantics) is shared.
"""

from __future__ import annotations

from typing import Optional

from repro.chc.clauses import CHCSystem
from repro.chc.semantics import Derivation, SemanticsError, eval_constraint
from repro.chc.transform import is_diseq_symbol
from repro.core.result import SolveResult, unknown, unsat
from repro.logic.terms import App, Term, Var, is_ground


def certified(
    solver: str, system: CHCSystem, refutation: Derivation
) -> SolveResult:
    """``solver``'s UNSAT answer with ``refutation`` if it replays
    against ``system``, otherwise an ``unknown`` internal error naming
    the step that fails."""
    failure = replay(system, refutation)
    if failure is not None:
        return unknown(
            solver, f"internal error: uncertified refutation: {failure}"
        )
    return unsat(solver, refutation)


def replay(system: CHCSystem, derivation: Derivation) -> Optional[str]:
    """``None`` when ``derivation`` is a refutation of ``system``,
    otherwise a description of the first step that fails.

    The root must derive ⊥ by a query.  Every step's clause must be one
    of ``system.clauses`` (by identity), with exactly one premise per
    body atom (a universal block cannot be replayed) and, below the root,
    a ground conclusion of the head's predicate.  One substitution must
    match the head to the conclusion and each body atom to its premise's
    conclusion, and make the constraint true; a variable it leaves
    unbound fails the step.  A ``diseq`` conclusion must have unequal
    arguments.
    """
    root = derivation
    if root.conclusion is not None or root.clause.head is not None:
        line = root.format().splitlines()[0]
        return f"the root {line} does not derive false"
    clauses = {id(cl) for cl in system.clauses}
    seen: set[int] = set()
    stack = [root]
    while stack:
        step = stack.pop()
        if id(step) in seen:
            continue
        seen.add(id(step))
        failure = _check_step(system, clauses, step, step is root)
        if failure is not None:
            return f"{step.format().splitlines()[0]}: {failure}"
        stack.extend(reversed(step.premises))
    return None


def _check_step(
    system: CHCSystem, clauses: set[int], step: Derivation, root: bool
) -> Optional[str]:
    cl = step.clause
    if id(cl) not in clauses:
        return "its clause is not in the system"
    subst: dict[Var, Term] = {}
    if not root:
        if step.conclusion is None or cl.head is None:
            return "only the root may derive false"
        pred, args = step.conclusion
        if pred != cl.head.pred:
            return f"the conclusion is not a {cl.head.pred.name} fact"
        if not all(is_ground(a) for a in args):
            return "the conclusion is not ground"
        if not _match_all(cl.head.args, args, subst):
            return "the conclusion does not match the head"
        if is_diseq_symbol(pred) and args[0] == args[1]:
            return "a diseq conclusion with equal arguments"
    if any(atom.universal_vars for atom in cl.body):
        return "its clause has a universal block"
    if len(step.premises) != len(cl.body):
        return (
            f"{len(step.premises)} premises for {len(cl.body)} body atoms"
        )
    for i, (atom, premise) in enumerate(zip(cl.body, step.premises)):
        if premise.conclusion is None or premise.conclusion[0] != atom.pred:
            return f"premise {i} does not derive a {atom.pred.name} fact"
        if not _match_all(atom.args, premise.conclusion[1], subst):
            return f"premise {i} does not match body atom {i}"
    try:
        holds = eval_constraint(cl.constraint, system.adts, subst)
    except SemanticsError as exc:
        return f"the constraint cannot be evaluated ({exc})"
    if not holds:
        return "the constraint does not hold"
    return None


def _match_all(
    patterns: tuple[Term, ...],
    values: tuple[Term, ...],
    subst: dict[Var, Term],
) -> bool:
    """Extend ``subst`` so that each pattern becomes its value."""
    return len(patterns) == len(values) and all(
        _match(p, v, subst) for p, v in zip(patterns, values)
    )


def _match(pattern: Term, value: Term, subst: dict[Var, Term]) -> bool:
    if isinstance(pattern, Var):
        if not isinstance(value, App) or value.sort != pattern.sort:
            return False
        return subst.setdefault(pattern, value) == value
    return (
        isinstance(value, App)
        and value.func == pattern.func
        and _match_all(pattern.args, value.args, subst)
    )
