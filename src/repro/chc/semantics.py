"""Ground semantics of CHC systems: bounded least fixpoints and checking.

CHC satisfiability is defined over expansions of the Herbrand structure
(Sec. 3).  This module provides the executable fragment of that semantics:

* ground evaluation of assertion-language constraints,
* a bounded least-fixpoint engine (a datalog-with-terms saturation up to a
  term-height budget) — the denotational semantics restricted to small
  terms, used by the counterexample search, by baseline solvers and by the
  independent verifier of regular models.  It builds only heads that fit
  the bound: a clause variable the body does not bind is drawn from the
  terms that fit at its deepest place in the head (a prefix of the full
  pool, so the instances, their order and every derivation are those of
  the full product with the overflowing heads dropped), and the bound
  excluding any instance marks the result unsaturated,
* a bounded universal checker: does a candidate interpretation satisfy
  every clause without a universal block for all instantiations with
  terms up to a height bound?
  The variables a top-level equality of a clause's constraint defines
  are computed, not enumerated; the checked instances stay the product
  of the variables' pools restricted to those the constraint accepts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.logic.adt import ADTSystem
from repro.logic.formulas import (
    And,
    Eq,
    Formula,
    Not,
    Or,
    Tester,
    TRUE,
)
from repro.logic.sorts import PredSymbol
from repro.logic.terms import (
    Substitution,
    Term,
    Var,
    height,
    is_ground,
    matches,
    substitute,
    variables,
)

GroundAtom = tuple[PredSymbol, tuple[Term, ...]]
Interpretation = Callable[[PredSymbol, tuple[Term, ...]], bool]


class SemanticsError(ValueError):
    """Raised on non-ground evaluation or missing interpretations."""


def eval_constraint(
    formula: Formula,
    adts: ADTSystem,
    subst: Optional[Substitution] = None,
) -> bool:
    """Evaluate an assertion-language constraint in ℋ.

    The constraint is read through ``subst``: the result is that of
    ``substitute_formula(formula, subst)``, which must be ground, but no
    ground formula or term is built.  Equality is structural equality
    of ground terms (the Herbrand interpretation); testers check the top
    constructor.  A variable ``subst`` leaves without a ground value
    raises :class:`SemanticsError`.
    """
    if isinstance(formula, Eq):
        return _equal(formula.lhs, formula.rhs, subst)
    if isinstance(formula, Tester):
        term = formula.term
        if isinstance(term, Var):
            term = _bound(term, subst)
        else:
            _check_ground(term, subst)
        return adts.test(formula.constructor.name, term)
    if isinstance(formula, Not):
        return not eval_constraint(formula.operand, adts, subst)
    if isinstance(formula, And):
        return all(eval_constraint(f, adts, subst) for f in formula.operands)
    if isinstance(formula, Or):
        return any(eval_constraint(f, adts, subst) for f in formula.operands)
    raise SemanticsError(f"cannot evaluate {formula} as a constraint")


def _bound(var: Var, subst: Optional[Substitution]) -> Term:
    """The ground value of ``var`` under ``subst``."""
    value = subst.get(var) if subst is not None else None
    if value is None or not is_ground(value):
        raise SemanticsError(f"non-ground constraint: {var} is unbound")
    return value


def _check_ground(term: Term, subst: Optional[Substitution]) -> None:
    """Raise :class:`SemanticsError` unless ``term`` is ground under
    ``subst``."""
    if isinstance(term, Var):
        _bound(term, subst)
    elif not is_ground(term):
        for arg in term.args:
            _check_ground(arg, subst)


def _equal(a: Term, b: Term, subst: Optional[Substitution]) -> bool:
    """Structural equality of the ground terms ``a`` and ``b`` denote
    under ``subst``, raising :class:`SemanticsError` unless both are
    ground there.  Each variable is read once: past a mismatch, the
    rest of the terms is only checked for groundness."""
    if isinstance(a, Var):
        a = _bound(a, subst)
    if isinstance(b, Var):
        b = _bound(b, subst)
    # both are applications now
    if a._ground and b._ground:
        return a == b
    if a.func != b.func:
        _check_ground(a, subst)
        _check_ground(b, subst)
        return False
    equal = True
    for x, y in zip(a.args, b.args):
        if equal:
            equal = _equal(x, y, subst)
        else:
            _check_ground(x, subst)
            _check_ground(y, subst)
    return equal


@dataclass
class Derivation:
    """A proof tree witnessing a derived ground atom (or ⊥)."""

    clause: Clause
    conclusion: Optional[GroundAtom]
    premises: tuple["Derivation", ...] = ()

    def depth(self) -> int:
        return 1 + max((p.depth() for p in self.premises), default=0)

    def format(self, indent: int = 0) -> str:
        head = (
            "false"
            if self.conclusion is None
            else _format_atom(self.conclusion)
        )
        rule = self.clause.name or "<clause>"
        lines = [" " * indent + f"{head}   [by {rule}]"]
        for p in self.premises:
            lines.append(p.format(indent + 2))
        return "\n".join(lines)


def _format_atom(atom: GroundAtom) -> str:
    pred, args = atom
    return f"{pred.name}({', '.join(str(a) for a in args)})"


@dataclass
class FixpointResult:
    """Result of bounded saturation."""

    facts: dict[PredSymbol, set[tuple[Term, ...]]]
    refutation: Optional[Derivation]
    saturated: bool
    rounds: int = 0

    def holds(self, pred: PredSymbol, args: tuple[Term, ...]) -> bool:
        return args in self.facts.get(pred, set())

    def fact_count(self) -> int:
        return sum(len(v) for v in self.facts.values())


def bounded_least_fixpoint(
    system: CHCSystem,
    *,
    max_height: int = 4,
    max_facts: int = 200_000,
    check_queries: bool = True,
    deadline: Optional[float] = None,
    max_steps: int = 3_000_000,
) -> FixpointResult:
    """Saturate the definite clauses over terms of height ≤ ``max_height``.

    Returns the set of derived ground facts and, if ``check_queries`` and a
    query clause fires, a :class:`Derivation` of ⊥ — i.e. a genuine
    counterexample proving the CHC system unsatisfiable (derivations are
    sound regardless of the bound; the bound only limits completeness).

    Every clause instance :func:`_body_matches` yields has a ground head
    within the bound (its bound variables pass :func:`_head_can_fit`, its
    free ones come from head-height pools), so each one is a fact.  The
    result is unsaturated when the bound excluded an instance
    (``_StepBudget.pruned``), when a clause with a universal block was
    skipped, or when a resource guard was hit: a wall-clock
    ``deadline``, a fact cap or a step cap (substitution candidates
    examined).
    """
    adts = system.adts
    budget = _StepBudget(deadline, max_steps)
    facts: dict[PredSymbol, set[tuple[Term, ...]]] = {}
    proofs: dict[GroundAtom, Derivation] = {}
    for pred in system.predicates.values():
        facts.setdefault(pred, set())

    def add_fact(
        pred: PredSymbol, args: tuple[Term, ...], proof: Derivation
    ) -> bool:
        bucket = facts.setdefault(pred, set())
        if args in bucket:
            return False
        bucket.add(args)
        proofs[(pred, args)] = proof
        return True

    rounds = 0
    changed = True
    saturated = True
    while changed:
        rounds += 1
        changed = False
        for cl in system.definite_clauses:
            if any(a.universal_vars for a in cl.body):
                # universal blocks can only be bounded-checked, which
                # over-approximates truth and would make derived facts
                # (and thus refutations built on them) unsound — skip
                saturated = False
                continue
            head = cl.head
            assert head is not None
            for subst in _body_matches(
                cl, facts, adts, max_height, budget=budget, head=head
            ):
                if budget.exhausted:
                    return FixpointResult(facts, None, False, rounds)
                args = tuple(substitute(t, subst) for t in head.args)
                premises = tuple(
                    proofs[
                        (
                            a.pred,
                            tuple(substitute(t, subst) for t in a.args),
                        )
                    ]
                    for a in cl.body
                )
                proof = Derivation(cl, (head.pred, args), premises)
                if add_fact(head.pred, args, proof):
                    changed = True
                    if sum(len(v) for v in facts.values()) > max_facts:
                        return FixpointResult(facts, None, False, rounds)
    if budget.exhausted or budget.pruned:
        saturated = False
    refutation: Optional[Derivation] = None
    if check_queries:
        refutation = check_query_clauses(
            system, facts, proofs, max_height, budget
        )
    return FixpointResult(facts, refutation, saturated, rounds)


def check_query_clauses(
    system: CHCSystem,
    facts: dict[PredSymbol, set[tuple[Term, ...]]],
    proofs: dict[GroundAtom, Derivation],
    max_height: int,
    budget: Optional["_StepBudget"] = None,
) -> Optional[Derivation]:
    """Check whether a query clause body is derivable from ``facts``."""
    adts = system.adts
    for cl in system.queries:
        if any(a.universal_vars for a in cl.body):
            # A universal block can only be *bounded-checked*, which is
            # unsound for refutations (the block may fail beyond the
            # bound).  Such queries never produce counterexamples here.
            continue
        for subst in _body_matches(cl, facts, adts, max_height, budget=budget):
            premises = tuple(
                proofs[
                    (a.pred, tuple(substitute(t, subst) for t in a.args))
                ]
                for a in cl.body
            )
            return Derivation(cl, None, premises)
    return None


class _StepBudget:
    """Shared wall-clock + step budget for one saturation run.

    ``pruned`` records that the head-height bound excluded some clause
    instance — a joined substitution the head cannot fit, or the
    completions a cut pool leaves out — so the saturation is incomplete
    at this bound even if no in-bound fact was missed directly.
    """

    __slots__ = ("deadline", "remaining", "exhausted", "pruned")

    def __init__(self, deadline: Optional[float], max_steps: int):
        self.deadline = deadline
        self.remaining = max_steps
        self.exhausted = False
        self.pruned = False

    def spend(self, amount: int = 1) -> bool:
        """Consume budget; returns False once exhausted."""
        if self.exhausted:
            return False
        self.remaining -= amount
        if self.remaining <= 0:
            self.exhausted = True
            return False
        if self.deadline is not None and self.remaining % 4096 == 0:
            return not self.expired()
        return True

    def expired(self) -> bool:
        """Read the clock without spending steps; True (and exhausted
        from now on) once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.exhausted = True
        return self.exhausted


def _head_can_fit(
    head: Optional[BodyAtom],
    subst: dict[Var, Term],
    min_heights: dict[Var, int],
    max_height: int,
) -> bool:
    """Lower-bound the head's height under ``subst``; prune impossibilities.

    Any completion of the unbound variables (``min_heights`` maps each to
    the least height of its sort) only raises term heights, so if the
    head already exceeds the bound with unbound variables at their
    minimum height, the whole completion family is skipped.
    """
    if head is None:
        return True

    def lower(t: Term) -> int:
        if isinstance(t, Var):
            bound = subst.get(t)
            if bound is not None:
                return height(bound)
            return min_heights.get(t, 1)
        if not t.args:
            return 1
        return 1 + max(lower(a) for a in t.args)

    return all(lower(t) <= max_height for t in head.args)


def _body_matches(
    cl: Clause,
    facts: dict[PredSymbol, set[tuple[Term, ...]]],
    adts: ADTSystem,
    max_height: int,
    budget: Optional[_StepBudget] = None,
    head: Optional[BodyAtom] = None,
) -> Iterator[dict[Var, Term]]:
    """All substitutions making every body atom a derived fact and the
    constraint true, with leftover variables enumerated up to the bound
    and, given a ``head``, only those whose head fits the bound.

    The join binds every variable of the body atoms, so each joined
    substitution leaves the same variables free; their pools are drawn
    once per call (:func:`_completion_pools`).  A joined substitution
    whose head cannot fit even at the free variables' least heights is
    skipped (:func:`_head_can_fit`); any other, completed from the
    pools, gives an in-bound head.  Both cuts set ``budget.pruned``.

    ``cl`` has no universal-block body atom (``forall``-in-body, Fig. 2):
    both callers skip such clauses, since a block checked only up to the
    bound would make the facts and refutations built on it unsound.
    """
    substs: list[dict[Var, Term]] = [{}]
    # order atoms by predicate fact count to shrink intermediate joins
    for atom in sorted(cl.body, key=lambda a: len(facts.get(a.pred, ()))):
        bucket = facts.get(atom.pred, set())
        new_substs: list[dict[Var, Term]] = []
        for subst in substs:
            pattern = tuple(substitute(t, subst) for t in atom.args)
            for fact_args in bucket:
                if budget is not None and not budget.spend():
                    return
                extension = _match_tuple(pattern, fact_args)
                if extension is not None:
                    merged = dict(subst)
                    merged.update(extension)
                    new_substs.append(merged)
        substs = new_substs
        if not substs:
            return
    free = [
        v
        for v in sorted(cl.free_vars(), key=lambda v: v.name)
        if v not in substs[0]
    ]
    min_heights = {v: adts.min_height(v.sort) for v in free}
    pools, cut = _completion_pools(free, head, adts, max_height)
    for i, subst in enumerate(substs):
        # this loop spends no steps on substitutions the head-height cut
        # prunes, so it reads the clock itself
        if budget is not None and i % 256 == 255 and budget.expired():
            return
        if not _head_can_fit(head, subst, min_heights, max_height):
            if budget is not None:
                budget.pruned = True
            continue
        if cut and budget is not None:
            budget.pruned = True
        for full in _enumerate_completions(free, subst, pools):
            if budget is not None and not budget.spend():
                return
            if cl.constraint != TRUE and not eval_constraint(
                cl.constraint, adts, full
            ):
                continue
            yield full


def _match_tuple(
    pattern: tuple[Term, ...], ground: tuple[Term, ...]
) -> Optional[dict[Var, Term]]:
    subst: dict[Var, Term] = {}
    for p, g in zip(pattern, ground):
        m = matches(p, g)
        if m is None:
            return None
        for v, t in m.items():
            if subst.get(v, t) != t:
                return None
            subst[v] = t
    return subst


def _completion_pools(
    free: list[Var],
    head: Optional[BodyAtom],
    adts: ADTSystem,
    max_height: int,
) -> tuple[list[list[Term]], bool]:
    """The terms each free variable is drawn from, and whether a pool
    was cut while every pool is non-empty (some completion of the full
    pools then has a head above the bound).

    A variable whose deepest occurrence in the head is at depth ``d``
    (an argument itself is at depth 0) fits only with a value of height
    at most ``max_height - d``; the other variables get every term up to
    the bound.  Each pool is a height-ordered prefix of the full one, so
    the product yields exactly the full product's in-bound completions,
    in the same order.
    """
    depth: dict[Var, int] = {}
    stack = [(arg, 0) for arg in head.args] if head is not None else []
    while stack:
        t, d = stack.pop()
        if isinstance(t, Var):
            depth[t] = max(depth.get(t, 0), d)
        else:
            stack.extend((a, d + 1) for a in t.args)
    pools = []
    cut = False
    for v in free:
        fits = max_height - depth.get(v, 0)
        pools.append(adts.terms_up_to_height(v.sort, fits))
        cut = cut or any(
            adts.terms_of_height(v.sort, h)
            for h in range(fits + 1, max_height + 1)
        )
    return pools, cut and all(pools)


def _enumerate_completions(
    free: list[Var],
    subst: dict[Var, Term],
    pools: list[list[Term]],
) -> Iterator[dict[Var, Term]]:
    """``subst`` extended by every combination of the ``free``
    variables' pools, in product order."""
    if not free:
        yield subst
        return
    for combo in itertools.product(*pools):
        full = dict(subst)
        full.update(zip(free, combo))
        yield full


# ----------------------------------------------------------------------
# Bounded universal model checking of candidate interpretations
# ----------------------------------------------------------------------
@dataclass
class ClauseViolation:
    """A ground instantiation falsifying a clause under an interpretation."""

    clause: Clause
    assignment: dict[Var, Term]

    def __str__(self) -> str:
        binding = ", ".join(
            f"{v.name} := {t}" for v, t in sorted(
                self.assignment.items(), key=lambda kv: kv[0].name
            )
        )
        return f"clause {self.clause} violated at [{binding}]"


def check_model_bounded(
    system: CHCSystem,
    interpretation: Interpretation,
    *,
    max_height: int = 3,
    max_instances_per_clause: int = 200_000,
) -> Optional[ClauseViolation]:
    """Bounded validity check of ``interpretation`` against every clause
    without a universal block.

    Visits the instantiations of each clause's variables with ground
    terms up to ``max_height`` under which its constraint holds
    (:func:`_bounded_instances`) and reports the first violated instance,
    or ``None`` if all checked instances hold.  This is the independent
    verifier used to cross-check regular models produced by the pipeline
    (sound up to the bound; the exact check happens on the finite-model
    side).

    Clauses with a universal-block body atom are skipped: an inner
    quantifier checked only up to the bound is conclusive in neither
    direction (a block that holds on the small terms may fail on larger
    ones, so a violation found through it could be spurious).  The
    finite-model check decides those clauses exactly.

    When the full product of pools would exceed
    ``max_instances_per_clause`` (many-variable clauses such as the STLC
    VC), every pool is truncated to its smallest-height prefix so the
    product fits — coverage shrinks but stays biased to small terms, where
    violations of Theorem 5 would surface first.  Variables a top-level
    equality of the constraint defines are computed rather than
    enumerated, which changes only the order of the checked instances,
    not their set.
    """
    adts = system.adts
    for cl in system.clauses:
        if any(a.universal_vars for a in cl.body):
            continue
        for assignment in _bounded_instances(
            cl, adts, max_height, max_instances_per_clause
        ):
            if not _clause_instance_holds(cl, assignment, interpretation):
                return ClauseViolation(cl, assignment)
    return None


def _bounded_instances(
    cl: Clause, adts: ADTSystem, max_height: int, max_instances: int
) -> Iterator[dict[Var, Term]]:
    """The assignments of ``cl``'s variables over their pools of terms
    up to ``max_height``, shrunk to ``max_instances``
    (:func:`_shrink_pools`), under which ``cl``'s constraint holds.

    A top-level equality ``x = t`` of the constraint (either way round)
    defines ``x`` when ``t`` is no variable and mentions neither ``x``
    nor another defined variable (:func:`_definitions`).  Only the other
    variables are enumerated, in pool-product order; each defined one is
    computed by substitution, and the assignment is skipped unless the
    value lies in that variable's pool — so the instances the equality
    rejects are never built.
    """
    free = sorted(cl.free_vars(), key=lambda v: v.name)
    pools = _shrink_pools(
        [adts.terms_up_to_height(v.sort, max_height) for v in free],
        max_instances,
    )
    defined = _definitions(cl.constraint)
    members = {v: set(p) for v, p in zip(free, pools) if v in defined}
    names = [v for v in free if v not in defined]
    rest = [p for v, p in zip(free, pools) if v not in defined]
    constrained = cl.constraint != TRUE
    for combo in itertools.product(*rest):
        assignment = dict(zip(names, combo))
        for v, t in defined.items():
            value = substitute(t, assignment)
            if value not in members[v]:
                break
            assignment[v] = value
        else:
            if not constrained or eval_constraint(
                cl.constraint, adts, assignment
            ):
                yield assignment


def _definitions(constraint: Formula) -> dict[Var, Term]:
    """Each variable a top-level equality of ``constraint`` defines,
    with its defining term; no defining term mentions a defined
    variable."""
    defined: dict[Var, Term] = {}
    mentioned: set[Var] = set()
    for f in _conjuncts(constraint):
        if not isinstance(f, Eq):
            continue
        for x, t in ((f.lhs, f.rhs), (f.rhs, f.lhs)):
            if (
                isinstance(x, Var)
                and x not in defined
                and x not in mentioned
                and not isinstance(t, Var)
            ):
                used = variables(t)
                if x not in used and not used & defined.keys():
                    defined[x] = t
                    mentioned |= used
                    break
    return defined


def _conjuncts(formula: Formula) -> Iterator[Formula]:
    """The operands of ``formula``'s top-level conjunction, flattened."""
    if isinstance(formula, And):
        for f in formula.operands:
            yield from _conjuncts(f)
    else:
        yield formula


def _shrink_pools(
    pools: list[list[Term]], budget: int
) -> list[list[Term]]:
    """Truncate pools (smallest terms first) until their product fits."""
    def product_size() -> int:
        total = 1
        for p in pools:
            total *= max(len(p), 1)
            if total > budget:
                return total
        return total

    pools = [sorted(p, key=height) for p in pools]
    while product_size() > budget:
        largest = max(range(len(pools)), key=lambda i: len(pools[i]))
        if len(pools[largest]) <= 1:
            break
        pools[largest] = pools[largest][: max(len(pools[largest]) // 2, 1)]
    return pools


def _clause_instance_holds(
    cl: Clause,
    assignment: dict[Var, Term],
    interpretation: Interpretation,
) -> bool:
    """Whether the instance of ``cl`` under ``assignment``, one its
    constraint holds in, holds under ``interpretation``."""
    for atom in cl.body:
        args = tuple(substitute(t, assignment) for t in atom.args)
        if not interpretation(atom.pred, args):
            return True
    if cl.head is None:
        return False
    args = tuple(substitute(t, assignment) for t in cl.head.args)
    return interpretation(cl.head.pred, args)
