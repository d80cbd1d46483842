"""Preprocessing passes of Sec. 4: from CHCs over ADTs to constraint-free
CHCs over EUF.

The pipeline of Figure 1 is implemented as three passes:

* :func:`remove_selectors` — Sec. 4.5: selector applications are compiled
  away by introducing fresh variables constrained through constructor
  equalities (the ``car``/``cdr`` example of the paper).
* :func:`normalize` — constraints are pushed to DNF, clauses are split per
  disjunct, negative testers are expanded into positive ones, positive
  testers become constructor equalities, and positive equalities are
  eliminated by unification and substitution (proof of Theorem 5).  After
  this pass every remaining constraint literal is a disequality.
* :func:`encode_diseq` — Sec. 4.4: disequality literals are replaced by
  ``diseq_sigma`` atoms and the generating Horn rules for ``diseq`` are
  appended.  The result has no constraints at all and can be handed to a
  finite model finder as plain EUF (Lemma 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.chc.clauses import BodyAtom, CHCError, CHCSystem, Clause
from repro.logic.adt import ADTSystem
from repro.logic.formulas import (
    Eq,
    Formula,
    Not,
    PredAtom,
    TRUE,
    Tester,
    conj,
    disj,
    dnf,
    literal_parts,
)
from repro.logic.sorts import FuncSymbol, PredSymbol, Sort
from repro.logic.terms import (
    App,
    Term,
    Var,
    is_ground,
    substitute,
    unify,
    variables,
)

DISEQ_PREFIX = "diseq!"


def diseq_symbol(sort: Sort) -> PredSymbol:
    """The fresh ``diseq_sigma`` predicate symbol for ``sort`` (Sec. 4.4)."""
    return PredSymbol(f"{DISEQ_PREFIX}{sort.name}", (sort, sort))


def is_diseq_symbol(pred: PredSymbol) -> bool:
    return pred.name.startswith(DISEQ_PREFIX)


# ----------------------------------------------------------------------
# Selector removal (Sec. 4.5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Selector:
    """A selector symbol ``g_i`` of a constructor (Appendix B semantics)."""

    constructor: FuncSymbol
    index: int

    @property
    def name(self) -> str:
        return f"{self.constructor.name}.{self.index}"

    @property
    def func(self) -> FuncSymbol:
        return FuncSymbol(
            self.name,
            (self.constructor.result_sort,),
            self.constructor.arg_sorts[self.index],
        )


def selector_func(constructor: FuncSymbol, index: int) -> FuncSymbol:
    """The :class:`FuncSymbol` representing selector ``g_index`` of ``c``."""
    return Selector(constructor, index).func


def parse_selector(func: FuncSymbol, adts: ADTSystem) -> Optional[Selector]:
    """Recognize a selector symbol produced by :func:`selector_func`."""
    if "." not in func.name:
        return None
    cname, _, idx = func.name.rpartition(".")
    if not idx.isdigit():
        return None
    try:
        constructor = adts.constructor(cname)
    except Exception:
        return None
    index = int(idx)
    if index >= constructor.arity:
        return None
    sel = Selector(constructor, index)
    return sel if sel.func == func else None


def remove_selectors(system: CHCSystem) -> CHCSystem:
    """Compile selector applications into constructor equalities.

    ``... g_i(t) ...`` becomes ``... y_i ...`` under the extra constraint
    ``t = c(y_0, ..., y_k)`` with fresh ``y_j`` — precisely the rewriting of
    the paper's ``car``/``cdr`` example in Sec. 4.5.
    """
    out = CHCSystem(system.adts, name=system.name)
    counter = itertools.count()
    for cl in system.clauses:
        extra: list[Formula] = []

        def strip(term: Term) -> Term:
            if isinstance(term, Var):
                return term
            sel = parse_selector(term.func, system.adts)
            if sel is None:
                return App(term.func, tuple(strip(a) for a in term.args))
            inner = strip(term.args[0])
            fresh = tuple(
                Var(f"sel!{next(counter)}", s)
                for s in sel.constructor.arg_sorts
            )
            extra.append(Eq(inner, App(sel.constructor, fresh)))
            return fresh[sel.index]

        def strip_formula(formula: Formula) -> Formula:
            if isinstance(formula, Eq):
                return Eq(strip(formula.lhs), strip(formula.rhs))
            if isinstance(formula, Tester):
                return Tester(formula.constructor, strip(formula.term))
            if isinstance(formula, PredAtom):
                return PredAtom(
                    formula.pred, tuple(strip(a) for a in formula.args)
                )
            if isinstance(formula, Not):
                return Not(strip_formula(formula.operand))
            parts = tuple(strip_formula(f) for f in formula.operands)
            return type(formula)(parts)

        constraint = strip_formula(cl.constraint)
        body = tuple(
            BodyAtom(
                a.pred,
                tuple(strip(t) for t in a.args),
                a.universal_vars,
            )
            for a in cl.body
        )
        head = (
            None
            if cl.head is None
            else BodyAtom(cl.head.pred, tuple(strip(t) for t in cl.head.args))
        )
        out.add(Clause(conj(constraint, *extra), body, head, cl.name))
    return out


# ----------------------------------------------------------------------
# Normalization: DNF split + tester expansion + equality elimination
# ----------------------------------------------------------------------
def normalize(system: CHCSystem) -> CHCSystem:
    """Split constraints to DNF and eliminate positive equality literals.

    The output clauses' constraints are conjunctions of *disequality*
    literals only.  Unsatisfiable cubes are dropped; positive equalities
    are solved by unification (clause vanishes if unification fails);
    positive testers are turned into constructor equalities first.
    """
    out = CHCSystem(system.adts, name=system.name)
    for pred in system.predicates.values():
        out.declare(pred)
    counter = itertools.count()
    for cl in system.clauses:
        expanded = _expand_testers(cl.constraint, system.adts, counter)
        for cube in dnf(expanded):
            normalized = _solve_cube(cl, cube, system.adts, counter)
            if normalized is not None:
                out.add(normalized)
    return out


def _expand_testers(
    formula: Formula, adts: ADTSystem, counter: "itertools.count"
) -> Formula:
    """Replace testers with constructor equalities over fresh variables.

    Positive ``c?(t)`` becomes ``t = c(fresh...)``; negative ``~c?(t)``
    becomes the disjunction of the other constructors' positive forms
    (exhaustiveness of ADT constructors).
    """
    if isinstance(formula, Tester):
        return _tester_to_eq(formula, counter)
    if isinstance(formula, Not) and isinstance(formula.operand, Tester):
        tester = formula.operand
        sort = tester.constructor.result_sort
        others = [
            c for c in adts.constructors(sort) if c != tester.constructor
        ]
        return disj(
            *(
                _tester_to_eq(Tester(c, tester.term), counter)
                for c in others
            )
        )
    if isinstance(formula, Not):
        return Not(_expand_testers(formula.operand, adts, counter))
    if isinstance(formula, (Eq, PredAtom)):
        return formula
    parts = tuple(_expand_testers(f, adts, counter) for f in formula.operands)
    return type(formula)(parts)


def _tester_to_eq(tester: Tester, counter: "itertools.count") -> Formula:
    fresh = tuple(
        Var(f"tst!{next(counter)}", s)
        for s in tester.constructor.arg_sorts
    )
    return Eq(tester.term, App(tester.constructor, fresh))


def _solve_cube(
    cl: Clause,
    cube: list[Formula],
    adts: ADTSystem,
    counter: "itertools.count",
) -> Optional[Clause]:
    """Eliminate the positive equalities of one DNF cube by unification."""
    positives: list[tuple[Term, Term]] = []
    negatives: list[Formula] = []
    for literal in cube:
        atom, positive = literal_parts(literal)
        if not isinstance(atom, Eq):
            raise CHCError(f"unexpected literal after expansion: {literal}")
        if positive:
            positives.append((atom.lhs, atom.rhs))
        else:
            negatives.append(literal)
    subst = unify(positives)
    if subst is None:
        return None  # cube unsatisfiable: clause trivially true
    kept: list[Formula] = []
    for literal in negatives:
        atom, _ = literal_parts(literal)
        assert isinstance(atom, Eq)
        lhs = substitute(atom.lhs, subst)
        rhs = substitute(atom.rhs, subst)
        if lhs == rhs:
            return None  # t != t is false: cube unsatisfiable
        if is_ground(lhs) and is_ground(rhs):
            continue  # distinct ground terms: literal is true, drop it
        kept.append(Not(Eq(lhs, rhs)))
    body = tuple(a.substituted(subst) for a in cl.body)
    head = None if cl.head is None else cl.head.substituted(subst)
    return Clause(conj(*kept), body, head, cl.name)


# ----------------------------------------------------------------------
# Disequality encoding (Sec. 4.4)
# ----------------------------------------------------------------------
def encode_diseq(system: CHCSystem) -> CHCSystem:
    """Replace disequality literals by ``diseq`` atoms and add their rules.

    Expects a normalized system (constraints are conjunctions of
    disequalities).  The resulting system is constraint-free; by Lemma 2 /
    Theorem 5 any of its first-order models induces a Herbrand model of the
    original system.
    """
    out = CHCSystem(system.adts, name=system.name)
    for pred in system.predicates.values():
        out.declare(pred)
    used_sorts: set[Sort] = set()
    for cl in system.clauses:
        literals = _constraint_literals(cl.constraint)
        extra: list[BodyAtom] = []
        for literal in literals:
            atom, positive = literal_parts(literal)
            if positive or not isinstance(atom, Eq):
                raise CHCError(
                    f"clause not normalized before diseq encoding: {cl}"
                )
            sort = atom.lhs.sort
            used_sorts.add(sort)
            extra.append(
                BodyAtom(diseq_symbol(sort), (atom.lhs, atom.rhs))
            )
        out.add(Clause(TRUE, cl.body + tuple(extra), cl.head, cl.name))
    # transitively close: diseq of a sort needs diseq of its argument sorts
    frontier = set(used_sorts)
    while frontier:
        sort = frontier.pop()
        for c in system.adts.constructors(sort):
            for arg_sort in c.arg_sorts:
                if arg_sort not in used_sorts:
                    used_sorts.add(arg_sort)
                    frontier.add(arg_sort)
    for sort in sorted(used_sorts, key=lambda s: s.name):
        out.extend(diseq_rules(system.adts, sort))
    return out


def diseq_rules(adts: ADTSystem, sort: Sort) -> list[Clause]:
    """The Horn rules defining ``diseq_sigma`` (Sec. 4.4).

    Their least Herbrand model interprets ``diseq_sigma`` as true
    disequality (Lemma 3), and any model over-approximates it soundly
    (Lemma 4).
    """
    symbol = diseq_symbol(sort)
    rules: list[Clause] = []
    constructors = adts.constructors(sort)
    counter = itertools.count()

    def fresh_args(c: FuncSymbol, tag: str) -> tuple[Term, ...]:
        return tuple(
            Var(f"d!{tag}{next(counter)}", s) for s in c.arg_sorts
        )

    for c1 in constructors:
        for c2 in constructors:
            if c1.name >= c2.name:
                continue
            left = App(c1, fresh_args(c1, "a"))
            right = App(c2, fresh_args(c2, "b"))
            rules.append(
                Clause(
                    TRUE,
                    (),
                    BodyAtom(symbol, (left, right)),
                    f"diseq-ctor-{c1.name}-{c2.name}",
                )
            )
            rules.append(
                Clause(
                    TRUE,
                    (),
                    BodyAtom(symbol, (right, left)),
                    f"diseq-ctor-{c2.name}-{c1.name}",
                )
            )
    for c in constructors:
        for i, arg_sort in enumerate(c.arg_sorts):
            x = Var(f"d!x{next(counter)}", arg_sort)
            y = Var(f"d!y{next(counter)}", arg_sort)
            left_args = list(fresh_args(c, "l"))
            right_args = list(fresh_args(c, "r"))
            left_args[i] = x
            right_args[i] = y
            rules.append(
                Clause(
                    TRUE,
                    (BodyAtom(diseq_symbol(arg_sort), (x, y)),),
                    BodyAtom(
                        symbol,
                        (App(c, tuple(left_args)), App(c, tuple(right_args))),
                    ),
                    f"diseq-arg-{c.name}-{i}",
                )
            )
    return rules


def _constraint_literals(constraint: Formula) -> list[Formula]:
    """The literals of a normalized (conjunctive) constraint."""
    if constraint == TRUE:
        return []
    if isinstance(constraint, (Eq, Not)):
        return [constraint]
    if not hasattr(constraint, "operands"):
        raise CHCError(f"unexpected constraint shape: {constraint}")
    literals: list[Formula] = []
    for part in constraint.operands:  # type: ignore[union-attr]
        literals.extend(_constraint_literals(part))
    return literals


# ----------------------------------------------------------------------
# Full pipeline
# ----------------------------------------------------------------------
def preprocess(system: CHCSystem) -> CHCSystem:
    """Figure 1 left-to-right: selectors out, normalize, diseq-encode.

    The result is a constraint-free CHC system over EUF, ready for the
    finite model finder.
    """
    return encode_diseq(normalize(remove_selectors(system)))


def is_constraint_free(system: CHCSystem) -> bool:
    """Whether every clause constraint is trivially true."""
    return all(cl.constraint == TRUE for cl in system.clauses)


def has_disequalities(system: CHCSystem) -> bool:
    """Whether any clause uses a disequality (directly or via ``diseq``)."""
    for cl in system.clauses:
        for literal in _constraint_literals_safe(cl.constraint):
            atom, positive = literal_parts(literal)
            if isinstance(atom, Eq) and not positive:
                return True
        for atom in cl.body:
            if is_diseq_symbol(atom.pred):
                return True
    return False


def _constraint_literals_safe(constraint: Formula) -> list[Formula]:
    try:
        return _constraint_literals(constraint)
    except CHCError:
        return []
