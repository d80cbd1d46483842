"""Elem baseline: elementary (first-order) invariant synthesis.

This is the repo's stand-in for Z3/Spacer in Table 1: a solver whose
*representation class* is Elem (Sec. 6.1) — quantifier-free first-order
formulas over the ADT signature, in the normal form of Definition 6 (atoms
are testers ``c?(s(x))``, path equalities ``s(x) = s'(y)`` and ground
equalities ``s(x) = g``, with guarded selector semantics).

On the shared skeleton (:class:`~repro.solvers.synth.Baseline`) it
refutes first at height 4 within 30% of the timeout, then
:func:`synthesize` runs the ICE search with ground argument tuples as
keys: clauses instantiated over capped term pools
(:func:`ground_instances`), and cubes and small DNFs over the
:func:`atom_space` as candidates (:func:`candidate_formulas`).  If no
combination works the answer is UNKNOWN — by Prop. 1 it *must* diverge
on programs without Elem invariants (Even, EvenLeft), exactly the
behaviour Table 1 attributes to Spacer.  The caps are the constants
below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.chc.clauses import CHCSystem, Clause
from repro.chc.semantics import eval_constraint
from repro.core.result import SolveResult, sat, unknown
from repro.logic.adt import ADTSystem
from repro.logic.formulas import TRUE, Eq, atoms as formula_atoms
from repro.logic.sorts import PredSymbol, Sort
from repro.logic.terms import Term, is_ground, subterms, substitute
from repro.solvers.synth import (
    Baseline,
    Instance,
    expired,
    ice_search,
    positive_examples,
)
from repro.theory.normal_form import (
    Atom,
    ELEM_TRUE,
    ElemFormula,
    GroundEqAtom,
    Literal,
    PathEqAtom,
    PathTesterAtom,
)
from repro.theory.paths import Path, all_paths

#: the atom space: selector paths of depth ≤ 1, ground terms of height
#: ≤ 2, the 48 simplest atoms
MAX_PATH_DEPTH = 1
MAX_GROUND_HEIGHT = 2
MAX_ATOMS = 48
#: candidates kept per predicate, combinations tried in all
MAX_CANDIDATES = 400
MAX_COMBINATIONS = 60_000
#: ground terms per sort the clauses are instantiated over
TERMS_PER_SORT = 10


@dataclass
class ElemInvariant:
    """A SAT witness: one elementary formula per predicate."""

    formulas: dict[PredSymbol, ElemFormula]
    adts: ADTSystem

    def member(self, pred: PredSymbol, args: tuple[Term, ...]) -> bool:
        return self.formulas[pred].eval(args, self.adts)

    def describe(self) -> str:
        return "\n".join(
            f"{p.name}({', '.join(f'x{i}' for i in range(p.arity))}) := "
            f"{f}"
            for p, f in sorted(
                self.formulas.items(), key=lambda kv: kv[0].name
            )
        )


# ----------------------------------------------------------------------
# Atom-space construction
# ----------------------------------------------------------------------
def atom_space(
    pred: PredSymbol,
    adts: ADTSystem,
    *,
    max_path_depth: int = 1,
    max_ground_height: int = 2,
    max_atoms: int = 64,
) -> list[Atom]:
    """All normal-form atoms over the predicate's argument tuple."""
    atoms: list[Atom] = []
    arg_paths: list[list[tuple[Path, Sort]]] = []
    for sort in pred.arg_sorts:
        arg_paths.append(list(all_paths(adts, sort, max_path_depth)))
    # testers
    for i, paths in enumerate(arg_paths):
        for path, sort in paths:
            for c in adts.constructors(sort):
                atoms.append(PathTesterAtom(i, path, c.name))
    # ground equalities
    for i, paths in enumerate(arg_paths):
        for path, sort in paths:
            for g in adts.terms_up_to_height(sort, max_ground_height):
                atoms.append(GroundEqAtom(i, path, g))
    # path equalities (between distinct positions or distinct paths)
    for i, paths_i in enumerate(arg_paths):
        for j in range(i, len(arg_paths)):
            for pi, sort_i in paths_i:
                for pj, sort_j in arg_paths[j]:
                    if sort_i != sort_j:
                        continue
                    if i == j and pi.steps >= pj.steps:
                        continue
                    atoms.append(PathEqAtom(i, pi, j, pj))
    atoms.sort(key=lambda a: a.complexity())  # type: ignore[attr-defined]
    return atoms[:max_atoms]


def candidate_formulas(
    atoms: list[Atom],
    *,
    max_cube_size: int = 2,
    max_disjuncts: int = 2,
    limit: int = 4000,
) -> Iterator[ElemFormula]:
    """Candidates in roughly increasing complexity.

    Yields ``true``, all single cubes of up to ``max_cube_size`` literals,
    then two-cube disjunctions of single literals.
    """
    yield ELEM_TRUE
    literals = [Literal(a, True) for a in atoms] + [
        Literal(a, False) for a in atoms
    ]
    literals.sort(key=lambda l: l.complexity())
    produced = 0
    for lit in literals:
        yield ElemFormula(((lit,),))
        produced += 1
        if produced >= limit:
            return
    if max_cube_size >= 2:
        for a, b in itertools.combinations(literals, 2):
            yield ElemFormula(((a, b),))
            produced += 1
            if produced >= limit:
                return
    if max_disjuncts >= 2:
        for a, b in itertools.combinations(literals, 2):
            yield ElemFormula(((a,), (b,)))
            produced += 1
            if produced >= limit:
                return


# ----------------------------------------------------------------------
# Clause instances over capped term pools
# ----------------------------------------------------------------------
def terms_capped(
    adts: ADTSystem, sort: Sort, cap: int, *, max_height: int = 12
) -> list[Term]:
    """Ground terms of ``sort`` in height order, at most ``cap`` of them.

    For skinny universes (Peano numbers) this reaches much deeper than a
    fixed height bound, which is what catches parity-style violations that
    only manifest a few levels beyond the candidate formula's path depth.
    """
    out: list[Term] = []
    for h in range(1, max_height + 1):
        layer = adts.terms_of_height(sort, h)
        for t in layer:
            out.append(t)
            if len(out) >= cap:
                return out
    return out


def _clause_constants(cl: Clause) -> dict[Sort, list[Term]]:
    """Ground subterms mentioned by the clause itself.

    These must be reachable by the instantiation pools no matter how
    the height cap falls: a query whose constraint pins a variable to
    a deep constant (e.g. ``x = S^10(Z)``) would otherwise produce no
    instance at all and be *vacuously* satisfied — the soundness hole
    behind a bogus SAT on deep broken benchmarks.
    """
    seed: dict[Sort, list[Term]] = {}
    roots: list[Term] = []
    for atom in formula_atoms(cl.constraint):
        if isinstance(atom, Eq):
            roots.extend((atom.lhs, atom.rhs))
        elif hasattr(atom, "term"):
            roots.append(atom.term)
        elif hasattr(atom, "args"):
            roots.extend(atom.args)
    for a in cl.body:
        roots.extend(a.args)
    if cl.head is not None:
        roots.extend(cl.head.args)
    for root in roots:
        for sub in subterms(root):
            if is_ground(sub):
                bucket = seed.setdefault(sub.sort, [])
                if sub not in bucket:
                    bucket.append(sub)
    return seed


def ground_instances(
    system: CHCSystem,
    *,
    terms_per_sort: int,
    deadline: Optional[float] = None,
) -> Optional[list[Instance]]:
    """All capped instantiations of all clauses with true constraints,
    or ``None`` once ``deadline`` passes.

    Clauses with universal blocks are skipped (they cannot be checked
    conclusively at a bound); the Elem solver then simply never claims SAT
    for such systems, which matches the divergence of elementary engines
    on the STLC benchmarks (Sec. 8).
    """
    adts = system.adts
    out: list[Instance] = []
    pool_cache: dict[Sort, list[Term]] = {}

    def pool(sort: Sort) -> list[Term]:
        if sort not in pool_cache:
            pool_cache[sort] = terms_capped(adts, sort, terms_per_sort)
        return pool_cache[sort]

    for cl in system.clauses:
        if any(a.universal_vars for a in cl.body):
            continue
        free = sorted(cl.free_vars(), key=lambda v: v.name)
        seeds = _clause_constants(cl)
        pools = [
            pool(v.sort)
            + [t for t in seeds.get(v.sort, ()) if t not in pool(v.sort)]
            for v in free
        ]
        for combo in itertools.product(*pools):
            if expired(deadline):
                return None
            env = dict(zip(free, combo))
            if cl.constraint != TRUE and not eval_constraint(
                cl.constraint, adts, env
            ):
                continue
            body = tuple(
                (a.pred, tuple(substitute(t, env) for t in a.args))
                for a in cl.body
            )
            head = None
            if cl.head is not None:
                head = (
                    cl.head.pred,
                    tuple(substitute(t, env) for t in cl.head.args),
                )
            out.append(Instance(body, head))
    return out


def has_universal_blocks(system: CHCSystem) -> bool:
    return any(
        a.universal_vars for cl in system.clauses for a in cl.body
    )


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
def synthesize(
    system: CHCSystem, deadline: Optional[float]
) -> Optional[ElemInvariant]:
    """An Elem invariant of ``system`` found by the ICE search, or
    ``None`` (no candidate combination within the caps and deadline)."""
    adts = system.adts
    if has_universal_blocks(system):
        return None
    preds = sorted(system.predicates.values(), key=lambda p: p.name)
    if not preds:
        return None
    examples = positive_examples(system, preds, deadline)
    instances = ground_instances(
        system, terms_per_sort=TERMS_PER_SORT, deadline=deadline
    )
    if instances is None:
        return None
    formulas = ice_search(
        preds,
        examples,
        instances,
        lambda p: candidate_formulas(
            atom_space(
                p,
                adts,
                max_path_depth=MAX_PATH_DEPTH,
                max_ground_height=MAX_GROUND_HEIGHT,
                max_atoms=MAX_ATOMS,
            )
        ),
        lambda formula, args: formula.eval(args, adts),
        max_candidates=MAX_CANDIDATES,
        max_combinations=MAX_COMBINATIONS,
        deadline=deadline,
    )
    return None if formulas is None else ElemInvariant(formulas, adts)


class ElemSolver(Baseline):
    """Enumerative synthesizer for the Elem representation class."""

    name = "elem"
    cex_share = 0.3

    def answer(
        self, system: CHCSystem, deadline: Optional[float]
    ) -> SolveResult:
        invariant = synthesize(system, deadline)
        if invariant is None:
            return unknown(self.name, "no elementary invariant within budget")
        return sat(self.name, invariant)


def solve_elem(
    system: CHCSystem, *, timeout: Optional[float] = None
) -> SolveResult:
    """One-call API for the Elem baseline."""
    return ElemSolver(timeout).solve(system)
