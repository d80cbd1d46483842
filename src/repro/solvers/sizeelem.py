"""SizeElem baseline: elementary invariants with term-size constraints.

The stand-in for Eldarica in Table 1.  Eldarica's representation class
(Sec. 6.3) extends Elem with Presburger arithmetic over ``size_sigma``
terms; Hojjat & Rümmer solve the resulting constraints by reduction to
EUF + LIA.  We reproduce the same *class* on the shared skeleton
(:class:`~repro.solvers.synth.Baseline`): it refutes first at height 4
within 25% of the timeout, then runs two phases:

1. the Elem phase (SizeElem subsumes Elem — Figure 3 draws Elem strictly
   inside SizeElem), :func:`repro.solvers.elem.synthesize` within 40% of
   the time left;
2. the size phase, :func:`size_phase`: clauses are abstracted to
   linear-integer clauses by mapping every term to its size expression
   (``size(c(t1..tn)) = 1 + sum size(ti)``, disequality constraints
   dropped — a sound over-approximation), and the ICE search runs with
   size vectors as keys over per-predicate size templates: orderings
   ``s_i < s_j``, offsets ``s_i = s_j + c``, congruences
   ``s_i ≡ r (mod m)`` (how Eldarica expresses *Even*), congruences of
   sums, constant bounds, and conjunctions of two.

Size-variable pools range over the *realizable* sizes ``S_sigma`` of each
sort (the semilinear size image of Sec. 6.3), computed by the grammar DP in
:meth:`repro.logic.adt.ADTSystem.size_image` — e.g. tree sizes are the odd
numbers, which matters for inductiveness checks.

The solver succeeds on LtGt/Even/IncDec/Diag and must diverge on EvenLeft
(Prop. 2): size constraints count all constructors at once and cannot see
"the leftmost branch".  The caps are the constants below.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.chc.clauses import CHCSystem
from repro.chc.transform import normalize, remove_selectors
from repro.core.result import SolveResult, sat, unknown
from repro.logic.adt import ADTSystem
from repro.logic.sorts import PredSymbol, Sort
from repro.logic.terms import Term, Var
from repro.logic.terms import size as term_size
from repro.solvers import elem
from repro.solvers.synth import (
    Baseline,
    Instance,
    expired,
    ice_search,
    positive_examples,
    share,
)

#: share of the time left after refuting that the Elem phase may take
ELEM_SHARE = 0.4
#: templates kept per predicate, combinations tried in all
MAX_TEMPLATES = 600
MAX_COMBINATIONS = 80_000
#: integer instances per abstract clause, and the largest size used
BUDGET_PER_CLAUSE = 30_000
MAX_SIZE = 16


# ----------------------------------------------------------------------
# Linear size expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinExpr:
    """``const + sum coeff_v * size(v)`` over clause variables."""

    const: int
    coeffs: tuple[tuple[Var, int], ...]

    def eval(self, env: dict[Var, int]) -> int:
        return self.const + sum(c * env[v] for v, c in self.coeffs)

    def variables(self) -> list[Var]:
        return [v for v, _ in self.coeffs]

    def __str__(self) -> str:
        parts = [str(self.const)] if self.const or not self.coeffs else []
        for v, c in self.coeffs:
            parts.append(f"{c}*|{v.name}|" if c != 1 else f"|{v.name}|")
        return " + ".join(parts)


def size_expr(term: Term) -> LinExpr:
    """The size abstraction of a term: every constructor counts one."""
    coeffs: dict[Var, int] = {}
    const = 0

    def walk(t: Term) -> None:
        nonlocal const
        if isinstance(t, Var):
            coeffs[t] = coeffs.get(t, 0) + 1
        else:
            const += 1
            for a in t.args:
                walk(a)

    walk(term)
    return LinExpr(const, tuple(sorted(coeffs.items(), key=lambda kv: kv[0].name)))


# ----------------------------------------------------------------------
# Size templates (the SizeElem candidate language)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SizeAtom:
    """One size constraint over the predicate's argument sizes.

    ``kind`` selects the shape; ``i``/``j`` are argument positions.

    * ``cmp``: ``s_i OP s_j`` with OP in { <, <=, >, >=, == }
    * ``offset``: ``s_i == s_j + c``
    * ``mod``: ``s_i ≡ r (mod m)``
    * ``modsum``: ``s_i + s_j ≡ r (mod m)``
    * ``const``: ``s_i OP c`` with OP in { ==, >=, <= }
    """

    kind: str
    i: int
    j: int = 0
    op: str = ""
    c: int = 0
    m: int = 0
    r: int = 0

    def eval(self, sizes: Sequence[int]) -> bool:
        if self.kind == "cmp":
            a, b = sizes[self.i], sizes[self.j]
            return _compare(a, self.op, b)
        if self.kind == "offset":
            return sizes[self.i] == sizes[self.j] + self.c
        if self.kind == "mod":
            return sizes[self.i] % self.m == self.r
        if self.kind == "modsum":
            return (sizes[self.i] + sizes[self.j]) % self.m == self.r
        if self.kind == "const":
            return _compare(sizes[self.i], self.op, self.c)
        raise ValueError(f"unknown size atom kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "cmp":
            return f"s{self.i} {self.op} s{self.j}"
        if self.kind == "offset":
            return f"s{self.i} = s{self.j} + {self.c}"
        if self.kind == "mod":
            return f"s{self.i} ≡ {self.r} (mod {self.m})"
        if self.kind == "modsum":
            return f"s{self.i} + s{self.j} ≡ {self.r} (mod {self.m})"
        return f"s{self.i} {self.op} {self.c}"

    def complexity(self) -> int:
        base = {"cmp": 2, "offset": 3, "mod": 3, "modsum": 4, "const": 2}
        return base[self.kind] + abs(self.c)


def _compare(a: int, op: str, b: int) -> bool:
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    raise ValueError(f"unknown comparison {op!r}")


@dataclass(frozen=True)
class SizeTemplate:
    """A conjunction of size atoms (empty = true)."""

    atoms: tuple[SizeAtom, ...]

    def eval(self, sizes: Sequence[int]) -> bool:
        return all(a.eval(sizes) for a in self.atoms)

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return " & ".join(str(a) for a in self.atoms)

    def complexity(self) -> int:
        return 1 + sum(a.complexity() for a in self.atoms)


SIZE_TRUE = SizeTemplate(())


def size_atom_space(arity: int, *, max_offset: int = 3) -> list[SizeAtom]:
    """All template atoms over ``arity`` argument sizes."""
    atoms: list[SizeAtom] = []
    for i in range(arity):
        for m in (2, 3):
            for r in range(m):
                atoms.append(SizeAtom("mod", i, m=m, r=r))
        for op in ("==", ">=", "<="):
            for c in range(1, 5):
                atoms.append(SizeAtom("const", i, op=op, c=c))
    for i in range(arity):
        for j in range(arity):
            if i == j:
                continue
            for op in ("<", "<=", ">", ">=", "=="):
                if i > j and op == "==":
                    continue  # symmetric
                atoms.append(SizeAtom("cmp", i, j, op=op))
            for c in range(1, max_offset + 1):
                atoms.append(SizeAtom("offset", i, j, c=c))
        for j in range(i + 1, arity):
            for m in (2,):
                for r in range(m):
                    atoms.append(SizeAtom("modsum", i, j, m=m, r=r))
    atoms.sort(key=lambda a: a.complexity())
    return atoms


def size_templates(
    arity: int, *, max_conjuncts: int = 2, limit: int = 2500
) -> list[SizeTemplate]:
    """All candidate templates, simplest first."""
    atoms = size_atom_space(arity)
    out: list[SizeTemplate] = [SIZE_TRUE]
    out.extend(SizeTemplate((a,)) for a in atoms)
    if max_conjuncts >= 2:
        for a, b in itertools.combinations(atoms, 2):
            out.append(SizeTemplate((a, b)))
            if len(out) >= limit:
                break
    return out[:limit]


# ----------------------------------------------------------------------
# Invariant objects
# ----------------------------------------------------------------------
@dataclass
class SizeElemInvariant:
    """SAT witness of the size phase: one template per predicate.

    Membership of a ground tuple is decided by its size vector alone."""

    templates: dict[PredSymbol, SizeTemplate]
    adts: ADTSystem

    def member(self, pred: PredSymbol, args: tuple[Term, ...]) -> bool:
        sizes = [term_size(t) for t in args]
        return self.templates[pred].eval(sizes)

    def describe(self) -> str:
        return "\n".join(
            f"{p.name}(x0..x{max(p.arity - 1, 0)}) := {t}   "
            f"(s_i = size(x_i))"
            for p, t in sorted(
                self.templates.items(), key=lambda kv: kv[0].name
            )
        )


# ----------------------------------------------------------------------
# Abstract clauses
# ----------------------------------------------------------------------
@dataclass
class AbstractClause:
    """A clause over size expressions."""

    vars: tuple[Var, ...]
    body: tuple[tuple[PredSymbol, tuple[LinExpr, ...]], ...]
    head: Optional[tuple[PredSymbol, tuple[LinExpr, ...]]]
    name: str = ""


def abstract_system(system: CHCSystem) -> Optional[list[AbstractClause]]:
    """Size abstraction of a CHC system (after normalization).

    Disequality constraints are dropped — the abstraction is a sound
    over-approximation: any size invariant of the abstract system maps
    back to a safe inductive invariant of the original one.
    Returns ``None`` if the system has universal blocks.
    """
    normalized = normalize(remove_selectors(system))
    if elem.has_universal_blocks(normalized):
        return None
    out: list[AbstractClause] = []
    for cl in normalized.clauses:
        body = tuple(
            (a.pred, tuple(size_expr(t) for t in a.args)) for a in cl.body
        )
        head = None
        if cl.head is not None:
            head = (
                cl.head.pred,
                tuple(size_expr(t) for t in cl.head.args),
            )
        out.append(
            AbstractClause(
                tuple(sorted(cl.free_vars(), key=lambda v: v.name)),
                body,
                head,
                cl.name,
            )
        )
    return out


def size_instances(
    clauses: list[AbstractClause],
    adts: ADTSystem,
    deadline: Optional[float],
) -> Optional[list[Instance]]:
    """Ground the abstract clauses over realizable size pools, or
    ``None`` once ``deadline`` passes.

    Every variable ranges over ``S_sigma ∩ [1, B]``, ``B`` ≤
    :data:`MAX_SIZE`, where ``B`` adapts to the clause's variable count
    so the instance count stays within :data:`BUDGET_PER_CLAUSE`.
    """
    out: list[Instance] = []
    image_cache: dict[Sort, list[int]] = {}

    def image(sort: Sort, bound: int) -> list[int]:
        if sort not in image_cache:
            image_cache[sort] = adts.size_image(sort, MAX_SIZE)
        return [s for s in image_cache[sort] if s <= bound]

    for cl in clauses:
        n = max(len(cl.vars), 1)
        bound = max(4, int(BUDGET_PER_CLAUSE ** (1.0 / n)))
        bound = min(bound, MAX_SIZE)
        pools = [image(v.sort, bound) for v in cl.vars]
        for combo in itertools.product(*pools):
            if expired(deadline):
                return None
            env = dict(zip(cl.vars, combo))
            body = tuple(
                (p, tuple(e.eval(env) for e in exprs))
                for p, exprs in cl.body
            )
            head = None
            if cl.head is not None:
                head = (
                    cl.head[0],
                    tuple(e.eval(env) for e in cl.head[1]),
                )
            out.append(Instance(body, head))
    return out


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
def size_phase(
    system: CHCSystem, deadline: Optional[float]
) -> Optional[SizeElemInvariant]:
    """A size-template invariant of ``system`` found by the ICE search
    over its size abstraction, or ``None``."""
    adts = system.adts
    clauses = abstract_system(system)
    if clauses is None:
        return None
    preds = sorted(system.predicates.values(), key=lambda p: p.name)
    if not preds:
        return None
    examples = positive_examples(
        system,
        preds,
        deadline,
        key=lambda args: tuple(term_size(t) for t in args),
    )
    instances = size_instances(clauses, adts, deadline)
    if instances is None:
        return None
    templates = ice_search(
        preds,
        examples,
        instances,
        lambda p: size_templates(p.arity),
        lambda template, sizes: template.eval(sizes),
        max_candidates=MAX_TEMPLATES,
        max_combinations=MAX_COMBINATIONS,
        deadline=deadline,
    )
    return None if templates is None else SizeElemInvariant(templates, adts)


class SizeElemSolver(Baseline):
    """Two-phase Elem + size-template synthesizer (Eldarica proxy)."""

    name = "sizeelem"
    cex_share = 0.25

    def answer(
        self, system: CHCSystem, deadline: Optional[float]
    ) -> SolveResult:
        # Phase 1: Elem (SizeElem subsumes Elem)
        elem_deadline = None
        if deadline is not None:
            now = time.monotonic()
            elem_deadline = now + share(deadline - now, ELEM_SHARE)
        invariant = elem.synthesize(system, elem_deadline)
        if invariant is not None:
            return sat(self.name, invariant, phase="elem")
        # Phase 2: size templates
        invariant = size_phase(system, deadline)
        if invariant is None:
            return unknown(
                self.name, "no size-constrained invariant within budget"
            )
        return sat(self.name, invariant, phase="size")


def solve_sizeelem(
    system: CHCSystem, *, timeout: Optional[float] = None
) -> SolveResult:
    """One-call API for the SizeElem baseline."""
    return SizeElemSolver(timeout).solve(system)
