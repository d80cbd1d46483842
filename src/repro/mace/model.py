"""Finite first-order structures (the models found by :mod:`repro.mace`).

A :class:`FiniteModel` interprets every sort by ``{0, ..., n_sort - 1}``,
every function symbol by a total table and every predicate symbol by a
relation.  It can evaluate ground terms, decide clause satisfaction exactly
(finite domains make the universal closure decidable — the key fact behind
Sec. 4's "checking the inductiveness of a candidate finite-model invariant
is decidable"), and is the object converted into a tree automaton by
:func:`repro.automata.from_model.model_to_automata`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.logic.formulas import TRUE
from repro.logic.sorts import FuncSymbol, PredSymbol, Sort
from repro.logic.terms import Term, Var


class ModelError(ValueError):
    """Raised on malformed or incomplete finite models."""


@dataclass
class FiniteModel:
    """A finite many-sorted structure.

    ``domains`` maps each sort to its cardinality; element ``i`` of sort
    ``s`` is just the integer ``i``.  ``functions`` maps each function
    symbol to a dict from argument tuples to values; ``predicates`` maps
    each predicate symbol to the set of tuples where it holds.
    """

    domains: dict[Sort, int]
    functions: dict[FuncSymbol, dict[tuple[int, ...], int]]
    predicates: dict[PredSymbol, set[tuple[int, ...]]]

    def size(self) -> int:
        """Sum of all sort cardinalities (the x-axis of Figure 6)."""
        return sum(self.domains.values())

    def domain(self, sort: Sort) -> range:
        try:
            return range(self.domains[sort])
        except KeyError:
            raise ModelError(f"no domain for sort {sort}") from None

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def eval_term(self, term: Term, env: Mapping[Var, int] = {}) -> int:
        """Interpret a term; variables are looked up in ``env``."""
        if isinstance(term, Var):
            try:
                return env[term]
            except KeyError:
                raise ModelError(f"unbound variable {term}") from None
        table = self.functions.get(term.func)
        if table is None:
            raise ModelError(f"no interpretation for {term.func.name}")
        args = tuple(self.eval_term(a, env) for a in term.args)
        try:
            return table[args]
        except KeyError:
            raise ModelError(
                f"partial function table for {term.func.name} at {args}"
            ) from None

    def holds(
        self, pred: PredSymbol, args: tuple[int, ...]
    ) -> bool:
        return args in self.predicates.get(pred, set())

    def reachable_elements(self, adts) -> dict[Sort, set[int]]:
        """Elements denoted by some ground constructor term.

        Quantification over ground Herbrand terms corresponds *exactly* to
        quantification over these elements (every ground term evaluates
        into the set, and each member is some ground term's value), which
        is what makes :meth:`eval_clause` with ``herbrand=True`` an exact
        Herbrand-satisfaction check — even for the quantifier-alternating
        STLC query of Fig. 2, where whole-domain quantification would be
        unsound in the presence of junk elements.
        """
        reached: dict[Sort, set[int]] = {s: set() for s in self.domains}
        changed = True
        while changed:
            changed = False
            for func, table in self.functions.items():
                if not adts.is_constructor(func):
                    continue
                for args, value in table.items():
                    if all(
                        a in reached[s]
                        for a, s in zip(args, func.arg_sorts)
                    ):
                        if value not in reached[func.result_sort]:
                            reached[func.result_sort].add(value)
                            changed = True
        return reached

    def eval_atom(
        self,
        atom: BodyAtom,
        env: Mapping[Var, int],
        pools: Optional[Mapping[Sort, Iterable[int]]] = None,
    ) -> bool:
        """Evaluate a (possibly universally blocked) body atom exactly."""
        if not atom.universal_vars:
            values = tuple(self.eval_term(t, env) for t in atom.args)
            return self.holds(atom.pred, values)
        ranges = [
            (pools or {}).get(v.sort, self.domain(v.sort))
            for v in atom.universal_vars
        ]
        for combo in itertools.product(*ranges):
            inner = dict(env)
            inner.update(zip(atom.universal_vars, combo))
            values = tuple(self.eval_term(t, inner) for t in atom.args)
            if not self.holds(atom.pred, values):
                return False
        return True

    def eval_clause(
        self,
        cl: Clause,
        *,
        adts=None,
        herbrand: bool = False,
    ) -> Optional[dict[Var, int]]:
        """Exact check of the universal closure of a constraint-free clause.

        Returns ``None`` if the clause holds, otherwise a falsifying
        assignment of the clause variables.  The clause must be
        constraint-free (run :func:`repro.chc.transform.preprocess` first).

        With ``herbrand=True`` (requires ``adts``) all quantifiers range
        over the constructor-reachable substructure, making the check an
        exact test of Herbrand satisfaction of the induced relations.
        """
        return self._falsify(cl, self._pools(adts, herbrand))

    def _pools(self, adts, herbrand: bool) -> Optional[dict[Sort, set[int]]]:
        """The quantifier ranges of a check: ``None`` for whole domains,
        the reachable elements (a fixpoint over every constructor
        table, so computed once per check) for ``herbrand``."""
        if not herbrand:
            return None
        if adts is None:
            raise ModelError("herbrand evaluation requires the ADT system")
        return self.reachable_elements(adts)

    def _falsify(
        self, cl: Clause, domain_pools: Optional[dict[Sort, set[int]]]
    ) -> Optional[dict[Var, int]]:
        """:meth:`eval_clause` over the given quantifier ranges."""
        if cl.constraint != TRUE:
            raise ModelError(
                "finite models evaluate constraint-free clauses only; "
                "preprocess the system first"
            )
        free = sorted(cl.free_vars(), key=lambda v: v.name)
        if domain_pools is not None:
            pools = [sorted(domain_pools[v.sort]) for v in free]
        else:
            pools = [self.domain(v.sort) for v in free]
        for combo in itertools.product(*pools):
            env = dict(zip(free, combo))
            if not all(
                self.eval_atom(a, env, domain_pools) for a in cl.body
            ):
                continue
            if cl.head is None:
                return env
            values = tuple(self.eval_term(t, env) for t in cl.head.args)
            if not self.holds(cl.head.pred, values):
                return env
        return None

    def satisfies(
        self, system: CHCSystem, *, herbrand: bool = False
    ) -> bool:
        """Whether every clause of a constraint-free system holds."""
        return self.first_violation(system, herbrand=herbrand) is None

    def first_violation(
        self, system: CHCSystem, *, herbrand: bool = False
    ) -> Optional[tuple[Clause, dict[Var, int]]]:
        """The first violated clause with its falsifying assignment."""
        pools = self._pools(system.adts, herbrand)
        for cl in system.clauses:
            env = self._falsify(cl, pools)
            if env is not None:
                return cl, env
        return None

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable rendering in the style of the paper's examples."""
        lines: list[str] = []
        for sort, n in sorted(self.domains.items(), key=lambda kv: kv[0].name):
            lines.append(f"|M|_{sort.name} = {{{', '.join(map(str, range(n)))}}}")
        for func, table in sorted(
            self.functions.items(), key=lambda kv: kv[0].name
        ):
            if func.arity == 0:
                lines.append(f"M({func.name}) = {table[()]}")
            else:
                entries = ", ".join(
                    f"{func.name}({', '.join(map(str, args))}) = {val}"
                    for args, val in sorted(table.items())
                )
                lines.append(f"M({func.name}): {entries}")
        for pred, rel in sorted(
            self.predicates.items(), key=lambda kv: kv[0].name
        ):
            entries = ", ".join(str(t) for t in sorted(rel))
            lines.append(f"M({pred.name}) = {{{entries}}}")
        return "\n".join(lines)


def validate_model(model: FiniteModel) -> None:
    """Check totality/functionality of all tables and relation bounds."""
    for func, table in model.functions.items():
        pools = [model.domain(s) for s in func.arg_sorts]
        expected = set(itertools.product(*pools))
        if set(table) != expected:
            raise ModelError(f"function {func.name} has a partial table")
        codomain = model.domains.get(func.result_sort)
        if codomain is None:
            raise ModelError(f"missing domain for {func.result_sort}")
        for value in table.values():
            if not 0 <= value < codomain:
                raise ModelError(
                    f"function {func.name} maps outside its codomain"
                )
    for pred, rel in model.predicates.items():
        for args in rel:
            if len(args) != pred.arity:
                raise ModelError(f"relation {pred.name} has wrong arity")
            for value, sort in zip(args, pred.arg_sorts):
                if not 0 <= value < model.domains.get(sort, 0):
                    raise ModelError(
                        f"relation {pred.name} contains out-of-domain tuple"
                    )
