"""Constrained Horn clauses over ADTs (Definition 1).

A clause is ``constraint /\\ R1(t1) /\\ ... /\\ Rm(tm) -> H`` where the
constraint lives in the assertion language (equalities/testers over ADT
terms) and ``H`` is either an uninterpreted atom or bottom (query clause).

The IR intentionally keeps the constraint separate from the uninterpreted
body atoms, matching the paper's presentation and making the Sec. 4
preprocessing passes (equality elimination, diseq encoding, tester/selector
removal) local rewrites of clause parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.logic.adt import ADTSystem
from repro.logic.formulas import (
    Formula,
    PredAtom,
    TRUE,
    formula_vars,
    substitute_formula,
)
from repro.logic.sorts import PredSymbol
from repro.logic.terms import Substitution, Term, Var, substitute, variables


class CHCError(ValueError):
    """Raised on malformed clauses or systems."""


@dataclass(frozen=True)
class BodyAtom:
    """An occurrence ``R(t1, ..., tn)`` of an uninterpreted symbol in a body.

    ``universal_vars`` supports bodies with an inner universal quantifier
    block, needed for the STLC verification condition of Fig. 2 whose query
    clause is ``forall e. (forall a b. typeCheck(...)) -> false``.  For
    ordinary CHCs the tuple is empty.
    """

    pred: PredSymbol
    args: tuple[Term, ...]
    universal_vars: tuple[Var, ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.pred.arity:
            raise CHCError(
                f"{self.pred.name} expects {self.pred.arity} args, "
                f"got {len(self.args)}"
            )
        for expected, arg in zip(self.pred.arg_sorts, self.args):
            if arg.sort != expected:
                raise CHCError(
                    f"argument {arg} of {self.pred.name} has sort {arg.sort},"
                    f" expected {expected}"
                )

    @property
    def atom(self) -> PredAtom:
        return PredAtom(self.pred, self.args)

    def free_vars(self) -> set[Var]:
        out: set[Var] = set()
        for arg in self.args:
            out |= variables(arg)
        return out - set(self.universal_vars)

    def substituted(self, subst: Substitution) -> "BodyAtom":
        clean = {
            v: t for v, t in subst.items() if v not in self.universal_vars
        }
        return BodyAtom(
            self.pred,
            tuple(substitute(a, clean) for a in self.args),
            self.universal_vars,
        )

    def __str__(self) -> str:
        body = f"{self.pred.name}({', '.join(str(a) for a in self.args)})"
        if self.universal_vars:
            names = ", ".join(v.name for v in self.universal_vars)
            return f"(forall {names}. {body})"
        return body


@dataclass(frozen=True)
class Clause:
    """A constrained Horn clause.

    ``head is None`` encodes a query clause (head ⊥).  All free variables
    are implicitly universally quantified.
    """

    constraint: Formula
    body: tuple[BodyAtom, ...]
    head: Optional[BodyAtom]
    name: str = ""

    def __post_init__(self) -> None:
        if self.head is not None and self.head.universal_vars:
            raise CHCError("clause heads cannot carry universal blocks")

    @property
    def is_query(self) -> bool:
        return self.head is None

    @property
    def is_fact(self) -> bool:
        return self.head is not None and not self.body

    def free_vars(self) -> set[Var]:
        out = set(formula_vars(self.constraint))
        for atom in self.body:
            out |= atom.free_vars()
        if self.head is not None:
            out |= self.head.free_vars()
        return out

    def predicates(self) -> set[PredSymbol]:
        preds = {a.pred for a in self.body}
        if self.head is not None:
            preds.add(self.head.pred)
        return preds

    def substituted(self, subst: Substitution) -> "Clause":
        return Clause(
            substitute_formula(self.constraint, subst),
            tuple(a.substituted(subst) for a in self.body),
            None if self.head is None else self.head.substituted(subst),
            self.name,
        )

    def renamed(self, suffix: str) -> "Clause":
        """A variant with every variable renamed by appending ``suffix``."""
        renaming = {
            v: Var(v.name + suffix, v.sort) for v in self.free_vars()
        }
        return self.substituted(renaming)

    def __str__(self) -> str:
        parts: list[str] = []
        if self.constraint != TRUE:
            parts.append(str(self.constraint))
        parts.extend(str(a) for a in self.body)
        premise = " & ".join(parts) if parts else "true"
        conclusion = "false" if self.head is None else str(self.head)
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{premise} -> {conclusion}"


def clause(
    body: Sequence[BodyAtom],
    head: Optional[BodyAtom],
    constraint: Formula = TRUE,
    name: str = "",
) -> Clause:
    """Convenience constructor for :class:`Clause`."""
    return Clause(constraint, tuple(body), head, name)


@dataclass
class CHCSystem:
    """A finite set of CHCs over a fixed ADT system.

    Carries the ADT system (assertion-language signature), the declared
    uninterpreted symbols, and the clause list.
    """

    adts: ADTSystem
    predicates: dict[str, PredSymbol] = field(default_factory=dict)
    clauses: list[Clause] = field(default_factory=list)
    name: str = ""

    def declare(self, symbol: PredSymbol) -> PredSymbol:
        existing = self.predicates.get(symbol.name)
        if existing is not None and existing != symbol:
            raise CHCError(
                f"predicate {symbol.name!r} redeclared with different arity"
            )
        self.predicates[symbol.name] = symbol
        return symbol

    def add(self, new_clause: Clause) -> Clause:
        for p in new_clause.predicates():
            self.declare(p)
        self.clauses.append(new_clause)
        return new_clause

    def extend(self, new_clauses: Iterable[Clause]) -> None:
        for c in new_clauses:
            self.add(c)

    @property
    def queries(self) -> list[Clause]:
        return [c for c in self.clauses if c.is_query]

    @property
    def definite_clauses(self) -> list[Clause]:
        return [c for c in self.clauses if not c.is_query]

    def clauses_defining(self, pred: PredSymbol) -> list[Clause]:
        return [
            c
            for c in self.clauses
            if c.head is not None and c.head.pred == pred
        ]

    def copy(self) -> "CHCSystem":
        system = CHCSystem(self.adts, dict(self.predicates), list(self.clauses))
        system.name = self.name
        return system

    def fresh_pred_name(self, base: str) -> str:
        if base not in self.predicates:
            return base
        for i in range(1, 10_000):
            candidate = f"{base}_{i}"
            if candidate not in self.predicates:
                return candidate
        raise CHCError(f"cannot find a fresh name based on {base!r}")

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)
