"""SMT-LIB2 printer for CHC systems — inverse of :mod:`repro.chc.parser`.

Emitting the CHC-COMP fragment lets the generated benchmark suites be
written to disk in the same format the original RInGen consumed, and gives
a parse/print round-trip that the test suite checks.
"""

from __future__ import annotations

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.transform import parse_selector
from repro.logic.adt import ADTSystem
from repro.logic.formulas import (
    And,
    Eq,
    Formula,
    Not,
    Or,
    PredAtom,
    TRUE,
    Tester,
)
from repro.logic.terms import Term, Var


def print_term(term: Term, adts: ADTSystem) -> str:
    if isinstance(term, Var):
        return term.name
    sel = parse_selector(term.func, adts)
    if sel is not None:
        inner = print_term(term.args[0], adts)
        return f"({selector_name(sel.constructor.name, sel.index)} {inner})"
    if not term.args:
        return term.func.name
    args = " ".join(print_term(a, adts) for a in term.args)
    return f"({term.func.name} {args})"


def selector_name(constructor: str, index: int) -> str:
    """Canonical selector name used when printing datatype declarations."""
    return f"{constructor}!{index}"


def print_formula(formula: Formula, adts: ADTSystem) -> str:
    if formula == TRUE:
        return "true"
    if isinstance(formula, Eq):
        return (
            f"(= {print_term(formula.lhs, adts)} "
            f"{print_term(formula.rhs, adts)})"
        )
    if isinstance(formula, Tester):
        return (
            f"((_ is {formula.constructor.name}) "
            f"{print_term(formula.term, adts)})"
        )
    if isinstance(formula, PredAtom):
        if not formula.args:
            return formula.pred.name
        args = " ".join(print_term(a, adts) for a in formula.args)
        return f"({formula.pred.name} {args})"
    if isinstance(formula, Not):
        return f"(not {print_formula(formula.operand, adts)})"
    if isinstance(formula, And):
        if not formula.operands:
            return "true"
        parts = " ".join(print_formula(f, adts) for f in formula.operands)
        return f"(and {parts})"
    if isinstance(formula, Or):
        if not formula.operands:
            return "false"
        parts = " ".join(print_formula(f, adts) for f in formula.operands)
        return f"(or {parts})"
    raise TypeError(f"cannot print {formula!r}")


def print_atom(atom: BodyAtom, adts: ADTSystem) -> str:
    if not atom.args:
        base = atom.pred.name
    else:
        args = " ".join(print_term(a, adts) for a in atom.args)
        base = f"({atom.pred.name} {args})"
    if atom.universal_vars:
        decls = " ".join(
            f"({v.name} {v.sort.name})" for v in atom.universal_vars
        )
        return f"(forall ({decls}) {base})"
    return base


def print_clause(cl: Clause, adts: ADTSystem) -> str:
    parts: list[str] = []
    if cl.constraint != TRUE:
        parts.append(print_formula(cl.constraint, adts))
    parts.extend(print_atom(a, adts) for a in cl.body)
    if not parts:
        body = "true"
    elif len(parts) == 1:
        body = parts[0]
    else:
        body = f"(and {' '.join(parts)})"
    head = "false" if cl.head is None else print_atom(cl.head, adts)
    free = sorted(cl.free_vars(), key=lambda v: v.name)
    implication = f"(=> {body} {head})"
    if not free:
        return f"(assert {implication})"
    decls = " ".join(f"({v.name} {v.sort.name})" for v in free)
    return f"(assert (forall ({decls}) {implication}))"


def print_datatypes(adts: ADTSystem) -> str:
    sort_decls = " ".join(f"({s.name} 0)" for s in adts.sorts)
    bodies = []
    for sort in adts.sorts:
        ctors = []
        for c in adts.constructors(sort):
            if not c.arg_sorts:
                ctors.append(f"({c.name})")
            else:
                fields = " ".join(
                    f"({selector_name(c.name, i)} {s.name})"
                    for i, s in enumerate(c.arg_sorts)
                )
                ctors.append(f"({c.name} {fields})")
        bodies.append(f"({' '.join(ctors)})")
    return f"(declare-datatypes ({sort_decls}) ({' '.join(bodies)}))"


def print_system(system: CHCSystem, *, logic: str = "HORN") -> str:
    """Full SMT-LIB2 rendering of a CHC system."""
    lines = [f"(set-logic {logic})", print_datatypes(system.adts)]
    for pred in sorted(system.predicates.values(), key=lambda p: p.name):
        args = " ".join(s.name for s in pred.arg_sorts)
        lines.append(f"(declare-fun {pred.name} ({args}) Bool)")
    for cl in system.clauses:
        lines.append(print_clause(cl, system.adts))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
