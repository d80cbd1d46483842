"""SMT-LIB2 (CHC-COMP flavoured) reader for CHC systems over ADTs.

RInGen accepts input clauses in SMT-LIB2; we support the fragment used by
the paper's benchmark sets:

* ``(declare-datatypes ((S 0) ...) ((ctor (sel Sort) ...) ...))`` and the
  legacy ``(declare-datatype S ((ctor ...) ...))`` forms,
* ``(declare-fun P (Sorts) Bool)`` for uninterpreted predicates,
* ``(assert (forall (vars) (=> body head)))`` Horn clauses, where bodies
  are conjunctions of equalities, disequalities (``(not (= ...))`` or
  ``distinct``), testers ``((_ is ctor) t)``, selector applications and
  predicate atoms; heads are predicate atoms or ``false``,
* ``(check-sat)`` / ``(get-model)`` / ``(set-logic ...)`` are accepted and
  ignored.

The printer below emits the same fragment, so parse/print round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.transform import selector_func
from repro.logic.adt import ADT, ADTSystem
from repro.logic.formulas import (
    Eq,
    Formula,
    Not,
    TRUE,
    Tester,
    conj,
    disj,
    neg,
)
from repro.logic.sorts import FuncSymbol, PredSymbol, Sort
from repro.logic.terms import App, Term, Var


class ParseError(ValueError):
    """Raised on malformed SMT-LIB input."""


SExpr = Union[str, list]


def tokenize(text: str) -> Iterator[str]:
    """SMT-LIB token stream (parens, atoms, ``;`` comments, ``|..|`` names)."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch
            i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise ParseError("unterminated |quoted| symbol")
            yield text[i + 1 : j]
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();|":
                j += 1
            yield text[i:j]
            i = j


def parse_sexprs(text: str) -> list[SExpr]:
    """Parse a sequence of s-expressions."""
    tokens = list(tokenize(text))
    pos = 0

    def parse_one() -> SExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input")
        token = tokens[pos]
        pos += 1
        if token == "(":
            items: list[SExpr] = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(parse_one())
            if pos >= len(tokens):
                raise ParseError("missing closing parenthesis")
            pos += 1
            return items
        if token == ")":
            raise ParseError("unbalanced closing parenthesis")
        return token

    out: list[SExpr] = []
    while pos < len(tokens):
        out.append(parse_one())
    return out


@dataclass
class _DatatypeDecl:
    sort: Sort
    constructors: list[tuple[str, list[tuple[str, str]]]]  # (ctor, [(sel, sort)])


class SmtLibReader:
    """Stateful reader turning SMT-LIB commands into a :class:`CHCSystem`."""

    def __init__(self) -> None:
        self._datatypes: list[_DatatypeDecl] = []
        self._predicates: dict[str, PredSymbol] = {}
        self._selector_names: dict[str, tuple[str, int]] = {}
        self._pending_asserts: list[SExpr] = []
        self._name = ""

    # -- command dispatch ------------------------------------------------
    def read(self, text: str) -> CHCSystem:
        for command in parse_sexprs(text):
            self._command(command)
        return self.finish()

    def _command(self, command: SExpr) -> None:
        if not isinstance(command, list) or not command:
            raise ParseError(f"expected a command, got {command!r}")
        head = command[0]
        if head in ("set-logic", "set-info", "set-option", "check-sat",
                    "get-model", "exit", "get-info"):
            return
        if head == "declare-datatypes":
            self._declare_datatypes(command)
        elif head == "declare-datatype":
            self._declare_datatype(command)
        elif head in ("declare-fun", "declare-rel"):
            self._declare_fun(command)
        elif head == "assert":
            if len(command) != 2:
                raise ParseError("assert takes one argument")
            self._pending_asserts.append(command[1])
        else:
            raise ParseError(f"unsupported command {head!r}")

    def _declare_datatypes(self, command: SExpr) -> None:
        if len(command) != 3:
            raise ParseError("declare-datatypes takes two arguments")
        sort_decls, bodies = command[1], command[2]
        if not isinstance(sort_decls, list) or not isinstance(bodies, list):
            raise ParseError("malformed declare-datatypes")
        if len(sort_decls) != len(bodies):
            raise ParseError("declare-datatypes arity mismatch")
        for decl, body in zip(sort_decls, bodies):
            if (
                not isinstance(decl, list)
                or len(decl) != 2
                or decl[1] != "0"
            ):
                raise ParseError(
                    "only monomorphic datatypes are supported"
                )
            self._record_datatype(str(decl[0]), body)

    def _declare_datatype(self, command: SExpr) -> None:
        if len(command) != 3:
            raise ParseError("declare-datatype takes two arguments")
        self._record_datatype(str(command[1]), command[2])

    def _record_datatype(self, sort_name: str, body: SExpr) -> None:
        if not isinstance(body, list):
            raise ParseError(f"malformed datatype body for {sort_name}")
        constructors: list[tuple[str, list[tuple[str, str]]]] = []
        for ctor in body:
            if isinstance(ctor, str):
                constructors.append((ctor, []))
                continue
            if not isinstance(ctor, list) or not ctor:
                raise ParseError(f"malformed constructor in {sort_name}")
            name = str(ctor[0])
            fields: list[tuple[str, str]] = []
            for sel in ctor[1:]:
                if not isinstance(sel, list) or len(sel) != 2:
                    raise ParseError(
                        f"malformed selector in constructor {name}"
                    )
                fields.append((str(sel[0]), str(sel[1])))
            constructors.append((name, fields))
        self._datatypes.append(_DatatypeDecl(Sort(sort_name), constructors))

    def _declare_fun(self, command: SExpr) -> None:
        if len(command) == 3:  # declare-rel style: (declare-rel P (Sorts))
            name, arg_sorts = str(command[1]), command[2]
            result = "Bool"
        elif len(command) == 4:
            name, arg_sorts, result = (
                str(command[1]),
                command[2],
                str(command[3]),
            )
        else:
            raise ParseError("malformed declare-fun")
        if result != "Bool":
            raise ParseError(
                f"only Bool-valued declarations supported, got {result}"
            )
        if not isinstance(arg_sorts, list):
            raise ParseError("malformed declare-fun argument sorts")
        self._predicates[name] = PredSymbol(
            name, tuple(Sort(str(s)) for s in arg_sorts)
        )

    # -- finishing: build ADT system, then parse asserts -----------------
    def finish(self) -> CHCSystem:
        adts = self._build_adts()
        system = CHCSystem(adts, name=self._name)
        for pred in self._predicates.values():
            system.declare(pred)
        for index, expr in enumerate(self._pending_asserts):
            for cl in self._parse_assert(expr, adts, index):
                system.add(cl)
        return system

    def _build_adts(self) -> ADTSystem:
        declared = {d.sort for d in self._datatypes}
        adts: list[ADT] = []
        for decl in self._datatypes:
            constructors: list[FuncSymbol] = []
            for ctor_name, fields in decl.constructors:
                arg_sorts = []
                for position, (sel_name, sort_name) in enumerate(fields):
                    sort = Sort(sort_name)
                    if sort not in declared:
                        raise ParseError(
                            f"constructor {ctor_name} uses undeclared sort "
                            f"{sort_name}"
                        )
                    arg_sorts.append(sort)
                    self._selector_names[sel_name] = (ctor_name, position)
                constructors.append(
                    FuncSymbol(ctor_name, tuple(arg_sorts), decl.sort)
                )
            adts.append(ADT(decl.sort, tuple(constructors)))
        if not adts:
            raise ParseError("no datatypes declared")
        return ADTSystem(adts)

    def _parse_assert(
        self, expr: SExpr, adts: ADTSystem, index: int
    ) -> list[Clause]:
        bound: dict[str, Var] = {}
        if isinstance(expr, list) and expr and expr[0] == "forall":
            if len(expr) != 3:
                raise ParseError("malformed forall")
            for decl in expr[1]:
                if not isinstance(decl, list) or len(decl) != 2:
                    raise ParseError("malformed bound variable")
                var = Var(str(decl[0]), Sort(str(decl[1])))
                bound[var.name] = var
            expr = expr[2]
        if isinstance(expr, list) and expr and expr[0] == "=>":
            if len(expr) != 3:
                raise ParseError("malformed implication")
            body_expr, head_expr = expr[1], expr[2]
        elif isinstance(expr, list) and expr and expr[0] == "not":
            body_expr, head_expr = expr[1], "false"
        else:
            body_expr, head_expr = "true", expr
        constraint, body_atoms = self._parse_body(body_expr, bound, adts)
        head = self._parse_head(head_expr, bound, adts)
        name = f"clause-{index}"
        return [Clause(constraint, tuple(body_atoms), head, name)]

    def _parse_body(
        self, expr: SExpr, bound: dict[str, Var], adts: ADTSystem
    ) -> tuple[Formula, list[BodyAtom]]:
        constraints: list[Formula] = []
        atoms: list[BodyAtom] = []
        for part in self._conjuncts(expr):
            parsed = self._parse_body_part(part, bound, adts)
            if isinstance(parsed, BodyAtom):
                atoms.append(parsed)
            else:
                constraints.append(parsed)
        return conj(*constraints), atoms

    def _conjuncts(self, expr: SExpr) -> list[SExpr]:
        if isinstance(expr, list) and expr and expr[0] == "and":
            out: list[SExpr] = []
            for part in expr[1:]:
                out.extend(self._conjuncts(part))
            return out
        if expr == "true":
            return []
        return [expr]

    def _parse_body_part(
        self, expr: SExpr, bound: dict[str, Var], adts: ADTSystem
    ) -> Union[Formula, BodyAtom]:
        if isinstance(expr, list) and expr and expr[0] == "forall":
            inner_bound = dict(bound)
            uvars = []
            for decl in expr[1]:
                var = Var(str(decl[0]), Sort(str(decl[1])))
                inner_bound[var.name] = var
                uvars.append(var)
            inner = self._parse_body_part(expr[2], inner_bound, adts)
            if not isinstance(inner, BodyAtom):
                raise ParseError(
                    "forall in clause bodies must wrap a predicate atom"
                )
            return BodyAtom(inner.pred, inner.args, tuple(uvars))
        if isinstance(expr, list) and expr:
            head = expr[0]
            if isinstance(head, str) and head in self._predicates:
                pred = self._predicates[head]
                args = tuple(
                    self._parse_term(a, bound, adts) for a in expr[1:]
                )
                return BodyAtom(pred, args)
        return self._parse_constraint(expr, bound, adts)

    def _parse_constraint(
        self, expr: SExpr, bound: dict[str, Var], adts: ADTSystem
    ) -> Formula:
        if expr == "true":
            return TRUE
        if isinstance(expr, list) and expr:
            op = expr[0]
            if op == "=":
                lhs = self._parse_term(expr[1], bound, adts)
                rhs = self._parse_term(expr[2], bound, adts)
                return Eq(lhs, rhs)
            if op == "distinct":
                lhs = self._parse_term(expr[1], bound, adts)
                rhs = self._parse_term(expr[2], bound, adts)
                return Not(Eq(lhs, rhs))
            if op == "not":
                return neg(self._parse_constraint(expr[1], bound, adts))
            if op == "and":
                return conj(
                    *(
                        self._parse_constraint(e, bound, adts)
                        for e in expr[1:]
                    )
                )
            if op == "or":
                return disj(
                    *(
                        self._parse_constraint(e, bound, adts)
                        for e in expr[1:]
                    )
                )
            if isinstance(op, list) and len(op) == 3 and op[0] == "_" and op[1] == "is":
                ctor = adts.constructor(str(op[2]))
                return Tester(ctor, self._parse_term(expr[1], bound, adts))
        raise ParseError(f"cannot parse constraint {expr!r}")

    def _parse_head(
        self, expr: SExpr, bound: dict[str, Var], adts: ADTSystem
    ) -> Optional[BodyAtom]:
        if expr == "false":
            return None
        if isinstance(expr, list) and expr:
            head = expr[0]
            if isinstance(head, str) and head in self._predicates:
                pred = self._predicates[head]
                args = tuple(
                    self._parse_term(a, bound, adts) for a in expr[1:]
                )
                return BodyAtom(pred, args)
        if isinstance(expr, str) and expr in self._predicates:
            return BodyAtom(self._predicates[expr], ())
        raise ParseError(f"cannot parse clause head {expr!r}")

    def _parse_term(
        self, expr: SExpr, bound: dict[str, Var], adts: ADTSystem
    ) -> Term:
        if isinstance(expr, str):
            if expr in bound:
                return bound[expr]
            try:
                ctor = adts.constructor(expr)
            except Exception:
                raise ParseError(f"unknown symbol {expr!r}") from None
            if ctor.arity != 0:
                raise ParseError(f"constructor {expr} expects arguments")
            return App(ctor)
        if not expr:
            raise ParseError("empty term")
        head = expr[0]
        if isinstance(head, str) and head in self._selector_names:
            ctor_name, index = self._selector_names[head]
            ctor = adts.constructor(ctor_name)
            inner = self._parse_term(expr[1], bound, adts)
            return App(selector_func(ctor, index), (inner,))
        if isinstance(head, str):
            ctor = adts.constructor(head)
            args = tuple(self._parse_term(a, bound, adts) for a in expr[1:])
            return App(ctor, args)
        raise ParseError(f"cannot parse term {expr!r}")


def parse_chc(text: str, name: str = "") -> CHCSystem:
    """Parse an SMT-LIB2 CHC problem into a :class:`CHCSystem`."""
    reader = SmtLibReader()
    reader._name = name
    return reader.read(text)
