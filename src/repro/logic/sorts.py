"""Sorts and symbols of many-sorted first-order signatures.

This module provides the vocabulary layer of the reproduction: sorts,
function symbols (including ADT constructors, which are just uninterpreted
function symbols singled out by :mod:`repro.logic.adt`), and predicate
symbols.  Everything is immutable and hashable so that terms and formulas
built on top can be freely shared, used as dictionary keys and compared
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True)
class Sort:
    """A sort (type) of a many-sorted signature.

    Two sorts are equal iff their names are equal; the paper fixes a single
    global namespace of sorts, which we follow.
    """

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Sort({self.name!r})"


# The integer sort used by the SizeElem extension (Sec. 6.3).  It is not an
# ADT sort; ``size_sigma`` symbols map ADT sorts into it.
INT = Sort("Int")
BOOL = Sort("Bool")


@dataclass(frozen=True, order=True)
class FuncSymbol:
    """A function symbol with arity ``arg_sorts -> result_sort``.

    ADT constructors, selectors and the uninterpreted functions handed to
    the finite model finder are all ``FuncSymbol`` instances.
    """

    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    @property
    def is_constant(self) -> bool:
        return not self.arg_sorts

    def __str__(self) -> str:
        if self.is_constant:
            return f"{self.name} : {self.result_sort}"
        args = " x ".join(str(s) for s in self.arg_sorts)
        return f"{self.name} : {args} -> {self.result_sort}"

    def __repr__(self) -> str:
        return f"FuncSymbol({self.name!r}, {self.arg_sorts!r}, {self.result_sort!r})"


@dataclass(frozen=True, order=True)
class PredSymbol:
    """A predicate symbol with arity ``arg_sorts``.

    The uninterpreted symbols :math:`P_1, \\ldots, P_n` of a CHC system
    (Definition 1) and the fresh ``diseq`` symbols of Sec. 4.4 are
    ``PredSymbol`` instances.
    """

    name: str
    arg_sorts: tuple[Sort, ...]

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __str__(self) -> str:
        args = " x ".join(str(s) for s in self.arg_sorts)
        return f"{self.name} : {args}" if self.arg_sorts else f"{self.name} : ()"

    def __repr__(self) -> str:
        return f"PredSymbol({self.name!r}, {self.arg_sorts!r})"


def func(name: str, arg_sorts: Sequence[Sort], result_sort: Sort) -> FuncSymbol:
    """Convenience constructor for :class:`FuncSymbol`."""
    return FuncSymbol(name, tuple(arg_sorts), result_sort)


def pred(name: str, arg_sorts: Sequence[Sort]) -> PredSymbol:
    """Convenience constructor for :class:`PredSymbol`."""
    return PredSymbol(name, tuple(arg_sorts))


class SignatureError(ValueError):
    """Raised on malformed signatures (duplicate symbols, unknown sorts)."""


@dataclass
class Signature:
    """A many-sorted signature ``<sorts, functions, predicates>``.

    Mirrors the paper's :math:`\\Sigma = \\langle \\Sigma_S, \\Sigma_F,
    \\Sigma_P \\rangle`.  Equality symbols are implicit: every sort carries
    its ``=_sigma`` with fixed semantics, so they are never listed in
    ``predicates``.
    """

    sorts: set[Sort] = field(default_factory=set)
    functions: dict[str, FuncSymbol] = field(default_factory=dict)
    predicates: dict[str, PredSymbol] = field(default_factory=dict)

    def add_sort(self, sort: Sort) -> Sort:
        self.sorts.add(sort)
        return sort

    def add_function(self, symbol: FuncSymbol) -> FuncSymbol:
        existing = self.functions.get(symbol.name)
        if existing is not None and existing != symbol:
            raise SignatureError(
                f"function symbol {symbol.name!r} redeclared with a different arity"
            )
        for sort in (*symbol.arg_sorts, symbol.result_sort):
            self.sorts.add(sort)
        self.functions[symbol.name] = symbol
        return symbol

    def add_predicate(self, symbol: PredSymbol) -> PredSymbol:
        existing = self.predicates.get(symbol.name)
        if existing is not None and existing != symbol:
            raise SignatureError(
                f"predicate symbol {symbol.name!r} redeclared with a different arity"
            )
        for sort in symbol.arg_sorts:
            self.sorts.add(sort)
        self.predicates[symbol.name] = symbol
        return symbol

    def function(self, name: str) -> FuncSymbol:
        try:
            return self.functions[name]
        except KeyError:
            raise SignatureError(f"unknown function symbol {name!r}") from None

    def predicate(self, name: str) -> PredSymbol:
        try:
            return self.predicates[name]
        except KeyError:
            raise SignatureError(f"unknown predicate symbol {name!r}") from None

    def merge(self, other: "Signature") -> "Signature":
        """A new signature containing the symbols of both operands."""
        merged = Signature()
        for sort in self.sorts | other.sorts:
            merged.add_sort(sort)
        for f in (*self.functions.values(), *other.functions.values()):
            merged.add_function(f)
        for p in (*self.predicates.values(), *other.predicates.values()):
            merged.add_predicate(p)
        return merged

    def copy(self) -> "Signature":
        sig = Signature()
        sig.sorts = set(self.sorts)
        sig.functions = dict(self.functions)
        sig.predicates = dict(self.predicates)
        return sig


def make_signature(
    functions: Iterable[FuncSymbol] = (),
    predicates: Iterable[PredSymbol] = (),
) -> Signature:
    """Build a :class:`Signature` from iterables of symbols."""
    sig = Signature()
    for f in functions:
        sig.add_function(f)
    for p in predicates:
        sig.add_predicate(p)
    return sig
