"""Algebraic data types and Herbrand universes.

An ADT is a pair ``<C, sigma>`` of a sort and its constructors (Sec. 3).
This module bundles several ADTs into an :class:`ADTSystem` (the assertion
language's signature), enumerates Herbrand universes by height and by size,
evaluates ground facts (testers/selectors), and computes the size image
``S_sigma`` statistics needed by the SizeElem theory (Sec. 6.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.logic.sorts import FuncSymbol, Signature, Sort, SignatureError
from repro.logic.terms import App, Term


class ADTError(ValueError):
    """Raised on malformed ADT declarations."""


@dataclass(frozen=True)
class ADT:
    """A single algebraic data type ``<constructors, sort>``."""

    sort: Sort
    constructors: tuple[FuncSymbol, ...]

    def __post_init__(self) -> None:
        if not self.constructors:
            raise ADTError(f"ADT {self.sort} has no constructors")
        for c in self.constructors:
            if c.result_sort != self.sort:
                raise ADTError(
                    f"constructor {c.name} of {self.sort} has result sort "
                    f"{c.result_sort}"
                )
        names = [c.name for c in self.constructors]
        if len(set(names)) != len(names):
            raise ADTError(f"ADT {self.sort} has duplicate constructor names")

    def constructor(self, name: str) -> FuncSymbol:
        for c in self.constructors:
            if c.name == name:
                return c
        raise ADTError(f"ADT {self.sort} has no constructor {name!r}")


class ADTSystem:
    """A fixed family of ADTs with pairwise distinct sorts (Sec. 3).

    Provides the assertion-language signature, Herbrand enumeration and the
    combinatorics (term counts by size/height) used by the expanding-sort
    check of Definition 5.
    """

    def __init__(self, adts: Sequence[ADT]):
        sorts = [a.sort for a in adts]
        if len(set(sorts)) != len(sorts):
            raise ADTError("ADT sorts must be pairwise distinct")
        self.adts: dict[Sort, ADT] = {a.sort: a for a in adts}
        self.signature = Signature()
        seen: dict[str, Sort] = {}
        for adt in adts:
            for c in adt.constructors:
                if c.name in seen:
                    raise ADTError(
                        f"constructor {c.name!r} declared in two ADTs"
                    )
                seen[c.name] = adt.sort
                for arg_sort in c.arg_sorts:
                    if not any(arg_sort == a.sort for a in adts):
                        raise ADTError(
                            f"constructor {c.name} refers to non-ADT sort "
                            f"{arg_sort}"
                        )
                self.signature.add_function(c)
        self._min_height: dict[Sort, int] = {}
        self._compute_min_heights()
        self._count_cache: dict[tuple[Sort, int], int] = {}
        self._terms_cache: dict[tuple[Sort, int], tuple[Term, ...]] = {}

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def sorts(self) -> list[Sort]:
        return list(self.adts)

    def adt(self, sort: Sort) -> ADT:
        try:
            return self.adts[sort]
        except KeyError:
            raise ADTError(f"{sort} is not an ADT sort") from None

    def constructors(self, sort: Sort) -> tuple[FuncSymbol, ...]:
        return self.adt(sort).constructors

    def constructor(self, name: str) -> FuncSymbol:
        try:
            return self.signature.function(name)
        except SignatureError:
            raise ADTError(f"unknown constructor {name!r}") from None

    def is_constructor(self, func: FuncSymbol) -> bool:
        return self.signature.functions.get(func.name) == func

    def _compute_min_heights(self) -> None:
        """Least height of a ground term per sort (checks inhabitation)."""
        best: dict[Sort, int] = {}
        changed = True
        while changed:
            changed = False
            for sort, adt in self.adts.items():
                for c in adt.constructors:
                    if all(s in best for s in c.arg_sorts):
                        h = 1 + max(
                            (best[s] for s in c.arg_sorts), default=0
                        )
                        if h < best.get(sort, h + 1):
                            best[sort] = h
                            changed = True
        for sort in self.adts:
            if sort not in best:
                raise ADTError(f"sort {sort} has no ground terms (uninhabited)")
        self._min_height = best

    def min_height(self, sort: Sort) -> int:
        return self._min_height[sort]

    def is_infinite_sort(self, sort: Sort) -> bool:
        """Whether the Herbrand universe of ``sort`` is infinite.

        True iff some sort reachable from ``sort`` through constructor
        arguments (including ``sort`` itself) lies on a dependency cycle.
        """
        reachable = self._reachable_sorts(sort)
        return any(s in self._reachable_sorts(s, strict=True) for s in reachable)

    def _reachable_sorts(self, sort: Sort, *, strict: bool = False) -> set[Sort]:
        """Sorts reachable from ``sort`` via constructor arguments.

        With ``strict=True`` the start sort is only included if reachable
        through at least one constructor step.
        """
        seen: set[Sort] = set() if strict else {sort}
        stack = [sort]
        while stack:
            s = stack.pop()
            for c in self.adts[s].constructors:
                for arg in c.arg_sorts:
                    if arg not in seen:
                        seen.add(arg)
                        stack.append(arg)
        return seen

    # ------------------------------------------------------------------
    # Herbrand enumeration
    # ------------------------------------------------------------------
    def terms_of_height(self, sort: Sort, h: int) -> tuple[Term, ...]:
        """All ground terms of ``sort`` with height exactly ``h`` (cached)."""
        key = (sort, h)
        cached = self._terms_cache.get(key)
        if cached is not None:
            return cached
        if h <= 0:
            result: tuple[Term, ...] = ()
        else:
            found: list[Term] = []
            for c in self.adts[sort].constructors:
                if c.arity == 0:
                    if h == 1:
                        found.append(App(c))
                    continue
                # at least one argument of height h-1, the rest < h
                pools = [
                    tuple(
                        itertools.chain.from_iterable(
                            self.terms_of_height(s, hh) for hh in range(1, h)
                        )
                    )
                    for s in c.arg_sorts
                ]
                exact = [self.terms_of_height(s, h - 1) for s in c.arg_sorts]
                for combo in itertools.product(*pools):
                    if any(
                        combo[i] in exact[i] for i in range(len(combo))
                    ):
                        found.append(App(c, combo))
            result = tuple(found)
        self._terms_cache[key] = result
        return result

    def terms_up_to_height(self, sort: Sort, h: int) -> list[Term]:
        """All ground terms of ``sort`` with height at most ``h``."""
        out: list[Term] = []
        for hh in range(1, h + 1):
            out.extend(self.terms_of_height(sort, hh))
        return out

    def iter_terms(self, sort: Sort, limit: Optional[int] = None) -> Iterator[Term]:
        """Ground terms of ``sort`` in non-decreasing height order."""
        produced = 0
        for h in itertools.count(1):
            layer = self.terms_of_height(sort, h)
            if not layer and h > max(self._min_height.values()) + 2:
                # heuristic stop for finite sorts: no terms at this height
                # nor at any larger one once every constructor saturates
                if all(
                    not self.terms_of_height(sort, h + d) for d in range(3)
                ):
                    return
            for t in layer:
                yield t
                produced += 1
                if limit is not None and produced >= limit:
                    return

    def count_terms_of_size(self, sort: Sort, k: int) -> int:
        """``|T^k_sigma|``: number of ground terms of ``sort`` with size k.

        Dynamic programming over the ADT declaration viewed as a grammar —
        the Parikh-image view of Hojjat & Rümmer used in Appendix B.2.
        """
        key = (sort, k)
        cached = self._count_cache.get(key)
        if cached is not None:
            return cached
        if k <= 0:
            result = 0
        else:
            result = 0
            for c in self.adts[sort].constructors:
                if c.arity == 0:
                    result += 1 if k == 1 else 0
                    continue
                result += self._count_products(tuple(c.arg_sorts), k - 1)
        self._count_cache[key] = result
        return result

    def _count_products(self, sorts: tuple[Sort, ...], total: int) -> int:
        if not sorts:
            return 1 if total == 0 else 0
        if len(sorts) == 1:
            return self.count_terms_of_size(sorts[0], total)
        head, rest = sorts[0], sorts[1:]
        acc = 0
        for k in range(1, total - len(rest) + 1):
            left = self.count_terms_of_size(head, k)
            if left:
                acc += left * self._count_products(rest, total - k)
        return acc

    def size_image(self, sort: Sort, bound: int) -> list[int]:
        """The set ``S_sigma`` of realizable term sizes up to ``bound``."""
        return [
            k for k in range(1, bound + 1) if self.count_terms_of_size(sort, k)
        ]

    def is_expanding_sort(self, sort: Sort, *, bound: int = 60, witness: int = 3) -> bool:
        """Heuristic check of Definition 5 (expanding sort).

        A sort is *expanding* if for every ``n`` there is ``b(sigma, n)``
        past which every non-empty size class has at least ``n`` members.
        We check that size classes, once non-empty beyond a prefix, grow
        without ever falling back to fewer than ``witness`` members —
        sufficient in practice for the ADTs of the paper (Example 7: ``Nat``
        is not expanding, ``List``/``Tree`` are).
        """
        counts = [self.count_terms_of_size(sort, k) for k in range(1, bound + 1)]
        nonempty = [c for c in counts[bound // 2 :] if c > 0]
        if not nonempty:
            return False
        return all(c >= witness for c in nonempty)

    # ------------------------------------------------------------------
    # ground evaluation helpers
    # ------------------------------------------------------------------
    def select(self, constructor_name: str, index: int, term: Term) -> Term:
        """Selector semantics: ``g_i(c(t_1..t_n)) = t_i`` (0-based index)."""
        if not isinstance(term, App) or term.func.name != constructor_name:
            raise ADTError(
                f"selector for {constructor_name} applied to {term}"
            )
        return term.args[index]

    def test(self, constructor_name: str, term: Term) -> bool:
        """Tester semantics: ``c?(t)`` iff top constructor of ``t`` is c."""
        return isinstance(term, App) and term.func.name == constructor_name


# ----------------------------------------------------------------------
# Ready-made ADT systems used throughout the paper
# ----------------------------------------------------------------------
NAT = Sort("Nat")
Z = FuncSymbol("Z", (), NAT)
S = FuncSymbol("S", (NAT,), NAT)

TREE = Sort("Tree")
LEAF = FuncSymbol("leaf", (), TREE)
NODE = FuncSymbol("node", (TREE, TREE), TREE)

NATLIST = Sort("NatList")
NIL = FuncSymbol("nil", (), NATLIST)
CONS = FuncSymbol("cons", (NAT, NATLIST), NATLIST)


def nat_system() -> ADTSystem:
    """Peano naturals: ``Nat ::= Z | S Nat`` (Example 1)."""
    return ADTSystem([ADT(NAT, (Z, S))])


def tree_system() -> ADTSystem:
    """Binary trees: ``Tree ::= leaf | node(Tree, Tree)`` (Example 5)."""
    return ADTSystem([ADT(TREE, (LEAF, NODE))])


def natlist_system() -> ADTSystem:
    """Lisp-style lists of naturals (Sec. 6.3's ``NatList``)."""
    return ADTSystem([ADT(NAT, (Z, S)), ADT(NATLIST, (NIL, CONS))])


def nat(n: int) -> Term:
    """The Peano numeral ``S^n(Z)``."""
    t: Term = App(Z)
    for _ in range(n):
        t = App(S, (t,))
    return t


def nat_value(term: Term) -> int:
    """Inverse of :func:`nat`: the integer denoted by a Peano numeral."""
    n = 0
    while isinstance(term, App) and term.func == S:
        n += 1
        term = term.args[0]
    if not (isinstance(term, App) and term.func == Z):
        raise ADTError(f"not a Peano numeral: {term}")
    return n


def natlist(values: Sequence[int]) -> Term:
    """The NatList ``cons(v0, cons(v1, ... nil))``."""
    t: Term = App(NIL)
    for v in reversed(values):
        t = App(CONS, (nat(v), t))
    return t
