"""First-order terms: variables and function applications.

Terms are immutable trees.  Ground terms double as elements of the Herbrand
universe (the paper's :math:`|\\mathcal{H}|_\\sigma`), so the whole pipeline
— CHC semantics, tree-automata runs, pumping — operates on the same
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from repro.logic.sorts import FuncSymbol, Sort


class TermError(ValueError):
    """Raised on ill-sorted term construction or traversal."""


@dataclass(frozen=True)
class Var:
    """A sorted first-order variable."""

    name: str
    sort: Sort

    def __hash__(self) -> int:
        # the name alone (equal variables share it): substitutions are
        # dicts keyed by variables, and hashing the sort as well doubled
        # the cost of every lookup in the bounded checks
        return hash(self.name)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.sort.name!r})"


class App:
    """An application ``f(t1, ..., tn)`` of a function symbol to terms.

    Sort checking happens at construction time.  Hash and height are cached
    because terms are shared heavily (Herbrand enumeration, automata runs).
    """

    __slots__ = ("func", "args", "_hash", "_height", "_size", "_ground")

    def __init__(self, func: FuncSymbol, args: tuple["Term", ...] = ()):
        if len(args) != func.arity:
            raise TermError(
                f"{func.name} expects {func.arity} arguments, got {len(args)}"
            )
        for expected, arg in zip(func.arg_sorts, args):
            if term_sort(arg) != expected:
                raise TermError(
                    f"argument {arg} of {func.name} has sort "
                    f"{term_sort(arg)}, expected {expected}"
                )
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "_hash", hash((func, self.args)))
        object.__setattr__(
            self, "_height", 1 + max((height(a) for a in args), default=0)
        )
        object.__setattr__(self, "_size", 1 + sum(size(a) for a in args))
        object.__setattr__(self, "_ground", all(is_ground(a) for a in args))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("App instances are immutable")

    def __reduce__(self):
        # slots + the raising __setattr__ break default pickling;
        # rebuilding through the constructor revalidates sorts and
        # recomputes the caches, the hash among them, which another
        # process seeds differently (terms travel in pickled engines)
        return (App, (self.func, self.args))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, App):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.func == other.func
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort(self) -> Sort:
        return self.func.result_sort

    def __str__(self) -> str:
        if not self.args:
            return self.func.name
        return f"{self.func.name}({', '.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"App({self.func.name!r}, {self.args!r})"


Term = Union[Var, App]
Substitution = Mapping[Var, Term]


def term_sort(term: Term) -> Sort:
    """The sort of a term."""
    return term.sort


def is_ground(term: Term) -> bool:
    """Whether a term contains no variables."""
    if isinstance(term, Var):
        return False
    return term._ground


def height(term: Term) -> int:
    """Height per the paper: a constant has height 1, a variable height 0."""
    if isinstance(term, Var):
        return 0
    return term._height


def size(term: Term) -> int:
    """Number of constructor occurrences (the ``size`` of Sec. 6.3)."""
    if isinstance(term, Var):
        return 0
    return term._size


def variables(term: Term) -> set[Var]:
    """The set of variables occurring in a term."""
    out: set[Var] = set()
    _collect_vars(term, out)
    return out


def _collect_vars(term: Term, out: set[Var]) -> None:
    if isinstance(term, Var):
        out.add(term)
    else:
        for arg in term.args:
            _collect_vars(arg, out)


def subterms(term: Term) -> Iterator[Term]:
    """All subterms of a term, including the term itself (preorder)."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack.extend(reversed(t.args))


def occurs(var: Var, term: Term) -> bool:
    """Whether ``var`` occurs in ``term``."""
    return any(t == var for t in subterms(term) if isinstance(t, Var))


def substitute(term: Term, subst: Substitution) -> Term:
    """Apply a substitution to a term (simultaneous, capture-free)."""
    if isinstance(term, Var):
        return subst.get(term, term)
    if not term.args:
        return term
    new_args = tuple(substitute(a, subst) for a in term.args)
    if new_args == term.args:
        return term
    return App(term.func, new_args)


def compose(outer: Substitution, inner: Substitution) -> dict[Var, Term]:
    """Composition ``outer . inner``: apply ``inner`` first, then ``outer``."""
    result: dict[Var, Term] = {
        v: substitute(t, outer) for v, t in inner.items()
    }
    for v, t in outer.items():
        if v not in result:
            result[v] = t
    return result


def unify(
    pairs: list[tuple[Term, Term]],
    subst: Optional[dict[Var, Term]] = None,
) -> Optional[dict[Var, Term]]:
    """Most general unifier of a list of term pairs, or ``None``.

    Standard Robinson unification with occurs check.  Used by the equality
    elimination of Sec. 4 (Theorem 5's proof rewrites clauses "by the
    unification and substitution") and by the counterexample search.
    """
    subst = dict(subst) if subst else {}
    work = [(substitute(a, subst), substitute(b, subst)) for a, b in pairs]
    while work:
        left, right = work.pop()
        left = substitute(left, subst)
        right = substitute(right, subst)
        if left == right:
            continue
        if isinstance(left, Var):
            if occurs(left, right):
                return None
            _bind(subst, left, right)
            continue
        if isinstance(right, Var):
            if occurs(right, left):
                return None
            _bind(subst, right, left)
            continue
        if left.func != right.func:
            return None
        work.extend(zip(left.args, right.args))
    return subst


def _bind(subst: dict[Var, Term], var: Var, term: Term) -> None:
    for v in list(subst):
        subst[v] = substitute(subst[v], {var: term})
    subst[var] = term


def matches(pattern: Term, ground: Term) -> Optional[dict[Var, Term]]:
    """One-sided matching: a substitution with ``pattern[s] == ground``."""
    subst: dict[Var, Term] = {}
    work = [(pattern, ground)]
    while work:
        pat, g = work.pop()
        if isinstance(pat, Var):
            bound = subst.get(pat)
            if bound is None:
                subst[pat] = g
            elif bound != g:
                return None
            continue
        if isinstance(g, Var) or pat.func != g.func:
            return None
        work.extend(zip(pat.args, g.args))
    return subst


def count_symbol(term: Term, name: str) -> int:
    """Number of occurrences of the function symbol called ``name``."""
    return sum(
        1 for t in subterms(term) if isinstance(t, App) and t.func.name == name
    )
