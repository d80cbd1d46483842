"""Selector paths over ADT terms (Sec. 6.2 and Appendix B).

A *path* is a sequence of selectors ``S1 ... Sn``; applied to a ground term
it selects the subterm reached by following constructor arguments.  Paths
drive both the pumping machinery (``leaves_sigma``, simultaneous
replacement ``t[P <- u]``) and the Elem/SizeElem candidate languages of the
baseline solvers, whose normal-form atoms are built from paths
(Definition 6 / Definition 7).

Concretely a step ``(constructor name, index)`` selects the ``index``-th
argument of a term whose top constructor is that constructor; applying a
step to a term with a different top constructor is *undefined* (selectors
are guarded in the normal form by tester atoms).

Following the paper's convention, a path ``S1 ... Sn`` is applied
innermost-last: ``s(t) = S1(...(Sn(t)))``, so steps are stored outermost
selector first and ``apply`` walks them right to left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.logic.adt import ADTSystem
from repro.logic.sorts import Sort
from repro.logic.terms import App, Term


class PathError(ValueError):
    """Raised when applying an undefined path."""


@dataclass(frozen=True, order=True)
class Step:
    """One selector: the ``index``-th argument of ``constructor``."""

    constructor: str
    index: int

    def __str__(self) -> str:
        return f"{self.constructor}.{self.index}"


@dataclass(frozen=True)
class Path:
    """A sequence of selectors, outermost first.

    ``Path((a, b))`` denotes the selector composition ``a(b(t))``: step
    ``b`` is applied to the term first.
    """

    steps: tuple[Step, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        if not self.steps:
            return "<empty>"
        return " ".join(str(s) for s in self.steps)

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def compose(self, inner: "Path") -> "Path":
        """``self`` applied after ``inner``: ``(self . inner)(t)``."""
        return Path(self.steps + inner.steps)

    def extend_outer(self, step: Step) -> "Path":
        """Prepend a step applied *last* (outermost position)."""
        return Path((step,) + self.steps)

    def is_suffix_of(self, other: "Path") -> bool:
        """Whether ``self`` is a suffix of ``other``.

        With the innermost-last convention, a *suffix* of the selector word
        ``S1 ... Sn`` (per the paper) is applied to the term first, i.e. it
        is a *trailing* slice of ``steps``.
        """
        n = len(self.steps)
        if n > len(other.steps):
            return False
        return other.steps[len(other.steps) - n :] == self.steps

    def overlaps(self, other: "Path") -> bool:
        """Two paths overlap if one is a suffix of the other (Sec. 6.2)."""
        return self.is_suffix_of(other) or other.is_suffix_of(self)

    def strip_suffix(self, suffix: "Path") -> Optional["Path"]:
        """The ``r`` with ``self = r . suffix``, or ``None``."""
        if not suffix.is_suffix_of(self):
            return None
        return Path(self.steps[: len(self.steps) - len(suffix.steps)])


EMPTY_PATH = Path()


def apply_path(path: Path, term: Term, adts: ADTSystem) -> Term:
    """``s(g)``: the subterm of ``g`` at ``path`` (innermost step first)."""
    current = term
    for step in reversed(path.steps):
        if not isinstance(current, App) or current.func.name != step.constructor:
            raise PathError(
                f"path step {step} undefined on {current}"
            )
        current = current.args[step.index]
    return current


def path_defined(path: Path, term: Term, adts: ADTSystem) -> bool:
    """Whether ``path`` selects a subterm of ``term``."""
    try:
        apply_path(path, term, adts)
        return True
    except PathError:
        return False


def path_sorts(path: Path, adts: ADTSystem, source: Sort) -> Optional[Sort]:
    """The sort of ``path(t)`` for ``t`` of sort ``source``, or ``None``
    if the path is ill-sorted."""
    current = source
    for step in reversed(path.steps):
        try:
            func = adts.constructor(step.constructor)
        except Exception:
            return None
        if func.result_sort != current or step.index >= func.arity:
            return None
        current = func.arg_sorts[step.index]
    return current


def replace_at(
    term: Term, path: Path, replacement: Term, adts: ADTSystem
) -> Term:
    """``t[path <- replacement]``: replace the subterm at ``path``."""
    return replace_many(term, [(path, replacement)], adts)


def replace_many(
    term: Term,
    replacements: Sequence[tuple[Path, Term]],
    adts: ADTSystem,
) -> Term:
    """Simultaneous replacement ``t[p1 <- u1, ..., pn <- un]``.

    Paths must be pairwise non-overlapping (Sec. 6.2) except for exact
    duplicates, which must carry the same replacement.
    """
    for i, (p, u) in enumerate(replacements):
        for q, w in replacements[i + 1 :]:
            if p == q:
                if u != w:
                    raise PathError(
                        f"conflicting replacements at path {p}"
                    )
            elif p.overlaps(q):
                raise PathError(
                    f"overlapping replacement paths {p} and {q}"
                )
    return _replace(term, list(replacements), adts)


def _replace(
    term: Term,
    replacements: list[tuple[Path, Term]],
    adts: ADTSystem,
) -> Term:
    for path, replacement in replacements:
        if path.is_empty:
            return replacement
    if not isinstance(term, App):
        if replacements:
            raise PathError(f"path into non-application term {term}")
        return term
    by_index: dict[int, list[tuple[Path, Term]]] = {}
    for path, replacement in replacements:
        last = path.steps[-1]
        if last.constructor != term.func.name:
            raise PathError(
                f"path step {last} undefined on {term}"
            )
        by_index.setdefault(last.index, []).append(
            (Path(path.steps[:-1]), replacement)
        )
    new_args = list(term.args)
    for index, inner in by_index.items():
        new_args[index] = _replace(term.args[index], inner, adts)
    return App(term.func, tuple(new_args))


def paths_of(term: Term, adts: ADTSystem) -> Iterator[tuple[Path, Term]]:
    """All (path, subterm) pairs of a ground term, preorder."""
    def walk(t: Term, acc: Path) -> Iterator[tuple[Path, Term]]:
        yield acc, t
        if isinstance(t, App):
            for i, arg in enumerate(t.args):
                step = Step(t.func.name, i)
                # `acc` reaches `t`; selecting into `t` applies the new
                # step *after* acc, so it is the outermost selector
                yield from walk(arg, acc.extend_outer(step))

    yield from walk(term, EMPTY_PATH)


def is_leaf_term(term: Term, sort: Sort, adts: ADTSystem) -> bool:
    """Definition 4: a leaf term of ``sort`` contains no proper subterm of
    ``sort`` (and is itself of that sort)."""
    if term.sort != sort or not isinstance(term, App):
        return False
    return all(
        sub.sort != sort
        for arg in term.args
        for _, sub in paths_of(arg, adts)
    )


def leaves(term: Term, sort: Sort, adts: ADTSystem) -> list[Path]:
    """``leaves_sigma(g)``: paths whose subterm is a leaf term of ``sort``."""
    return [
        path
        for path, sub in paths_of(term, adts)
        if is_leaf_term(sub, sort, adts)
    ]


def all_paths(
    adts: ADTSystem, source: Sort, max_depth: int
) -> Iterator[tuple[Path, Sort]]:
    """All well-sorted paths applicable to ``source`` up to ``max_depth``.

    Used to build the candidate atom spaces of the baseline solvers.
    Yields ``(path, target sort)`` pairs, the empty path included.
    """
    frontier: list[tuple[Path, Sort]] = [(EMPTY_PATH, source)]
    yield EMPTY_PATH, source
    for _ in range(max_depth):
        next_frontier: list[tuple[Path, Sort]] = []
        for path, sort in frontier:
            for c in adts.constructors(sort):
                for i, arg_sort in enumerate(c.arg_sorts):
                    # new step selects deeper inside, applied first? No:
                    # extending *inner* would select before the existing
                    # path; to descend further we select the subterm of
                    # what the path produced, i.e. apply the new step
                    # after — prepend as outermost.
                    extended = path.extend_outer(Step(c.name, i))
                    yield extended, arg_sort
                    next_frontier.append((extended, arg_sort))
        frontier = next_frontier
