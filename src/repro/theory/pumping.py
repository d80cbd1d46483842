"""Executable pumping machinery for Elem and SizeElem (Sec. 6, Appendix B).

The paper's second contribution is a pair of pumping lemmas used to prove
*negative definability*: if a language were definable in Elem (resp.
SizeElem), big enough members could be pumped and stay inside — so finding
a pumped element outside the language refutes definability.  This module
makes that machinery executable:

* the pump-set construction of Lemma 8's proof: a congruence closure over
  selector paths built from the positive equalities of a normal-form cube
  (the Oppen-style graph of the proof), from which the replacement set
  ``P`` and the height threshold ``N`` are computed,
* :func:`pump` — the substitution ``g[P <- t]``,
* generic refuters: given a candidate normal-form formula claimed to
  define a language, search for a pumping counterexample (a pumped term on
  which formula and language disagree); every verdict is witnessed by a
  concrete term, so the refutation is self-checking,
* the size-indistinguishability refuter behind Prop. 2: two terms of equal
  size with different property values defeat any size-only template.

Used by the test suite to mechanically replay Prop. 1 (Even ∉ Elem),
Prop. 2 (EvenLeft ∉ SizeElem) and the STLC undefinability argument of
Appendix A in bounded form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.logic.adt import ADTSystem
from repro.logic.sorts import Sort
from repro.logic.terms import Term, height
from repro.theory.normal_form import (
    ElemFormula,
    GroundEqAtom,
    Literal,
    PathEqAtom,
    PathTesterAtom,
)
from repro.theory.paths import (
    EMPTY_PATH,
    Path,
    PathError,
    leaves,
    replace_many,
)


# ----------------------------------------------------------------------
# Path congruence closure (the proof graph of Lemma 8)
# ----------------------------------------------------------------------
class PathCongruence:
    """Union-find over selector paths, seeded by positive equalities."""

    def __init__(self) -> None:
        self._parent: dict[Path, Path] = {}

    def add(self, path: Path) -> None:
        self._parent.setdefault(path, path)

    def find(self, path: Path) -> Path:
        self.add(path)
        root = path
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[path] != root:
            self._parent[path], path = root, self._parent[path]
        return root

    def union(self, a: Path, b: Path) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def paths(self) -> list[Path]:
        return list(self._parent)

    def equivalence_class(self, path: Path) -> list[Path]:
        root = self.find(path)
        return [p for p in self._parent if self.find(p) == root]


def cube_satisfied_by(
    formula: ElemFormula, g: Term, adts: ADTSystem
) -> Optional[tuple[Literal, ...]]:
    """The first DNF cube of ``formula`` that ``g`` satisfies (1-dim)."""
    for cube in formula.cubes:
        if all(lit.eval((g,), adts) for lit in cube):
            return cube
    return None


def congruence_of_cube(cube: Sequence[Literal]) -> PathCongruence:
    """The path congruence graph from a cube's positive path equalities."""
    congruence = PathCongruence()
    for lit in cube:
        if not lit.positive:
            continue
        atom = lit.atom
        if isinstance(atom, PathEqAtom):
            congruence.add(atom.left_path)
            congruence.add(atom.right_path)
            congruence.union(atom.left_path, atom.right_path)
    return congruence


def pump_set(
    cube: Sequence[Literal], p: Path
) -> list[Path]:
    """The replacement set ``P`` of Lemma 8's proof.

    For each congruence-graph path ``q`` that is a suffix of ``p`` (write
    ``p = r_q . q``), every class member ``e`` contributes ``r_q . e``;
    with no such ``q``, ``P = {p}``.
    """
    congruence = congruence_of_cube(cube)
    replacement: set[Path] = set()
    for q in congruence.paths():
        r_q = p.strip_suffix(q)
        if r_q is None:
            continue
        for e in congruence.equivalence_class(q):
            replacement.add(r_q.compose(e))
    if not replacement:
        replacement = {p}
    if p not in replacement:
        replacement.add(p)
    return sorted(replacement, key=lambda path: (len(path), str(path)))


def pumping_threshold(g: Term) -> int:
    """The ``N`` of Lemma 8: pump with terms strictly higher than ``g``."""
    return 1 + height(g)


def formula_pumping_constant(formula: ElemFormula, adts: ADTSystem) -> int:
    """The ``K`` of Lemma 8: formula size plus the largest leaf-term size.

    Computed syntactically over the candidate's atoms; any term higher than
    ``K`` with a pumped path longer than ``K`` is pumpable.
    """
    size = 0
    for cube in formula.cubes:
        for lit in cube:
            atom = lit.atom
            size += 2
            if isinstance(atom, PathEqAtom):
                size += len(atom.left_path) + len(atom.right_path)
            elif isinstance(atom, PathTesterAtom):
                size += len(atom.path) + 1
            elif isinstance(atom, GroundEqAtom):
                size += len(atom.path) + height(atom.ground)
    leaf_bound = max(
        (
            adts.min_height(sort)
            for sort in adts.sorts
        ),
        default=1,
    )
    return size + leaf_bound + 1


def pump(
    g: Term,
    replacement_paths: Iterable[Path],
    t: Term,
    adts: ADTSystem,
) -> Term:
    """``g[P <- t]``: replace every path of ``P`` by ``t`` simultaneously."""
    return replace_many(g, [(p, t) for p in replacement_paths], adts)


# ----------------------------------------------------------------------
# Refuters
# ----------------------------------------------------------------------
@dataclass
class PumpingWitness:
    """A self-checking refutation of Elem-definability.

    ``base`` satisfies the candidate formula and the language; ``pumped``
    satisfies the formula but not the language (or vice versa) — so the
    formula does not define the language, as the pumping lemma predicts
    for any candidate once the language is non-elementary.
    """

    base: Term
    path: Path
    replacement_paths: list[Path]
    filler: Term
    pumped: Term

    def __str__(self) -> str:
        return (
            f"pumped {self.base} at {self.path} "
            f"(P = {[str(p) for p in self.replacement_paths]}) "
            f"with {self.filler} into {self.pumped}"
        )


def find_pumping_counterexample(
    formula: ElemFormula,
    membership: Callable[[Term], bool],
    sort: Sort,
    adts: ADTSystem,
    *,
    base_terms: Optional[Sequence[Term]] = None,
    filler_terms: Optional[Sequence[Term]] = None,
    max_base_height: int = 8,
    max_filler_height: int = 10,
) -> Optional[PumpingWitness]:
    """Refute "``formula`` defines the language ``membership``" by pumping.

    Searches for a member ``g`` of both formula and language, pumps it at a
    deep leaf path per Lemma 8, and reports the first pumped term on which
    the formula (which must keep accepting, by the lemma) and the language
    disagree.  The returned witness is independently checkable.
    """
    if base_terms is None:
        base_terms = adts.terms_up_to_height(sort, max_base_height)
    if filler_terms is None:
        filler_terms = adts.terms_up_to_height(sort, max_filler_height)
    for g in base_terms:
        if not membership(g):
            continue
        cube = cube_satisfied_by(formula, g, adts)
        if cube is None:
            # formula already disagrees with the language on a member
            return PumpingWitness(g, EMPTY_PATH, [], g, g)
        threshold = pumping_threshold(g)
        for p in leaves(g, sort, adts):
            if len(p) == 0:
                continue
            replacement = pump_set(cube, p)
            try:
                for t in filler_terms:
                    if height(t) <= threshold:
                        continue
                    pumped = pump(g, replacement, t, adts)
                    formula_accepts = formula.eval((pumped,), adts)
                    in_language = membership(pumped)
                    if formula_accepts != in_language:
                        return PumpingWitness(
                            g, p, replacement, t, pumped
                        )
            except PathError:
                continue
    return None


@dataclass
class SizeIndistinguishableWitness:
    """Two same-size terms with different property values (Prop. 2 core).

    No size-only constraint can contain one and exclude the other, so any
    language separating them is not definable by sizes alone.
    """

    inside: Term
    outside: Term
    size: int

    def __str__(self) -> str:
        return (
            f"size {self.size}: {self.inside} (in) vs "
            f"{self.outside} (out)"
        )


def find_size_indistinguishable_pair(
    membership: Callable[[Term], bool],
    sort: Sort,
    adts: ADTSystem,
    *,
    max_height: int = 5,
) -> Optional[SizeIndistinguishableWitness]:
    """Find same-size terms separated by the language.

    This is the executable heart of Prop. 2 (EvenLeft ∉ SizeElem): for
    expanding sorts, size classes get large, and EvenLeft-style properties
    split them — size constraints count all constructors at once and
    cannot see 'the leftmost branch'.
    """
    from repro.logic.terms import size as term_size

    by_size: dict[int, list[Term]] = {}
    for t in adts.terms_up_to_height(sort, max_height):
        by_size.setdefault(term_size(t), []).append(t)
    for size_value in sorted(by_size):
        bucket = by_size[size_value]
        members = [t for t in bucket if membership(t)]
        non_members = [t for t in bucket if not membership(t)]
        if members and non_members:
            return SizeIndistinguishableWitness(
                members[0], non_members[0], size_value
            )
    return None
