"""Linear and semilinear sets of naturals (Sec. 6.3 / Appendix B.2).

SizeElem's size constraints define semilinear sets (Presburger-definable);
the pumping lemma for SizeElem pumps along an infinite *linear* subset of
the size image ``S_sigma``.  This module provides:

* :class:`LinearSet` — ``{ v0 + k1*v1 + ... + kl*vl }`` (1-dimensional),
* :class:`SemilinearSet` — finite unions of linear sets,
* intersection of infinite linear sets (Lemma 10's constructive proof),
* the size image ``S_sigma`` as a semilinear set, recovered from the
  grammar DP of :meth:`repro.logic.adt.ADTSystem.count_terms_of_size` by
  prefix-plus-period detection,
* the ``max_fin`` statistic of Definition 8 and the expanding-sort test of
  Definition 5 (Example 7: ``Nat`` no, ``List``/``Tree`` yes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.logic.adt import ADTSystem
from repro.logic.sorts import Sort


class LinSetError(ValueError):
    """Raised on malformed linear-set constructions."""


@dataclass(frozen=True)
class LinearSet:
    """``{ base + k1*p1 + ... + kl*pl | ki >= 0 }`` over naturals."""

    base: int
    periods: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.base < 0 or any(p <= 0 for p in self.periods):
            raise LinSetError("base must be >= 0 and periods positive")

    @property
    def is_infinite(self) -> bool:
        return bool(self.periods)

    def __contains__(self, n: int) -> bool:
        if n < self.base:
            return False
        return self._reachable(n - self.base)

    def _reachable(self, target: int) -> bool:
        if target == 0:
            return True
        if not self.periods:
            return False
        # coin-problem DP; values stay small in all our uses
        reachable = [False] * (target + 1)
        reachable[0] = True
        for value in range(1, target + 1):
            for p in self.periods:
                if p <= value and reachable[value - p]:
                    reachable[value] = True
                    break
        return reachable[target]

    def members(self, bound: int) -> list[int]:
        """All members up to ``bound`` inclusive."""
        return [n for n in range(self.base, bound + 1) if n in self]

    def iter_members(self) -> Iterator[int]:
        """Members in increasing order (infinite when periodic)."""
        n = self.base
        while True:
            if n in self:
                yield n
            n += 1
            if not self.periods and n > self.base:
                return

    def __str__(self) -> str:
        if not self.periods:
            return f"{{{self.base}}}"
        periods = ", ".join(f"k*{p}" for p in self.periods)
        return f"{{{self.base} + {periods}}}"


def intersect_infinite_linear(a: LinearSet, b: LinearSet) -> Optional[LinearSet]:
    """Lemma 10: the intersection of infinite 1-dim linear sets.

    Returns an infinite linear subset of ``a ∩ b`` (or ``None`` when the
    intersection is empty).  Follows the paper's constructive proof: from
    any common element ``c``, the set ``{c + d*W*V}`` lies in both, where
    ``W``/``V`` are the period sums.
    """
    if not (a.is_infinite and b.is_infinite):
        raise LinSetError("both operands must be infinite linear sets")
    w = sum(a.periods)
    v = sum(b.periods)
    bound = a.base + b.base + 2 * w * v + max(w, v)
    common = [n for n in a.members(bound) if n in b]
    if not common:
        return None
    return LinearSet(common[0], (w * v,))


@dataclass(frozen=True)
class SemilinearSet:
    """A finite union of linear sets."""

    parts: tuple[LinearSet, ...]

    def __contains__(self, n: int) -> bool:
        return any(n in p for p in self.parts)

    def members(self, bound: int) -> list[int]:
        out = sorted(
            {n for p in self.parts for n in p.members(bound)}
        )
        return out

    def infinite_parts(self) -> list[LinearSet]:
        return [p for p in self.parts if p.is_infinite]

    def __str__(self) -> str:
        return " ∪ ".join(str(p) for p in self.parts) if self.parts else "{}"


def size_image_semilinear(
    adts: ADTSystem, sort: Sort, *, bound: int = 80
) -> SemilinearSet:
    """``S_sigma`` as a semilinear set, by prefix + period detection.

    Parikh's theorem guarantees ``S_sigma`` is semilinear (the paper cites
    the Hojjat–Rümmer view of sizes as the Parikh image of the ADT
    declaration read as a grammar); for a one-letter alphabet any
    semilinear set is eventually periodic, so detecting the period of the
    realizable-size sequence recovers an exact representation — verified
    against the DP counts up to ``bound`` by the test suite.
    """
    members = adts.size_image(sort, bound)
    if not members:
        return SemilinearSet(())
    member_set = set(members)
    max_check = bound
    for period in range(1, bound // 3 + 1):
        start = bound // 3
        if _is_periodic(member_set, start, period, max_check):
            prefix = [
                LinearSet(n) for n in members if n < start
            ]
            recurring = [
                LinearSet(n, (period,))
                for n in range(start, start + period)
                if n in member_set
            ]
            return SemilinearSet(tuple(prefix + recurring))
    # no period found within the window: fall back to the finite prefix
    return SemilinearSet(tuple(LinearSet(n) for n in members))


def _is_periodic(
    member_set: set[int], start: int, period: int, bound: int
) -> bool:
    for n in range(start, bound - period + 1):
        if (n in member_set) != ((n + period) in member_set):
            return False
    return True


def max_fin(parts: Sequence[LinearSet]) -> int:
    """Definition 8's ``max_fin``: the largest base among purely finite
    components (0 when every component is infinite or the set is empty)."""
    finite_bases = [p.base for p in parts if not p.is_infinite]
    return max(finite_bases, default=0)


def is_expanding_sort(
    adts: ADTSystem, sort: Sort, *, bound: int = 60, threshold: int = 3
) -> bool:
    """Definition 5 via the counting DP (cf. Example 7).

    A sort is expanding when each non-empty size class eventually has
    arbitrarily many members; we witness growth past ``threshold`` on a
    window and require monotone non-collapse.  Matches the paper's
    examples: ``Nat`` is not expanding (|T^k| = 1), lists and trees are.
    """
    counts = [adts.count_terms_of_size(sort, k) for k in range(1, bound + 1)]
    window = counts[bound // 2 :]
    nonempty = [c for c in window if c > 0]
    if not nonempty:
        return False
    return all(c >= threshold for c in nonempty)


def is_expanding_signature(adts: ADTSystem, *, bound: int = 60) -> bool:
    """Whether every sort of the ADT system is expanding."""
    return all(
        is_expanding_sort(adts, sort, bound=bound) for sort in adts.sorts
    )
