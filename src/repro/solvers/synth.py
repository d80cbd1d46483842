"""The baselines' shared skeleton: refute first, then an ICE search.

Every baseline of Table 1 is a :class:`Baseline`: it runs
:meth:`~Baseline.refute_first`, one bounded counterexample search under
the caps of the tool it stands for, and otherwise its own
:meth:`~Baseline.answer`.  It takes only a ``timeout``; its caps are
constants.  Elem and SizeElem answer with :func:`ice_search`, an
enumerative ICE learner (Garg, Löding, Madhusudan & Neider, "ICE: A
Robust Framework for Learning Invariants", CAV 2014): positives from the
bounded least fixpoint (:func:`positive_examples`),
:func:`implied_negatives`, a capped candidate stream per predicate
filtered by both, and a capped backtracking search for the first
combination every clause instance respects.  The two differ only in
the key an :class:`Instance` carries (a ground argument tuple, or its
size vector), the candidates and the membership test.  Every loop
polls the deadline, grounding included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, TypeVar

from repro.chc.clauses import CHCSystem
from repro.chc.semantics import bounded_least_fixpoint
from repro.chc.transform import normalize, remove_selectors
from repro.core.cex import search_counterexample
from repro.core.result import SolveResult, unsat
from repro.logic.sorts import PredSymbol

#: height of the bounded least fixpoint the positive examples come from
POSITIVES_HEIGHT = 4
#: the least wall-clock share any phase of a baseline is given, seconds
MIN_BUDGET = 0.05

C = TypeVar("C")
Key = Hashable


@dataclass
class Instance:
    """One instantiation of a clause: its body's ``(predicate, key)``
    pairs and its head's (``None`` for a query)."""

    body: tuple[tuple[PredSymbol, Key], ...]
    head: Optional[tuple[PredSymbol, Key]]


def expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() > deadline


def share(timeout: Optional[float], fraction: float) -> Optional[float]:
    """``fraction`` of ``timeout``, at least :data:`MIN_BUDGET` seconds
    (``None``: no limit)."""
    return None if timeout is None else max(timeout * fraction, MIN_BUDGET)


class Baseline:
    """A Table-1 baseline: :meth:`refute_first`, then :meth:`answer`,
    timed from the start of :meth:`solve`."""

    name = ""
    #: the refute-first step's share of the timeout (``None``: all of
    #: it), derivation height and fact cap
    cex_share: Optional[float] = None
    cex_height = 4
    cex_facts = 100_000

    def __init__(self, timeout: Optional[float] = None):
        self.timeout = timeout

    def solve(self, system: CHCSystem) -> SolveResult:
        start = time.monotonic()
        result = self.refute_first(system)
        if result is None:
            deadline = None if self.timeout is None else start + self.timeout
            result = self.answer(system, deadline)
        result.elapsed = time.monotonic() - start
        return result

    def refute_first(self, system: CHCSystem) -> Optional[SolveResult]:
        """The bounded counterexample search on the normalized,
        selector-free system: the ``unsat`` result, or ``None``."""
        budget = self.timeout
        if self.cex_share is not None:
            budget = share(self.timeout, self.cex_share)
        cex = search_counterexample(
            normalize(remove_selectors(system)),
            max_height=self.cex_height,
            max_facts=self.cex_facts,
            timeout=budget,
        )
        return unsat(self.name, cex.refutation) if cex.found else None

    def answer(
        self, system: CHCSystem, deadline: Optional[float]
    ) -> SolveResult:
        """The answer once no counterexample was found."""
        raise NotImplementedError


def positive_examples(
    system: CHCSystem,
    preds: list[PredSymbol],
    deadline: Optional[float],
    key: Callable[[tuple], Key] = tuple,
) -> dict[PredSymbol, set]:
    """The keys of the bounded least model's facts, per predicate."""
    fixpoint = bounded_least_fixpoint(
        system,
        max_height=POSITIVES_HEIGHT,
        check_queries=False,
        deadline=deadline,
    )
    return {
        p: {key(args) for args in fixpoint.facts.get(p, ())} for p in preds
    }


def implied_negatives(
    instances: list[Instance],
    positives: dict[PredSymbol, set],
) -> dict[PredSymbol, set]:
    """ICE-style must-not-hold keys.

    From a query instance whose body keys are all positive except one,
    that one key cannot belong to *any* safe invariant (the positives are
    in the least model, hence in every invariant).  Filtering candidates
    against these negatives prunes unsound candidates long before the full
    inductiveness check runs.
    """
    negatives: dict[PredSymbol, set] = {p: set() for p in positives}
    for inst in instances:
        if inst.head is not None:
            continue
        unknowns = [
            (p, key)
            for p, key in inst.body
            if key not in positives.get(p, set())
        ]
        if len(unknowns) == 1:
            p, key = unknowns[0]
            negatives[p].add(key)
    return negatives


def ice_search(
    preds: list[PredSymbol],
    positives: dict[PredSymbol, set],
    instances: list[Instance],
    candidates: Callable[[PredSymbol], Iterable[C]],
    holds: Callable[[C, Key], bool],
    *,
    max_candidates: int,
    max_combinations: int,
    deadline: Optional[float],
) -> Optional[dict[PredSymbol, C]]:
    """One candidate per predicate such that every instance holds, or
    ``None`` once a cap or the deadline is reached.  ``candidates(p)``
    streams ``p``'s candidates simplest first, of which the first
    ``max_candidates`` consistent with the examples are kept;
    ``holds(c, key)`` is membership of a key in candidate ``c``."""
    negatives = implied_negatives(instances, positives)
    kept: dict[PredSymbol, list[C]] = {}
    for p in preds:
        pool: list[C] = []
        for cand in candidates(p):
            if expired(deadline):
                return None
            if not all(holds(cand, k) for k in positives[p]):
                continue
            if any(holds(cand, k) for k in negatives[p]):
                continue
            pool.append(cand)
            if len(pool) >= max_candidates:
                break
        if not pool:
            return None
        kept[p] = pool

    needed: dict[PredSymbol, set] = {p: set() for p in preds}
    for inst in instances:
        for p, key in inst.body:
            needed[p].add(key)
        if inst.head is not None:
            needed[inst.head[0]].add(inst.head[1])
    extensions: dict[PredSymbol, list[frozenset]] = {}
    for p in preds:
        extensions[p] = []
        for cand in kept[p]:
            if expired(deadline):
                return None
            extensions[p].append(
                frozenset(k for k in needed[p] if holds(cand, k))
            )

    combos = 0
    choice: dict[PredSymbol, int] = {}

    def check_partial() -> bool:
        assigned = set(choice)
        for inst in instances:
            involved = {p for p, _ in inst.body}
            if inst.head is not None:
                involved.add(inst.head[0])
            if not involved <= assigned:
                continue
            if not all(
                key in extensions[p][choice[p]] for p, key in inst.body
            ):
                continue
            if inst.head is None:
                return False
            hp, hkey = inst.head
            if hkey not in extensions[hp][choice[hp]]:
                return False
        return True

    def backtrack(i: int) -> bool:
        nonlocal combos
        if i == len(preds):
            return True
        p = preds[i]
        for idx in range(len(kept[p])):
            combos += 1
            if combos > max_combinations or expired(deadline):
                return False
            choice[p] = idx
            if check_partial() and backtrack(i + 1):
                return True
            del choice[p]
        return False

    if not backtrack(0):
        return None
    return {p: kept[p][choice[p]] for p in preds}
