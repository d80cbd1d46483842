"""Nondeterministic finite tree automata and determinization.

The paper's regular representations are deterministic (Definition 2), but
the closure theory it leans on — "basic results for tree automata are
accumulated in [TATA]" — routinely passes through nondeterminism:
unions of automata with different state spaces, automata read off Horn
rules, and the future-work tree-language extensions all arrive
nondeterministic.  This module supplies

* :class:`NFTA` — transition relations with *sets* of rules per
  left-hand side and possibly several results,
* membership via the standard powerset-run (the set of reachable states
  per subterm),
* :func:`determinize` — the subset construction for tree automata,
  producing a :class:`~repro.automata.dfta.DFTA` over reachable subsets,
* conversions in both directions,

so that Reg-closure arguments (e.g. Prop. 12's "the union lt ∪ gt would
be regular") can be executed rather than cited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from repro.automata.dfta import DFTA, AutomatonError, State, make_dfta
from repro.logic.adt import ADTSystem
from repro.logic.sorts import Sort
from repro.logic.terms import App, Term


@dataclass(frozen=True)
class NFTA:
    """A nondeterministic finite tree automaton (1-dimensional).

    ``transitions`` maps ``(constructor name, argument states)`` to the
    *set* of possible result states.  Final states are plain states (the
    tuple generalization is not needed: the pipeline's n-automata come
    from finite models and are already deterministic).
    """

    adts: ADTSystem
    states: Mapping[Sort, int]
    transitions: Mapping[tuple[str, tuple[State, ...]], frozenset[State]]
    finals: frozenset[State]
    final_sort: Sort

    def __post_init__(self) -> None:
        for (name, args), results in self.transitions.items():
            func = self.adts.constructor(name)
            if len(args) != func.arity:
                raise AutomatonError(f"transition for {name}: wrong arity")
            for state, sort in zip(args, func.arg_sorts):
                if not 0 <= state < self.states.get(sort, 0):
                    raise AutomatonError(
                        f"transition for {name}: unknown state {state}"
                    )
            for result in results:
                if not 0 <= result < self.states.get(func.result_sort, 0):
                    raise AutomatonError(
                        f"transition for {name}: unknown result {result}"
                    )

    # ------------------------------------------------------------------
    def reachable_set(self, term: Term) -> frozenset[State]:
        """The set of states reachable on ``term`` (the powerset run)."""
        if not isinstance(term, App):
            raise AutomatonError("runs are over ground terms")
        child_sets = [self.reachable_set(a) for a in term.args]
        out: set[State] = set()
        for combo in itertools.product(*child_sets):
            out |= self.transitions.get((term.func.name, combo), frozenset())
        return frozenset(out)

    def accepts(self, term: Term) -> bool:
        if term.sort != self.final_sort:
            raise AutomatonError(
                f"term of sort {term.sort}, automaton over {self.final_sort}"
            )
        return bool(self.reachable_set(term) & self.finals)

    def is_deterministic(self) -> bool:
        return all(len(r) <= 1 for r in self.transitions.values())


def from_dfta(auto: DFTA) -> NFTA:
    """View a 1-dimensional DFTA as an NFTA."""
    if auto.dimension != 1:
        raise AutomatonError("from_dfta requires a 1-automaton")
    return NFTA(
        auto.adts,
        dict(auto.states),
        {
            key: frozenset({value})
            for key, value in auto.transitions.items()
        },
        frozenset(q for (q,) in auto.finals),
        auto.final_sorts[0],
    )


def union_nfta(left: DFTA, right: DFTA) -> NFTA:
    """Disjoint union of two 1-DFTAs as an NFTA (states renumbered).

    Language: ``L(left) ∪ L(right)`` — the textbook construction whose
    determinization exercises the subset machinery end to end.
    """
    a, b = from_dfta(left), from_dfta(right)
    if a.final_sort != b.final_sort:
        raise AutomatonError("union of automata over different sorts")
    states = {
        sort: a.states.get(sort, 0) + b.states.get(sort, 0)
        for sort in set(a.states) | set(b.states)
    }

    def shift(sort: Sort, q: State) -> State:
        return a.states.get(sort, 0) + q

    transitions: dict[tuple[str, tuple[State, ...]], set[State]] = {}
    for (name, args), results in a.transitions.items():
        transitions.setdefault((name, args), set()).update(results)
    for (name, args), results in b.transitions.items():
        func = a.adts.constructor(name)
        shifted_args = tuple(
            shift(s, q) for s, q in zip(func.arg_sorts, args)
        )
        transitions.setdefault((name, shifted_args), set()).update(
            shift(func.result_sort, q) for q in results
        )
    finals = frozenset(a.finals) | frozenset(
        shift(a.final_sort, q) for q in b.finals
    )
    return NFTA(
        a.adts,
        states,
        {k: frozenset(v) for k, v in transitions.items()},
        finals,
        a.final_sort,
    )


def determinize(nfta: NFTA) -> DFTA:
    """Subset construction for tree automata.

    States of the result are the *reachable* subsets of the NFTA's states
    per sort (bottom-up closure), numbered densely; a subset is final iff
    it meets the NFTA's final set.
    """
    adts = nfta.adts
    # iteratively close the family of reachable subsets per sort
    subsets: dict[Sort, dict[frozenset[State], int]] = {
        sort: {} for sort in nfta.states
    }
    transitions: dict[tuple[str, tuple[State, ...]], State] = {}

    def intern(sort: Sort, subset: frozenset[State]) -> tuple[int, bool]:
        table = subsets[sort]
        if subset in table:
            return table[subset], False
        table[subset] = len(table)
        return table[subset], True

    changed = True
    while changed:
        changed = False
        for func in adts.signature.functions.values():
            arg_families = [
                list(subsets[s].items()) for s in func.arg_sorts
            ]
            for combo in itertools.product(*arg_families):
                arg_subsets = tuple(c[0] for c in combo)
                arg_ids = tuple(c[1] for c in combo)
                out: set[State] = set()
                for states in itertools.product(*arg_subsets):
                    out |= nfta.transitions.get(
                        (func.name, states), frozenset()
                    )
                result_id, fresh = intern(
                    func.result_sort, frozenset(out)
                )
                key = (func.name, arg_ids)
                if transitions.get(key) != result_id:
                    transitions[key] = result_id
                    changed = True
                changed = changed or fresh
    states = {sort: max(len(table), 1) for sort, table in subsets.items()}
    finals = frozenset(
        (idx,)
        for subset, idx in subsets[nfta.final_sort].items()
        if subset & nfta.finals
    )
    return make_dfta(
        adts, states, transitions, finals, (nfta.final_sort,)
    )


def union_dfta(left: DFTA, right: DFTA) -> DFTA:
    """Union via NFTA + determinization (alternative to the product
    construction in :mod:`repro.automata.ops`; tests check both agree)."""
    return determinize(union_nfta(left, right))
