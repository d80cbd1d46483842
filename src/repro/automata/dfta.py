"""Deterministic finite tree automata over many-sorted constructor signatures.

Implements Definition 2: an ``n``-automaton is a quadruple
``<S, Sigma_F, S_F, Delta>`` whose transition relation has rules
``f(s1, ..., sm) -> s`` with at most one rule per left-hand side.  States
are sorted (each state belongs to one sort's state space), which matches
the finite-model correspondence where states are domain elements of the
model's sorts.

A tuple of ground terms is accepted iff the tuple of reached states is in
the final set (Definition 3); a run that hits a missing rule yields the
sink value ``None`` (the paper's ⊥).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.logic.adt import ADTSystem
from repro.logic.sorts import Sort
from repro.logic.terms import App, Term


class AutomatonError(ValueError):
    """Raised on malformed automata (nondeterminism, sort mismatches)."""


State = int


@dataclass(frozen=True)
class DFTA:
    """A deterministic finite tree ``n``-automaton.

    ``states`` maps each sort to its number of states (state spaces are
    ``range(n)`` per sort, mirroring :class:`repro.mace.model.FiniteModel`
    domains).  ``transitions`` maps ``(constructor name, argument states)``
    to the resulting state.  ``finals`` is the set of accepting state
    tuples and ``final_sorts`` records the sort of each tuple position.
    """

    adts: ADTSystem
    states: Mapping[Sort, int]
    transitions: Mapping[tuple[str, tuple[State, ...]], State]
    finals: frozenset[tuple[State, ...]]
    final_sorts: tuple[Sort, ...]

    def __post_init__(self) -> None:
        for (name, args), result in self.transitions.items():
            func = self.adts.constructor(name)
            if len(args) != func.arity:
                raise AutomatonError(
                    f"transition for {name} has wrong arity"
                )
            for state, sort in zip(args, func.arg_sorts):
                if not 0 <= state < self.states.get(sort, 0):
                    raise AutomatonError(
                        f"transition for {name} uses unknown state {state}"
                    )
            if not 0 <= result < self.states.get(func.result_sort, 0):
                raise AutomatonError(
                    f"transition for {name} targets unknown state {result}"
                )
        for final in self.finals:
            if len(final) != len(self.final_sorts):
                raise AutomatonError("final tuple arity mismatch")

    @property
    def dimension(self) -> int:
        """The ``n`` of the ``n``-automaton."""
        return len(self.final_sorts)

    # ------------------------------------------------------------------
    # runs and acceptance
    # ------------------------------------------------------------------
    def run(self, term: Term) -> Optional[State]:
        """``A[t]``: the state reached on ``t``, or ``None`` (⊥)."""
        if not isinstance(term, App):
            raise AutomatonError(f"automata run on ground terms only: {term}")
        arg_states: list[State] = []
        for arg in term.args:
            state = self.run(arg)
            if state is None:
                return None
            arg_states.append(state)
        return self.transitions.get((term.func.name, tuple(arg_states)))

    def accepts(self, *terms: Term) -> bool:
        """Definition 3: the tuple of reached states is final."""
        if len(terms) != self.dimension:
            raise AutomatonError(
                f"{self.dimension}-automaton applied to {len(terms)} terms"
            )
        reached: list[State] = []
        for term, sort in zip(terms, self.final_sorts):
            if term.sort != sort:
                raise AutomatonError(
                    f"term {term} has sort {term.sort}, expected {sort}"
                )
            state = self.run(term)
            if state is None:
                return False
            reached.append(state)
        return tuple(reached) in self.finals

    def is_complete(self) -> bool:
        """Whether every left-hand side has a rule."""
        for func in self.adts.signature.functions.values():
            pools = [range(self.states.get(s, 0)) for s in func.arg_sorts]
            for args in itertools.product(*pools):
                if (func.name, args) not in self.transitions:
                    return False
        return True

    # ------------------------------------------------------------------
    # language exploration
    # ------------------------------------------------------------------
    def reachable_states(self) -> dict[Sort, set[State]]:
        """States reachable by running the automaton on some ground term."""
        reached: dict[Sort, set[State]] = {s: set() for s in self.states}
        changed = True
        while changed:
            changed = False
            for (name, args), result in self.transitions.items():
                func = self.adts.constructor(name)
                if all(
                    a in reached[s]
                    for a, s in zip(args, func.arg_sorts)
                ):
                    if result not in reached[func.result_sort]:
                        reached[func.result_sort].add(result)
                        changed = True
        return reached

    def witness_terms(
        self, *, max_height: int = 6
    ) -> dict[tuple[Sort, State], Term]:
        """A shortest witness term per reachable state (BFS by height)."""
        witness: dict[tuple[Sort, State], Term] = {}
        for _ in range(max_height):
            changed = False
            for (name, args), result in self.transitions.items():
                func = self.adts.constructor(name)
                key = (func.result_sort, result)
                if key in witness:
                    continue
                arg_terms = []
                complete = True
                for a, s in zip(args, func.arg_sorts):
                    term = witness.get((s, a))
                    if term is None:
                        complete = False
                        break
                    arg_terms.append(term)
                if complete:
                    witness[key] = App(func, tuple(arg_terms))
                    changed = True
            if not changed:
                break
        return witness

    def is_empty(self) -> bool:
        """Whether the accepted tuple language is empty."""
        reached = self.reachable_states()
        for final in self.finals:
            if all(
                state in reached[sort]
                for state, sort in zip(final, self.final_sorts)
            ):
                return False
        return True

    def sample_accepted(
        self, *, max_height: int = 6
    ) -> Optional[tuple[Term, ...]]:
        """Some accepted tuple of ground terms, or ``None`` if empty."""
        witness = self.witness_terms(max_height=max_height)
        for final in self.finals:
            terms = []
            ok = True
            for state, sort in zip(final, self.final_sorts):
                term = witness.get((sort, state))
                if term is None:
                    ok = False
                    break
                terms.append(term)
            if ok:
                return tuple(terms)
        return None

    def enumerate_accepted(
        self, *, max_height: int, limit: Optional[int] = None
    ) -> Iterator[tuple[Term, ...]]:
        """All accepted tuples with every component height ≤ ``max_height``."""
        pools = [
            self.adts.terms_up_to_height(sort, max_height)
            for sort in self.final_sorts
        ]
        produced = 0
        for combo in itertools.product(*pools):
            if self.accepts(*combo):
                yield combo
                produced += 1
                if limit is not None and produced >= limit:
                    return

    def describe(self) -> str:
        """Readable transition table in the paper's notation."""
        lines = []
        for (name, args), result in sorted(self.transitions.items()):
            if args:
                lhs = f"{name}({', '.join(f's{a}' for a in args)})"
            else:
                lhs = name
            lines.append(f"{lhs} -> s{result}")
        finals = ", ".join(
            "<" + ", ".join(f"s{q}" for q in final) + ">"
            for final in sorted(self.finals)
        )
        lines.append(f"final: {{{finals}}}")
        return "\n".join(lines)


def make_dfta(
    adts: ADTSystem,
    states: Mapping[Sort, int],
    transitions: Mapping[tuple[str, tuple[State, ...]], State],
    finals: Iterable[tuple[State, ...]],
    final_sorts: Sequence[Sort],
) -> DFTA:
    """Convenience constructor with plain containers."""
    return DFTA(
        adts,
        dict(states),
        dict(transitions),
        frozenset(tuple(f) for f in finals),
        tuple(final_sorts),
    )
