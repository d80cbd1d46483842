"""Boolean operations and normalization of tree automata.

Regular tree languages are closed under union, intersection and complement
(Comon et al., cited as [14] in the paper); these closure constructions are
what make the Reg representation class effective — e.g. checking that a
regular invariant candidate is inductive reduces to emptiness of boolean
combinations.  We implement:

* completion (one sink state per sort, every missing rule routed to it),
* complement (complete + invert finals),
* products (intersection / union / difference on same-signature automata)
  over the full cartesian state space of the two completions,
* trimming (reachable-state pruning with renumbering),
* minimization for 1-automata (Myhill–Nerode style refinement),
* language equivalence / inclusion via product emptiness.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.automata.dfta import DFTA, AutomatonError, State, make_dfta
from repro.logic.sorts import Sort


def complete(automaton: DFTA) -> DFTA:
    """Route all missing rules to sink states: one sink per sort.

    The textbook construction.  Every sort of the signature gains a
    sink state (a sort the automaton has no state for gets the sink as
    its only one), and every left-hand side without a rule — those with
    a sink argument included — leads to the sink of its result sort.
    The accepted language is unchanged (a sink never joins a final
    tuple), but every run becomes defined, enabling complementation.
    """
    if automaton.is_complete():
        return automaton
    sinks = {s: automaton.states.get(s, 0) for s in automaton.adts.sorts}
    states = {s: sink + 1 for s, sink in sinks.items()}
    transitions = dict(automaton.transitions)
    for func in automaton.adts.signature.functions.values():
        pools = [range(states[s]) for s in func.arg_sorts]
        sink = sinks[func.result_sort]
        for args in itertools.product(*pools):
            transitions.setdefault((func.name, args), sink)
    return make_dfta(
        automaton.adts,
        states,
        transitions,
        automaton.finals,
        automaton.final_sorts,
    )


def complement(automaton: DFTA) -> DFTA:
    """The automaton accepting exactly the rejected tuples."""
    completed = complete(automaton)
    pools = [range(completed.states[s]) for s in completed.final_sorts]
    finals = frozenset(
        combo
        for combo in itertools.product(*pools)
        if combo not in completed.finals
    )
    return make_dfta(
        completed.adts,
        completed.states,
        completed.transitions,
        finals,
        completed.final_sorts,
    )


def product(
    left: DFTA,
    right: DFTA,
    combine: Callable[[bool, bool], bool],
) -> DFTA:
    """Product automaton whose finals are chosen by ``combine``.

    Both automata must share the ADT system, dimension and final sorts.
    The textbook construction: both operands are completed, and the
    pair ``(qa, qb)`` of a sort's states becomes the product state
    ``qa * |B_sort| + qb``, over the full cartesian state space.
    """
    if left.adts is not right.adts and left.adts.sorts != right.adts.sorts:
        raise AutomatonError("product of automata over different ADT systems")
    if left.final_sorts != right.final_sorts:
        raise AutomatonError("product of automata of different dimensions")
    a, b = complete(left), complete(right)
    states = {s: a.states[s] * b.states[s] for s in a.adts.sorts}

    def pairs(sort: Sort) -> list[tuple[State, State]]:
        return list(
            itertools.product(range(a.states[sort]), range(b.states[sort]))
        )

    def encode(sort: Sort, qa: State, qb: State) -> State:
        return qa * b.states[sort] + qb

    transitions: dict[tuple[str, tuple[State, ...]], State] = {}
    for func in a.adts.signature.functions.values():
        for args in itertools.product(*map(pairs, func.arg_sorts)):
            ra = a.transitions[(func.name, tuple(p[0] for p in args))]
            rb = b.transitions[(func.name, tuple(p[1] for p in args))]
            encoded = tuple(
                encode(s, *p) for s, p in zip(func.arg_sorts, args)
            )
            transitions[(func.name, encoded)] = encode(
                func.result_sort, ra, rb
            )
    finals = [
        tuple(encode(s, *p) for s, p in zip(a.final_sorts, combo))
        for combo in itertools.product(*map(pairs, a.final_sorts))
        if combine(
            tuple(p[0] for p in combo) in a.finals,
            tuple(p[1] for p in combo) in b.finals,
        )
    ]
    return make_dfta(a.adts, states, transitions, finals, a.final_sorts)


def intersection(left: DFTA, right: DFTA) -> DFTA:
    return product(left, right, lambda x, y: x and y)


def union(left: DFTA, right: DFTA) -> DFTA:
    return product(left, right, lambda x, y: x or y)


def difference(left: DFTA, right: DFTA) -> DFTA:
    return product(left, right, lambda x, y: x and not y)


def symmetric_difference(left: DFTA, right: DFTA) -> DFTA:
    return product(left, right, lambda x, y: x != y)


def clear_op_caches() -> None:
    """Do nothing: this module keeps no cache.

    Kept importable only because ``perfbench/run.py`` calls it before
    every pass, and only a benchmark change may edit that file.
    """


def equivalent(left: DFTA, right: DFTA) -> bool:
    """Language equivalence via symmetric-difference emptiness."""
    return symmetric_difference(left, right).is_empty()


def subset(left: DFTA, right: DFTA) -> bool:
    """Language inclusion ``L(left) ⊆ L(right)``."""
    return difference(left, right).is_empty()


def trim(automaton: DFTA) -> DFTA:
    """Restrict to reachable states and renumber densely."""
    reached = automaton.reachable_states()
    mapping: dict[tuple[Sort, State], State] = {}
    states: dict[Sort, int] = {}
    for sort, qs in reached.items():
        for i, q in enumerate(sorted(qs)):
            mapping[(sort, q)] = i
        states[sort] = max(len(qs), 1)  # keep sorts inhabited by >= 1 state
    # ensure sorts with no reachable states still map state 0
    for sort in automaton.states:
        if not reached[sort]:
            states[sort] = 1
    transitions: dict[tuple[str, tuple[State, ...]], State] = {}
    for (name, args), result in automaton.transitions.items():
        func = automaton.adts.constructor(name)
        if not all(
            (s, a) in mapping for s, a in zip(func.arg_sorts, args)
        ):
            continue
        if (func.result_sort, result) not in mapping:
            continue
        new_args = tuple(
            mapping[(s, a)] for s, a in zip(func.arg_sorts, args)
        )
        transitions[(name, new_args)] = mapping[(func.result_sort, result)]
    finals = frozenset(
        tuple(mapping[(s, q)] for s, q in zip(automaton.final_sorts, final))
        for final in automaton.finals
        if all(
            (s, q) in mapping
            for s, q in zip(automaton.final_sorts, final)
        )
    )
    return make_dfta(
        automaton.adts, states, transitions, finals, automaton.final_sorts
    )


def minimize_1d(automaton: DFTA) -> DFTA:
    """Minimize a complete 1-automaton by partition refinement.

    Standard Myhill–Nerode refinement lifted to trees: start from the
    final/non-final split of the accepting sort (all states of other sorts
    start in one block per sort), refine until each transition's target
    block is determined by the argument blocks.
    """
    if automaton.dimension != 1:
        raise AutomatonError("minimize_1d requires a 1-automaton")
    # trimmed after completion: a sort with no missing rule still
    # gains a sink, which no term may reach
    auto = trim(complete(automaton))
    target_sort = auto.final_sorts[0]
    final_states = {q for (q,) in auto.finals}

    block: dict[tuple[Sort, State], int] = {}
    next_block = 0
    for sort in sorted(auto.states, key=lambda s: s.name):
        if sort == target_sort:
            for q in range(auto.states[sort]):
                block[(sort, q)] = (
                    next_block if q in final_states else next_block + 1
                )
            next_block += 2
        else:
            for q in range(auto.states[sort]):
                block[(sort, q)] = next_block
            next_block += 1

    changed = True
    while changed:
        changed = False
        signatures: dict[tuple[Sort, State], tuple] = {}
        for sort in auto.states:
            for q in range(auto.states[sort]):
                signatures[(sort, q)] = (block[(sort, q)],)
        # extend signatures with behaviour under every context position
        for (name, args), result in auto.transitions.items():
            func = auto.adts.constructor(name)
            for i, (s, a) in enumerate(zip(func.arg_sorts, args)):
                ctx = (
                    name,
                    i,
                    tuple(
                        block[(ss, aa)]
                        for j, (ss, aa) in enumerate(
                            zip(func.arg_sorts, args)
                        )
                        if j != i
                    ),
                    block[(func.result_sort, result)],
                )
                signatures[(s, a)] = signatures[(s, a)] + (ctx,)
        # canonicalize signatures (sort the context components)
        canon = {
            key: (sig[0], tuple(sorted(sig[1:])))
            for key, sig in signatures.items()
        }
        fresh: dict[tuple[Sort, tuple], int] = {}
        new_block: dict[tuple[Sort, State], int] = {}
        counter = 0
        for sort in sorted(auto.states, key=lambda s: s.name):
            for q in range(auto.states[sort]):
                key = (sort, canon[(sort, q)])
                if key not in fresh:
                    fresh[key] = counter
                    counter += 1
                new_block[(sort, q)] = fresh[key]
        if new_block != block:
            block = new_block
            changed = True

    # renumber blocks per sort
    per_sort: dict[Sort, dict[int, int]] = {}
    states: dict[Sort, int] = {}
    for sort in auto.states:
        blocks = sorted(
            {block[(sort, q)] for q in range(auto.states[sort])}
        )
        per_sort[sort] = {b: i for i, b in enumerate(blocks)}
        states[sort] = len(blocks)

    def rep(sort: Sort, q: State) -> State:
        return per_sort[sort][block[(sort, q)]]

    transitions: dict[tuple[str, tuple[State, ...]], State] = {}
    for (name, args), result in auto.transitions.items():
        func = auto.adts.constructor(name)
        new_args = tuple(
            rep(s, a) for s, a in zip(func.arg_sorts, args)
        )
        transitions[(name, new_args)] = rep(func.result_sort, result)
    finals = frozenset((rep(target_sort, q),) for q in final_states)
    return make_dfta(auto.adts, states, transitions, finals, auto.final_sorts)
