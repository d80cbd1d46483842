"""Boolean operations and normalization of tree automata.

Regular tree languages are closed under union, intersection and complement
(Comon et al., cited as [14] in the paper); these closure constructions are
what make the Reg representation class effective — e.g. checking that a
regular invariant candidate is inductive reduces to emptiness of boolean
combinations.  We implement:

* completion (adding sink states copy-on-miss: only sorts that actually
  need one, only functions with missing rules are swept),
* complement (complete + invert finals),
* products (intersection / union / difference on same-signature automata),
  built sparsely: a worklist explores only the *reachable* state pairs
  instead of the full cartesian state space (``dense_product`` keeps the
  textbook construction as the reference the tests compare against),
* trimming (reachable-state pruning with renumbering),
* minimization for 1-automata (Myhill–Nerode style refinement),
* language equivalence / inclusion via product emptiness.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable

from repro.automata.dfta import DFTA, AutomatonError, State, make_dfta
from repro.logic.sorts import Sort


def complete(automaton: DFTA) -> DFTA:
    """Route all missing rules to sink states, copy-on-miss.

    The accepted language is unchanged (a sink never joins a final
    tuple), but every run becomes defined, enabling complementation.
    Unlike the textbook construction (:func:`dense_complete`), sinks are
    only added to sorts that transitively need one, and only functions
    with missing rules are swept — an almost-complete automaton pays for
    its few missing rules, not for its full transition space.
    """
    counts = Counter(name for name, _ in automaton.transitions)
    functions = automaton.adts.signature.functions.values()

    def expected(func) -> int:
        n = 1
        for s in func.arg_sorts:
            n *= automaton.states.get(s, 0)
        return n

    missing = [f for f in functions if counts[f.name] != expected(f)]
    if not missing:
        return automaton
    # sorts needing a sink: result sorts of incomplete functions, closed
    # under "a sink argument creates new left-hand sides"
    need = {f.result_sort for f in missing}
    changed = True
    while changed:
        changed = False
        for f in functions:
            if f.result_sort not in need and any(
                s in need for s in f.arg_sorts
            ):
                need.add(f.result_sort)
                changed = True
    states = {
        sort: n + (1 if sort in need else 0)
        for sort, n in automaton.states.items()
    }
    for sort in need:
        states.setdefault(sort, 1)
    sinks = {sort: automaton.states.get(sort, 0) for sort in need}
    transitions = dict(automaton.transitions)
    for func in functions:
        if func not in missing and not any(
            s in need for s in func.arg_sorts
        ):
            continue  # already total and no new sink arguments: copy as-is
        pools = [range(states.get(s, 0)) for s in func.arg_sorts]
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


def dense_complete(automaton: DFTA) -> DFTA:
    """Textbook completion: one sink per sort, full transition sweep.

    Kept as the reference implementation the property tests compare the
    copy-on-miss :func:`complete` against.
    """
    if automaton.is_complete():
        return automaton
    states = {sort: n + 1 for sort, n in automaton.states.items()}
    sinks = {sort: automaton.states[sort] for sort in automaton.states}
    transitions: dict[tuple[str, tuple[State, ...]], State] = {}
    for func in automaton.adts.signature.functions.values():
        pools = [range(states.get(s, 0)) for s in func.arg_sorts]
        for args in itertools.product(*pools):
            existing = automaton.transitions.get((func.name, args))
            if existing is not None and all(
                a != sinks[s] for a, s in zip(args, func.arg_sorts)
            ):
                transitions[(func.name, args)] = existing
            else:
                transitions[(func.name, args)] = sinks[func.result_sort]
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


def _check_product_operands(left: DFTA, right: DFTA) -> None:
    if left.adts is not right.adts and left.adts.sorts != right.adts.sorts:
        raise AutomatonError("product of automata over different ADT systems")
    if left.final_sorts != right.final_sorts:
        raise AutomatonError("product of automata of different dimensions")


def product(
    left: DFTA,
    right: DFTA,
    combine: Callable[[bool, bool], bool],
) -> DFTA:
    """Product automaton whose finals are chosen by ``combine``.

    Both automata must share the ADT system, dimension and final sorts.
    The construction is on-the-fly: a worklist grows the set of
    *reachable* state pairs bottom-up (semi-naive — each round only
    expands left-hand sides touching a frontier pair), so the result has
    one state per reachable pair instead of the full ``|A| x |B|``
    cartesian space that :func:`dense_product` enumerates.  Completion
    of the operands is virtual: a missing rule reads as a transition
    into that sort's sink, and sink rules are never materialized.
    """
    _check_product_operands(left, right)
    a, b = left, right
    all_sorts = set(a.states) | set(b.states)
    sink_a = {s: a.states.get(s, 0) for s in all_sorts}
    sink_b = {s: b.states.get(s, 0) for s in all_sorts}

    order: dict[Sort, list[tuple[State, State]]] = {
        s: [] for s in all_sorts
    }
    index: dict[Sort, dict[tuple[State, State], State]] = {
        s: {} for s in all_sorts
    }

    def register(sort: Sort, pair: tuple[State, State]) -> State:
        table = index[sort]
        pid = table.get(pair)
        if pid is None:
            pid = len(table)
            table[pair] = pid
            order[sort].append(pair)
        return pid

    def step(func, pairs: tuple[tuple[State, State], ...]) -> State:
        a_args = tuple(p[0] for p in pairs)
        b_args = tuple(p[1] for p in pairs)
        ra = a.transitions.get((func.name, a_args))
        if ra is None:
            ra = sink_a[func.result_sort]
        rb = b.transitions.get((func.name, b_args))
        if rb is None:
            rb = sink_b[func.result_sort]
        return register(func.result_sort, (ra, rb))

    transitions: dict[tuple[str, tuple[State, ...]], State] = {}
    functions = list(a.adts.signature.functions.values())
    frontier_start = {s: 0 for s in all_sorts}
    for func in functions:
        if func.arity == 0:
            transitions[(func.name, ())] = step(func, ())
    while True:
        starts = dict(frontier_start)
        ends = {s: len(order[s]) for s in all_sorts}
        if all(starts[s] == ends[s] for s in all_sorts):
            break
        for func in functions:
            if func.arity == 0:
                continue
            for pivot in range(func.arity):
                # pivot = first argument drawn from the current frontier
                pools: list[list[tuple[State, State]]] = []
                for j, sort in enumerate(func.arg_sorts):
                    if j < pivot:
                        pools.append(order[sort][: starts[sort]])
                    elif j == pivot:
                        pools.append(
                            order[sort][starts[sort] : ends[sort]]
                        )
                    else:
                        pools.append(order[sort][: ends[sort]])
                for pairs in itertools.product(*pools):
                    encoded = tuple(
                        index[s][p]
                        for s, p in zip(func.arg_sorts, pairs)
                    )
                    transitions[(func.name, encoded)] = step(func, pairs)
        frontier_start = ends

    finals: set[tuple[State, ...]] = set()
    for pairs in itertools.product(
        *[order[s] for s in a.final_sorts]
    ):
        a_tuple = tuple(p[0] for p in pairs)
        b_tuple = tuple(p[1] for p in pairs)
        if combine(a_tuple in a.finals, b_tuple in b.finals):
            finals.add(
                tuple(
                    index[s][p]
                    for s, p in zip(a.final_sorts, pairs)
                )
            )
    states = {s: max(len(order[s]), 1) for s in all_sorts}
    return make_dfta(a.adts, states, transitions, finals, a.final_sorts)


def dense_product(
    left: DFTA,
    right: DFTA,
    combine: Callable[[bool, bool], bool],
) -> DFTA:
    """Reference product over the full cartesian state space.

    Materializes both completions and every state pair; kept for the
    property tests that pin :func:`product` to the textbook semantics.
    """
    _check_product_operands(left, right)
    a, b = dense_complete(left), dense_complete(right)
    states: dict[Sort, int] = {}
    for sort in a.states:
        states[sort] = a.states[sort] * b.states.get(sort, 0)

    def encode(sort: Sort, qa: State, qb: State) -> State:
        return qa * b.states[sort] + qb

    transitions: dict[tuple[str, tuple[State, ...]], State] = {}
    for func in a.adts.signature.functions.values():
        arg_pools = [
            itertools.product(range(a.states[s]), range(b.states[s]))
            for s in func.arg_sorts
        ]
        for pairs in itertools.product(*[list(p) for p in arg_pools]):
            a_args = tuple(p[0] for p in pairs)
            b_args = tuple(p[1] for p in pairs)
            ra = a.transitions.get((func.name, a_args))
            rb = b.transitions.get((func.name, b_args))
            if ra is None or rb is None:
                continue  # cannot happen on completed automata
            encoded_args = tuple(
                encode(s, qa, qb)
                for s, (qa, qb) in zip(func.arg_sorts, pairs)
            )
            transitions[(func.name, encoded_args)] = encode(
                func.result_sort, ra, rb
            )
    finals: set[tuple[State, ...]] = set()
    pools = [
        itertools.product(range(a.states[s]), range(b.states[s]))
        for s in a.final_sorts
    ]
    for pairs in itertools.product(*[list(p) for p in pools]):
        a_tuple = tuple(p[0] for p in pairs)
        b_tuple = tuple(p[1] for p in pairs)
        if combine(a_tuple in a.finals, b_tuple in b.finals):
            finals.add(
                tuple(
                    encode(s, qa, qb)
                    for s, (qa, qb) in zip(a.final_sorts, pairs)
                )
            )
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
    auto = complete(trim(automaton))
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
