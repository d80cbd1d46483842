"""Tests for tree automata: runs, paper examples, boolean operations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfta import AutomatonError, DFTA, make_dfta
from repro.automata.ops import (
    complement,
    complete,
    difference,
    equivalent,
    intersection,
    minimize_1d,
    product,
    subset,
    symmetric_difference,
    trim,
    union,
)
from repro.logic.adt import (
    ADT,
    ADTSystem,
    NAT,
    NATLIST,
    nat,
    nat_system,
    nat_value,
    natlist_system,
    tree_system,
)
from repro.logic.sorts import FuncSymbol, Sort
from repro.logic.terms import App
from repro.theory.atlas import (
    even_automaton,
    even_member,
    evenleft_automaton,
    incdec_automata,
)
from repro.problems import leaf, node

NATS = nat_system()
TREES = tree_system()


def mod_automaton(m: int, residues) -> DFTA:
    """Numerals whose value is ≡ one of ``residues`` mod ``m``."""
    transitions = {("Z", ()): 0}
    for i in range(m):
        transitions[("S", (i,))] = (i + 1) % m
    return make_dfta(
        NATS, {NAT: m}, transitions, [(r,) for r in residues], (NAT,)
    )


class TestRuns:
    def test_even_automaton_accepts_evens(self):
        auto = even_automaton(NATS)
        for n in range(12):
            assert auto.accepts(nat(n)) == (n % 2 == 0)

    def test_evenleft_automaton(self):
        auto = evenleft_automaton(TREES)
        assert auto.accepts(leaf())
        assert not auto.accepts(node(leaf(), leaf()))
        assert auto.accepts(node(node(leaf(), leaf()), leaf()))
        # right branch does not matter
        assert auto.accepts(
            node(node(leaf(), node(leaf(), leaf())), node(leaf(), leaf()))
        )

    def test_incdec_2_automata(self):
        autos = incdec_automata(NATS)
        inc = next(a for p, a in autos.items() if p.name == "inc")
        dec = next(a for p, a in autos.items() if p.name == "dec")
        for x in range(6):
            for y in range(6):
                in_inc = (x % 3, y % 3) in {(0, 1), (1, 2), (2, 0)}
                in_dec = (x % 3, y % 3) in {(1, 0), (2, 1), (0, 2)}
                assert inc.accepts(nat(x), nat(y)) == in_inc
                assert dec.accepts(nat(x), nat(y)) == in_dec
                # the key safety property: disjointness
                assert not (in_inc and in_dec)

    def test_example2_propositional_automaton(self):
        # Example 2: the automaton evaluating variable-free propositional
        # formulas, over the Prop ADT {and, or, imp, top, bot}
        prop = Sort("Prop")
        top = FuncSymbol("top", (), prop)
        bot = FuncSymbol("bot", (), prop)
        and_ = FuncSymbol("and", (prop, prop), prop)
        or_ = FuncSymbol("or", (prop, prop), prop)
        imp = FuncSymbol("imp", (prop, prop), prop)
        adts = ADTSystem([ADT(prop, (top, bot, and_, or_, imp))])
        transitions = {("bot", ()): 0, ("top", ()): 1}
        for a in (0, 1):
            for b in (0, 1):
                transitions[("and", (a, b))] = int(a and b)
                transitions[("or", (a, b))] = int(a or b)
                transitions[("imp", (a, b))] = int((not a) or b)
        auto = make_dfta(adts, {prop: 2}, transitions, [(1,)], (prop,))

        def t(x):
            return App(top) if x else App(bot)

        assert auto.accepts(App(and_, (t(1), t(1))))
        assert not auto.accepts(App(and_, (t(1), t(0))))
        assert auto.accepts(App(imp, (t(0), t(0))))
        assert not auto.accepts(App(imp, (t(1), t(0))))

    def test_partial_automaton_rejects_via_sink(self):
        # missing rule: run returns None, accepts() is False
        auto = make_dfta(
            NATS, {NAT: 1}, {("Z", ()): 0}, [(0,)], (NAT,)
        )
        assert auto.accepts(nat(0))
        assert not auto.accepts(nat(1))
        assert auto.run(nat(1)) is None

    def test_dimension_mismatch_rejected(self):
        auto = even_automaton(NATS)
        with pytest.raises(AutomatonError):
            auto.accepts(nat(0), nat(0))

    def test_bad_transition_rejected(self):
        with pytest.raises(AutomatonError):
            make_dfta(NATS, {NAT: 1}, {("Z", ()): 5}, [(0,)], (NAT,))

    def test_wrong_sort_term_rejected(self):
        auto = even_automaton(NATS)
        with pytest.raises(AutomatonError):
            # Tree term fed to a Nat automaton: the constructor is unknown
            auto.accepts(leaf())


class TestExploration:
    def test_reachable_states(self):
        auto = even_automaton(NATS)
        assert auto.reachable_states()[NAT] == {0, 1}

    def test_unreachable_state_detected(self):
        auto = mod_automaton(3, [2])
        bigger = make_dfta(
            NATS,
            {NAT: 4},  # state 3 unreachable
            dict(auto.transitions),
            [(2,)],
            (NAT,),
        )
        assert 3 not in bigger.reachable_states()[NAT]

    def test_emptiness(self):
        auto = make_dfta(NATS, {NAT: 2}, {("Z", ()): 0, ("S", (0,)): 0, ("S", (1,)): 1}, [(1,)], (NAT,))
        assert auto.is_empty()
        assert not even_automaton(NATS).is_empty()

    def test_sample_accepted(self):
        sample = even_automaton(NATS).sample_accepted()
        assert sample is not None
        assert even_member(sample[0])

    def test_witness_terms_are_shortest(self):
        witnesses = even_automaton(NATS).witness_terms()
        assert witnesses[(NAT, 0)] == nat(0)
        assert witnesses[(NAT, 1)] == nat(1)

    def test_enumerate_accepted(self):
        members = list(
            even_automaton(NATS).enumerate_accepted(max_height=6)
        )
        assert [nat_value(t[0]) for t in members] == [0, 2, 4]


class TestBooleanOps:
    def test_complete_preserves_language(self):
        auto = make_dfta(NATS, {NAT: 1}, {("Z", ()): 0}, [(0,)], (NAT,))
        completed = complete(auto)
        assert completed.is_complete()
        for n in range(5):
            assert auto.accepts(nat(n)) == completed.accepts(nat(n))

    def test_complement(self):
        comp = complement(even_automaton(NATS))
        for n in range(10):
            assert comp.accepts(nat(n)) == (n % 2 == 1)

    def test_double_complement_equivalent(self):
        auto = even_automaton(NATS)
        assert equivalent(complement(complement(auto)), auto)

    def test_intersection(self):
        evens = mod_automaton(2, [0])
        mult3 = mod_automaton(3, [0])
        both = intersection(evens, mult3)
        for n in range(15):
            assert both.accepts(nat(n)) == (n % 6 == 0)

    def test_union(self):
        evens = mod_automaton(2, [0])
        mult3 = mod_automaton(3, [0])
        either = union(evens, mult3)
        for n in range(15):
            assert either.accepts(nat(n)) == (n % 2 == 0 or n % 3 == 0)
        # over trees: EvenLeft with itself, and with its complement
        el = evenleft_automaton(TREES)
        assert equivalent(union(el, el), el)
        assert complement(union(el, complement(el))).is_empty()

    def test_difference(self):
        evens = mod_automaton(2, [0])
        mult3 = mod_automaton(3, [0])
        diff = difference(evens, mult3)
        for n in range(15):
            assert diff.accepts(nat(n)) == (n % 2 == 0 and n % 3 != 0)

    def test_symmetric_difference_and_equivalence(self):
        a = mod_automaton(2, [0])
        b = even_automaton(NATS)
        assert equivalent(a, b)
        assert symmetric_difference(a, b).is_empty()

    def test_subset(self):
        mult6 = mod_automaton(6, [0])
        evens = mod_automaton(2, [0])
        assert subset(mult6, evens)
        assert not subset(evens, mult6)

    def test_product_dimension_mismatch(self):
        with pytest.raises(AutomatonError):
            intersection(even_automaton(NATS), incdec_automata(NATS).popitem()[1])


class TestNormalization:
    def test_trim_removes_unreachable(self):
        auto = make_dfta(
            NATS,
            {NAT: 5},
            {("Z", ()): 0, ("S", (0,)): 1, ("S", (1,)): 0,
             ("S", (2,)): 3, ("S", (3,)): 2, ("S", (4,)): 4},
            [(0,)],
            (NAT,),
        )
        trimmed = trim(auto)
        assert trimmed.states[NAT] == 2
        for n in range(8):
            assert trimmed.accepts(nat(n)) == auto.accepts(nat(n))

    def test_minimize_collapses_equivalent_states(self):
        # mod-4 automaton accepting evens has 4 states; minimal is 2
        auto = mod_automaton(4, [0, 2])
        minimal = minimize_1d(auto)
        assert minimal.states[NAT] == 2
        assert equivalent(minimal, even_automaton(NATS))

    def test_minimize_keeps_no_unreachable_sink(self):
        # lists of length at most one: completing adds a NatList sink,
        # and a Nat sink no term reaches, which the result must not keep
        auto = make_dfta(
            natlist_system(),
            {NAT: 1, NATLIST: 2},
            {
                ("Z", ()): 0,
                ("S", (0,)): 0,
                ("nil", ()): 0,
                ("cons", (0, 0)): 1,
            },
            [(0,), (1,)],
            (NATLIST,),
        )
        minimal = minimize_1d(auto)
        assert minimal.states == {NAT: 1, NATLIST: 3}
        assert equivalent(minimal, auto)

    def test_minimize_preserves_language(self):
        auto = mod_automaton(6, [0, 3])
        minimal = minimize_1d(auto)
        for n in range(14):
            assert minimal.accepts(nat(n)) == (n % 3 == 0)

    def test_minimize_requires_dimension_one(self):
        autos = incdec_automata(NATS)
        with pytest.raises(AutomatonError):
            minimize_1d(next(iter(autos.values())))


# ----------------------------------------------------------------------
# property tests: boolean ops agree with membership semantics
# ----------------------------------------------------------------------
mods = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
).map(lambda mr: (max(mr[0], mr[1] + 1), mr[1]))


@given(mods, mods, st.integers(min_value=0, max_value=20))
@settings(max_examples=150)
def test_ops_respect_membership(pa, pb, n):
    (ma, ra), (mb, rb) = pa, pb
    a = mod_automaton(ma, [ra])
    b = mod_automaton(mb, [rb])
    t = nat(n)
    in_a, in_b = n % ma == ra, n % mb == rb
    assert intersection(a, b).accepts(t) == (in_a and in_b)
    assert union(a, b).accepts(t) == (in_a or in_b)
    assert difference(a, b).accepts(t) == (in_a and not in_b)
    assert complement(a).accepts(t) == (not in_a)


@given(mods)
def test_minimize_is_idempotent(pa):
    m, r = pa
    auto = minimize_1d(mod_automaton(m, [r]))
    again = minimize_1d(auto)
    assert again.states[NAT] == auto.states[NAT]
    assert equivalent(auto, again)


# ----------------------------------------------------------------------
# property tests: constructions on random partial automata respect
# membership
# ----------------------------------------------------------------------
def random_nat_automaton(data, label: str) -> DFTA:
    """A random (possibly partial) 1-automaton over the Nat signature."""
    n = data.draw(st.integers(min_value=1, max_value=3), label=f"{label}-n")
    transitions = {}
    if data.draw(st.booleans(), label=f"{label}-z"):
        transitions[("Z", ())] = data.draw(
            st.integers(min_value=0, max_value=n - 1), label=f"{label}-zt"
        )
    for q in range(n):
        if data.draw(st.booleans(), label=f"{label}-s{q}"):
            transitions[("S", (q,))] = data.draw(
                st.integers(min_value=0, max_value=n - 1),
                label=f"{label}-st{q}",
            )
    finals = [
        (q,)
        for q in range(n)
        if data.draw(st.booleans(), label=f"{label}-f{q}")
    ]
    return make_dfta(NATS, {NAT: n}, transitions, finals, (NAT,))


COMBINES = {
    "and": lambda x, y: x and y,
    "or": lambda x, y: x or y,
    "diff": lambda x, y: x and not y,
    "xor": lambda x, y: x != y,
}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_product_respects_membership(data):
    a = random_nat_automaton(data, "a")
    b = random_nat_automaton(data, "b")
    for combine in COMBINES.values():
        combined = product(a, b, combine)
        for n in range(9):
            t = nat(n)
            assert combined.accepts(t) == combine(a.accepts(t), b.accepts(t))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_complement_respects_membership(data):
    auto = random_nat_automaton(data, "a")
    comp = complement(auto)
    for n in range(9):
        assert comp.accepts(nat(n)) == (not auto.accepts(nat(n)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_complete_respects_membership(data):
    auto = random_nat_automaton(data, "a")
    completed = complete(auto)
    assert completed.is_complete()
    for n in range(9):
        assert completed.accepts(nat(n)) == auto.accepts(nat(n))


class TestComplete:
    def test_complete_automaton_returned_unchanged(self):
        auto = even_automaton(NATS)
        assert complete(auto) is auto

    def test_two_sort_completion_keeps_language(self):
        # two sorts, complete A-part, one B rule missing
        sa, sb = Sort("A"), Sort("B")
        a0 = FuncSymbol("a0", (), sa)
        a1 = FuncSymbol("a1", (sa,), sa)
        b0 = FuncSymbol("b0", (), sb)
        wrap = FuncSymbol("wrap", (sa,), sb)
        adts = ADTSystem([ADT(sa, (a0, a1)), ADT(sb, (b0, wrap))])
        partial = make_dfta(
            adts,
            {sa: 2, sb: 1},
            {
                ("a0", ()): 0,
                ("a1", (0,)): 1,
                ("a1", (1,)): 0,
                ("b0", ()): 0,
                ("wrap", (0,)): 0,
                # ("wrap", (1,)) missing
            },
            [(0,)],
            (sb,),
        )
        completed = complete(partial)
        assert completed.is_complete()
        a_term = App(a0)
        assert completed.accepts(App(wrap, (a_term,)))
        assert not completed.accepts(App(wrap, (App(a1, (a_term,)),)))

    def test_sort_without_states_gains_a_sink(self):
        # a Nat 1-automaton over the NatList signature names no NatList
        # state; completing it must still give NatList a sink
        auto = make_dfta(
            natlist_system(),
            {NAT: 2},
            {("Z", ()): 0, ("S", (0,)): 1, ("S", (1,)): 0},
            [(0,)],
            (NAT,),
        )
        completed = complete(auto)
        assert completed.is_complete()
        assert completed.states[NATLIST] == 1
        comp = complement(auto)
        both = intersection(auto, auto)
        for n in range(8):
            t = nat(n)
            assert auto.accepts(t) == (n % 2 == 0)
            assert completed.accepts(t) == auto.accepts(t)
            assert comp.accepts(t) == (not auto.accepts(t))
            assert both.accepts(t) == auto.accepts(t)
