"""Tests for the Nat Elem-definability decision
(:mod:`repro.theory.definability`): which regular Nat languages a
first-order formula over the constructors can define (Prop. 1)."""

from hypothesis import given, settings, strategies as st

from repro.automata.dfta import make_dfta
from repro.logic.adt import NAT, nat, nat_system
from repro.theory.atlas import even_automaton
from repro.theory.definability import (
    elem_defining_formula,
    is_cofinite_language,
    is_elem_definable_nat,
    is_finite_language,
    nat_language_profile,
)

NATS = nat_system()


def mod_automaton(m, residues):
    transitions = {("Z", ()): 0}
    for i in range(m):
        transitions[("S", (i,))] = (i + 1) % m
    return make_dfta(
        NATS, {NAT: m}, transitions, [(r,) for r in residues], (NAT,)
    )


def upto_automaton(k):
    """Numerals 0..k-1: a finite language with a rejecting sink."""
    transitions = {("Z", ()): 0}
    for i in range(k + 1):
        transitions[("S", (i,))] = min(i + 1, k)
    return make_dfta(
        NATS,
        {NAT: k + 1},
        transitions,
        [(i,) for i in range(k)],
        (NAT,),
    )


class TestDefinability:
    def test_even_profile_is_periodic(self):
        profile = nat_language_profile(even_automaton(NATS))
        assert profile.prefix == ()
        assert profile.period == (True, False)

    def test_even_is_not_elem_definable(self):
        # Prop. 1 as a decision-procedure verdict
        auto = even_automaton(NATS)
        assert not is_finite_language(auto)
        assert not is_cofinite_language(auto)
        assert not is_elem_definable_nat(auto)
        assert elem_defining_formula(auto) is None

    def test_finite_language_definable(self):
        auto = upto_automaton(3)
        assert is_finite_language(auto)
        assert is_elem_definable_nat(auto)
        formula = elem_defining_formula(auto)
        assert formula == "x = S^0(Z) | x = S^1(Z) | x = S^2(Z)"

    def test_cofinite_language_definable(self):
        # complement of {0}: everything but Z
        transitions = {("Z", ()): 0, ("S", (0,)): 1, ("S", (1,)): 1}
        auto = make_dfta(NATS, {NAT: 2}, transitions, [(1,)], (NAT,))
        assert is_cofinite_language(auto)
        formula = elem_defining_formula(auto)
        assert formula == "~(x = S^0(Z))"

    def test_empty_and_full(self):
        empty = make_dfta(
            NATS, {NAT: 1}, {("Z", ()): 0, ("S", (0,)): 0}, [], (NAT,)
        )
        assert elem_defining_formula(empty) == "false"
        full = make_dfta(
            NATS, {NAT: 1}, {("Z", ()): 0, ("S", (0,)): 0}, [(0,)], (NAT,)
        )
        assert elem_defining_formula(full) == "true"

    def test_profile_member_agrees_with_automaton(self):
        for auto in (
            even_automaton(NATS),
            mod_automaton(3, [1]),
            upto_automaton(4),
        ):
            profile = nat_language_profile(auto)
            for n in range(15):
                assert profile.member(n) == auto.accepts(nat(n))

    def test_ringen_invariant_definability_verdicts(self):
        """Tie the decision procedure to the pipeline: Even's discovered
        invariant is non-elementary; a bounded-reach invariant is."""
        from repro import solve
        from repro.problems import EVEN, even_system

        result = solve(even_system(), timeout=20)
        auto = result.invariant.automata[EVEN]
        assert not is_elem_definable_nat(auto)


@given(
    st.integers(min_value=1, max_value=5),
    st.sets(st.integers(min_value=0, max_value=4)),
)
@settings(max_examples=80, deadline=None)
def test_profile_correct_on_random_mod_automata(m, residues):
    residues = {r for r in residues if r < m}
    auto = mod_automaton(m, sorted(residues))
    profile = nat_language_profile(auto)
    for n in range(18):
        assert profile.member(n) == (n % m in residues)
    # mod languages are elementary iff trivial
    expected_definable = residues == set() or residues == set(range(m))
    assert is_elem_definable_nat(auto) == expected_definable or m == 1
