"""Deep property-based test suite over the core invariants of the repo.

These are the whole-pipeline properties DESIGN.md commits to:

* parser/printer round-trips on *generated* CHC systems,
* preprocessing preserves the bounded least model of the original
  predicates (the executable face of Theorem 5),
* Theorem 1 on random multi-sorted finite models (NatList this time),
* boolean automata algebra laws (De Morgan, distributivity) checked by
  language equivalence on randomly generated mod-automata,
* the diseq rules' least model is exactly disequality for every ADT
  system in the repo (Lemma 3 across signatures).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfta import make_dfta
from repro.automata.from_model import model_to_automaton
from repro.automata.ops import (
    complement,
    difference,
    equivalent,
    intersection,
    union,
)
from repro.chc.clauses import CHCSystem
from repro.chc.parser import parse_chc
from repro.chc.printer import print_system
from repro.chc.semantics import bounded_least_fixpoint
from repro.chc.transform import diseq_rules, diseq_symbol, preprocess
from repro.logic.adt import (
    CONS,
    NAT,
    NATLIST,
    NIL,
    S,
    Z,
    nat,
    nat_system,
    natlist_system,
    tree_system,
)
from repro.logic.sorts import PredSymbol, Sort
from repro.logic.terms import App
from repro.mace.model import FiniteModel
from repro.problems import s

NATS = nat_system()
LISTS = natlist_system()


# ----------------------------------------------------------------------
# generated CHC systems round-trip through SMT-LIB
# ----------------------------------------------------------------------
@st.composite
def random_mod_system(draw):
    modulus = draw(st.integers(min_value=1, max_value=4))
    residue = draw(st.integers(min_value=0, max_value=3)) % modulus
    clash = draw(st.integers(min_value=1, max_value=4))
    from repro.benchgen.builders import nat_mod_system

    return nat_mod_system(modulus, residue, clash)


@given(random_mod_system())
@settings(max_examples=40, deadline=None)
def test_print_parse_roundtrip_generated(system):
    text = print_system(system)
    reparsed = parse_chc(text)
    assert len(reparsed) == len(system)
    assert print_system(reparsed) == text


@given(random_mod_system())
@settings(max_examples=20, deadline=None)
def test_preprocess_preserves_bounded_least_model(system):
    """Theorem 5's working direction: preprocessing neither adds nor
    removes derivable facts of the original predicates (bounded check)."""
    prepared = preprocess(system)
    before = bounded_least_fixpoint(
        system, max_height=4, check_queries=False
    )
    after = bounded_least_fixpoint(
        prepared, max_height=4, check_queries=False
    )
    for pred in system.predicates.values():
        assert before.facts[pred] == after.facts[pred]


# ----------------------------------------------------------------------
# Theorem 1 on random NatList models (two sorts, binary constructor)
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_theorem1_natlist_models(data):
    nat_size = data.draw(st.integers(min_value=1, max_value=3))
    list_size = data.draw(st.integers(min_value=1, max_value=3))
    z_val = data.draw(st.integers(min_value=0, max_value=nat_size - 1))
    s_table = {
        (i,): data.draw(st.integers(min_value=0, max_value=nat_size - 1))
        for i in range(nat_size)
    }
    nil_val = data.draw(st.integers(min_value=0, max_value=list_size - 1))
    cons_table = {
        (i, j): data.draw(
            st.integers(min_value=0, max_value=list_size - 1)
        )
        for i in range(nat_size)
        for j in range(list_size)
    }
    pred = PredSymbol("mem", (NATLIST,))
    relation = {
        (j,) for j in range(list_size) if data.draw(st.booleans())
    }
    model = FiniteModel(
        {NAT: nat_size, NATLIST: list_size},
        {
            Z: {(): z_val},
            S: s_table,
            App(NIL).func: {(): nil_val},
            CONS: cons_table,
        },
        {pred: relation},
    )
    auto = model_to_automaton(model, LISTS, pred)
    for t in LISTS.terms_up_to_height(NATLIST, 3):
        assert auto.accepts(t) == ((model.eval_term(t),) in relation)


# ----------------------------------------------------------------------
# boolean algebra laws over random mod automata
# ----------------------------------------------------------------------
def mod_automaton(m, residues):
    transitions = {("Z", ()): 0}
    for i in range(m):
        transitions[("S", (i,))] = (i + 1) % m
    return make_dfta(
        NATS, {NAT: m}, transitions, [(r,) for r in residues], (NAT,)
    )


mod_langs = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.sets(st.integers(min_value=0, max_value=3)),
).map(lambda mr: mod_automaton(mr[0], sorted(r for r in mr[1] if r < mr[0])))


@given(mod_langs, mod_langs)
@settings(max_examples=40, deadline=None)
def test_de_morgan(a, b):
    lhs = complement(union(a, b))
    rhs = intersection(complement(a), complement(b))
    assert equivalent(lhs, rhs)


@given(mod_langs, mod_langs)
@settings(max_examples=40, deadline=None)
def test_difference_via_complement(a, b):
    assert equivalent(difference(a, b), intersection(a, complement(b)))


@given(mod_langs, mod_langs, mod_langs)
@settings(max_examples=25, deadline=None)
def test_distributivity(a, b, c):
    lhs = intersection(a, union(b, c))
    rhs = union(intersection(a, b), intersection(a, c))
    assert equivalent(lhs, rhs)


@given(mod_langs)
@settings(max_examples=30, deadline=None)
def test_union_idempotent_and_complement_involutive(a):
    assert equivalent(union(a, a), a)
    assert equivalent(complement(complement(a)), a)


# ----------------------------------------------------------------------
# Lemma 3 across every ADT system in the repo
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "adts,sort,height",
    [
        (nat_system(), NAT, 4),
        (natlist_system(), NATLIST, 3),
        (tree_system(), Sort("Tree"), 3),
    ],
    ids=["nat", "natlist", "tree"],
)
def test_diseq_least_model_is_disequality(adts, sort, height):
    system = CHCSystem(adts)
    used = {sort}
    frontier = [sort]
    while frontier:
        current = frontier.pop()
        for c in adts.constructors(current):
            for arg in c.arg_sorts:
                if arg not in used:
                    used.add(arg)
                    frontier.append(arg)
    for target in sorted(used, key=lambda s: s.name):
        for rule in diseq_rules(adts, target):
            system.add(rule)
    result = bounded_least_fixpoint(
        system, max_height=height, check_queries=False, max_facts=500_000
    )
    facts = result.facts[diseq_symbol(sort)]
    terms = adts.terms_up_to_height(sort, height)
    for a in terms:
        for b in terms:
            assert ((a, b) in facts) == (a != b), (a, b)


# ----------------------------------------------------------------------
# regular model membership is stable across views
# ----------------------------------------------------------------------
def test_invariant_member_equals_automaton_acceptance():
    from repro import solve
    from repro.problems import EVEN, even_system

    result = solve(even_system(), timeout=20)
    model = result.invariant
    auto = model.automata[EVEN]
    for n in range(12):
        t = nat(n)
        assert model.member(EVEN, (t,)) == auto.accepts(t)
