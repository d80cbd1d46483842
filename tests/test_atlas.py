"""Tests for the expressiveness atlas: Figure 3 with verified witnesses."""

import pytest

from repro.automata.from_model import automata_to_model
from repro.automata.ops import complete
from repro.chc.transform import preprocess
from repro.logic.adt import nat, nat_system, tree_system
from repro.problems import (
    EVEN,
    EVENLEFT,
    even_system,
    evenleft_system,
    incdec_system,
)
from repro.theory.atlas import (
    ATLAS,
    dec_member,
    diseq_member,
    eq_member,
    even_automaton,
    even_member,
    evenleft_automaton,
    figure3_rows,
    format_figure3,
    gt_member,
    inc_member,
    incdec_automata,
    leftmost_length,
    lt_member,
)
from repro.problems import leaf, node


class TestGroundTruth:
    def test_even_member(self):
        assert even_member(nat(0)) and even_member(nat(4))
        assert not even_member(nat(3))

    def test_inc_dec_members(self):
        assert inc_member(nat(2), nat(3))
        assert not inc_member(nat(3), nat(2))
        assert dec_member(nat(3), nat(2))

    def test_leftmost_length(self):
        assert leftmost_length(leaf()) == 0
        assert leftmost_length(node(node(leaf(), leaf()), leaf())) == 2

    def test_orderings(self):
        assert lt_member(nat(1), nat(3))
        assert gt_member(nat(3), nat(1))
        assert not lt_member(nat(3), nat(3))

    def test_eq_diseq(self):
        assert eq_member(nat(2), nat(2))
        assert diseq_member(nat(2), nat(3))


class TestPaperAutomataAreInductive:
    """Each positive Reg witness, converted to a finite model via the
    Theorem 1 isomorphism, must satisfy the preprocessed system exactly."""

    def test_even_automaton_is_inductive(self):
        adts = nat_system()
        auto = complete(even_automaton(adts))
        model = automata_to_model(adts, {EVEN: auto})
        prepared = preprocess(even_system())
        for pred in prepared.predicates.values():
            model.predicates.setdefault(pred, set())
        assert model.satisfies(prepared, herbrand=True)

    def test_evenleft_automaton_is_inductive(self):
        adts = tree_system()
        auto = complete(evenleft_automaton(adts))
        model = automata_to_model(adts, {EVENLEFT: auto})
        prepared = preprocess(evenleft_system())
        for pred in prepared.predicates.values():
            model.predicates.setdefault(pred, set())
        assert model.satisfies(prepared, herbrand=True)

    def test_incdec_automata_are_inductive(self):
        adts = nat_system()
        autos = {
            p: complete(a) for p, a in incdec_automata(adts).items()
        }
        model = automata_to_model(adts, autos)
        prepared = preprocess(incdec_system())
        for pred in prepared.predicates.values():
            model.predicates.setdefault(pred, set())
        assert model.satisfies(prepared, herbrand=True)

    def test_incdec_automata_overapproximate_least_model(self):
        autos = incdec_automata()
        inc = next(a for p, a in autos.items() if p.name == "inc")
        # Prop. 4: the mod-3 relation contains the true +1 pairs
        for n in range(8):
            assert inc.accepts(nat(n), nat(n + 1))


class TestClassification:
    def test_figure3_matches_paper(self):
        expected = {
            "Even": (True, False, True),
            "IncDec": (True, True, True),
            "EvenLeft": (True, False, False),
            "Diag": (False, True, True),
            "LtGt": (False, False, True),
        }
        for name, (reg, elem, size) in expected.items():
            entry = ATLAS[name]
            assert entry.in_reg == reg, name
            assert entry.in_elem == elem, name
            assert entry.in_sizeelem == size, name

    def test_elem_subset_of_sizeelem(self):
        # the containment Elem ⊆ SizeElem visible in Figure 3
        for entry in ATLAS.values():
            if entry.in_elem:
                assert entry.in_sizeelem

    def test_rows_and_rendering(self):
        rows = figure3_rows()
        assert len(rows) == 5
        text = format_figure3()
        assert "EvenLeft" in text
        assert "yes" in text and "no" in text

    def test_every_entry_builds_its_system(self):
        for entry in ATLAS.values():
            system = entry.system_factory()
            assert len(system) >= 3


class TestSolversAgreeWithAtlas:
    """The empirical core of the paper: solver success correlates with
    definability.  Solvers must succeed on programs whose class column is
    'yes' and diverge when it is 'no'."""

    @pytest.mark.parametrize("name", list(ATLAS))
    def test_ringen_matches_reg_column(self, name):
        from repro import solve

        entry = ATLAS[name]
        result = solve(entry.system_factory(), timeout=8)
        if entry.in_reg:
            assert result.is_sat, f"{name} should have a regular model"
        else:
            assert result.is_unknown, f"{name} should diverge for RInGen"

    @pytest.mark.parametrize("name", list(ATLAS))
    def test_sizeelem_matches_column(self, name):
        from repro.solvers.sizeelem import solve_sizeelem

        entry = ATLAS[name]
        result = solve_sizeelem(entry.system_factory(), timeout=12)
        if entry.in_sizeelem:
            assert result.is_sat, f"{name} should have a SizeElem invariant"
        else:
            assert result.is_unknown

    @pytest.mark.parametrize("name", list(ATLAS))
    def test_elem_matches_column(self, name):
        from repro.solvers.elem import solve_elem

        entry = ATLAS[name]
        result = solve_elem(entry.system_factory(), timeout=8)
        if entry.in_elem:
            assert result.is_sat, f"{name} should have an Elem invariant"
        else:
            assert result.is_unknown
