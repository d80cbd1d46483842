"""Tests for ADT systems: Herbrand enumeration, counting, expanding sorts."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.logic.adt import (
    ADT,
    ADTError,
    ADTSystem,
    NAT,
    NATLIST,
    TREE,
    nat,
    nat_system,
    nat_value,
    natlist,
    natlist_system,
    tree_system,
)
from repro.logic.sorts import FuncSymbol, Sort
from repro.logic.terms import App, height, is_ground, size
from repro.theory.linsets import is_expanding_sort


class TestDeclarations:
    def test_duplicate_sorts_rejected(self):
        with pytest.raises(ADTError):
            ADTSystem(
                [
                    ADT(NAT, nat_system().constructors(NAT)),
                    ADT(NAT, nat_system().constructors(NAT)),
                ]
            )

    def test_empty_adt_rejected(self):
        with pytest.raises(ADTError):
            ADT(Sort("E"), ())

    def test_uninhabited_sort_rejected(self):
        loop = Sort("Loop")
        c = FuncSymbol("c", (loop,), loop)
        with pytest.raises(ADTError):
            ADTSystem([ADT(loop, (c,))])

    def test_wrong_result_sort_rejected(self):
        other = Sort("Other")
        c = FuncSymbol("c", (), other)
        with pytest.raises(ADTError):
            ADT(NAT, (c,))

    def test_cross_adt_constructor_sharing_rejected(self):
        z2 = FuncSymbol("Z", (), TREE)
        with pytest.raises(ADTError):
            ADTSystem(
                [
                    ADT(NAT, nat_system().constructors(NAT)),
                    ADT(TREE, (z2,)),
                ]
            )

    def test_constructor_lookup(self):
        adts = nat_system()
        assert adts.constructor("S").arity == 1
        with pytest.raises(ADTError):
            adts.constructor("missing")


class TestEnumeration:
    def test_nat_heights_are_singletons(self):
        adts = nat_system()
        for h in range(1, 6):
            layer = adts.terms_of_height(NAT, h)
            assert len(layer) == 1
            assert height(layer[0]) == h

    def test_tree_layer_counts(self):
        adts = tree_system()
        # t(1)=1 (leaf); t(2)=1; t(3)= pairs with max height 2 = 3
        assert len(adts.terms_of_height(TREE, 1)) == 1
        assert len(adts.terms_of_height(TREE, 2)) == 1
        assert len(adts.terms_of_height(TREE, 3)) == 3

    def test_terms_up_to_height_is_cumulative(self):
        adts = tree_system()
        upto = adts.terms_up_to_height(TREE, 3)
        assert len(upto) == 5
        assert all(is_ground(t) and height(t) <= 3 for t in upto)

    def test_layers_are_disjoint_and_exact(self):
        adts = natlist_system()
        for h in range(1, 5):
            for t in adts.terms_of_height(NATLIST, h):
                assert height(t) == h

    def test_iter_terms_height_ordered(self):
        adts = nat_system()
        heights = [height(t) for t in adts.iter_terms(NAT, limit=6)]
        assert heights == sorted(heights)

    def test_min_height(self):
        adts = natlist_system()
        assert adts.min_height(NAT) == 1
        assert adts.min_height(NATLIST) == 1

    def test_infinite_sort_detection(self):
        assert nat_system().is_infinite_sort(NAT)
        assert natlist_system().is_infinite_sort(NATLIST)
        finite = Sort("Fin")
        a = FuncSymbol("a", (), finite)
        b = FuncSymbol("b", (), finite)
        adts = ADTSystem([ADT(finite, (a, b))])
        assert not adts.is_infinite_sort(finite)


class TestCounting:
    def test_nat_size_classes_are_singletons(self):
        adts = nat_system()
        for k in range(1, 12):
            assert adts.count_terms_of_size(NAT, k) == 1

    def test_tree_sizes_are_odd_catalan(self):
        adts = tree_system()
        # sizes: 1 node count follows Catalan numbers at odd sizes
        assert adts.count_terms_of_size(TREE, 1) == 1
        assert adts.count_terms_of_size(TREE, 2) == 0
        assert adts.count_terms_of_size(TREE, 3) == 1
        assert adts.count_terms_of_size(TREE, 5) == 2
        assert adts.count_terms_of_size(TREE, 7) == 5
        assert adts.count_terms_of_size(TREE, 9) == 14

    def test_counts_match_brute_force(self):
        adts = natlist_system()
        by_size = {}
        for t in adts.terms_up_to_height(NATLIST, 4):
            by_size[size(t)] = by_size.get(size(t), 0) + 1
        # brute force over height<=4 is complete for sizes<=4
        for k in range(1, 5):
            assert adts.count_terms_of_size(NATLIST, k) == by_size.get(k, 0)

    def test_size_image(self):
        adts = tree_system()
        assert adts.size_image(TREE, 10) == [1, 3, 5, 7, 9]

    def test_expanding_examples_from_paper(self):
        # Example 7: Nat is not expanding, List is; Tree is too
        assert not is_expanding_sort(nat_system(), NAT)
        assert is_expanding_sort(natlist_system(), NATLIST)
        assert is_expanding_sort(tree_system(), TREE)


class TestGroundOps:
    def test_select(self):
        adts = nat_system()
        assert adts.select("S", 0, nat(3)) == nat(2)
        with pytest.raises(ADTError):
            adts.select("S", 0, nat(0))

    def test_test(self):
        adts = nat_system()
        assert adts.test("S", nat(1))
        assert not adts.test("S", nat(0))
        assert adts.test("Z", nat(0))

    def test_natlist_builder(self):
        t = natlist([1, 2])
        assert t.func.name == "cons"
        assert nat_value(t.args[0]) == 1

    def test_nat_value_rejects_non_numeral(self):
        with pytest.raises(ADTError):
            nat_value(App(tree_system().constructor("leaf")))


@given(st.integers(min_value=1, max_value=8))
def test_count_nat_terms_by_height_brute_force(h):
    adts = nat_system()
    layer = adts.terms_of_height(NAT, h)
    assert [nat_value(t) for t in layer] == [h - 1]


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=4))
def test_natlist_size_formula(values):
    # size = 1 (nil) + per element (1 cons + numeral size)
    t = natlist(values)
    expected = 1 + sum(2 + v for v in values)
    assert size(t) == expected
