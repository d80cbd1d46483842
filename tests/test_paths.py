"""Tests for selector paths: application, replacement, leaves (Sec. 6.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.logic.adt import (
    NAT,
    NATLIST,
    TREE,
    nat,
    nat_system,
    natlist,
    natlist_system,
    tree_system,
)
from repro.problems import leaf, node
from repro.theory.paths import (
    EMPTY_PATH,
    Path,
    PathError,
    Step,
    all_paths,
    apply_path,
    is_leaf_term,
    leaves,
    path_defined,
    path_sorts,
    paths_of,
    replace_at,
    replace_many,
)

NATS = nat_system()
TREES = tree_system()
LISTS = natlist_system()


def p(*steps):
    return Path(tuple(Step(c, i) for c, i in steps))


class TestApplication:
    def test_empty_path_is_identity(self):
        t = nat(3)
        assert apply_path(EMPTY_PATH, t, NATS) == t

    def test_single_selector(self):
        assert apply_path(p(("S", 0)), nat(3), NATS) == nat(2)

    def test_innermost_last_convention(self):
        # steps are stored outermost-first: S.0 cons.0 selects the head
        # of the list first, then the predecessor of that element
        t = natlist([2, 5])
        path = p(("S", 0), ("cons", 0))
        assert apply_path(path, t, LISTS) == nat(1)

    def test_undefined_on_wrong_constructor(self):
        with pytest.raises(PathError):
            apply_path(p(("S", 0)), nat(0), NATS)

    def test_path_defined(self):
        assert path_defined(p(("S", 0)), nat(1), NATS)
        assert not path_defined(p(("S", 0)), nat(0), NATS)

    def test_path_sorts(self):
        path = p(("S", 0), ("cons", 0))
        assert path_sorts(path, LISTS, NATLIST) == NAT
        assert path_sorts(p(("node", 0)), LISTS, NATLIST) is None


class TestSuffixes:
    def test_suffix_is_applied_first_part(self):
        longer = p(("S", 0), ("cons", 0))
        suffix = p(("cons", 0))
        assert suffix.is_suffix_of(longer)
        assert not longer.is_suffix_of(suffix)

    def test_overlap(self):
        a = p(("S", 0), ("S", 0))
        b = p(("S", 0))
        assert a.overlaps(b)
        c = p(("cons", 1))
        assert not a.overlaps(c)

    def test_strip_suffix(self):
        longer = p(("S", 0), ("cons", 0))
        rest = longer.strip_suffix(p(("cons", 0)))
        assert rest == p(("S", 0))
        assert longer.strip_suffix(p(("cons", 1))) is None

    def test_compose_inverts_strip(self):
        longer = p(("S", 0), ("S", 0), ("cons", 0))
        suffix = p(("cons", 0))
        rest = longer.strip_suffix(suffix)
        assert rest.compose(suffix) == longer


class TestReplacement:
    def test_replace_at_root(self):
        assert replace_at(nat(3), EMPTY_PATH, nat(0), NATS) == nat(0)

    def test_replace_deep(self):
        # replace the Z inside S(S(Z)) with S(Z)
        path = p(("S", 0), ("S", 0))
        assert replace_at(nat(2), path, nat(1), NATS) == nat(3)

    def test_simultaneous_replacement(self):
        t = node(leaf(), leaf())
        left = p(("node", 0))
        right = p(("node", 1))
        out = replace_many(
            t, [(left, node(leaf(), leaf())), (right, node(leaf(), leaf()))],
            TREES,
        )
        assert out == node(node(leaf(), leaf()), node(leaf(), leaf()))

    def test_overlapping_paths_rejected(self):
        t = node(node(leaf(), leaf()), leaf())
        outer = p(("node", 0))
        inner = p(("node", 0), ("node", 0))
        with pytest.raises(PathError):
            replace_many(t, [(outer, leaf()), (inner, leaf())], TREES)

    def test_duplicate_path_same_replacement_ok(self):
        t = nat(2)
        path = p(("S", 0))
        out = replace_many(t, [(path, nat(0)), (path, nat(0))], NATS)
        assert out == nat(1)

    def test_duplicate_path_conflicting_rejected(self):
        path = p(("S", 0))
        with pytest.raises(PathError):
            replace_many(nat(2), [(path, nat(0)), (path, nat(1))], NATS)


class TestLeaves:
    def test_leaf_term_definition(self):
        # Definition 4: leaf terms of sort Tree contain no proper Tree
        # subterm, so only `leaf` qualifies
        assert is_leaf_term(leaf(), TREE, TREES)
        assert not is_leaf_term(node(leaf(), leaf()), TREE, TREES)

    def test_nat_leaves_of_numeral(self):
        found = leaves(nat(3), NAT, NATS)
        assert len(found) == 1
        assert apply_path(found[0], nat(3), NATS) == nat(0)

    def test_tree_leaves_of_full_tree(self):
        t = node(node(leaf(), leaf()), leaf())
        found = leaves(t, TREE, TREES)
        assert len(found) == 3
        for path in found:
            assert apply_path(path, t, TREES) == leaf()

    def test_list_nat_leaves(self):
        # Nat leaf terms inside a NatList: the Z under each element
        t = natlist([1])
        found = leaves(t, NAT, LISTS)
        assert len(found) == 1


class TestAllPaths:
    def test_depth_zero_is_just_empty(self):
        found = list(all_paths(NATS, NAT, 0))
        assert found == [(EMPTY_PATH, NAT)]

    def test_nat_depth_two(self):
        found = list(all_paths(NATS, NAT, 2))
        assert len(found) == 3  # eps, S.0, S.0 S.0

    def test_all_paths_are_well_sorted(self):
        for path, sort in all_paths(LISTS, NATLIST, 2):
            assert path_sorts(path, LISTS, NATLIST) == sort


# ----------------------------------------------------------------------
# property: every enumerated path selects the right subterm
# ----------------------------------------------------------------------
@st.composite
def random_trees(draw, max_depth=4):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    if depth == 0:
        return leaf()
    return node(
        draw(random_trees(max_depth=depth - 1)),
        draw(random_trees(max_depth=depth - 1)),
    )


@given(random_trees())
def test_paths_of_agree_with_apply(t):
    for path, sub in paths_of(t, TREES):
        assert apply_path(path, t, TREES) == sub


@given(random_trees(), random_trees())
def test_replace_then_apply_roundtrip(t, filler):
    for path, _ in paths_of(t, TREES):
        replaced = replace_at(t, path, filler, TREES)
        assert apply_path(path, replaced, TREES) == filler


@given(random_trees())
def test_leaves_are_maximal_depth_witnesses(t):
    for path in leaves(t, TREE, TREES):
        sub = apply_path(path, t, TREES)
        assert sub == leaf()
