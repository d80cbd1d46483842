"""Tests for the pumping machinery: Lemma 8's construction and the
mechanical replays of Prop. 1 and Prop. 2."""

from repro.logic.adt import NAT, TREE, nat, nat_system, tree_system
from repro.problems import leaf, node
from repro.solvers.elem import atom_space, candidate_formulas
from repro.theory.atlas import even_member, evenleft_member
from repro.theory.normal_form import (
    ElemFormula,
    GroundEqAtom,
    Literal,
    PathEqAtom,
    PathTesterAtom,
)
from repro.theory.paths import EMPTY_PATH, Path, Step, leaves
from repro.theory.pumping import (
    PathCongruence,
    cube_satisfied_by,
    find_pumping_counterexample,
    find_size_indistinguishable_pair,
    formula_pumping_constant,
    pump,
    pump_set,
    pumping_threshold,
)

NATS = nat_system()
TREES = tree_system()


def p(*steps):
    return Path(tuple(Step(c, i) for c, i in steps))


class TestCongruence:
    def test_union_find(self):
        c = PathCongruence()
        a, b, d = p(("node", 0)), p(("node", 1)), p(("node", 0), ("node", 0))
        c.add(a), c.add(b), c.add(d)
        c.union(a, b)
        assert set(map(str, c.equivalence_class(a))) == {str(a), str(b)}
        assert c.find(d) == d

    def test_appendix_b_example(self):
        """The paper's worked example: LLx = RRx & LRx = RRx, p = RRLR.

        One suffix q = LR of p is in the graph, r_q = RR, and the class of
        LR is {RR, LR, LL}, so P = {RRRR, RRLR, RRLL}.
        """
        # L = node.0, R = node.1; path "LL" (select L then L again) has
        # the innermost-last representation (L, L) etc.
        L, R = ("node", 0), ("node", 1)
        ll, lr, rr = p(L, L), p(L, R), p(R, R)
        cube = (
            Literal(PathEqAtom(0, ll, 0, rr), True),
            Literal(PathEqAtom(0, lr, 0, rr), True),
        )
        target = p(R, R, L, R)  # RRLR: LR applied first, then RR
        result = pump_set(cube, target)
        expected = {
            str(p(R, R, R, R)),
            str(p(R, R, L, R)),
            str(p(R, R, L, L)),
        }
        assert {str(q) for q in result} == expected

    def test_pump_set_without_graph_is_singleton(self):
        cube = (Literal(PathTesterAtom(0, EMPTY_PATH, "S"), True),)
        target = p(("S", 0), ("S", 0))
        assert pump_set(cube, target) == [target]


class TestPump:
    def test_pump_replaces_all_paths(self):
        g = node(node(leaf(), leaf()), node(leaf(), leaf()))
        paths = [p(("node", 0)), p(("node", 1))]
        t = leaf()
        assert pump(g, paths, t, TREES) == node(leaf(), leaf())

    def test_threshold_exceeds_height(self):
        from repro.logic.terms import height

        g = nat(5)
        assert pumping_threshold(g) == height(g) + 1

    def test_pumping_constant_grows_with_formula(self):
        small = ElemFormula(
            ((Literal(GroundEqAtom(0, EMPTY_PATH, nat(0)), True),),)
        )
        big = ElemFormula(
            (
                (
                    Literal(GroundEqAtom(0, EMPTY_PATH, nat(0)), True),
                    Literal(PathEqAtom(0, p(("S", 0)), 0, EMPTY_PATH), False),
                ),
            )
        )
        assert formula_pumping_constant(big, NATS) > formula_pumping_constant(
            small, NATS
        )

    def test_cube_satisfied_by(self):
        tester = Literal(PathTesterAtom(0, EMPTY_PATH, "Z"), True)
        other = Literal(PathTesterAtom(0, EMPTY_PATH, "S"), True)
        formula = ElemFormula(((tester,), (other,)))
        assert cube_satisfied_by(formula, nat(0), NATS) == (tester,)
        assert cube_satisfied_by(formula, nat(1), NATS) == (other,)
        empty = ElemFormula(())
        assert cube_satisfied_by(empty, nat(0), NATS) is None


class TestProp1:
    """Prop. 1 replayed mechanically: Even is not elementary.

    Every candidate elementary formula over Nat (from the Elem solver's
    own atom space) that agrees with Even on the small evens is defeated
    by a pumping counterexample.
    """

    def test_every_small_candidate_is_refuted(self):
        atoms = atom_space(
            __import__("repro.problems", fromlist=["EVEN"]).EVEN,
            NATS,
            max_path_depth=1,
            max_ground_height=3,
            max_atoms=32,
        )
        refuted = 0
        consistent = 0
        for formula in candidate_formulas(atoms, limit=600):
            # candidates must at least match Even on 0..2 (0, 2 in; 1 out)
            if not all(
                formula.eval((nat(n),), NATS) == even_member(nat(n))
                for n in range(3)
            ):
                continue
            consistent += 1
            witness = find_pumping_counterexample(
                formula, even_member, NAT, NATS,
                max_base_height=9, max_filler_height=11,
            )
            if witness is not None:
                refuted += 1
                # the witness is self-checking:
                assert formula.eval(
                    (witness.pumped,), NATS
                ) != even_member(witness.pumped)
        assert consistent > 0
        assert refuted == consistent

    def test_specific_pump_on_even(self):
        # pump S^6(Z) at its leaf with S^9(Z): formula-style candidates
        # cannot tell the results apart, but Even can
        g = nat(6)
        assert even_member(g)
        leaf_paths = leaves(g, NAT, NATS)
        pumped = pump(g, leaf_paths, nat(9), NATS)
        assert not even_member(pumped)


class TestProp2:
    """Prop. 2's core: same-size trees split by EvenLeft."""

    def test_size_indistinguishable_pair_exists(self):
        witness = find_size_indistinguishable_pair(
            evenleft_member, TREE, TREES, max_height=4
        )
        assert witness is not None
        from repro.logic.terms import size

        assert size(witness.inside) == size(witness.outside) == witness.size
        assert evenleft_member(witness.inside)
        assert not evenleft_member(witness.outside)

    def test_no_pair_for_size_determined_language(self):
        # size parity *is* size-determined: no witness can exist
        from repro.logic.terms import size

        witness = find_size_indistinguishable_pair(
            lambda t: size(t) % 4 == 1, TREE, TREES, max_height=4
        )
        assert witness is None

    def test_nat_languages_never_split_by_size(self):
        # over Nat, size determines the term: no language is splittable
        witness = find_size_indistinguishable_pair(
            even_member, NAT, NATS, max_height=6
        )
        assert witness is None
