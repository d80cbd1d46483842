"""Regression tests for defects found and fixed during development.

Each test pins the minimal scenario of an actual bug so the fix cannot
silently rot.  The scenarios double as precise documentation of subtle
semantic corners of the pipeline.
"""

import time

import pytest

from repro import solve
from repro.chc.semantics import bounded_least_fixpoint
from repro.chc.transform import preprocess
from repro.core.cex import search_counterexample
from repro.logic.adt import NAT, nat, natlist, natlist_system, nat_system
from repro.problems import even_system


class TestLubyRegression:
    """The original Luby implementation shifted by a negative count on
    i=4 (bit-twiddling reconstruction bug)."""

    def test_luby_defined_for_all_small_indices(self):
        from repro.sat.solver import _luby

        values = [_luby(i) for i in range(1, 64)]
        assert all(v >= 1 for v in values)
        # every value is a power of two and the subsequence structure holds
        assert all(v & (v - 1) == 0 for v in values)
        assert values[:7] == [1, 1, 2, 1, 1, 2, 4]


class TestSaturationPruningInterplay:
    """Head-height pruning once masked the 'unsaturated' flag, making the
    iterative-deepening refutation search stop at the first height even
    though deeper facts existed (EvenBroken became UNKNOWN)."""

    def test_prune_marks_unsaturated(self):
        from repro.problems import odd_unsat_system

        prepared = preprocess(odd_unsat_system())
        shallow = bounded_least_fixpoint(prepared, max_height=2)
        # the step clause was pruned at this height: must NOT claim
        # saturation, or deepening would stop prematurely
        assert not shallow.saturated

    def test_iterative_deepening_still_refutes(self):
        from repro.problems import odd_unsat_system

        prepared = preprocess(odd_unsat_system())
        result = search_counterexample(prepared, start_height=2, max_height=4)
        assert result.found


class TestReachableSubstructureSemantics:
    """Whole-domain quantification is unsound for the STLC query's
    existential witnesses when the model has junk elements; Herbrand
    evaluation must quantify over constructor-reachable elements only."""

    def test_junk_elements_are_excluded(self):
        from repro.logic.adt import S, Z
        from repro.logic.sorts import PredSymbol
        from repro.mace.model import FiniteModel

        p = PredSymbol("p", (NAT,))
        model = FiniteModel(
            {NAT: 3},
            {Z: {(): 0}, S: {(0,): 1, (1,): 0, (2,): 2}},
            {p: {(2,)}},  # p holds only on the junk element
        )
        adts = nat_system()
        reached = model.reachable_elements(adts)[NAT]
        assert reached == {0, 1}
        # a clause requiring some reachable p-element is falsified even
        # though a whole-domain check would be fooled by element 2
        from repro.chc.clauses import BodyAtom, CHCSystem, Clause
        from repro.logic.formulas import TRUE
        from repro.logic.terms import Var

        x = Var("x", NAT)
        system = CHCSystem(adts)
        system.add(Clause(TRUE, (), BodyAtom(p, (x,)), "all-p"))
        assert model.eval_clause(
            system.clauses[0], adts=adts, herbrand=True
        ) is not None

    def test_stlc_model_passes_exact_check(self):
        from repro.stlc import invariant_model, typecheck_vc

        prepared = preprocess(typecheck_vc())
        assert invariant_model().satisfies(prepared, herbrand=True)


class TestTimeoutEnforcement:
    """Deadlines were once only checked between size vectors / heights,
    letting a 5 s budget run for 100+ s inside a single SAT call or
    fixpoint saturation."""

    @pytest.mark.parametrize(
        "factory_name", ["diag_system", "ltgt_system"]
    )
    def test_divergent_problems_respect_timeout(self, factory_name):
        import repro.problems as problems

        system = getattr(problems, factory_name)()
        start = time.monotonic()
        result = solve(system, timeout=2)
        elapsed = time.monotonic() - start
        assert result.is_unknown
        assert elapsed < 12  # generous slack over the 2 s budget

    def test_cex_respects_timeout_inside_saturation(self):
        from repro.benchgen.builders import mirror_system

        prepared = preprocess(mirror_system(4))
        start = time.monotonic()
        search_counterexample(prepared, max_height=6, timeout=1)
        assert time.monotonic() - start < 10

    def test_cex_reads_the_clock_while_pruning_joins(self):
        """The loop over a body's joined substitutions spent no steps on
        those the head-height cut pruned, so it never read the clock: a
        fixpoint could run for seconds past its deadline there."""
        from repro.chc.clauses import BodyAtom, Clause
        from repro.chc.semantics import _body_matches, _StepBudget
        from repro.logic.adt import TREE, NODE, tree_system
        from repro.logic.formulas import TRUE
        from repro.logic.sorts import PredSymbol
        from repro.logic.terms import App, Var

        adts = tree_system()
        p, r = PredSymbol("P", (TREE,)), PredSymbol("R", (TREE,))
        x = Var("x", TREE)
        # every join is pruned at height 2: the head is 2 above x
        head = BodyAtom(r, (App(NODE, (App(NODE, (x, x)), x)),))
        clause = Clause(TRUE, (BodyAtom(p, (x,)),), head)
        facts = {p: {(t,) for t in adts.terms_up_to_height(TREE, 5)}}
        assert len(facts[p]) > 256
        # past its deadline, and a step count whose spending in the join
        # reaches no clock read of its own
        budget = _StepBudget(time.monotonic() - 1, 4096 + 4095)
        matches = list(_body_matches(clause, facts, adts, 2, budget, head))
        assert matches == []
        assert budget.exhausted

    def test_cex_deadline_holds_under_hash_seed_0(self):
        """Under PYTHONHASHSEED=0 this search's deadline fell inside that
        loop, which ran 10.75 s at a 4 s timeout."""
        import os
        import subprocess
        import sys

        script = (
            "import time\n"
            "from repro.benchgen.tip import mirror_system\n"
            "from repro.chc.transform import normalize, remove_selectors\n"
            "from repro.core.cex import search_counterexample\n"
            "system = normalize(remove_selectors(mirror_system(2)))\n"
            "start = time.monotonic()\n"
            "search_counterexample(system, max_height=5, "
            "max_facts=150_000, timeout=4)\n"
            "print(time.monotonic() - start)\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="0")
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert float(out.stdout) < 5.5


class TestZigzagSemantics:
    """The first zigzag builder was accidentally unsatisfiable (its query
    compared unrelated path lengths); all five solvers agreed on UNSAT,
    which the campaign's correctness scoring caught."""

    def test_zigzag_is_satisfiable(self):
        from repro.benchgen.builders import tree_left_spine_zigzag_system

        result = solve(tree_left_spine_zigzag_system(), timeout=20)
        assert result.is_sat

    def test_zigzag_has_no_shallow_refutation(self):
        from repro.benchgen.builders import tree_left_spine_zigzag_system

        prepared = preprocess(tree_left_spine_zigzag_system())
        result = bounded_least_fixpoint(
            prepared, max_height=4, max_facts=50_000
        )
        assert result.refutation is None


class TestGuardedEvalDepth:
    """A bogus Even 'invariant' (~Z?(S.0(x))) once passed the bounded
    inductiveness check because query instantiations stopped one height
    short; implied-negative filtering plus deeper capped pools fixed it."""

    def test_bogus_even_candidate_rejected(self):
        from repro.solvers.elem import solve_elem

        result = solve_elem(even_system(), timeout=10)
        assert result.is_unknown  # no elementary invariant may be claimed

    def test_capped_pools_reach_beyond_fixed_height(self):
        from repro.solvers.elem import terms_capped

        terms = terms_capped(nat_system(), NAT, 10)
        from repro.logic.terms import height

        assert max(height(t) for t in terms) == 10


class TestParserSelectorNames:
    """Printer emits `ctor!i` selector names; the parser must map them
    back to the same selector functions (round-trip identity)."""

    def test_selector_roundtrip(self):
        from repro.chc.parser import parse_chc
        from repro.chc.printer import print_system

        text = """
        (declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (forall ((x Nat)) (=> (= (prev x) Z) (p x))))
        """
        system = parse_chc(text)
        printed = print_system(system)
        assert "S!0" in printed
        reparsed = parse_chc(printed)
        assert print_system(reparsed) == printed


class TestVacuousQuerySoundness:
    """The Elem baseline once answered SAT on deep UNSAT problems: the
    query's constraint pinned a variable to a constant (S^10(Z)) beyond
    the capped instantiation pools, so the query had no instances and was
    vacuously satisfied.  Pools are now seeded with each clause's own
    ground subterms."""

    def test_deep_broken_mod_not_sat(self):
        from repro.benchgen.builders import broken_mod_system
        from repro.solvers.elem import solve_elem
        from repro.solvers.sizeelem import solve_sizeelem

        system = broken_mod_system(5, 2)
        assert not solve_elem(system, timeout=3).is_sat
        assert not solve_sizeelem(broken_mod_system(5, 2), timeout=3).is_sat

    def test_deep_broken_list_not_sat(self):
        from repro.benchgen.builders import broken_list_system
        from repro.solvers.elem import solve_elem

        assert not solve_elem(broken_list_system(6), timeout=3).is_sat

    def test_clause_constants_enter_instance_pools(self):
        from repro.benchgen.builders import broken_mod_system
        from repro.chc.clauses import CHCSystem
        from repro.solvers.elem import ground_instances

        system = broken_mod_system(5, 2)
        instances = ground_instances(system, terms_per_sort=8)
        # some instance must mention the deep constant S^10(Z)
        deep = nat(10)
        assert any(
            any(args == (deep,) for _, args in inst.body)
            for inst in instances
        )
