"""Tests for the CDCL SAT solver, cross-checked against brute force."""

import dataclasses
import hashlib
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat.solver import (
    CDCLSolver,
    SatError,
    brute_force_sat,
    solve_cnf,
    _luby,
)


def check_model(clauses, model):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert solve_cnf([], 3) is not None

    def test_unit_clause(self):
        model = solve_cnf([[1]], 1)
        assert model == {1: True}

    def test_contradiction(self):
        assert solve_cnf([[1], [-1]], 1) is None

    def test_simple_implication_chain(self):
        clauses = [[1], [-1, 2], [-2, 3]]
        model = solve_cnf(clauses, 3)
        assert model == {1: True, 2: True, 3: True}

    def test_requires_backtracking(self):
        # (x1 | x2) & (~x1 | x3) & (~x2 | ~x3) & (~x1 | ~x2)
        clauses = [[1, 2], [-1, 3], [-2, -3], [-1, -2]]
        model = solve_cnf(clauses, 3)
        assert model is not None
        assert check_model(clauses, model)

    def test_pigeonhole_3_into_2_unsat(self):
        # var p_{i,j}: pigeon i in hole j; 3 pigeons, 2 holes
        def v(i, j):
            return i * 2 + j + 1

        clauses = []
        for i in range(3):
            clauses.append([v(i, 0), v(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-v(i1, j), -v(i2, j)])
        assert solve_cnf(clauses, 6) is None

    def test_zero_literal_rejected(self):
        solver = CDCLSolver(1)
        with pytest.raises(SatError):
            solver.add_clause([0])

    def test_unknown_variable_rejected(self):
        solver = CDCLSolver(1)
        with pytest.raises(SatError):
            solver.add_clause([5])

    @pytest.mark.parametrize("bad", [0, 5, -3])
    def test_bad_assumption_rejected_before_any_state_change(self, bad):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve() is True
        trail = list(solver._trail)
        with pytest.raises(SatError):
            solver.solve(assumptions=[1, bad])
        # no call counted; the last answer's model and trail still stand
        assert solver.stats.solve_calls == 1
        assert solver._trail == trail
        assert solver.model()
        assert solver.solve(assumptions=[-1]) is True

    def test_tautological_clause_ignored(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, -1])
        assert solver.solve() is True

    def test_duplicate_literals_collapsed(self):
        solver = CDCLSolver(1)
        solver.add_clause([1, 1, 1])
        assert solver.solve() is True
        assert solver.model()[1] is True

    def test_assumptions(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) is True
        assert solver.model()[2] is True
        solver2 = CDCLSolver(2)
        solver2.add_clause([1])
        assert solver2.solve(assumptions=[-1]) is False

    def test_conflict_budget_returns_none(self):
        # a hard unsat instance with tiny budget: None (gave up)
        def v(i, j):
            return i * 4 + j + 1

        clauses = []
        for i in range(5):
            clauses.append([v(i, j) for j in range(4)])
        for j in range(4):
            for i1 in range(5):
                for i2 in range(i1 + 1, 5):
                    clauses.append([-v(i1, j), -v(i2, j)])
        solver = CDCLSolver(20)
        for c in clauses:
            solver.add_clause(c)
        assert solver.solve(max_conflicts=1) is None

    def test_luby_sequence(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_stats_populated(self):
        solver = CDCLSolver(3)
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        solver.solve()
        assert solver.stats.decisions >= 1
        assert solver.stats.clauses_added == 2
        assert solver.stats.solve_calls == 1


def pigeonhole_clauses(holes: int):
    """PHP(holes+1, holes): unsat, generates plenty of conflicts."""
    pigeons = holes + 1

    def v(i, j):
        return i * holes + j + 1

    clauses = [[v(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-v(i1, j), -v(i2, j)])
    return clauses, pigeons * holes


class TestIncrementalUse:
    """One solver, many solve() calls: the model finder's usage pattern."""

    def test_add_clause_between_solves(self):
        solver = CDCLSolver(3)
        solver.add_clause([1, 2])
        assert solver.solve() is True
        # the trail still holds the answer; adding a unit clause must
        # backtrack first instead of mis-simplifying against it
        solver.add_clause([-1])
        solver.add_clause([-2, 3])
        assert solver.solve() is True
        model = solver.model()
        assert model[1] is False and model[2] is True and model[3] is True

    def test_unit_against_stale_assignment(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve() is True
        forced = 1 if solver.model()[1] else 2
        # force the opposite of what the previous answer chose
        assert solver.add_clause([-forced]) is True
        assert solver.solve() is True
        assert solver.model()[forced] is False

    def test_learned_clauses_persist_across_assumption_calls(self):
        clauses, num_vars = pigeonhole_clauses(4)
        solver = CDCLSolver(num_vars + 1)
        sel = num_vars + 1
        for clause in clauses:
            solver.add_clause([-sel] + clause)  # guarded group
        assert solver.solve(assumptions=[sel]) is False
        learned_after_first = len(solver.learned_clauses)
        assert solver.solve(assumptions=[sel]) is False
        assert len(solver.learned_clauses) >= learned_after_first
        # deactivated group: trivially satisfiable
        assert solver.solve(assumptions=[-sel]) is True
        assert solver.stats.solve_calls == 3

    def test_max_conflicts_is_per_call(self):
        clauses, num_vars = pigeonhole_clauses(5)
        solver = CDCLSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(max_conflicts=1) is None
        # cumulative accounting would make every later call give up
        # immediately; per-call budgets let a bigger one finish
        assert solver.solve(max_conflicts=200_000) is False

    def test_reduce_learned_keeps_solver_correct(self):
        clauses, num_vars = pigeonhole_clauses(4)
        solver = CDCLSolver(num_vars + 1)
        sel = num_vars + 1
        for clause in clauses:
            solver.add_clause([-sel] + clause)
        assert solver.solve(assumptions=[sel]) is False
        assert len(solver.learned_clauses) > 4
        dropped = solver.reduce_learned(4)
        assert dropped > 0
        # glue clauses (dynamic LBD <= GLUE_LBD) survive the cap
        # unconditionally; everything else must fit inside it
        non_glue = [
            c for c in solver.learned_clauses
            if solver._lbd.get(id(c), 1 << 30) > CDCLSolver.GLUE_LBD
        ]
        assert len(non_glue) <= 4
        assert solver.solve(assumptions=[sel]) is False
        assert solver.solve(assumptions=[-sel]) is True


class TestModelStatus:
    """model() must never hand back a stale or partial assignment."""

    def test_model_before_any_solve_raises(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        with pytest.raises(SatError):
            solver.model()

    def test_model_after_unsat_raises(self):
        solver = CDCLSolver(1)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() is False
        with pytest.raises(SatError):
            solver.model()

    def test_model_after_budget_exhausted_raises(self):
        clauses, num_vars = pigeonhole_clauses(5)
        solver = CDCLSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(max_conflicts=1) is None
        # the trail holds a partial assignment from the aborted call;
        # handing it out as a model would silently mis-decode
        with pytest.raises(SatError):
            solver.model()
        # a later successful call makes the model available again
        solver2 = CDCLSolver(2)
        solver2.add_clause([1, 2])
        assert solver2.solve() is True
        assert solver2.model()

    def test_model_after_deadline_exhausted_raises(self):
        clauses, num_vars = pigeonhole_clauses(6)
        solver = CDCLSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(deadline=time.monotonic() - 1.0) is None
        with pytest.raises(SatError):
            solver.model()

    def test_add_clause_invalidates_model(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve() is True
        assert solver.model()
        solver.add_clause([-1, -2])
        with pytest.raises(SatError):
            solver.model()
        assert solver.solve() is True
        assert solver.model()

    def test_fixed_reads_level0_only(self):
        solver = CDCLSolver(3)
        solver.add_clause([1])
        solver.add_clause([2, 3])
        assert solver.solve() is True
        assert solver.fixed(1) is True
        assert solver.fixed(-1) is False
        # 2/3 were decided, not implied at level 0
        assert solver.fixed(2) is None or solver.fixed(3) is None
        with pytest.raises(SatError):
            solver.fixed(99)
        with pytest.raises(SatError):
            solver.fixed(0)


class TestClausesAddedAccounting:
    """clauses_added bumps exactly once per accepted add_clause call,
    whatever simplification path the clause takes."""

    def test_tautology_and_satisfied_count_uniformly(self):
        solver = CDCLSolver(3)
        assert solver.stats.clauses_added == 0
        solver.add_clause([1])  # unit, immediately propagated
        assert solver.stats.clauses_added == 1
        solver.add_clause([2, -2])  # tautology
        assert solver.stats.clauses_added == 2
        solver.add_clause([1, 2])  # satisfied at level 0
        assert solver.stats.clauses_added == 3
        solver.add_clause([-1, 3])  # shortened at level 0
        assert solver.stats.clauses_added == 4
        solver.add_clause([2, 3])  # stored as-is
        assert solver.stats.clauses_added == 5

    def test_rejected_clauses_do_not_count(self):
        solver = CDCLSolver(2)
        with pytest.raises(SatError):
            solver.add_clause([0])
        with pytest.raises(SatError):
            solver.add_clause([9])
        assert solver.stats.clauses_added == 0
        solver.add_clause([1])
        solver.add_clause([-1])  # contradiction: accepted, solver now unsat
        assert solver.stats.clauses_added == 2
        # once inconsistent, nothing counts (add_clause returns False)
        assert solver.add_clause([2]) is False
        assert solver.add_clause([2, -2]) is False
        assert solver.stats.clauses_added == 2


class TestDeadlinePrecision:
    def test_solve_deadline_overshoot_is_bounded(self):
        # a large, conflict-heavy instance with a tiny budget: the old
        # every-512-outer-iterations poll could overshoot by the length
        # of whatever propagation run straddled the deadline
        clauses, num_vars = pigeonhole_clauses(8)
        solver = CDCLSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        budget = 0.05
        start = time.monotonic()
        outcome = solver.solve(deadline=start + budget)
        elapsed = time.monotonic() - start
        assert outcome is None
        assert elapsed < budget + 0.25, elapsed

    def test_aborted_propagation_resumes_without_skipping(self):
        # regression: the in-propagation deadline poll must leave
        # _queue_head ON the unprocessed literal — level-0 trail
        # entries survive the backtrack, so skipping one would leave
        # its watch lists unprocessed forever in an incremental solver
        n = 3000  # long enough that the poll fires mid-cascade
        solver = CDCLSolver(n)
        clauses = []
        for v in range(1, n):
            solver.add_clause([-v, v + 1])
            clauses.append([-v, v + 1])
        # a pending unit (the path learned units take between calls)
        # makes the whole cascade run at level 0 *inside* solve, where
        # the deadline is armed and the poll aborts it partway
        solver._pending_units.append(1)
        clauses.append([1])
        assert solver.solve(deadline=time.monotonic() - 1.0) is None
        # the same solver must finish correctly on the next call
        assert solver.solve() is True
        model = solver.model()
        assert check_model(clauses, model)
        assert all(model[v] for v in range(1, n + 1))

    def test_expired_deadline_returns_immediately(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        start = time.monotonic()
        # already-expired deadline: either instant None or instant True
        # (the formula is trivial); must not hang
        solver.solve(deadline=start - 1.0)
        assert time.monotonic() - start < 0.5


class TestUnsatCore:
    """solve(assumptions) is False must expose a usable core()."""

    def test_core_unavailable_after_sat(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve() is True
        with pytest.raises(SatError):
            solver.core()

    def test_core_unavailable_after_budget_exhaustion(self):
        clauses, num_vars = pigeonhole_clauses(5)
        solver = CDCLSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(max_conflicts=1) is None
        with pytest.raises(SatError):
            solver.core()

    def test_empty_core_when_database_alone_unsat(self):
        solver = CDCLSolver(2)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve(assumptions=[2]) is False
        assert solver.core() == []

    def test_failed_assumption_at_enqueue(self):
        # -1 is refuted by the level-0 database before any propagation
        solver = CDCLSolver(1)
        solver.add_clause([1])
        assert solver.solve(assumptions=[-1]) is False
        assert solver.core() == [-1]

    def test_contradictory_assumption_pair(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[1, -1]) is False
        assert sorted(solver.core()) == [-1, 1]

    def test_assumption_propagation_conflict(self):
        # the early conflict path: 1 and 3 clash through two binary
        # clauses while the assumptions are still being enqueued;
        # the irrelevant assumption 4 must stay out of the core
        solver = CDCLSolver(4)
        solver.add_clause([-1, 2])
        solver.add_clause([-3, -2])
        assert solver.solve(assumptions=[1, 3, 4]) is False
        assert set(solver.core()) == {1, 3}

    def test_deep_conflict_core_isolates_selector(self):
        # pigeonhole clauses guarded by one selector, plus an unused
        # selector: the refutation needs real search, and the final
        # conflict analysis must blame exactly the guarding selector
        clauses, num_vars = pigeonhole_clauses(4)
        solver = CDCLSolver(num_vars + 2)
        sel, unused = num_vars + 1, num_vars + 2
        for clause in clauses:
            solver.add_clause([-sel] + clause)
        assert solver.solve(assumptions=[sel, unused]) is False
        assert solver.core() == [sel]
        # re-assuming exactly the core is still unsat
        assert solver.solve(assumptions=solver.core()) is False

    def test_core_invalidated_by_next_solve(self):
        solver = CDCLSolver(1)
        solver.add_clause([1])
        assert solver.solve(assumptions=[-1]) is False
        assert solver.core() == [-1]
        assert solver.solve() is True
        with pytest.raises(SatError):
            solver.core()


@st.composite
def random_cnf_with_assumptions(draw):
    clauses, num_vars = draw(random_cnf())
    count = draw(st.integers(min_value=0, max_value=num_vars))
    signs = [draw(st.sampled_from([1, -1])) for _ in range(count)]
    assumptions = [v * s for v, s in zip(range(1, count + 1), signs)]
    return clauses, num_vars, assumptions


@given(random_cnf_with_assumptions())
@settings(max_examples=200, deadline=None)
def test_core_is_subset_and_unsat(case):
    """Core ⊆ assumptions, and re-assuming only the core stays unsat."""
    clauses, num_vars, assumptions = case
    solver = CDCLSolver(num_vars)
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    outcome = solver.solve(assumptions=assumptions)
    reference = brute_force_sat(
        clauses + [[a] for a in assumptions], num_vars
    )
    if ok:
        assert (outcome is True) == (reference is not None)
    if outcome is not False:
        return
    core = solver.core()
    assert set(core) <= set(assumptions)
    # the core alone refutes: both by brute force and by a fresh solver
    assert brute_force_sat(clauses + [[c] for c in core], num_vars) is None
    resolver = CDCLSolver(num_vars)
    ok2 = True
    for clause in clauses:
        ok2 = resolver.add_clause(clause) and ok2
    if ok2:
        assert resolver.solve(assumptions=core) is False


class TestLbdRetention:
    """reduce_learned keeps glue (LBD <= 2) clauses unconditionally."""

    def _learned_solver(self):
        clauses, num_vars = pigeonhole_clauses(5)
        solver = CDCLSolver(num_vars + 1)
        sel = num_vars + 1
        for clause in clauses:
            solver.add_clause([-sel] + clause)
        assert solver.solve(assumptions=[sel]) is False
        return solver, sel

    def test_learned_clauses_carry_lbd_and_activity(self):
        solver, _ = self._learned_solver()
        assert solver.learned_clauses
        for clause in solver.learned_clauses:
            assert id(clause) in solver._lbd
            assert solver._lbd[id(clause)] >= 1
            assert id(clause) in solver._cla_act
        assert solver.stats.glue_learned >= 0

    def test_glue_survives_aggressive_reduction(self):
        solver, sel = self._learned_solver()
        glue_before = {
            id(c)
            for c in solver.learned_clauses
            if solver._lbd[id(c)] <= CDCLSolver.GLUE_LBD
        }
        solver.reduce_learned(1)
        alive = {id(c) for c in solver.learned_clauses}
        assert glue_before <= alive, "a glue clause was dropped"
        # metadata of dropped clauses is forgotten, survivors keep theirs
        assert set(solver._lbd) == alive
        assert set(solver._cla_act) == alive
        # the solver still answers correctly afterwards
        assert solver.solve(assumptions=[sel]) is False
        assert solver.solve(assumptions=[-sel]) is True

    def test_reduction_ranks_by_lbd_tier(self):
        solver, _ = self._learned_solver()
        keep = max(len(solver.learned_clauses) // 2, 1)
        lbd = dict(solver._lbd)
        glue_count = sum(
            1 for v in lbd.values() if v <= CDCLSolver.GLUE_LBD
        )
        total = len(solver.learned_clauses)
        dropped = solver.reduce_learned(keep)
        # exactly the non-glue overflow is dropped
        assert dropped == total - max(keep, glue_count)
        assert len(solver.learned_clauses) == max(keep, glue_count)
        kept_ids = {id(c) for c in solver.learned_clauses}
        dropped_lbds = [
            v for cid, v in lbd.items() if cid not in kept_ids
        ]
        # nothing dropped is glue, and no dropped clause sits in a
        # strictly better LBD tier than the worst non-glue survivor
        assert all(v > CDCLSolver.GLUE_LBD for v in dropped_lbds)
        non_glue_kept = [
            lbd[id(c)]
            for c in solver.learned_clauses
            if lbd[id(c)] > CDCLSolver.GLUE_LBD
        ]
        if dropped_lbds and non_glue_kept:
            assert min(dropped_lbds) >= max(non_glue_kept)


class TestSolveCnfIndeterminate:
    """solve_cnf must never collapse a timeout into 'unsat'."""

    def test_budget_exhaustion_raises(self):
        clauses, num_vars = pigeonhole_clauses(5)
        with pytest.raises(SatError):
            solve_cnf(clauses, num_vars, max_conflicts=1)

    def test_expired_deadline_raises_or_answers(self):
        clauses, num_vars = pigeonhole_clauses(6)
        with pytest.raises(SatError):
            solve_cnf(
                clauses, num_vars, deadline=time.monotonic() - 1.0
            )

    def test_unsat_still_returns_none(self):
        assert solve_cnf([[1], [-1]], 1) is None
        assert solve_cnf([[1], [-1]], 1, max_conflicts=10_000) is None


# ----------------------------------------------------------------------
# equivalence with brute force on random small CNFs
# ----------------------------------------------------------------------
@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    num_clauses = draw(st.integers(min_value=1, max_value=14))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(clause)
    return clauses, num_vars


@given(random_cnf())
@settings(max_examples=300, deadline=None)
def test_cdcl_agrees_with_brute_force(case):
    clauses, num_vars = case
    reference = brute_force_sat(clauses, num_vars)
    model = solve_cnf(clauses, num_vars)
    if reference is None:
        assert model is None
    else:
        assert model is not None
        assert check_model(clauses, model)


@given(random_cnf())
@settings(max_examples=100, deadline=None)
def test_incremental_addition_matches_batch(case):
    clauses, num_vars = case
    solver = CDCLSolver(num_vars)
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    outcome = solver.solve() if ok else False
    assert outcome == (brute_force_sat(clauses, num_vars) is not None)


# ----------------------------------------------------------------------
# add_clause's one pass against the two-pass algorithm it replaced
# ----------------------------------------------------------------------
def reference_add(solver, literals):
    """The outcome the two-pass ``add_clause`` would give, read from the
    solver before the call: dedupe and tautology check first, then the
    level-0 facts through the public ``fixed()``.  Returns
    ``(result, counted, ok_after, stored, unit)``: ``stored`` is the
    clause the database gains (or None), ``unit`` the literal a unit
    clause enqueues (its result depends on propagation)."""
    if not solver._ok:
        return False, 0, False, None, None
    seen, clause, tautology = set(), [], False
    for lit in literals:
        if -lit in seen:
            tautology = True
        if lit in seen:
            continue
        seen.add(lit)
        clause.append(lit)
    if tautology:
        return True, 1, True, None, None
    if any(solver.fixed(lit) is True for lit in clause):
        return True, 1, True, None, None
    clause = [lit for lit in clause if solver.fixed(lit) is not False]
    if not clause:
        return False, 1, False, None, None
    if len(clause) == 1:
        return None, 1, None, None, clause[0]
    return True, 1, True, clause, None


@st.composite
def add_solve_history(draw):
    """Adds mixed with budgeted solves under random assumptions, so many
    adds arrive while the last answer's decision levels are still on
    the trail.  A few adds carry a malformed literal."""
    num_vars = draw(st.integers(min_value=1, max_value=6))
    lit = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    add = st.tuples(
        st.just("add"),
        st.lists(lit, min_size=0, max_size=5),
        st.sampled_from([None] * 6 + [0, num_vars + 1, -(num_vars + 2)]),
    )
    solve = st.tuples(
        st.just("solve"),
        st.lists(lit, max_size=3, unique_by=abs),
        st.sampled_from([0, 1, 3, None]),
    )
    steps = draw(st.lists(st.one_of(add, add, solve), max_size=25))
    return num_vars, steps


@given(add_solve_history())
@settings(max_examples=300, deadline=None)
def test_one_pass_add_clause_matches_two_pass_reference(case):
    num_vars, steps = case
    solver = CDCLSolver(num_vars)
    for kind, lits, extra in steps:
        if kind == "solve":
            solver.solve(lits, max_conflicts=extra)
            continue
        added = solver.stats.clauses_added
        stored = len(solver.clauses)
        if extra is not None:
            # a malformed literal anywhere: rejected, nothing changes
            bad = lits[: len(lits) // 2] + [extra] + lits[len(lits) // 2 :]
            state = (
                list(solver._trail), list(solver._trail_lim),
                solver._model_ready, solver._ok,
            )
            with pytest.raises(SatError):
                solver.add_clause(bad)
            assert state == (
                solver._trail, solver._trail_lim,
                solver._model_ready, solver._ok,
            )
            assert solver.stats.clauses_added == added
            assert len(solver.clauses) == stored
            continue
        result, counted, ok_after, kept, unit = reference_add(solver, lits)
        got = solver.add_clause(lits)
        assert solver.stats.clauses_added == added + counted
        if unit is not None:
            assert got is solver._ok
            assert solver.clauses[stored:] == []
            if got:
                assert solver.fixed(unit) is True
            continue
        assert got is result
        assert solver._ok is ok_after
        assert solver.clauses[stored:] == ([kept] if kept else [])


# ----------------------------------------------------------------------
# the unsat-core-guided sweep end to end: verdicts must be those of the
# policy-free reference sweep across the example suite
# ----------------------------------------------------------------------
def test_guided_sweep_matches_reference_on_examples():
    from repro.chc.transform import preprocess
    from repro.mace.finder import find_model
    from repro.problems import ALL_PAPER_SYSTEMS, odd_unsat_system
    from test_mace import reference_sweep

    cases = dict(ALL_PAPER_SYSTEMS, odd_unsat=odd_unsat_system)
    for name, factory in cases.items():
        prepared = preprocess(factory())
        guided = find_model(prepared, max_total_size=5)
        reference = reference_sweep(prepared, 5)
        assert guided.found == reference.found, name
        assert guided.stats.model_size == reference.model_size, name
        assert guided.complete == reference.complete, name
        # the guidance only ever *prunes* proven-unsat vectors
        assert (
            guided.stats.attempts + guided.stats.vectors_skipped
            == reference.attempts
        ), name


def test_guided_sweep_skips_on_multi_sort_problems():
    from repro.chc.transform import preprocess
    from repro.mace.finder import find_model
    from repro.stlc import stlc_problems
    from test_mace import reference_sweep

    problems = stlc_problems()
    non_tautology = next(p for p in problems if p.category == "non-tautology")
    # multi-sort with universal blocks: 10 attempted + 5 skipped of 15
    peirce = next(p for p in problems if p.name == "peirce")
    for problem, max_total in ((non_tautology, 7), (peirce, 6)):
        prepared = preprocess(problem.system())
        guided = find_model(prepared, max_total_size=max_total)
        reference = reference_sweep(prepared, max_total)
        assert guided.found == reference.found, problem.name
        assert guided.stats.model_size == reference.model_size
        assert guided.complete == reference.complete, problem.name
        assert guided.stats.vectors_skipped > 0, problem.name
        assert guided.stats.cores_extracted > 0, problem.name
        assert (
            guided.stats.attempts + guided.stats.vectors_skipped
            == reference.attempts
        ), problem.name


# ----------------------------------------------------------------------
# pickling: an unpickled solver is an exact copy, which continues every
# search exactly as the original does
# ----------------------------------------------------------------------
def _copy(solver: CDCLSolver) -> CDCLSolver:
    return pickle.loads(pickle.dumps(solver, pickle.HIGHEST_PROTOCOL))


@st.composite
def random_incremental_history(draw):
    """A CNF split into a prefix (solved before the copy) and a suffix
    (added after), plus assumptions to probe both solvers with."""
    clauses, num_vars = draw(random_cnf())
    split = draw(st.integers(min_value=0, max_value=len(clauses)))
    assumptions = draw(
        st.lists(
            st.integers(min_value=1, max_value=num_vars).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            max_size=3,
            unique_by=abs,
        )
    )
    return clauses, num_vars, split, assumptions


class TestSnapshotRestore:
    @given(random_incremental_history())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_preserves_semantics(self, case):
        clauses, num_vars, split, assumptions = case
        original = CDCLSolver(num_vars)
        ok = True
        for clause in clauses[:split]:
            ok = original.add_clause(clause) and ok
        if ok:
            original.solve()  # accumulate learned clauses / phases
        restored = _copy(original)
        # every level-0 fact survives the round trip
        if original._ok:
            for var in range(1, num_vars + 1):
                if original.fixed(var) is not None:
                    assert restored.fixed(var) == original.fixed(var)

        # identical continuations must produce identical verdicts
        for solver in (original, restored):
            solver_ok = solver._ok
            for clause in clauses[split:]:
                solver_ok = solver.add_clause(clause) and solver_ok
        verdict_a = original.solve(assumptions) if original._ok else False
        verdict_b = restored.solve(assumptions) if restored._ok else False
        assert verdict_a == verdict_b
        assert verdict_b == (
            brute_force_sat(
                clauses + [[l] for l in assumptions], num_vars
            )
            is not None
        )
        # the copy is exact: the continuation did the same work, left
        # the same trail and learned the same clauses
        assert restored.stats == original.stats
        assert restored._trail == original._trail
        assert restored.learned_clauses == original.learned_clauses
        # and every level-0 fact it holds is entailed by the clauses
        # (meaningless once the database is contradictory)
        if restored._ok:
            for var in range(1, num_vars + 1):
                value = restored.fixed(var)
                if value is not None:
                    negated = [-var] if value else [var]
                    assert (
                        brute_force_sat(clauses + [negated], num_vars)
                        is None
                    )

    @given(random_cnf())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_accounting(self, case):
        clauses, num_vars = case
        original = CDCLSolver(num_vars)
        ok = True
        for clause in clauses:
            ok = original.add_clause(clause) and ok
        if ok:
            original.solve()
        restored = _copy(original)
        assert restored.num_vars == original.num_vars
        assert restored.stats.clauses_added == original.stats.clauses_added
        assert restored.learned_count() == original.learned_count()
        assert restored.clauses == original.clauses
        assert restored.learned_clauses == original.learned_clauses

        def metadata(solver):
            return [
                (solver._lbd.get(id(c)), solver._cla_act.get(id(c)))
                for c in solver.learned_clauses
            ]

        # LBD and activity are keyed by clause identity, which the copy
        # must re-key rather than lose
        assert metadata(restored) == metadata(original)

    @pytest.mark.parametrize("seed", range(10))
    def test_copy_continues_exactly(self, seed):
        """A copy taken mid-search, where LBD updates and activity bumps
        steer what comes next, continues exactly like the original."""
        rng = random.Random(seed)
        num_vars = 60
        clauses = [
            [rng.choice((1, -1)) * v for v in rng.sample(range(1, 61), 3)]
            for _ in range(258)
        ]
        original = CDCLSolver(num_vars)
        for clause in clauses[:200]:
            original.add_clause(clause)
        original.solve(max_conflicts=300)
        restored = _copy(original)
        verdicts = []
        for solver in (original, restored):
            for clause in clauses[200:]:
                solver.add_clause(clause)
            verdicts.append(solver.solve(max_conflicts=3000))
        assert verdicts[0] == verdicts[1]
        assert restored.stats == original.stats
        assert restored._trail == original._trail
        assert restored.learned_clauses == original.learned_clauses

    def test_restored_solver_remains_incremental(self):
        solver = CDCLSolver(3)
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        assert solver.solve()
        restored = _copy(solver)
        assert restored.solve([-2])  # forces 1, then 3
        assert restored.add_clause([-3])
        assert not restored.solve([-2])
        assert restored.solve()

    @given(random_cnf_with_assumptions())
    @settings(max_examples=60, deadline=None)
    def test_restored_solver_cores_remain_usable(self, case):
        clauses, num_vars, assumptions = case
        original = CDCLSolver(num_vars)
        ok = True
        for clause in clauses:
            ok = original.add_clause(clause) and ok
        if not ok:
            return  # nothing to copy meaningfully
        original.solve()
        if not original._ok:
            return
        restored = _copy(original)
        if restored.solve(assumptions) is not False:
            return
        core = restored.core()
        # a core is a subset of the assumptions that is still unsat
        assert set(core) <= set(assumptions)
        assert restored.solve(core) is False


# ----------------------------------------------------------------------
# the search itself, pinned: a seeded incremental drive digests every
# answer, core, model and counter, the trail and every clause's literal
# order.  How the solver lays out its arrays may change; this may not.
# ----------------------------------------------------------------------
def _random_clauses(rng, first_var, last_var, count, width):
    variables = range(first_var, last_var + 1)
    return [
        [rng.choice((1, -1)) * v for v in rng.sample(variables, width)]
        for _ in range(count)
    ]


def search_digest(seed, num_vars, ratio, width):
    """Drive a solver through a seeded incremental history and digest
    everything its search produced.

    The history adds half the clauses, then solves under random
    assumptions with the rest added in between; one ``reduce_learned``;
    new variables with clauses over old and new ones; two level-0 units
    and one ``simplify``; then a pickle round trip, and the copy carries
    on.
    """
    rng = random.Random(seed)
    count = round(ratio * num_vars)
    clauses = _random_clauses(rng, 1, num_vars, count, width)
    solver = CDCLSolver(num_vars)
    digest = hashlib.sha256()

    def record(*items):
        digest.update(repr(items).encode())

    def add(batch):
        record("add", [solver.add_clause(c) for c in batch])

    def solve(count, budget):
        variables = rng.sample(range(1, solver.num_vars + 1), count)
        assumptions = [rng.choice((1, -1)) * v for v in variables]
        answer = solver.solve(assumptions, max_conflicts=budget)
        record("solve", assumptions, answer)
        if answer is True:
            record(sorted(solver.model().items()))
        elif answer is False:
            record(solver.core())
        record(
            dataclasses.astuple(solver.stats),
            solver._trail,
            solver.clauses,
            solver.learned_clauses,
        )

    half = len(clauses) // 2
    add(clauses[:half])
    solve(0, 400)
    step = max((len(clauses) - half) // 3, 1)
    for start in range(half, len(clauses), step):
        solve(3, 150)
        add(clauses[start : start + step])
    solve(2, 400)
    record("reduce", solver.reduce_learned(solver.learned_count() // 2))
    solve(3, 200)
    old = solver.num_vars
    new = solver.new_vars(old // 2 + 3)
    mixed = [
        [
            rng.choice((1, -1)) * v
            for v in rng.sample(range(1, old + 1), width - 1)
        ]
        + [rng.choice((1, -1)) * rng.choice(new)]
        for _ in range(2 * len(new))
    ]
    add(mixed + _random_clauses(rng, old + 1, new[-1], len(new), 3))
    solve(4, 200)
    add([[new[0]], [-new[1]]])
    record("simplify", solver.simplify())
    solve(3, 200)
    solver = pickle.loads(pickle.dumps(solver, pickle.HIGHEST_PROTOCOL))
    add(_random_clauses(rng, 1, solver.num_vars, len(new), width))
    solve(3, 300)
    solve(0, 600)
    return digest.hexdigest()[:16]


#: case -> (seed, variables, clauses per variable, clause width, digest)
PINNED_SEARCHES = {
    "3sat-a": (1, 150, 4.26, 3, "0f17ebbea9bf74bc"),
    "3sat-b": (2, 150, 4.26, 3, "0b8b8f8060c6478f"),
    "3sat-over": (3, 120, 4.6, 3, "7cb11857532cf217"),
    "long-clauses": (4, 24, 40.0, 6, "0c026567e1c53423"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_search_is_pinned(name):
    """The CDCL search does exactly the pinned work: the same answers,
    cores, models, counters, trail, learned clauses and literal order in
    every clause, through assumptions, clauses and variables added
    between calls, ``reduce_learned``, ``simplify`` and a pickle copy."""
    seed, num_vars, ratio, width, expected = PINNED_SEARCHES[name]
    assert search_digest(seed, num_vars, ratio, width) == expected


# ----------------------------------------------------------------------
# the literal-indexed layout's edge: variables that arrive past the
# arrays' capacity after clauses, learned clauses and level-0 facts
# ----------------------------------------------------------------------
def _capacity(solver):
    return len(solver._val) >> 1


def _before_growth(solver):
    """PHP(4, 3) behind selector 13, a unit on variable 14 and a solve
    under the selector: clauses, learned clauses and a level-0 fact."""
    clauses, _ = pigeonhole_clauses(3)
    for clause in clauses:
        solver.add_clause([-13] + clause)
    solver.add_clause([14])
    assert solver.solve([13]) is False


def _grow_and_solve(solver, seed):
    """Add variables in three batches, each with clauses over old and
    new ones and a solve under random assumptions.  Returns, per batch,
    its clauses, the assumptions and the answer with its model or
    core."""
    rng = random.Random(seed)
    history = []
    for count in (3, 9, 20):
        new = solver.new_vars(count)
        batch = []
        for _ in range(3 * count):
            lits = [rng.choice(new)] + rng.sample(range(1, new[0]), 2)
            batch.append([rng.choice((1, -1)) * v for v in lits])
        for clause in batch:
            solver.add_clause(clause)
        variables = rng.sample(range(1, solver.num_vars + 1), 4)
        assumptions = [rng.choice((1, -1)) * v for v in variables]
        answer = solver.solve(assumptions)
        if answer is True:
            found = solver.model()
        else:
            found = solver.core() if answer is False else None
        history.append((batch, assumptions, answer, found))
    return history


class TestLiteralLayout:
    @pytest.mark.parametrize("seed", range(8))
    def test_growth_past_capacity_changes_nothing(self, seed):
        """A solver whose arrays grow past their capacity mid-life gives
        the answers, cores and models of one with room for every
        variable from the start, by the same search; and its answers are
        those of a solver that had every variable from the start."""
        grown, roomy = CDCLSolver(14), CDCLSolver(14)
        while _capacity(roomy) < 64:
            roomy._grow()
        for solver in (grown, roomy):
            _before_growth(solver)
        assert grown.learned_count() > 0 and grown.fixed(14) is True
        capacity = _capacity(grown)
        history = _grow_and_solve(grown, seed)
        assert _capacity(grown) > capacity
        assert _grow_and_solve(roomy, seed) == history
        assert _capacity(roomy) == 64
        assert grown.stats == roomy.stats
        assert grown._trail == roomy._trail
        assert grown.clauses == roomy.clauses
        assert grown.learned_clauses == roomy.learned_clauses
        # the same clauses and assumptions, on a solver that had every
        # variable at once: the same answers, and the grown solver's
        # models and cores hold there
        clauses, _ = pigeonhole_clauses(3)
        database = [[-13] + c for c in clauses] + [[14]]
        full = CDCLSolver(grown.num_vars)
        for clause in database:
            full.add_clause(clause)
        for batch, assumptions, answer, found in history:
            database += batch
            for clause in batch:
                full.add_clause(clause)
            assert full.solve(assumptions) is answer
            if answer is True:
                units = [[a] for a in assumptions]
                assert check_model(database + units, found)
            elif answer is False:
                assert set(found) <= set(assumptions)
                assert full.solve(found) is False

    @pytest.mark.parametrize("seed", range(4))
    def test_copy_before_growth_continues_exactly(self, seed):
        """A pickle taken before the arrays grow continues, through the
        growth, exactly like the original."""
        original = CDCLSolver(14)
        _before_growth(original)
        restored = _copy(original)
        history = _grow_and_solve(original, seed)
        assert _grow_and_solve(restored, seed) == history
        assert restored.stats == original.stats
        assert restored._trail == original._trail
        assert restored.learned_clauses == original.learned_clauses
