"""Tests for the finite model finder and finite structures (Sec. 4.1/4.2)."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.from_model import (
    automata_to_model,
    herbrand_relation_member,
    model_to_automaton,
)
from repro.benchgen.builders import nat_mod_system
from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.transform import preprocess
from repro.logic.adt import NAT, S, Z, nat, nat_system
from repro.logic.formulas import TRUE
from repro.logic.sorts import PredSymbol, Sort
from repro.logic.terms import App, Var
from repro.mace.finder import (
    FinderOptions,
    FinderStats,
    ModelFinder,
    _add_stair,
    _box_minus,
    _IncrementalEngine,
    find_model,
    flatten_clause,
    size_vectors,
)
from repro.mace.model import FiniteModel, ModelError, validate_model
from repro.mace.pool import EnginePool
from repro.obs import runtime as obs_runtime
from repro.problems import (
    diseq_zz_system,
    even_system,
    evenleft_system,
    incdec_system,
    odd_unsat_system,
    z_neq_sz_system,
)
from repro.sat.solver import SatStats

NATS = nat_system()
EVEN = PredSymbol("even", (NAT,))
X = Var("x", NAT)


def paper_even_model() -> FiniteModel:
    """The Sec. 4.1 model: |M| = {0,1}, Z=0, S(x)=1-x, even={0}."""
    return FiniteModel(
        {NAT: 2},
        {Z: {(): 0}, S: {(0,): 1, (1,): 0}},
        {EVEN: {(0,)}},
    )


class TestFiniteModel:
    def test_eval_term(self):
        model = paper_even_model()
        assert model.eval_term(nat(0)) == 0
        assert model.eval_term(nat(1)) == 1
        assert model.eval_term(nat(4)) == 0

    def test_eval_term_with_env(self):
        model = paper_even_model()
        assert model.eval_term(App(S, (X,)), {X: 0}) == 1

    def test_unbound_variable_rejected(self):
        with pytest.raises(ModelError):
            paper_even_model().eval_term(X)

    def test_holds(self):
        model = paper_even_model()
        assert model.holds(EVEN, (0,))
        assert not model.holds(EVEN, (1,))

    def test_satisfies_preprocessed_even(self):
        prepared = preprocess(even_system())
        model = paper_even_model()
        # add empty diseq interpretations if any predicate is missing
        for pred in prepared.predicates.values():
            model.predicates.setdefault(pred, set())
        # Even has no diseq predicates: direct check
        assert model.satisfies(prepared)
        assert model.satisfies(prepared, herbrand=True)

    def test_violation_reported(self):
        prepared = preprocess(even_system())
        broken = paper_even_model()
        broken.predicates[EVEN] = {(0,), (1,)}
        for pred in prepared.predicates.values():
            broken.predicates.setdefault(pred, set())
        violation = broken.first_violation(prepared)
        assert violation is not None
        clause, env = violation
        assert clause.is_query

    def test_reachable_elements(self):
        model = paper_even_model()
        assert model.reachable_elements(NATS)[NAT] == {0, 1}
        # junk element: unreachable
        bigger = FiniteModel(
            {NAT: 3},
            {Z: {(): 0}, S: {(0,): 1, (1,): 0, (2,): 2}},
            {EVEN: {(0,)}},
        )
        assert bigger.reachable_elements(NATS)[NAT] == {0, 1}

    def test_validate_model_detects_partial_table(self):
        broken = FiniteModel(
            {NAT: 2}, {Z: {(): 0}, S: {(0,): 1}}, {EVEN: set()}
        )
        with pytest.raises(ModelError):
            validate_model(broken)

    def test_validate_model_detects_out_of_domain(self):
        broken = paper_even_model()
        broken.predicates[EVEN] = {(7,)}
        with pytest.raises(ModelError):
            validate_model(broken)

    def test_describe_is_readable(self):
        text = paper_even_model().describe()
        assert "M(even)" in text
        assert "|M|_Nat" in text


class TestFlattening:
    def test_flatten_introduces_definitions(self):
        system = preprocess(even_system())
        counter = itertools.count()
        flat = flatten_clause(system.clauses[1], counter)
        # head even(S(S(x))) flattens into two S-definitions
        assert len(flat.defs) == 2
        assert flat.head is not None

    def test_shared_subterms_share_variables(self):
        p = PredSymbol("p", (NAT, NAT))
        system = CHCSystem(nat_system())
        t = App(S, (App(Z),))
        system.add(Clause(TRUE, (), BodyAtom(p, (t, t))))
        flat = flatten_clause(system.clauses[0], itertools.count())
        assert flat.head.vars[0] == flat.head.vars[1]

    def test_constraint_clause_rejected(self):
        from repro.logic.formulas import Eq
        from repro.mace.finder import FinderError

        system = CHCSystem(nat_system())
        system.add(Clause(Eq(X, App(Z)), (), BodyAtom(EVEN, (X,))))
        with pytest.raises(FinderError):
            flatten_clause(system.clauses[0], itertools.count())


class TestSizeVectors:
    def test_single_sort(self):
        vectors = list(size_vectors([NAT], 3))
        assert [v[NAT] for v in vectors] == [1, 2, 3]

    def test_total_ordering(self):
        a, b = Sort("A"), Sort("B")
        vectors = list(size_vectors([a, b], 3))
        totals = [v[a] + v[b] for v in vectors]
        assert totals == sorted(totals)
        assert (1, 1) == (vectors[0][a], vectors[0][b])

    def test_min_total(self):
        vectors = list(size_vectors([NAT], 5, min_total=3))
        assert [v[NAT] for v in vectors] == [3, 4, 5]


class TestFinder:
    def test_even_finds_paper_model(self):
        prepared = preprocess(even_system())
        result = find_model(prepared)
        assert result.found
        model = result.model
        assert model.size() == 2
        # it must satisfy the clauses and alternate parity
        assert model.satisfies(prepared)
        z_val = model.eval_term(nat(0))
        assert model.holds(EVEN, (z_val,))
        assert not model.holds(EVEN, (model.eval_term(nat(1)),))

    def test_unsat_euf_side_has_no_model(self):
        # P(Z); P(x) -> P(S(x)); P(x) -> false  — no model of any size
        p = PredSymbol("p", (NAT,))
        system = CHCSystem(nat_system())
        x = Var("x", NAT)
        system.add(Clause(TRUE, (), BodyAtom(p, (App(Z),))))
        system.add(
            Clause(TRUE, (BodyAtom(p, (x,)),), BodyAtom(p, (App(S, (x,)),)))
        )
        system.add(Clause(TRUE, (BodyAtom(p, (x,)),), None))
        result = find_model(system, max_total_size=4)
        assert not result.found

    def test_symmetry_breaking_preserves_satisfiability(self):
        prepared = preprocess(even_system())
        with_sb = find_model(prepared, symmetry_breaking=True)
        without_sb = find_model(prepared, symmetry_breaking=False)
        assert with_sb.found and without_sb.found
        assert with_sb.model.size() == without_sb.model.size()

    def test_found_models_are_valid(self):
        prepared = preprocess(even_system())
        result = find_model(prepared)
        validate_model(result.model)

    def test_min_total_size_skips_small_models(self):
        prepared = preprocess(even_system())
        result = find_model(prepared, min_total_size=3)
        assert result.found
        assert result.model.size() >= 3
        assert result.model.satisfies(prepared)

    def test_timeout_returns_gracefully(self):
        from repro.problems import diag_system

        prepared = preprocess(diag_system())
        result = find_model(prepared, timeout=0.3, max_total_size=12)
        assert not result.found


Reference = collections.namedtuple(
    "Reference", "found model_size complete attempts clauses_encoded"
)


def reference_sweep(system, max_total_size):
    """The sweep with no search policy, as the reference the one sweep
    must agree with: every ``size_vectors`` vector in order, each on a
    fresh engine, up to the first model — no carried clauses, no
    cores.  ``complete`` is False once any vector ran out of budget."""
    options = FinderOptions(max_total_size=max_total_size)
    finder = ModelFinder(system, options)
    attempts = encoded = 0
    complete = True
    for sizes in size_vectors(finder.sorts, max_total_size):
        engine = _IncrementalEngine(
            finder.sorts, finder.functions, finder.predicates, options
        )
        ctx = engine.register(finder.flat_clauses)
        outcome = engine.try_vector(ctx, sizes, FinderStats(), options)
        attempts += 1
        encoded += engine.solver.stats.clauses_added
        if outcome.model is not None:
            return Reference(
                True, outcome.model.size(), True, attempts, encoded
            )
        complete = complete and outcome.refuted
    return Reference(False, None, complete, attempts, encoded)


SEED_SUITES = {
    "even": even_system,
    "incdec": incdec_system,
    "evenleft": evenleft_system,
    "diseq_zz": diseq_zz_system,
}
_PREPARED = {
    name: preprocess(factory()) for name, factory in SEED_SUITES.items()
}


class TestIncrementalEngine:
    """The shared-state engine must be a pure optimization."""

    @given(
        st.sampled_from(sorted(_PREPARED)),
        st.integers(min_value=4, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_incremental_matches_scratch_on_seed_suites(
        self, name, max_total
    ):
        prepared = _PREPARED[name]
        inc = find_model(prepared, max_total_size=max_total)
        ref = reference_sweep(prepared, max_total)
        assert inc.found and ref.found
        assert inc.model.size() == ref.model_size
        assert inc.model.satisfies(prepared)

    def test_unsat_verdicts_agree(self):
        prepared = preprocess(odd_unsat_system())
        inc = find_model(prepared, max_total_size=5)
        ref = reference_sweep(prepared, 5)
        assert not inc.found and not ref.found

    def test_incremental_reuses_solver_state(self):
        prepared = _PREPARED["incdec"]
        inc = find_model(prepared)
        ref = reference_sweep(prepared, FinderOptions().max_total_size)
        # the whole point: carried clauses, strictly less re-encoding
        assert inc.stats.clauses_reused > 0
        assert inc.stats.clauses_encoded < ref.clauses_encoded

    def test_search_resume_keeps_engine_state(self):
        # resuming at a larger minimum size (the Herbrand-retry path)
        # reuses the encoding instead of starting over
        finder = ModelFinder(_PREPARED["incdec"])
        first = finder.search()
        assert first.found
        resumed = finder.search(
            min_total_size=first.model.size() + 1, deadline=None
        )
        assert resumed.found
        assert resumed.model.size() > first.model.size()
        assert resumed.stats.clauses_reused > 0
        assert resumed.model.satisfies(_PREPARED["incdec"])

    def test_inconsistent_database_raises(self):
        # the engine has no reset: a database the solver reports
        # inconsistent is a broken encoder, never a verdict
        from repro.mace.finder import FinderError

        finder = ModelFinder(_PREPARED["even"])
        engine = _IncrementalEngine(
            finder.sorts, finder.functions, finder.predicates
        )
        ctx = engine.register(finder.flat_clauses)
        engine.solver.add_clause = lambda literals: False
        with pytest.raises(FinderError, match="level-0 contradiction"):
            engine.try_vector(
                ctx, {finder.sorts[0]: 1}, FinderStats(), FinderOptions()
            )

    def test_empty_unsat_core_raises(self):
        from repro.mace.finder import FinderError

        finder = ModelFinder(preprocess(odd_unsat_system()))
        engine = _IncrementalEngine(
            finder.sorts, finder.functions, finder.predicates
        )
        ctx = engine.register(finder.flat_clauses)
        engine.solver.core = lambda: []
        with pytest.raises(FinderError, match="empty unsat core"):
            engine.try_vector(
                ctx, {finder.sorts[0]: 1}, FinderStats(), FinderOptions()
            )

    def test_finder_stats_as_dict_roundtrip(self):
        result = find_model(_PREPARED["even"])
        stats = result.stats.as_dict()
        assert stats["model_size"] == result.model.size()
        assert stats["clauses_encoded"] > 0
        assert stats["vectors_refuted"] >= 0
        assert "vectors_skipped" in stats


def _stlc_problem(name):
    from repro.stlc import stlc_problems

    return next(p for p in stlc_problems() if p.name == name)


def _stlc_system(name):
    problem = _stlc_problem(name)
    assert problem.category == "classical-only"
    return problem.system()


def _tip_system(name):
    from repro.benchgen import tip_suite

    return next(p for p in tip_suite() if p.name == name).build()


#: name -> (system factory, max_total_size, sha256 of the ground clause
#: stream).  Together the cases ground nullary, unary and n-ary
#: definitions, plain body atoms, heads, and universal blocks with outer
#: variables.  A change that alters the encoding on purpose (e.g.
#: clause splitting) updates these digests and says so.
PINNED_STREAMS = {
    "even": (
        even_system, 12,
        "687c10fd345aeb1b47c91087c0492a6bf08d1bb439d6da3b0a02a5b3cdb21b20",
    ),
    "incdec": (
        incdec_system, 12,
        "c8deab032017a1c3dffcf960575d4452814b848a4a9b8626b6faf635b656dd60",
    ),
    "peirce": (
        lambda: _stlc_system("peirce"), 6,
        "68fa520500b153bc35592e0d66f557837c9da20f8e8f5f959098b7dae19f1866",
    ),
    "peirce-swap": (
        lambda: _stlc_system("peirce-swap"), 6,
        "516b2144107fe76ffa74a446b9000f9796ce28a51ac230fa48ffb0cbb3322b01",
    ),
    "peirce-inst": (
        lambda: _stlc_system("peirce-inst"), 6,
        "2b148a7bb42dbcf578da7b9c2e564ecea436fa887cbd2432e4d37154c67c8b95",
    ),
    "tip-mirror-g6": (
        lambda: _tip_system("tip-mirror-g6"), 2,
        "7e9c457b7a8d5046a8e9eb432f6b7ba546610f677feca399bf80afa749c6d1dc",
    ),
    "tip-rev-g6": (
        lambda: _tip_system("tip-rev-g6"), 2,
        "ec5e3c145da82a37d084aa14a2a604295f9b69fb3549f57bfe94469137e813e8",
    ),
}


def _stream_digest(solver) -> str:
    """sha256 of the solver's clause list (in order), its level-0 trail,
    clauses_added and the learned-clause count."""
    level0 = (
        solver._trail_lim[0] if solver._trail_lim else len(solver._trail)
    )
    state = (
        solver.clauses,
        solver._trail[:level0],
        solver.stats.clauses_added,
        solver.stats.learned,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_ground_clause_stream_is_pinned(name):
    """The encoder emits exactly the pinned clauses, in the pinned order
    and with the pinned literal order: the watched pair, and so the
    whole CDCL search, depends on it.  The digest covers the engine
    solver's clause list (in order), its level-0 trail, clauses_added
    and the learned-clause count after a full search."""
    factory, max_total, expected = PINNED_STREAMS[name]
    finder = ModelFinder(
        preprocess(factory()), FinderOptions(max_total_size=max_total)
    )
    finder.search()
    assert _stream_digest(finder._engine.solver) == expected


def _pooled_stlc():
    """peirce, peirce-swap, then peirce again on one EnginePool, each
    released before the next: cross-problem clauses, then the
    problem-facts memo (the revisit inherits every refutation bound)."""
    pool = EnginePool()
    options = FinderOptions(max_total_size=6)
    results = []
    for name in ("peirce", "peirce-swap", "peirce"):
        finder = pool.finder(preprocess(_stlc_system(name)), options)
        results.append(finder.search())
        pool.release(finder)
    return results, finder._engine.solver


def _resumed_incdec():
    """A second search on the same finder from the next total size, as
    the Herbrand retry resumes it."""
    finder = ModelFinder(preprocess(incdec_system()))
    first = finder.search()
    resumed = finder.search(min_total_size=first.model.size() + 1)
    return [first, resumed], finder._engine.solver


def _resumed_hopeless():
    """A second search on a context already known to be hopeless: it
    returns before any attempt."""
    finder = ModelFinder(preprocess(z_neq_sz_system()))
    results = [finder.search(), finder.search()]
    assert all(r.stats.hopeless for r in results)
    return results, finder._engine.solver


#: the FinderStats work fields a sweep pin covers, after found,
#: complete and model_size
SWEEP_WORK = (
    "attempts",
    "vectors_refuted",
    "vectors_skipped",
    "vectors_exhausted",
    "cores_extracted",
    "clauses_encoded",
    "clauses_reused",
    "learned_total",
    "cross_problem_clauses",
)

#: name -> one row per search: (found, complete, model_size, *SWEEP_WORK)
#: — which vectors the sweep attempted and skipped and what that cost.
#: The cases crossing a finder's lifetime (pooled, resumed) also pin
#: the final clause-stream digest.
PINNED_SWEEPS = {
    "even": [(True, True, 2, 2, 1, 0, 0, 1, 29, 7, 0, 0)],
    "incdec": [(True, True, 3, 3, 2, 0, 0, 2, 224, 68, 1, 0)],
    "peirce": [
        (False, True, None, 10, 10, 5, 0, 10, 2691, 13519, 205, 0)
    ],
    "peirce-inst": [
        (False, True, None, 10, 10, 5, 0, 10, 3241, 16237, 311, 0)
    ],
    "peirce-swap": [
        (False, True, None, 10, 10, 5, 0, 10, 2691, 13519, 258, 0)
    ],
    "tip-mirror-g6": [
        (False, True, None, 2, 2, 0, 0, 2, 258, 11, 3, 0)
    ],
    "tip-rev-g6": [(False, True, None, 1, 1, 0, 0, 1, 18, 0, 0, 0)],
    "pooled-stlc": [
        (False, True, None, 10, 10, 5, 0, 10, 2691, 13519, 205, 0),
        (False, True, None, 10, 10, 5, 0, 10, 335, 28568, 231, 2691),
        (False, True, None, 0, 0, 15, 0, 0, 0, 0, 0, 3026),
    ],
    "resumed-incdec": [
        (True, True, 3, 3, 2, 0, 0, 2, 224, 68, 1, 0),
        (True, True, 4, 1, 0, 0, 0, 0, 403, 224, 0, 0),
    ],
    "resumed-hopeless": [
        (False, True, None, 1, 1, 0, 0, 1, 5, 0, 0, 0),
        (False, True, None, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ],
}
SWEEP_DIGESTS = {
    "pooled-stlc": (
        _pooled_stlc,
        "a2af4939b23f4bcbce55e10776c252d404d1b8013b5bcace256e48970faac343",
    ),
    "resumed-incdec": (
        _resumed_incdec,
        "ec40e6fd02bd6e9ad210285276385c8e30267fd5ed26a113290401122b4433fa",
    ),
    "resumed-hopeless": (
        _resumed_hopeless,
        "8fcf6daecfc288dcc89fbfb9ef43c78d787d191e16ba782be94062f916577150",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_sweep_is_pinned(name):
    """The sweep attempts and skips exactly the pinned size vectors, at
    the pinned cost, on fresh, pooled and resumed finders alike."""
    if name in SWEEP_DIGESTS:
        run, digest = SWEEP_DIGESTS[name]
        results, solver = run()
        assert _stream_digest(solver) == digest
    else:
        factory, max_total, _ = PINNED_STREAMS[name]
        finder = ModelFinder(
            preprocess(factory()), FinderOptions(max_total_size=max_total)
        )
        results = [finder.search()]
    rows = [
        (r.found, r.complete, r.stats.model_size)
        + tuple(getattr(r.stats, key) for key in SWEEP_WORK)
        for r in results
    ]
    assert rows == PINNED_SWEEPS[name]


def _accounted_search(finder, **kwargs):
    """One metrics-on ``search``, checked against its solver: the
    ``sat.*`` counters it publishes, and its solver-side FinderStats
    fields, are the difference of the engine solver's SatStats across
    the call."""
    engine = finder._engine
    before = dataclasses.asdict(
        engine.solver.stats if engine is not None else SatStats()
    )
    published = dict(obs_runtime.METRICS.snapshot()["counters"])
    result = finder.search(**kwargs)
    after = dataclasses.asdict(finder._engine.solver.stats)
    delta = {key: after[key] - before[key] for key in after}
    counters = obs_runtime.METRICS.snapshot()["counters"]
    assert {
        key: counters.get(f"sat.{key}", 0) - published.get(f"sat.{key}", 0)
        for key in delta
    } == delta
    stats = result.stats
    assert (
        stats.clauses_encoded,
        stats.learned_total,
        stats.learned_glue,
        stats.attempts + stats.on_demand_rounds,
    ) == (
        delta["clauses_added"],
        delta["learned"],
        delta["glue_learned"],
        delta["solve_calls"],
    )
    return result


def test_sweep_accounting_is_one_solver_difference():
    """Two problems back to back on one pooled engine, then a search
    resumed with ``min_total_size`` (the Herbrand retry's path), then a
    search whose vectors take on-demand rounds: each round is one more
    solve call."""
    obs_runtime.configure(metrics=True)
    try:
        pool = EnginePool()
        options = FinderOptions(max_total_size=6)
        for name in ("peirce", "peirce-swap"):
            finder = pool.finder(preprocess(_stlc_system(name)), options)
            assert _accounted_search(finder).stats.learned_total > 0
            pool.release(finder)
        finder = ModelFinder(preprocess(incdec_system()))
        first = _accounted_search(finder)
        resumed = _accounted_search(
            finder, min_total_size=first.model.size() + 1
        )
        assert resumed.found and resumed.stats.attempts > 0
        wide = _accounted_search(
            ModelFinder(
                preprocess(_tip_system("tip-mirror-g6")),
                FinderOptions(max_total_size=2),
            )
        )
        assert wide.stats.on_demand_rounds > 0
    finally:
        obs_runtime.reset()


def _canonical_violations(engine):
    """What the canonical assignment falsifies on ``engine``'s solver.

    The assignment makes every existence selector true and every other
    variable false.  The ``repro.mace.finder`` module docstring argues
    it satisfies every clause the engine emits, hence every learned
    clause and level-0 fact too — which is why the engine needs no
    reset.  Returns the falsified clauses (original and learned) and
    level-0 literals; the argument says the list is empty.
    """
    ex = {lit for row in engine._ex_rows.values() for lit in row}

    def holds(lit):
        return (abs(lit) in ex) == (lit > 0)

    solver = engine.solver
    level0 = (
        solver._trail_lim[0] if solver._trail_lim else len(solver._trail)
    )
    clauses = solver.clauses + solver.learned_clauses
    return [c for c in clauses if not any(map(holds, c))] + [
        lit for lit in solver._trail[:level0] if not holds(lit)
    ]


#: a pooled sequence: the first two problems' base, step and query
#: clauses recur nowhere later, so the ten that follow age them past
#: GC_WINDOW and their groups are retired; the last two are unsat
_RETIREMENT_SEQUENCE = (
    (4, 3, 5), (4, 3, 2), (2, 0, 1), (2, 1, 1), (3, 0, 1), (3, 1, 1),
    (2, 0, 3), (2, 1, 3), (3, 0, 4), (3, 1, 4), (3, 0, 3), (2, 0, 4),
)


def _pooled_with_retirement():
    """The pooled engine after ``_RETIREMENT_SEQUENCE``, each problem
    released after its search, and the group selectors it retired."""
    pool = EnginePool()
    options = FinderOptions(max_total_size=4)
    selectors = set()
    for m, r, c in _RETIREMENT_SEQUENCE:
        finder = pool.finder(preprocess(nat_mod_system(m, r, c)), options)
        finder.search()
        engine = finder._engine
        selectors.update(
            g.sel for g in engine._groups.values() if g.sel is not None
        )
        pool.release(finder)
    retired = [s for s in selectors if engine.solver.fixed(s) is False]
    return engine, retired


def test_reregistered_problem_gets_fresh_selectors():
    """A problem whose groups were retired registers again on new
    selectors: the retired ones stay pinned false, the new ones are
    free, and the search finds the model a fresh engine finds."""
    pool = EnginePool()
    options = FinderOptions(max_total_size=4)
    problem = preprocess(nat_mod_system(*_RETIREMENT_SEQUENCE[0]))
    finder = pool.finder(problem, options)
    finder.search()
    engine = finder._engine
    before = {g.sel for g in finder._ctx.groups}
    pool.release(finder)
    for m, r, c in _RETIREMENT_SEQUENCE[1:]:
        finder = pool.finder(preprocess(nat_mod_system(m, r, c)), options)
        finder.search()
        assert finder._engine is engine
        pool.release(finder)
    retired = {s for s in before if engine.solver.fixed(s) is False}
    assert retired
    finder = pool.finder(problem, options)
    again = finder.search()
    after = {g.sel for g in finder._ctx.groups}
    assert None not in after and not after & retired
    assert all(engine.solver.fixed(s) is None for s in after)
    assert all(engine.solver.fixed(s) is False for s in retired)
    fresh = ModelFinder(problem, options).search()
    assert fresh.found and again.found
    assert again.model.size() == fresh.model.size()


@pytest.mark.parametrize(
    "case", sorted(PINNED_STREAMS) + ["pooled-retired", "restored"]
)
def test_canonical_assignment_satisfies_the_database(case):
    """The invariant the engine's missing reset rests on: no clause
    database it builds — fresh, pooled with group retirement, or
    unpickled from the warm cache — can derive a level-0
    contradiction."""
    if case in PINNED_STREAMS:
        factory, max_total, _ = PINNED_STREAMS[case]
        finder = ModelFinder(
            preprocess(factory()), FinderOptions(max_total_size=max_total)
        )
        result = finder.search()
        assert not _canonical_violations(finder._engine)
        # the case whose wide group is ground on demand at the default
        # ON_DEMAND_BOX: its database holds on-demand instances
        assert (result.stats.on_demand_instances > 0) == (
            case == "tip-mirror-g6"
        )
    else:
        engine, retired = _pooled_with_retirement()
        assert not _canonical_violations(engine)
        # the sequence covers learned clauses and the retirement units
        # -sel on the level-0 trail
        assert retired and engine.solver.learned_clauses
        if case == "restored":
            options = FinderOptions(max_total_size=4)
            restored = pickle.loads(pickle.dumps(engine))
            assert not _canonical_violations(restored)
            prepared = preprocess(nat_mod_system(3, 2, 3))
            ModelFinder(prepared, options, engine=restored).search()
            assert not _canonical_violations(restored)


def _combos_reference(old, new):
    """The pivot enumeration of ``box(new)`` minus ``box(old)`` that
    ``_box_minus`` generalizes, kept as the order reference for its
    one-stair case: by the first position that escapes the old box."""
    for pivot in range(len(new)):
        if new[pivot] <= old[pivot]:
            continue
        pools = [range(old[j]) for j in range(pivot)]
        pools.append(range(old[pivot], new[pivot]))
        pools.extend(range(n) for n in new[pivot + 1:])
        yield from itertools.product(*pools)


def _box(sizes):
    return set(itertools.product(*[range(n) for n in sizes]))


@st.composite
def _box_and_stairs(draw):
    dim = draw(st.integers(min_value=0, max_value=4))
    new = draw(st.tuples(*[st.integers(min_value=0, max_value=4)] * dim))
    stairs = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=5)] * dim),
            max_size=4,
        )
    )
    return new, stairs


class TestBoxMinus:
    """The one enumerator behind every staircase and cell table."""

    @given(_box_and_stairs())
    @settings(max_examples=300, deadline=None)
    def test_yields_the_difference_once(self, case):
        new, stairs = case
        out = list(_box_minus(new, stairs))
        assert len(out) == len(set(out))
        covered = set().union(*[_box(stair) for stair in stairs])
        assert set(out) == _box(new) - covered

    @given(_box_and_stairs())
    @settings(max_examples=300, deadline=None)
    def test_stairs_keep_only_maximal_boxes(self, case):
        new, stairs = case
        kept = []
        for box in stairs + [new]:
            kept = _add_stair(kept, box)
        for i, a in enumerate(kept):
            for j, b in enumerate(kept):
                assert i == j or not all(x <= y for x, y in zip(a, b))
        for box in stairs + [new]:
            assert any(all(x <= y for x, y in zip(box, k)) for k in kept)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_stair_inside_new_keeps_the_pivot_order(self, data):
        dim = data.draw(st.integers(min_value=0, max_value=4))
        new = data.draw(
            st.tuples(*[st.integers(min_value=1, max_value=4)] * dim)
        )
        old = tuple(
            data.draw(st.integers(min_value=1, max_value=n)) for n in new
        )
        assert list(_box_minus(new, [old])) == list(
            _combos_reference(old, new)
        )
        assert list(_box_minus(new, [])) == sorted(_box(new))


#: every size vector is solved exactly, so answers compare across engines
_EXACT = FinderOptions(max_conflicts_per_size=None)


def _engine_for(system, options=_EXACT):
    """A fresh private engine with ``system`` registered on it."""
    finder = ModelFinder(system, options)
    engine = _IncrementalEngine(
        finder.sorts, finder.functions, finder.predicates, options
    )
    return engine, engine.register(finder.flat_clauses)


def _attempt(engine, ctx, sizes):
    """(answer, clauses added) of one vector, ``sizes`` in sort order."""
    before = engine.solver.stats.clauses_added
    outcome = engine.try_vector(
        ctx, dict(zip(engine.sorts, sizes)), FinderStats(), _EXACT
    )
    answer = (
        "sat" if outcome.model is not None
        else "unsat" if outcome.refuted else "unknown"
    )
    return answer, engine.solver.stats.clauses_added - before


def _positiveeq_system(name):
    from repro.benchgen.adtbench import positiveeq_suite

    return next(p for p in positiveeq_suite() if p.name == name).build()


#: name -> (system factory, max total size): a non-tautology STLC
#: problem (SAT vectors through a universal block), a classical-only
#: one (every vector refuted) and a two-sort list problem (SAT and
#: UNSAT vectors on Nat x NatList)
STAIR_PROBES = {
    "atom-a": (lambda: _stlc_problem("atom-a").system(), 7),
    "peirce": (lambda: _stlc_system("peirce"), 6),
    "list-len-mod3-0-1": (lambda: _positiveeq_system("list-len-mod3-0-1"), 7),
}


@functools.lru_cache(maxsize=None)
def _stair_probe(name):
    """The probe's system, its size vectors, and each vector's answer on
    a fresh engine that tries that vector alone."""
    factory, max_total = STAIR_PROBES[name]
    system = preprocess(factory())
    engine, _ = _engine_for(system)
    vectors = [
        tuple(v[s] for s in engine.sorts)
        for v in size_vectors(engine.sorts, max_total)
    ]
    alone = [_attempt(*_engine_for(system), v)[0] for v in vectors]
    return system, vectors, alone


class TestStaircase:
    """Groups and universal blocks ground only the boxes of the vectors
    tried, and answer every vector as a fresh engine would."""

    @pytest.mark.parametrize("name", sorted(STAIR_PROBES))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_answers_do_not_depend_on_vector_order(self, name, data):
        system, vectors, alone = _stair_probe(name)
        order = data.draw(st.permutations(range(len(vectors))))
        engine, ctx = _engine_for(system)
        for i in order:
            assert _attempt(engine, ctx, vectors[i])[0] == alone[i], (
                vectors[i]
            )

    def test_groups_ground_exactly_the_attempted_boxes(self):
        system = preprocess(_stlc_system("peirce"))
        options = FinderOptions(max_total_size=7)
        finder = ModelFinder(system, options)
        engine = _IncrementalEngine(
            finder.sorts, finder.functions, finder.predicates, options
        )
        attempted, first_literals = [], collections.Counter()
        add, try_vector = engine._add, engine.try_vector

        def counting_add(literals):
            first_literals[literals[0]] += 1
            add(literals)

        def recording_try_vector(ctx, sizes, *args, **kwargs):
            attempted.append(dict(sizes))
            return try_vector(ctx, sizes, *args, **kwargs)

        engine._add = counting_add
        engine.try_vector = recording_try_vector
        result = ModelFinder(system, options, engine=engine).search()
        assert result.complete and result.stats.attempts == len(attempted)
        assert len(engine._groups) == 16
        for group in engine._groups.values():
            union = set().union(
                *[
                    _box(tuple(sizes[v.sort] for v in group.flat.vars))
                    for sizes in attempted
                ]
            )
            # a group's ground instances are the clauses led by -sel
            assert first_literals[-group.sel] == len(union)

    @pytest.mark.parametrize("k", [4, 9])
    def test_stairs_survive_a_snapshot(self, k):
        system, vectors, _ = _stair_probe("peirce")
        straight_engine, ctx = _engine_for(system)
        straight = [_attempt(straight_engine, ctx, v) for v in vectors]
        engine, ctx = _engine_for(system)
        for sizes in vectors[:k]:
            _attempt(engine, ctx, sizes)
        restored = pickle.loads(pickle.dumps(engine))
        ctx = restored.register(ctx.flat_clauses)
        for sizes, (answer, _) in zip(vectors[:k], straight):
            assert _attempt(restored, ctx, sizes) == (answer, 0)
        for sizes, expected in zip(vectors[k:], straight[k:]):
            assert _attempt(restored, ctx, sizes) == expected


def test_pooled_nat_mod_probe_grounds_wide_queries_on_demand():
    """The pooled sequence that once grew the encoder without bound:
    ``nat_mod_system(m, 0, c)``'s query ``P(x) /\\ P(S^c(x))`` flattens
    to c + 1 variables, so eager grounding needs 3^15 (about 14.3 M)
    instances for c = 14 at size 3, where its model is.  It asserts
    counts, not times; each search's deadline is one only a regression
    reaches."""
    pool = EnginePool()
    options = FinderOptions(max_total_size=4)
    for c in range(1, 15):
        m = 2 if c % 2 else 3
        finder = pool.finder(preprocess(nat_mod_system(m, 0, c)), options)
        result = finder.search(deadline=time.monotonic() + 5.0)
        pool.release(finder)
        assert result.complete and result.found == (c % m != 0), c
    assert result.model.size() == 3
    assert result.stats.clauses_encoded < 1_000
    assert result.stats.on_demand_instances > 0


#: the wide-clauses TIP problems: their guards flatten to 15-16
#: variables, of which only 3-4 are free
WIDE_TIP = ("tip-mirror-g6", "tip-rev-g6", "tip-add-fun-g6", "tip-dbl-fun-g6")

#: name -> (system factory, max total size) of the eager vs on-demand
#: differential
GROUNDING_CASES = {
    **{name: (factory, 5) for name, factory in SEED_SUITES.items()},
    **{name: (functools.partial(_tip_system, name), 2) for name in WIDE_TIP},
    **{
        f"nat-mod-3-0-{c}": (functools.partial(nat_mod_system, 3, 0, c), 4)
        for c in range(1, 6)
    },
}


@pytest.mark.parametrize("name", sorted(GROUNDING_CASES))
def test_on_demand_grounding_agrees_with_eager(name, monkeypatch):
    """Every group eager (``ON_DEMAND_BOX`` above every box) and every
    block-free group on demand (``ON_DEMAND_BOX = 0``) answer each size
    vector alike, each vector on a fresh engine with no conflict budget
    (as in ``reference_sweep``, but past the first model); every model
    satisfies the system."""
    factory, max_total = GROUNDING_CASES[name]
    system = preprocess(factory())
    vectors = list(size_vectors(_engine_for(system)[0].sorts, max_total))
    sweeps = {}
    for box in (float("inf"), 0):
        monkeypatch.setattr("repro.mace.finder.ON_DEMAND_BOX", box)
        answers, instances = [], 0
        for sizes in vectors:
            engine, ctx = _engine_for(system)
            stats = FinderStats()
            outcome = engine.try_vector(ctx, sizes, stats, _EXACT)
            model = outcome.model
            assert model is not None or outcome.refuted
            assert model is None or model.satisfies(system)
            answers.append(None if model is None else model.size())
            instances += stats.on_demand_instances
        sweeps[box] = answers, instances
    assert sweeps[0][0] == sweeps[float("inf")][0]
    # diseq_zz preprocesses to no clause at all
    assert sweeps[float("inf")][1] == 0
    assert (sweeps[0][1] > 0) == bool(system.clauses)


class TestVerdictCompleteness:
    """FinderResult.complete: 'no model <= N' vs 'unknown (budget)'."""

    def test_found_model_is_complete(self):
        result = find_model(_PREPARED["even"])
        assert result.found
        assert result.complete

    def test_exhaustively_refuted_sweep_is_complete(self):
        prepared = preprocess(odd_unsat_system())
        result = find_model(prepared, max_total_size=5)
        assert not result.found
        assert result.complete
        stats = result.stats
        assert stats.vectors_exhausted == 0
        # every candidate vector is accounted for: refuted or skipped
        assert (
            stats.vectors_refuted + stats.vectors_skipped >= 5
            or stats.hopeless
        )

    def test_deadline_cut_sweep_is_incomplete(self):
        prepared = preprocess(odd_unsat_system())
        result = find_model(prepared, max_total_size=5, timeout=0.0)
        assert not result.found
        assert not result.complete

    def test_budget_exhausted_vectors_break_completeness(self):
        # a conflict budget of 0 aborts on the very first conflict, so
        # vectors needing real search come back indeterminate — the
        # sweep must not claim it refuted the size bound
        from repro.problems import diag_system

        prepared = preprocess(diag_system())
        result = find_model(
            prepared, max_total_size=5, max_conflicts_per_size=0
        )
        assert not result.found
        if result.stats.vectors_exhausted > 0:
            assert not result.complete
        else:  # every vector died in assumption propagation: a proof
            assert result.complete

    def test_refuted_and_exhausted_are_distinguished(self):
        prepared = preprocess(odd_unsat_system())
        full = find_model(prepared, max_total_size=5)
        starved = find_model(
            prepared, max_total_size=5, max_conflicts_per_size=0
        )
        assert full.stats.vectors_exhausted == 0
        assert (
            full.stats.vectors_refuted + full.stats.vectors_skipped
            == starved.stats.vectors_refuted
            + starved.stats.vectors_skipped
            + starved.stats.vectors_exhausted
        )


class TestTheorem1:
    """Theorem 1: L(A_P) = { t | M[[t]] in M(P) }."""

    def test_even_model_automaton_matches_evaluation(self):
        model = paper_even_model()
        auto = model_to_automaton(model, NATS, EVEN)
        for n in range(10):
            t = nat(n)
            assert auto.accepts(t) == model.holds(
                EVEN, (model.eval_term(t),)
            )
            assert auto.accepts(t) == herbrand_relation_member(
                model, EVEN, (t,)
            )

    def test_automaton_isomorphic_to_example_1(self):
        # the induced automaton is exactly the s0/s1 flip of Example 1
        model = paper_even_model()
        auto = model_to_automaton(model, NATS, EVEN)
        assert auto.transitions[("Z", ())] == 0
        assert auto.transitions[("S", (0,))] == 1
        assert auto.transitions[("S", (1,))] == 0
        assert auto.finals == frozenset({(0,)})

    def test_roundtrip_model_automata_model(self):
        model = paper_even_model()
        auto = model_to_automaton(model, NATS, EVEN)
        back = automata_to_model(NATS, {EVEN: auto})
        assert back.domains == model.domains
        assert back.predicates[EVEN] == model.predicates[EVEN]
        for n in range(6):
            assert back.eval_term(nat(n)) == model.eval_term(nat(n))

    @given(
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_theorem1_on_random_models(self, domain, data):
        """Random finite Nat-structures: acceptance == evaluation."""
        z_val = data.draw(st.integers(min_value=0, max_value=domain - 1))
        s_table = {
            (i,): data.draw(
                st.integers(min_value=0, max_value=domain - 1)
            )
            for i in range(domain)
        }
        relation = {
            (i,)
            for i in range(domain)
            if data.draw(st.booleans())
        }
        model = FiniteModel(
            {NAT: domain}, {Z: {(): z_val}, S: s_table}, {EVEN: relation}
        )
        auto = model_to_automaton(model, NATS, EVEN)
        for n in range(8):
            t = nat(n)
            assert auto.accepts(t) == (
                (model.eval_term(t),) in relation
            )
