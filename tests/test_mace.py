"""Tests for the finite model finder and finite structures (Sec. 4.1/4.2)."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.from_model import (
    automata_to_model,
    herbrand_relation_member,
    model_to_automaton,
)
from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.transform import preprocess
from repro.logic.adt import NAT, S, Z, nat, nat_system, nat_value
from repro.logic.formulas import TRUE
from repro.logic.sorts import FuncSymbol, PredSymbol, Sort
from repro.logic.terms import App, Var
from repro.mace.finder import (
    FinderOptions,
    ModelFinder,
    find_model,
    flatten_clause,
    size_vectors,
)
from repro.mace.model import FiniteModel, ModelError, validate_model
from repro.mace.pool import EnginePool
from repro.problems import (
    diseq_zz_system,
    even_system,
    evenleft_system,
    incdec_system,
    odd_unsat_system,
    z_neq_sz_system,
)

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
        inc = find_model(
            prepared, incremental=True, max_total_size=max_total
        )
        scr = find_model(
            prepared, incremental=False, max_total_size=max_total
        )
        assert inc.found and scr.found
        assert inc.model.size() == scr.model.size()
        assert inc.model.satisfies(prepared)
        assert scr.model.satisfies(prepared)

    def test_unsat_verdicts_agree(self):
        prepared = preprocess(odd_unsat_system())
        inc = find_model(prepared, incremental=True, max_total_size=5)
        scr = find_model(prepared, incremental=False, max_total_size=5)
        assert not inc.found and not scr.found

    def test_incremental_reuses_solver_state(self):
        prepared = _PREPARED["incdec"]
        inc = find_model(prepared, incremental=True)
        scr = find_model(prepared, incremental=False)
        # the whole point: carried clauses, strictly less re-encoding
        assert inc.stats.clauses_reused > 0
        assert inc.stats.clauses_encoded < scr.stats.clauses_encoded
        assert inc.stats.solver_resets == 0
        assert scr.stats.solver_resets == scr.stats.attempts
        assert scr.stats.clauses_reused == 0

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

    def test_finder_stats_as_dict_roundtrip(self):
        result = find_model(_PREPARED["even"])
        stats = result.stats.as_dict()
        assert stats["model_size"] == result.model.size()
        assert stats["incremental"] is True
        assert stats["clauses_encoded"] > 0
        assert stats["vectors_refuted"] >= 0
        assert "vectors_skipped" in stats


def _stlc_system(name):
    from repro.stlc import stlc_problems

    problem = next(p for p in stlc_problems() if p.name == name)
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
        "8e29eb2239fa69f482e4776ab410d06fd52ae2fe16ff602d394225c48a11abdf",
    ),
    "peirce-swap": (
        lambda: _stlc_system("peirce-swap"), 6,
        "6fed1ebbdcfa19c909d52d480df9da7da0bbea3378d91b7dc0644775b01b1cf2",
    ),
    "peirce-inst": (
        lambda: _stlc_system("peirce-inst"), 6,
        "f359eab4269f25011bb4a16dfe60a901bb282b78e6030caf3302d0a6c74c39d4",
    ),
    "tip-mirror-g6": (
        lambda: _tip_system("tip-mirror-g6"), 2,
        "4ada63aca5aa78f5f7f73b4a3d8ffec7a9aaace51dcc31e931624a22371c47a4",
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
    "cores_minimized",
    "core_lits_dropped",
    "clauses_encoded",
    "clauses_reused",
    "learned_total",
    "solver_resets",
    "cross_problem_clauses",
)

#: name -> one row per search: (found, complete, model_size, *SWEEP_WORK)
#: — which vectors the sweep attempted and skipped and what that cost.
#: The cases crossing a finder's lifetime (pooled, resumed) also pin
#: the final clause-stream digest.
PINNED_SWEEPS = {
    "even": [(True, True, 2, 2, 1, 0, 0, 1, 0, 0, 29, 7, 0, 0, 0)],
    "incdec": [(True, True, 3, 3, 2, 0, 0, 2, 0, 0, 224, 68, 1, 0, 0)],
    "peirce": [
        (False, True, None, 10, 10, 5, 0, 10, 3, 4, 9229, 28090, 239, 0, 0)
    ],
    "peirce-inst": [
        (False, True, None, 10, 10, 5, 0, 10, 4, 6, 13603, 40950, 320, 0, 0)
    ],
    "peirce-swap": [
        (False, True, None, 10, 10, 5, 0, 10, 3, 4, 9229, 28090, 238, 0, 0)
    ],
    "tip-mirror-g6": [
        (False, True, None, 2, 2, 0, 0, 2, 0, 0, 65783, 11, 2, 0, 0)
    ],
    "tip-rev-g6": [(False, True, None, 1, 1, 0, 0, 1, 0, 0, 18, 0, 0, 0, 0)],
    "pooled-stlc": [
        (False, True, None, 10, 10, 5, 0, 10, 3, 4, 9229, 28090, 239, 0, 0),
        (False, True, None, 10, 10, 5, 0, 10, 3, 4, 2232, 99065, 240, 0,
         9229),
        (False, True, None, 0, 0, 15, 0, 0, 0, 0, 0, 0, 0, 0, 11461),
    ],
    "resumed-incdec": [
        (True, True, 3, 3, 2, 0, 0, 2, 0, 0, 224, 68, 1, 0, 0),
        (True, True, 4, 1, 0, 0, 0, 0, 0, 0, 403, 224, 0, 0, 0),
    ],
    "resumed-hopeless": [
        (False, True, None, 1, 1, 0, 0, 1, 0, 0, 5, 0, 0, 0, 0),
        (False, True, None, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ],
}
SWEEP_DIGESTS = {
    "pooled-stlc": (
        _pooled_stlc,
        "1a89525568799160d00c1bc245cc0ed03ec6b79d520b8de994bbb2204b52f5fd",
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
    # one lane never speculates
    assert all(r.stats.vectors_speculated == 0 for r in results)


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
