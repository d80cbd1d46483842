"""Tests for the STLC case study (Sec. 5 + Appendix A)."""

from repro.chc.transform import preprocess
from repro.stlc import (
    abs_,
    app_,
    arrow,
    empty,
    env_of,
    evar,
    find_inhabitant,
    goal_identity,
    goal_peirce,
    in_invariant,
    in_invariant_under,
    interpretations,
    invariant_automaton,
    invariant_model,
    is_classical_tautology,
    prim_p,
    prim_q,
    stlc_adts,
    stlc_problems,
    type_checks,
    type_truth,
    typecheck_vc,
    vx,
    vy,
)
from repro.stlc.typecheck import (
    t_identity,
    t_konst,
    t_not_taut,
    t_peirce,
)


class TestTypeChecker:
    def test_identity_types(self):
        identity = abs_(vx(), evar(vx()))
        assert type_checks(empty(), identity, t_identity())
        assert type_checks(
            empty(), identity, arrow(prim_q(), prim_q())
        )

    def test_identity_wrong_type(self):
        identity = abs_(vx(), evar(vx()))
        assert not type_checks(empty(), identity, arrow(prim_p(), prim_q()))

    def test_konst(self):
        konst = abs_(vx(), abs_(vy(), evar(vx())))
        assert type_checks(empty(), konst, t_konst())

    def test_application(self):
        # (λx.x) applied through an app-typed context
        applied = app_(abs_(vx(), evar(vx())), evar(vy()))
        env = env_of([(vy(), prim_p())])
        assert type_checks(env, applied, prim_p())

    def test_variable_lookup_respects_shadowing(self):
        env = env_of([(vx(), prim_p()), (vx(), prim_q())])
        assert type_checks(env, evar(vx()), prim_p())
        # the skip rule also allows reaching the deeper binding
        assert type_checks(env, evar(vx()), prim_q())

    def test_unbound_variable(self):
        assert not type_checks(empty(), evar(vx()), prim_p())

    def test_find_inhabitant_identity(self):
        witness = find_inhabitant(t_identity())
        assert witness is not None
        assert type_checks(empty(), witness, t_identity())

    def test_goal_type_uninhabited(self):
        assert find_inhabitant(t_not_taut(), max_depth=3) is None


class TestTautologies:
    def test_classical_tautology_check(self):
        assert is_classical_tautology(t_identity())
        assert is_classical_tautology(t_peirce())  # classical but not int.
        assert not is_classical_tautology(t_not_taut())

    def test_type_truth(self):
        interp = {"p": True, "q": False}
        assert type_truth(prim_p(), interp)
        assert not type_truth(arrow(prim_p(), prim_q()), interp)
        assert type_truth(arrow(prim_q(), prim_p()), interp)

    def test_interpretations_cover_all(self):
        assert len(list(interpretations())) == 4


class TestInvariant:
    def test_invariant_is_intersection_of_fixed_interpretations(self):
        env = env_of([(vx(), prim_p())])
        e = evar(vx())
        for t in (prim_p(), arrow(prim_p(), prim_q()), t_identity()):
            expected = all(
                in_invariant_under(env, e, t, m)
                for m in interpretations()
            )
            assert in_invariant(env, e, t) == expected

    def test_tautologies_always_in_invariant(self):
        assert in_invariant(empty(), evar(vx()), t_identity())

    def test_goal_type_not_in_invariant_at_empty_env(self):
        assert not in_invariant(empty(), evar(vx()), t_not_taut())

    def test_automaton_realizes_all_false_interpretation(self):
        auto = invariant_automaton()
        all_false = {"p": False, "q": False}
        adts = stlc_adts()
        types = adts.terms_up_to_height(
            __import__("repro.stlc.adts", fromlist=["TYPE"]).TYPE, 3
        )
        envs = adts.terms_up_to_height(
            __import__("repro.stlc.adts", fromlist=["ENV"]).ENV, 3
        )
        e = evar(vx())
        for env in envs[:12]:
            for t in types[:20]:
                assert auto.accepts(env, e, t) == in_invariant_under(
                    env, e, t, all_false
                )

    def test_hand_model_satisfies_vc_exactly(self):
        # Sec. 5's headline: the automaton is a safe inductive invariant
        vc = typecheck_vc()
        prepared = preprocess(vc)
        model = invariant_model()
        assert model.satisfies(prepared, herbrand=True)

    def test_hand_model_fails_for_inhabited_goal(self):
        # for a -> a the assertion is false, so NO invariant can satisfy
        # the VC; in particular the hand model must violate it
        vc = typecheck_vc(goal_identity)
        prepared = preprocess(vc)
        model = invariant_model()
        assert not model.satisfies(prepared, herbrand=True)


class TestPipelineOnStlc:
    def test_ringen_solves_the_case_study(self):
        from repro import solve

        result = solve(typecheck_vc(), timeout=60)
        assert result.is_sat
        # the paper's invariant: Var=1, Type=2, Expr=1, Env=2 (size 6)
        assert result.details["model_size"] == 6

    def test_ringen_diverges_on_peirce(self):
        from repro import solve

        result = solve(typecheck_vc(goal_peirce), timeout=6)
        assert result.is_unknown


class TestProblemSuite:
    def test_exactly_23_problems(self):
        problems = stlc_problems()
        assert len(problems) == 23

    def test_category_ground_truth_consistency(self):
        for problem in stlc_problems():
            goal = problem.goal(prim_p(), prim_q())
            if problem.category == "inhabited":
                assert problem.expected == "unsat"
            if problem.category == "non-tautology":
                assert not is_classical_tautology(goal)
                assert problem.expected == "sat"
            if problem.category == "classical-only":
                assert is_classical_tautology(goal)

    def test_inhabited_problems_have_witnesses(self):
        inhabited = [
            p for p in stlc_problems() if p.category == "inhabited"
        ][:4]
        for problem in inhabited:
            goal = problem.goal(prim_p(), prim_q())
            witness = find_inhabitant(goal, max_depth=3)
            assert witness is not None, problem.name

    def test_non_tautology_problems_build_systems(self):
        for problem in stlc_problems()[:5]:
            system = problem.system()
            assert len(system) == 5
