"""End-to-end tests for RInGen (the Sec. 4 pipeline) on the paper programs."""

import pytest

from repro import RInGen, RInGenConfig, solve
from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.transform import preprocess
from repro.core.cex import search_counterexample
from repro.core.regular_model import RegularModel
from repro.core.result import sat, unknown, unsat
from repro.logic.adt import NAT, S, Z, nat, nat_system
from repro.logic.formulas import TRUE
from repro.logic.sorts import PredSymbol
from repro.logic.terms import App, Var
from repro.mace.model import FiniteModel
from repro.problems import (
    EVEN,
    diag_system,
    diseq_zz_system,
    even_system,
    evenleft_system,
    incdec_system,
    ltgt_system,
    odd_unsat_system,
    z_neq_sz_system,
)
from repro.theory.atlas import even_member, evenleft_member


class TestPaperPrograms:
    def test_even_is_sat_with_size_2_model(self):
        result = solve(even_system(), timeout=30)
        assert result.is_sat
        assert result.details["model_size"] == 2

    def test_even_invariant_is_the_even_numerals(self):
        result = solve(even_system(), timeout=30)
        model = result.invariant
        assert isinstance(model, RegularModel)
        for n in range(10):
            assert model.member(EVEN, (nat(n),)) == even_member(nat(n))

    def test_incdec_is_sat(self):
        result = solve(incdec_system(), timeout=30)
        assert result.is_sat
        # the mod-3 style model of Prop. 4 has 3 elements
        assert result.details["model_size"] == 3

    def test_evenleft_is_sat(self):
        result = solve(evenleft_system(), timeout=30)
        assert result.is_sat
        model = result.invariant
        evenleft = [
            p for p in model.automata if p.name == "evenleft"
        ][0]
        from repro.problems import leaf, node

        for t in [leaf(), node(leaf(), leaf()), node(node(leaf(), leaf()), leaf())]:
            assert model.member(evenleft, (t,)) == evenleft_member(t)

    def test_diag_diverges(self):
        result = solve(diag_system(), timeout=3)
        assert result.is_unknown

    def test_ltgt_diverges(self):
        result = solve(ltgt_system(), timeout=3)
        assert result.is_unknown

    def test_z_neq_sz_unsat(self):
        result = solve(z_neq_sz_system(), timeout=10)
        assert result.is_unsat

    def test_diseq_zz_sat(self):
        result = solve(diseq_zz_system(), timeout=10)
        assert result.is_sat

    def test_broken_even_unsat_with_derivation(self):
        result = solve(odd_unsat_system(), timeout=10)
        assert result.is_unsat
        assert result.refutation is not None
        assert result.refutation.conclusion is None


class TestRegularModelVerification:
    def test_exact_verification_passes(self):
        system = even_system()
        result = solve(system, timeout=30)
        prepared = preprocess(system)
        assert result.invariant.verify_exact(prepared)

    # a clause per shape, with a model over Nat breaking it and one
    # keeping it; p and q are relations on the parity model Z ↦ 0,
    # S: 0 ↦ 1 ↦ 0, whose element 2 (S: 2 ↦ 2) no ground term denotes
    _P = PredSymbol("p", (NAT,))
    _Q = PredSymbol("q", (NAT,))
    _X = Var("x", NAT)
    _SHAPES = {
        "shared-tuple": (
            Clause(TRUE, (BodyAtom(_P, (_X,)),), BodyAtom(_Q, (_X,))),
            ({(0,)}, set()),
            ({(0,), (2,)}, {(0,)}),
        ),
        "fact": (
            Clause(TRUE, (), BodyAtom(_P, (_X,))),
            ({(0,), (2,)}, set()),
            ({(0,), (1,)}, set()),
        ),
        "query": (
            Clause(TRUE, (BodyAtom(_P, (_X,)),), None),
            ({(1,)}, set()),
            ({(2,)}, set()),
        ),
        "nested-term": (
            Clause(
                TRUE, (BodyAtom(_P, (_X,)),), BodyAtom(_P, (App(S, (_X,)),))
            ),
            ({(0,), (2,)}, set()),
            ({(0,), (1,)}, set()),
        ),
    }

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_exact_verification_rejects_a_broken_clause(self, shape):
        clause, broken, kept = self._SHAPES[shape]
        adts = nat_system()
        system = CHCSystem(adts, name=shape)
        system.add(clause)

        def verdict(relations):
            p, q = relations
            model = FiniteModel(
                {NAT: 3},
                {Z: {(): 0}, S: {(0,): 1, (1,): 0, (2,): 2}},
                {self._P: p, self._Q: q},
            )
            regular = RegularModel.from_finite_model(
                adts, model, [self._P, self._Q]
            )
            return regular.verify_exact(system)

        assert verdict(broken) is False
        assert verdict(kept) is True

    @pytest.mark.parametrize(
        "factory", [even_system, incdec_system, evenleft_system]
    )
    def test_exact_verification_accepts_ringen_models(self, factory):
        system = factory()
        result = solve(system, timeout=30)
        assert result.is_sat
        assert result.invariant.verify_exact(preprocess(system)) is True

    def test_bounded_verification_passes(self):
        system = even_system()
        result = solve(system, timeout=30)
        assert result.invariant.verify_bounded(system, max_height=5) is None

    def test_describe_mentions_automata(self):
        result = solve(even_system(), timeout=30)
        text = result.invariant.describe()
        assert "automata" in text
        assert "even" in text

    def test_interpretation_gives_diseq_true_semantics(self):
        from repro.chc.transform import diseq_symbol
        from repro.logic.adt import NAT

        result = solve(even_system(), timeout=30)
        model = result.invariant
        d = diseq_symbol(NAT)
        assert model.interpretation(d, (nat(0), nat(1)))
        assert not model.interpretation(d, (nat(1), nat(1)))


class TestConfig:
    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            solve(even_system(), nonsense=True)

    def test_tiny_model_budget_gives_unknown(self):
        result = solve(even_system(), timeout=5, max_model_size=1)
        assert result.is_unknown

    def test_result_str(self):
        result = solve(even_system(), timeout=30)
        assert "sat" in str(result)

    def test_result_constructors(self):
        assert sat("s", None).is_sat
        assert unsat("s", None).is_unsat
        assert unknown("s", "why").is_unknown
        assert unknown("s", "why").reason == "why"


class TestCexSearch:
    def test_finds_shallow_refutation(self):
        prepared = preprocess(odd_unsat_system())
        out = search_counterexample(prepared, max_height=4)
        assert out.found
        assert out.refutation.depth() >= 2

    def test_no_refutation_in_safe_system(self):
        prepared = preprocess(even_system())
        out = search_counterexample(prepared, max_height=4)
        assert not out.found

    def test_respects_timeout(self):
        import time

        from repro.benchgen.builders import mirror_system

        prepared = preprocess(mirror_system(3))
        start = time.monotonic()
        out = search_counterexample(prepared, max_height=6, timeout=0.5)
        assert time.monotonic() - start < 5.0
        # the deadline cut the search inside height 5 (heights 2-5 take
        # about 5 s and height 6 about 35 s more)
        assert not out.found and out.max_height_tried < 6

    def test_diseq_rules_saturate_within_their_step_budget(self):
        """Each free variable of a clause instance is drawn only from
        the terms that fit under the height bound at its place in the
        head: the diseq rules of ``tip-mirror-g6`` saturate height 4 in
        about 26,000 steps, where building every candidate head took
        about 125,000 and ran out at 624 of the 676 facts."""
        from repro.benchgen import tip_suite
        from repro.chc.semantics import bounded_least_fixpoint

        problem = next(
            p for p in tip_suite().problems if p.name == "tip-mirror-g6"
        )
        result = bounded_least_fixpoint(
            preprocess(problem.build()), max_height=4, max_steps=30_000
        )
        assert result.fact_count() == 676


def _cex_sample():
    """The 60 De Angelis-style problems, every ninth TIP problem, the 17
    TIP ``broken`` problems the search refutes, ``diseq-unsat`` and the
    four wide-clauses conjectures of the benchmark: 130 problems."""
    from repro.benchgen import adtbench_suites, tip_suite

    tip = tip_suite().problems
    chosen = [p for suite in adtbench_suites() for p in suite.problems]
    chosen += tip[::9]
    names = (
        [f"tip-broken-mod2-d1-v{i}" for i in range(6)]
        + [f"tip-broken-mod3-d1-v{i}" for i in range(8)]
        + [f"tip-broken-list-{k}" for k in (1, 2, 3)]
        + ["tip-mirror-g6", "tip-rev-g6", "tip-add-fun-g6", "tip-dbl-fun-g6"]
    )
    chosen += [p for p in tip if p.name in names]
    unique = {}
    for p in chosen:
        unique.setdefault(p.name, p)
    return list(unique.values())


_MOD2 = "54f51f64ad23ac68c012627176a415d5235f1754cfc655358980970ea67db5ee"
_MOD3 = "7dc25bd2553cebadf7aa4163f7adb80c8ec2ea62317132c52be2e976a98b3952"
#: RInGen's cex search on :func:`_cex_sample`: each refuted problem with
#: the height that refuted it and the sha256 of the refutation's text;
#: every other problem is unrefuted after trying height 4
CEX_PINS = {
    "diseq-unsat": (
        2, "1524bd9f19b6a0af2a378d1ae569315b0c46b3658c7c142336eb98a708511572"
    ),
    **{f"tip-broken-mod2-d1-v{i}": (3, _MOD2) for i in range(6)},
    **{f"tip-broken-mod3-d1-v{i}": (4, _MOD3) for i in range(8)},
    "tip-broken-list-1": (
        2, "030997525914147cc13487d50285b7e6cb2fd19873ac257d90742de7380a3be2"
    ),
    "tip-broken-list-2": (
        3, "d55205c81199161f547568e743771c196327b6cb4f62dbf71db3335c7959c79b"
    ),
    "tip-broken-list-3": (
        4, "96c45cf8a519e9ecf527d36e24d5974089cc765e07e8b37010c8052ac3e0acbc"
    ),
}


def test_cex_outcomes_are_pinned():
    """RInGen's cex search finds the same refutations at the same
    heights on the sample, and each one replays."""
    import hashlib

    from repro.core.certify import replay
    from repro.core.ringen import CEX_MAX_FACTS, CEX_START_HEIGHT

    sample = _cex_sample()
    assert len(sample) == 130
    refuted = {}
    for problem in sample:
        prepared = preprocess(problem.build())
        out = search_counterexample(
            prepared,
            start_height=CEX_START_HEIGHT,
            max_height=RInGenConfig().cex_max_height,
            max_facts=CEX_MAX_FACTS,
        )
        if not out.found:
            assert out.max_height_tried == 4, problem.name
            continue
        assert replay(prepared, out.refutation) is None, problem.name
        text = out.refutation.format().encode()
        refuted[problem.name] = (
            out.max_height_tried, hashlib.sha256(text).hexdigest()
        )
    assert refuted == CEX_PINS
