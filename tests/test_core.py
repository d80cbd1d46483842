"""End-to-end tests for RInGen (the Sec. 4 pipeline) on the paper programs."""

import pytest

from repro import RInGen, RInGenConfig, Status, solve
from repro.chc.transform import preprocess
from repro.core.cex import search_counterexample
from repro.core.regular_model import RegularModel
from repro.core.result import sat, unknown, unsat
from repro.logic.adt import nat, nat_value
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
        search_counterexample(prepared, max_height=5, timeout=0.5)
        assert time.monotonic() - start < 5.0
