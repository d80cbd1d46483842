"""Experiments A1-A3: ablations of the pipeline's design choices.

A1 — symmetry breaking in the model finder (least-number constraints on
constants): searching without it must still find the same-size models,
generally exploring at least as much.

A2 — the diseq encoding of Sec. 4.4: *without* it, clauses with
disequalities cannot be handed to the EUF model finder soundly; the
ablation quantifies what the encoding costs on problems that don't need
it and confirms it is required on ones that do (the finder would
otherwise report bogus models that fail the Herbrand check).

A3 — interleaving the counterexample search before model search: on
UNSAT problems the cex phase answers quickly; ablating it to model-search
only leaves the problem undecided (there is no finite model to find).
"""

from repro.chc.clauses import CHCSystem, Clause
from repro.chc.transform import encode_diseq, normalize, preprocess
from repro.core.ringen import RInGen, RInGenConfig
from repro.mace.finder import find_model
from repro.problems import (
    diseq_zz_system,
    even_system,
    incdec_system,
    odd_unsat_system,
    z_neq_sz_system,
)


class TestA1SymmetryBreaking:
    def test_same_model_sizes(self, benchmark):
        prepared = preprocess(incdec_system())
        with_sb = find_model(prepared, symmetry_breaking=True)
        without_sb = find_model(prepared, symmetry_breaking=False)
        assert with_sb.model.size() == without_sb.model.size() == 3
        benchmark.pedantic(
            lambda: find_model(prepared, symmetry_breaking=True),
            rounds=3,
            iterations=1,
        )

    def test_search_without_symmetry_breaking(self, benchmark):
        prepared = preprocess(incdec_system())
        benchmark.pedantic(
            lambda: find_model(prepared, symmetry_breaking=False),
            rounds=3,
            iterations=1,
        )


class TestA2DiseqEncoding:
    def test_encoding_required_for_soundness(self, benchmark):
        """Without the Sec. 4.4 encoding, the finder sees no constraint at
        all where a disequality stood and accepts collapsed models; the
        encoded system correctly has *no* model (the system is UNSAT)."""
        system = z_neq_sz_system()
        # normalization alone already evaluates the ground disequality
        # here, so build the undecided variable form from Example 3
        from repro.logic.formulas import Not, Eq
        from repro.logic.terms import Var
        from repro.logic.adt import NAT, nat_system
        from repro.chc.clauses import BodyAtom
        from repro.logic.sorts import PredSymbol
        from repro.problems import s, z

        x = Var("x", NAT)
        p = PredSymbol("P", (NAT,))
        raw = CHCSystem(nat_system())
        raw.add(Clause(Not(Eq(x, s(x))), (BodyAtom(p, (x,)),), None, "q"))
        raw.add(Clause(Eq(x, z()), (), BodyAtom(p, (x,)), "base"))

        # the system is UNSAT over ADTs: x != S(x) always holds and P(Z)
        # is derivable.  With the full encoding the finder correctly
        # reports no finite model of the EUF side
        encoded = encode_diseq(normalize(raw))
        encoded_result = benchmark.pedantic(
            lambda: find_model(encoded, max_total_size=5),
            rounds=1,
            iterations=1,
        )
        assert encoded_result.model is None  # correctly UNSAT

        # ablation: keep the diseq *atoms* but drop the generating rules
        # of Sec. 4.4 — the finder then interprets diseq as empty and
        # produces a bogus model, demonstrating the rules are what ties
        # the uninterpreted symbol to actual disequality
        ablated = CHCSystem(encoded.adts, dict(encoded.predicates))
        for cl in encoded.clauses:
            if not cl.name.startswith("diseq-"):
                ablated.add(cl)
        ablated_result = find_model(ablated, max_total_size=4)
        assert ablated_result.model is not None  # bogus model without them

    def test_encoding_overhead(self, benchmark):
        # cost of the diseq rules on a problem that also solves without
        system = diseq_zz_system()
        benchmark.pedantic(
            lambda: find_model(preprocess(system)), rounds=3, iterations=1
        )


class TestA3CexInterleaving:
    def test_unsat_needs_cex_phase(self, benchmark):
        system = odd_unsat_system()
        with_cex = benchmark.pedantic(
            lambda: RInGen(RInGenConfig(timeout=10)).solve(system),
            rounds=1,
            iterations=1,
        )
        assert with_cex.is_unsat
        # ablation: skip the cex phase by zeroing its height budget
        config = RInGenConfig(timeout=3, cex_max_height=0, max_model_size=6)
        without_cex = RInGen(config).solve(system)
        assert not without_cex.is_unsat

    def test_cex_phase_cost_on_sat_problem(self, benchmark):
        # on SAT problems the cex phase is pure overhead; measure it
        from repro.core.cex import search_counterexample

        prepared = preprocess(even_system())
        benchmark.pedantic(
            lambda: search_counterexample(prepared, max_height=4),
            rounds=3,
            iterations=1,
        )
