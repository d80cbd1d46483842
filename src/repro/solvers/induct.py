"""CVC4-Ind baseline proxy: inductive reasoning without invariant output.

In Table 1 the CVC4 induction solver answers *no* SAT queries and a
handful of UNSATs: its inductive-strengthening machinery refutes buggy
systems but does not emit invariants for safe ones.  Our proxy mirrors
that observable behaviour: UNSAT from the shared refute-first step
(:meth:`~repro.solvers.synth.Baseline.refute_first`) with a deeper
reach than the other baselines, height 5 and 150,000 facts within the
whole timeout (quantifier instantiation by exhaustive grounding is what
CVC4's refutation side amounts to on these benchmarks), and UNKNOWN
otherwise.
"""

from __future__ import annotations

from typing import Optional

from repro.chc.clauses import CHCSystem
from repro.core.result import SolveResult, unknown
from repro.solvers.synth import Baseline


class InductSolver(Baseline):
    """Bounded refutation; no invariant for safe systems."""

    name = "cvc4-ind"
    cex_height = 5
    cex_facts = 150_000

    def answer(
        self, system: CHCSystem, deadline: Optional[float]
    ) -> SolveResult:
        # A safe system would need an invariant representation to report
        # SAT; the induction engine has none (it proves goals, it does not
        # synthesize certificates), so safe problems end in UNKNOWN.
        return unknown(
            self.name, "induction found no proof and no counterexample"
        )


def solve_induct(
    system: CHCSystem, *, timeout: Optional[float] = None
) -> SolveResult:
    """One-call API for the CVC4-Ind baseline."""
    return InductSolver(timeout).solve(system)
