"""VeriMAP-iddt baseline proxy: ADT elimination by transformation.

De Angelis et al. eliminate ADTs from the verification conditions
completely (fold/unfold transformation to CHCs over LIA + booleans); the
transformed system is then checked by a standard LIA engine, and *no ADT
invariant is produced* — the paper includes it as a baseline despite this
(Sec. 8, "Competing tools").

Our proxy performs the analogous pipeline with the size abstraction as the
ADT-eliminating transformation (every term is replaced by its constructor
count, the strongest ADT-free abstraction our clause language supports)
followed by :func:`repro.solvers.sizeelem.size_phase` in the time left.
A SAT answer means the *transformed* system is safe; like the original
tool, it certifies safety without an ADT-level invariant.  UNSAT answers
come from the shared refute-first step: height 4 within 30% of the
timeout.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.chc.clauses import CHCSystem
from repro.core.result import SolveResult, sat, unknown
from repro.solvers.sizeelem import size_phase
from repro.solvers.synth import MIN_BUDGET, Baseline


class VeriMapSolver(Baseline):
    """Transformation-based baseline (size abstraction + LIA templates)."""

    name = "verimap-iddt"
    cex_share = 0.3

    def answer(
        self, system: CHCSystem, deadline: Optional[float]
    ) -> SolveResult:
        if deadline is not None:
            deadline = max(deadline, time.monotonic() + MIN_BUDGET)
        invariant = size_phase(system, deadline)
        if invariant is None:
            return unknown(
                self.name, "transformed (ADT-free) system not proved safe"
            )
        # the certificate lives at the transformed level; no ADT
        # invariant is returned, matching the original tool
        return sat(
            self.name, None, transformed_certificate=invariant.describe()
        )


def solve_verimap(
    system: CHCSystem, *, timeout: Optional[float] = None
) -> SolveResult:
    """One-call API for the VeriMAP-iddt baseline."""
    return VeriMapSolver(timeout).solve(system)
