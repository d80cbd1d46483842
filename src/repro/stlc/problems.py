"""The 23 hand-written type-theory problems of Sec. 8 ("Other experiments").

The paper reports 23 inhabitation/typability problems, "intractable for
all the solvers, except the finite model finder".  We regenerate the suite
as 23 goal types covering the relevant spectrum:

* classical non-tautologies (uninhabited; the ℐ-style regular invariant
  proves safety — RInGen's finite-model phase succeeds),
* classically-but-not-intuitionistically valid types (Peirce-like:
  uninhabited but with no small regular invariant — everything diverges),
* inhabited types (the assertion is false; refutation needs a typing
  derivation witness, out of reach for bounded search with the
  quantifier-alternating query — everything diverges).

Each problem carries its ground truth so the harness can score solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chc.clauses import CHCSystem
from repro.logic.terms import Term
from repro.stlc.adts import arrow, prim_p, prim_q
from repro.stlc.vc import GoalBuilder, typecheck_vc


@dataclass
class StlcProblem:
    """One inhabitation problem with its expected classification."""

    name: str
    goal: GoalBuilder
    # ground truth for the CHC system (SAT = uninhabited at all a, b)
    expected: str  # "sat" | "unsat" | "divergent"
    category: str  # "non-tautology" | "classical-only" | "inhabited"

    def system(self) -> CHCSystem:
        return typecheck_vc(self.goal, name=f"stlc-{self.name}")


def _goal(builder: Callable[[Term, Term], Term]) -> GoalBuilder:
    return builder


def stlc_problems() -> list[StlcProblem]:
    """The 23-problem suite."""
    A = lambda x, y: arrow(x, y)
    problems = [
        # --- classical non-tautologies: uninhabited, regular invariant ---
        StlcProblem("arr-ab-a", _goal(lambda a, b: A(A(a, b), a)),
                    "sat", "non-tautology"),
        StlcProblem("atom-a", _goal(lambda a, b: a),
                    "sat", "non-tautology"),
        StlcProblem("a-to-b", _goal(lambda a, b: A(a, b)),
                    "sat", "non-tautology"),
        StlcProblem("b-to-a", _goal(lambda a, b: A(b, a)),
                    "sat", "non-tautology"),
        StlcProblem("ab-to-ba", _goal(lambda a, b: A(A(a, b), A(b, a))),
                    "sat", "non-tautology"),
        StlcProblem("arr-ba-b", _goal(lambda a, b: A(A(b, a), b)),
                    "sat", "non-tautology"),
        StlcProblem("double-neg-like",
                    _goal(lambda a, b: A(A(A(a, b), b), a)),
                    "sat", "non-tautology"),
        StlcProblem("deep-left",
                    _goal(lambda a, b: A(A(A(A(a, b), a), b), a)),
                    "sat", "non-tautology"),
        StlcProblem("mixed-1",
                    _goal(lambda a, b: A(A(a, a), b)),
                    "sat", "non-tautology"),
        StlcProblem("mixed-2",
                    _goal(lambda a, b: A(b, A(A(a, b), a))),
                    "sat", "non-tautology"),
        # --- classical-only tautologies: uninhabited, tool diverges ---
        StlcProblem("peirce",
                    _goal(lambda a, b: A(A(A(a, b), a), a)),
                    "divergent", "classical-only"),
        StlcProblem("peirce-swap",
                    _goal(lambda a, b: A(A(A(b, a), b), b)),
                    "divergent", "classical-only"),
        StlcProblem("peirce-inst",
                    _goal(lambda a, b: A(A(A(a, prim_q()), a), a)),
                    "divergent", "classical-only"),
        # --- inhabited types: the assertion is violated ---
        StlcProblem("identity", _goal(lambda a, b: A(a, a)),
                    "unsat", "inhabited"),
        StlcProblem("konst", _goal(lambda a, b: A(a, A(b, a))),
                    "unsat", "inhabited"),
        StlcProblem("apply",
                    _goal(lambda a, b: A(A(a, b), A(a, b))),
                    "unsat", "inhabited"),
        StlcProblem("flip-konst", _goal(lambda a, b: A(a, A(b, b))),
                    "unsat", "inhabited"),
        StlcProblem("s-combinator-ish",
                    _goal(lambda a, b: A(A(a, A(a, b)), A(a, A(a, b)))),
                    "unsat", "inhabited"),
        StlcProblem("weak-peirce",
                    _goal(lambda a, b: A(A(A(A(a, b), a), a), A(A(a, b), a))),
                    "unsat", "inhabited"),
        StlcProblem("id-ground-p",
                    _goal(lambda a, b: A(prim_p(), prim_p())),
                    "unsat", "inhabited"),
        StlcProblem("id-ground-q",
                    _goal(lambda a, b: A(prim_q(), prim_q())),
                    "unsat", "inhabited"),
        StlcProblem("konst-ground",
                    _goal(lambda a, b: A(prim_p(), A(prim_q(), prim_p()))),
                    "unsat", "inhabited"),
        StlcProblem("chain",
                    _goal(lambda a, b: A(a, A(A(a, b), b))),
                    "unsat", "inhabited"),
    ]
    assert len(problems) == 23, f"expected 23 problems, got {len(problems)}"
    return problems
