"""The engine↔solver boundary: the :class:`SatBackend` protocol.

The finite model finder (:mod:`repro.mace.finder`), the campaign engine
pool (:mod:`repro.mace.pool`) and the selector machinery
(:mod:`repro.sat.cnf`) drive the in-repo :class:`~repro.sat.solver.
CDCLSolver` through exactly the incremental contract captured here —
variable/clause growth between solve calls, assumption-based solving
with per-call conflict and wall-clock budgets, tri-state answers,
failed-assumption cores with deletion-based minimization, level-0
queries, and database hygiene (``simplify`` / ``reduce_learned``).

The protocol is *structural* (:class:`typing.Protocol`): a solver
neither imports nor inherits anything from here — it just implements
the methods.

Contract fine print (what the model finder actually relies on):

* ``solve`` returns ``True`` / ``False`` / ``None`` (budget or deadline
  exhausted — indeterminate, never to be read as unsat);
* after ``False``, ``core()`` returns a subset of that call's
  assumptions whose conjunction with the database is unsat, and
  ``minimize_core()`` shrinks it further by bounded re-solving;
* after ``True``, ``model()`` returns the assignment and must refuse
  (raise) in any other state rather than serve stale values;
* ``fixed(lit)`` reports literals entailed by the database alone
  (level 0), ``None`` when the literal is not fixed there;
* ``stats`` exposes the :class:`~repro.sat.solver.SatStats` counter
  block; ``clauses_added`` and ``solve_calls`` must be exact (the
  incremental engine's reuse accounting is built on them).
"""

from __future__ import annotations

from typing import (
    Iterable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.sat.solver import SatStats


@runtime_checkable
class SatBackend(Protocol):
    """Structural interface of the SAT engine under the model finder.
    See the module docstring for the contract."""

    num_vars: int
    stats: SatStats

    def new_var(self) -> int:
        ...

    def new_vars(self, count: int) -> list[int]:
        ...

    def add_clause(self, literals: Iterable[int]) -> bool:
        ...

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        max_conflicts: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        ...

    def core(self) -> list[int]:
        ...

    def minimize_core(
        self,
        *,
        max_conflicts_per_probe: int = 1_000,
        deadline: Optional[float] = None,
        candidates: Optional[Sequence[int]] = None,
    ) -> list[int]:
        ...

    def model(self) -> dict[int, bool]:
        ...

    def fixed(self, lit: int) -> Optional[bool]:
        ...

    def simplify(self) -> int:
        ...

    def reduce_learned(self, keep: int) -> int:
        ...

    def clause_count(self) -> int:
        ...

    def learned_count(self) -> int:
        ...

    def snapshot(self) -> dict:
        ...
