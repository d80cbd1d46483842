"""Benchmark problem metadata and suite containers.

A :class:`Problem` bundles a lazily-built CHC system with its ground truth
and provenance; a suite is a named, ordered list of problems.  Ground
truth statuses:

* ``sat`` — the system is satisfiable (the program is safe),
* ``unsat`` — a refutation exists,
* ``sat`` problems additionally carry ``expected_classes``: which
  representation classes contain *some* safe inductive invariant, which is
  what determines which solver families can in principle succeed (the
  correlation the paper highlights: "the amount of solved tasks correlates
  with definability").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.chc.clauses import CHCSystem


@dataclass
class Problem:
    """One benchmark instance."""

    name: str
    suite: str
    family: str
    factory: Callable[[], CHCSystem]
    expected_status: str  # "sat" | "unsat"
    expected_classes: frozenset[str] = frozenset()  # subset of Reg/Elem/SizeElem
    notes: str = ""

    def build(self) -> CHCSystem:
        system = self.factory()
        system.name = self.name
        return system

    def __str__(self) -> str:
        classes = ",".join(sorted(self.expected_classes)) or "-"
        return (
            f"{self.suite}/{self.name} [{self.family}] "
            f"expected={self.expected_status} classes={classes}"
        )


@dataclass
class Suite:
    """A named collection of problems."""

    name: str
    problems: list[Problem] = field(default_factory=list)

    def add(
        self,
        name: str,
        family: str,
        factory: Callable[[], CHCSystem],
        expected_status: str,
        classes: Iterator[str] = (),
        notes: str = "",
    ) -> Problem:
        problem = Problem(
            name,
            self.name,
            family,
            factory,
            expected_status,
            frozenset(classes),
            notes,
        )
        self.problems.append(problem)
        return problem

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self) -> Iterator[Problem]:
        return iter(self.problems)

    def by_family(self) -> dict[str, list[Problem]]:
        out: dict[str, list[Problem]] = {}
        for p in self.problems:
            out.setdefault(p.family, []).append(p)
        return out

    def sat_problems(self) -> list[Problem]:
        return [p for p in self.problems if p.expected_status == "sat"]

    def unsat_problems(self) -> list[Problem]:
        return [p for p in self.problems if p.expected_status == "unsat"]
