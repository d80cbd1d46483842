"""CNF utilities: encodings, selector literals and DIMACS I/O."""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional, Sequence, TextIO

from repro.sat.solver import CDCLSolver, SatError


class SelectorPool:
    """Push-style allocation of selector (guard) literals.

    Assumption-based incrementality in the Eén–Sörensson style: instead
    of retracting clauses, a clause group is guarded by a selector
    literal ``s`` — the clause ``C`` is stored as ``¬s ∨ C`` (built by
    :meth:`guard`), which is vacuous unless ``s`` is assumed true.  A
    solver ``solve`` call then "pushes" a context by passing the
    active selectors as assumptions; popping is free because nothing was
    ever deleted, and learned clauses mentioning selectors stay valid
    for every future context.

    The pool only needs the solver's ``new_var`` and ``add_clause``.

    Selectors are allocated lazily per hashable key, so callers address
    them by meaning (e.g. ``("ex", sort, k)`` — "element ``k`` of
    ``sort`` exists") rather than by raw variable number.
    """

    def __init__(self, solver: CDCLSolver):
        self._solver = solver
        self._by_key: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_key

    def selector(self, key: Hashable) -> int:
        """The selector literal for ``key``, allocating on first use."""
        lit = self._by_key.get(key)
        if lit is None:
            lit = self._solver.new_var()
            self._by_key[key] = lit
        return lit

    def peek(self, key: Hashable) -> Optional[int]:
        """The selector for ``key`` if already allocated, else ``None``."""
        return self._by_key.get(key)

    def guard(
        self, literals: Iterable[int], *keys: Hashable
    ) -> list[int]:
        """``¬s1 ∨ ... ∨ ¬sn ∨ C``: clause active only under all keys."""
        return [-self.selector(k) for k in keys] + list(literals)

    def assumptions(
        self, on: Iterable[Hashable] = (), off: Iterable[Hashable] = ()
    ) -> list[int]:
        """Assumption literals activating ``on`` and deactivating ``off``."""
        return [self.selector(k) for k in on] + [
            -self.selector(k) for k in off
        ]

    def retire(self, key: Hashable) -> bool:
        """Permanently deactivate ``key``'s clause group.

        Pins the selector false with a unit clause, so every clause
        guarded by it is satisfied from level 0 onward — the
        assumption-based analogue of deleting the group (the clauses
        stay in the database but can never constrain a model again).
        The key is forgotten; a later :meth:`selector` call for the same
        key allocates a fresh literal, which is how a long-running
        engine (e.g. a campaign pool) recycles per-problem activation
        selectors without invalidating learned clauses that mention the
        retired one.  Returns False if ``key`` was never allocated.
        """
        lit = self._by_key.pop(key, None)
        if lit is None:
            return False
        self._solver.add_clause([-lit])
        return True

    def export_state(self) -> list[tuple[Hashable, int]]:
        """The live key→literal table as picklable pairs (for engine
        snapshots).  Keys are tuples over names/ints/sorts — all
        value-comparable across processes.  Retired keys are absent by
        construction (``retire`` pops them)."""
        return list(self._by_key.items())

    def import_state(
        self, items: Iterable[tuple[Hashable, int]]
    ) -> None:
        """Adopt an exported table wholesale (restore path).  The
        literals must already exist in the attached solver — the engine
        restores its solver snapshot first, which recreates every
        variable."""
        self._by_key = {key: int(lit) for key, lit in items}


def at_most_one(literals: Sequence[int]) -> Iterator[list[int]]:
    """Pairwise at-most-one encoding.

    The model finder's cells (``f(a) = v`` for each value ``v``) are small
    (domain sizes stay in single digits — Figure 6), so the quadratic
    pairwise encoding beats commander/sequential encodings here.
    """
    for i in range(len(literals)):
        for j in range(i + 1, len(literals)):
            yield [-literals[i], -literals[j]]


def exactly_one(literals: Sequence[int]) -> Iterator[list[int]]:
    """Exactly-one: the at-least-one clause plus pairwise at-most-one."""
    if not literals:
        raise SatError("exactly_one of no literals is unsatisfiable")
    yield list(literals)
    yield from at_most_one(literals)


def implies(premises: Sequence[int], conclusion: int) -> list[int]:
    """The clause for ``premises -> conclusion``."""
    return [-p for p in premises] + [conclusion]


def to_dimacs(clauses: Sequence[Sequence[int]], num_vars: int) -> str:
    """Render a clause set in DIMACS CNF format."""
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> tuple[list[list[int]], int]:
    """Parse DIMACS CNF; returns ``(clauses, num_vars)``."""
    clauses: list[list[int]] = []
    num_vars = 0
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SatError(f"malformed problem line: {line!r}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    for clause in clauses:
        for lit in clause:
            if abs(lit) > num_vars:
                num_vars = abs(lit)
    return clauses, num_vars
