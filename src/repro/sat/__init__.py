"""SAT layer: the from-scratch CDCL solver and CNF utilities.

Everything above this package (the model finder, the engine pool)
drives :class:`~repro.sat.solver.CDCLSolver` through the incremental
contract in its docstring.
"""

from repro.sat.cnf import (
    at_most_one,
    exactly_one,
    from_dimacs,
    implies,
    to_dimacs,
)
from repro.sat.solver import (
    CDCLSolver,
    SatError,
    SatStats,
    solve_cnf,
)

__all__ = [
    "CDCLSolver",
    "SatError",
    "SatStats",
    "at_most_one",
    "exactly_one",
    "from_dimacs",
    "implies",
    "solve_cnf",
    "to_dimacs",
]
