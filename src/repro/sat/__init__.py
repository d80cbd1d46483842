"""SAT layer: the from-scratch CDCL solver.

Everything above this package (the model finder, the engine pool)
drives :class:`~repro.sat.solver.CDCLSolver` through the incremental
contract in its docstring.
"""

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
    "solve_cnf",
]
