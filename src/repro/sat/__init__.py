"""SAT layer: the backend protocol, the from-scratch CDCL solver, and
CNF utilities.

Everything above this package (the model finder, the engine pool)
drives the solver through the :class:`~repro.sat.backend.SatBackend`
protocol's incremental contract.
"""

from repro.sat.backend import SatBackend
from repro.sat.cnf import (
    at_most_one,
    exactly_one,
    from_dimacs,
    implies,
    to_dimacs,
)
from repro.sat.solver import (
    SNAPSHOT_VERSION,
    CDCLSolver,
    SatError,
    SatStats,
    brute_force_sat,
    solve_cnf,
)

__all__ = [
    "CDCLSolver",
    "SatBackend",
    "SatError",
    "SatStats",
    "at_most_one",
    "exactly_one",
    "from_dimacs",
    "implies",
    "SNAPSHOT_VERSION",
    "solve_cnf",
    "to_dimacs",
]
