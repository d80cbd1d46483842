"""Baseline solvers: one per invariant representation class of Table 1.

* :class:`ElemSolver` — elementary invariants (Z3/Spacer's class),
* :class:`SizeElemSolver` — elementary + size constraints (Eldarica's),
* :class:`InductSolver` — inductive refutation only (CVC4-Ind),
* :class:`VeriMapSolver` — ADT-eliminating transformation (VeriMAP-iddt),

plus :data:`SOLVERS`, the one table of solver names (read by the
harness, the CLI and the execution layer): each name's factory and
Table 1 representation class, with Table 1's aliases ``spacer`` (Elem)
and ``eldarica`` (SizeElem).  RInGen itself lives in :mod:`repro.core`.

The four baselines share one skeleton, :mod:`repro.solvers.synth`: the
refute-first counterexample search, and (Elem, SizeElem) one ICE
search.  Each keeps the caps of the tool it stands for as module
constants and takes only a ``timeout``.
"""

from typing import Callable, NamedTuple

from repro.core.ringen import RInGen, RInGenConfig
from repro.solvers.elem import (
    ElemFormula,
    ElemInvariant,
    ElemSolver,
    solve_elem,
)
from repro.solvers.induct import InductSolver, solve_induct
from repro.solvers.sizeelem import (
    SizeElemInvariant,
    SizeElemSolver,
    SizeTemplate,
    solve_sizeelem,
)
from repro.solvers.verimap import VeriMapSolver, solve_verimap


class SolverSpec(NamedTuple):
    """``factory(timeout, **ringen_opts)`` builds the solver;
    ``representation`` is its Table 1 header class."""

    factory: Callable[..., object]
    representation: str


def _baseline(solver: type, representation: str):
    # the baselines take no RInGen options
    return SolverSpec(lambda timeout, **_: solver(timeout), representation)


SOLVERS: dict[str, SolverSpec] = {
    "ringen": SolverSpec(
        lambda timeout, **opts: RInGen(RInGenConfig(timeout=timeout, **opts)),
        "Reg",
    ),
    "elem": _baseline(ElemSolver, "Elem"),
    "spacer": _baseline(ElemSolver, "Elem"),
    "sizeelem": _baseline(SizeElemSolver, "SizeElem"),
    "eldarica": _baseline(SizeElemSolver, "SizeElem"),
    "cvc4-ind": _baseline(InductSolver, "-"),
    "verimap-iddt": _baseline(VeriMapSolver, "-"),
}


def make_solver(name: str, timeout: float, **ringen_opts):
    """Instantiate the solver :data:`SOLVERS` registers as ``name``.
    ``ringen_opts`` are :class:`~repro.core.ringen.RInGenConfig` fields
    (e.g. ``engine_pool``, ``engine_cache_dir``); baselines ignore them.
    """
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}")
    return SOLVERS[name].factory(timeout, **ringen_opts)


__all__ = [
    "ElemFormula",
    "ElemInvariant",
    "ElemSolver",
    "InductSolver",
    "SOLVERS",
    "SizeElemInvariant",
    "SizeElemSolver",
    "SizeTemplate",
    "SolverSpec",
    "VeriMapSolver",
    "make_solver",
    "solve_elem",
    "solve_induct",
    "solve_sizeelem",
    "solve_verimap",
]
