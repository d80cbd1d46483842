"""The SatBackend boundary: the solver under the model finder satisfies
the protocol the finder, the pool and the selector machinery rely on."""

from repro.chc.transform import preprocess
from repro.mace import EnginePool
from repro.problems import even_system
from repro.sat.backend import SatBackend
from repro.sat.solver import CDCLSolver


class TestProtocol:
    def test_python_backend_satisfies_protocol(self):
        engine = EnginePool().engine_for(preprocess(even_system()))
        assert isinstance(engine.solver, SatBackend)

    def test_cdcl_solver_is_a_backend(self):
        assert isinstance(CDCLSolver(), SatBackend)
