"""MACE-style finite model finder over the in-repo CDCL SAT solver."""

from repro.mace.finder import (
    ENGINE_SNAPSHOT_VERSION,
    EngineSnapshotError,
    FinderError,
    FinderOptions,
    FinderResult,
    FinderStats,
    FlatAtom,
    FlatClause,
    ModelFinder,
    engine_fingerprint,
    find_model,
    flatten_clause,
    size_vectors,
)
from repro.mace.model import FiniteModel, ModelError, validate_model
from repro.mace.pool import EnginePool, PoolStats, signature_fingerprint

__all__ = [
    "ENGINE_SNAPSHOT_VERSION",
    "EnginePool",
    "EngineSnapshotError",
    "PoolStats",
    "engine_fingerprint",
    "signature_fingerprint",
    "FinderError",
    "FinderOptions",
    "FinderResult",
    "FinderStats",
    "FiniteModel",
    "FlatAtom",
    "FlatClause",
    "ModelError",
    "ModelFinder",
    "find_model",
    "flatten_clause",
    "size_vectors",
    "validate_model",
]
