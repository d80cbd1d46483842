"""Campaign batch mode: persistent model-finding engines shared across problems.

The paper's evaluation (Sec. 6) runs whole benchmark campaigns —
hundreds of CHC systems that overwhelmingly share their ADT signatures.
Building a fresh incremental engine per problem discards learned
clauses, VSIDS activity and the signature-level cell encoding between
runs; the :class:`EnginePool` keeps one :class:`_IncrementalEngine`
alive per *engine key* — a finder configuration's
:meth:`~repro.mace.finder.FinderOptions.engine_key` plus the canonical
signature fingerprint — instead, so every compatible problem rides the
same persistent CDCL state.
Cross-problem isolation is by selector-guarded clause groups (see the
campaign section of the :mod:`repro.mace.finder` docstring): each
clause's ground instances are guarded by a selector keyed on canonical
clause structure, a problem is activated through assumptions on exactly
its groups' selectors, and structurally identical clauses across
problems — a benchmark family's shared rules — share one encoding and
the learned clauses derived from it.  Nothing is ever retracted, so
everything stays valid for every future problem.

Reset conditions (bounding a long campaign's memory):

* an engine that has hosted :data:`MAX_PROBLEMS_PER_ENGINE` contexts is
  *recycled* — the pool builds a fresh engine for the fingerprint while
  finders still holding the old one keep working standalone;
* when more than :data:`MAX_ENGINES` fingerprints are live, the least
  recently used engine is evicted outright;
* finished problems should be :meth:`released <EnginePool.release>`:
  their clause groups lose a reference, and groups nothing references
  for ``GC_WINDOW`` further registrations are retired (selector pinned
  false, clauses dropped by a level-0 simplify).

Warm persistence
----------------

An engine pickles as it is (see the :mod:`repro.mace.finder`
docstring), and the pool exploits that one way: ``cache_dir`` turns on
a **disk-backed warm cache**.  A cache file, one per slot key, holds
the pickled pair of the engine's
:meth:`~repro.mace.finder._IncrementalEngine.header` and the engine,
written atomically.  Recycled and evicted engines are persisted, a
:meth:`_slot_for` miss tries the cache before building cold, and
:meth:`flush_cache` persists every live engine, so a second campaign
over the same benchmark family starts from the first one's encodings,
learned clauses and refutation bounds.  It is the only way engine state
crosses a process boundary: supervised workers read and write the same
cache.

Every load runs :func:`~repro.mace.finder.check_engine` on the stored
header, the rule engine injection uses; *any* failure — corrupt file,
another layout version, foreign engine key or signature — counts as
``snapshot_rejected`` and falls back to a cold engine, never an error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.chc.clauses import CHCSystem
from repro.mace.finder import (
    FinderOptions,
    ModelFinder,
    _IncrementalEngine,
    _signature,
    check_engine,
    engine_fingerprint,
)

#: live engines (one per slot key) beyond which the least recently
#: used one is evicted
MAX_ENGINES = 8
#: problems an engine hosts before the pool recycles it
MAX_PROBLEMS_PER_ENGINE = 64


def signature_fingerprint(system: CHCSystem) -> tuple:
    """A canonical, hashable fingerprint of a system's signature.

    Two systems with equal fingerprints declare the same sorts, the same
    ADT constructors (name, argument sorts, result sort) and the same
    uninterpreted predicates (name, argument sorts) — exactly the data
    the propositional encoding's shared layer (existence chains, cells,
    symmetry cuts) is built from, so their finite-model searches can
    share one incremental engine.  Clause sets may differ arbitrarily;
    those stay per-problem behind activation selectors.

    Delegates to :func:`repro.mace.finder.engine_fingerprint`, so the
    fingerprint in a pooled engine's header is byte-for-byte the one
    the pool keys that engine under.
    """
    return engine_fingerprint(
        system.adts.sorts,
        system.adts.signature.functions.values(),
        system.predicates.values(),
    )


def _slot_key(system: CHCSystem, options: FinderOptions) -> tuple:
    """The pool's slot and cache-file key of ``system`` under
    ``options``: ``(options.engine_key(), signature fingerprint)``."""
    return (options.engine_key(), signature_fingerprint(system))


@dataclass
class PoolStats:
    """All counters of one campaign pool, serialized uniformly.

    The reuse block: ``engine_hits`` counts problems that joined an
    engine another problem had already warmed up — the reuse events the
    pool exists to create — and ``cross_problem_clauses`` sums the
    clauses those problems found already encoded on arrival.  The
    lifecycle block (``engine_recycles`` / ``engines_evicted`` /
    ``released``) tracks the memory bounds.  The warm-cache block:
    ``snapshot_saves`` engines persisted to the warm cache,
    ``snapshot_hits`` engines started warm from it, ``snapshot_misses``
    cache lookups that found no file, ``snapshot_rejected`` files
    refused for any reason (corrupt, another layout version, foreign
    engine key or signature) — rejections always fall back cold.

    ``engines_live`` is a gauge, refreshed by :meth:`EnginePool.as_dict`;
    everything else is a monotone counter.  :meth:`as_dict` is the one
    serialization used by reports and JSON artifacts, and
    :func:`publish_pool_stats` the one way it reaches the metrics
    registry.
    """

    problems: int = 0
    engines_created: int = 0
    engine_hits: int = 0
    cross_problem_clauses: int = 0
    engine_recycles: int = 0
    engines_evicted: int = 0
    released: int = 0
    snapshot_saves: int = 0
    snapshot_hits: int = 0
    snapshot_misses: int = 0
    snapshot_rejected: int = 0
    engines_live: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class _PooledEngine:
    """One engine plus the pool's bookkeeping about it."""

    __slots__ = ("engine", "problems_hosted")

    def __init__(self, engine: _IncrementalEngine):
        self.engine = engine
        self.problems_hosted = 0


class EnginePool:
    """Persistent :class:`ModelFinder` engines keyed by engine key.

    ``finder(system, options)`` hands out a ModelFinder whose engine is
    shared with every previous problem of the same signature and
    :meth:`~repro.mace.finder.FinderOptions.engine_key`; other keys get
    (and warm up) separate engines.  The pool is a process-lifetime
    object: one per campaign, threaded through
    :class:`repro.core.ringen.RInGenConfig` and the harness.  With
    ``cache_dir`` set, engine state additionally persists *across*
    processes and campaigns (see the module docstring).
    """

    def __init__(self, *, cache_dir: Optional[Union[str, Path]] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = PoolStats()
        self._engines: "OrderedDict[tuple, _PooledEngine]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._engines)

    def fingerprint(self, system: CHCSystem) -> tuple:
        return signature_fingerprint(system)

    # -- disk warm cache ---------------------------------------------------
    def _cache_path(self, key: tuple) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        return self.cache_dir / f"{digest}.engine"

    def _persist(self, key: tuple, engine: _IncrementalEngine) -> bool:
        """Write ``engine`` to the warm cache (atomic; best-effort)."""
        path = self._cache_path(key)
        if path is None:
            return False
        try:
            payload = pickle.dumps(
                (engine.header(), engine), protocol=pickle.HIGHEST_PROTOCOL
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # a half-written or unwritable cache must never fail the
            # campaign; the next run simply starts cold
            return False
        self.stats.snapshot_saves += 1
        return True

    def _load(
        self, key: tuple, options: FinderOptions
    ) -> Optional[_IncrementalEngine]:
        """``key``'s engine from the warm cache, vetted by
        :func:`~repro.mace.finder.check_engine` on its stored header;
        ``None`` on a miss or a rejected file."""
        path = self._cache_path(key)
        if path is None:
            return None
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.snapshot_misses += 1
            return None
        try:
            header, engine = pickle.loads(data)
            check_engine(header, options, key[1])
        except Exception:
            # corrupt, another layout version or foreign: fall back cold
            self.stats.snapshot_rejected += 1
            return None
        self.stats.snapshot_hits += 1
        return engine

    def flush_cache(self) -> int:
        """Persist every live engine to the warm cache; returns count."""
        if self.cache_dir is None:
            return 0
        written = 0
        for key, slot in self._engines.items():
            if self._persist(key, slot.engine):
                written += 1
        return written

    # -- engine lookup -----------------------------------------------------
    def _evict_over_limit(self) -> None:
        while len(self._engines) > MAX_ENGINES:
            key, slot = self._engines.popitem(last=False)
            self._persist(key, slot.engine)
            self.stats.engines_evicted += 1

    def _slot_for(
        self, system: CHCSystem, options: FinderOptions
    ) -> _PooledEngine:
        key = _slot_key(system, options)
        from_cache_ok = True
        slot = self._engines.get(key)
        if (
            slot is not None
            and slot.problems_hosted >= MAX_PROBLEMS_PER_ENGINE
        ):
            # recycle: bound the clause database a very long campaign
            # accumulates; finders still holding the old engine keep
            # working standalone.  The retiring engine goes to the warm
            # cache for *future processes*, but this process must build
            # the replacement cold — reloading the engine we just wrote
            # would undo the recycle's memory bound
            self._persist(key, slot.engine)
            del self._engines[key]
            slot = None
            self.stats.engine_recycles += 1
            from_cache_ok = False
        if slot is None and from_cache_ok:
            cached = self._load(key, options)
            if cached is not None:
                slot = _PooledEngine(cached)
                self._engines[key] = slot
        if slot is None:
            slot = _PooledEngine(
                _IncrementalEngine(*_signature(system), options)
            )
            self._engines[key] = slot
            self.stats.engines_created += 1
        self._engines.move_to_end(key)
        self._evict_over_limit()
        return slot

    def engine_for(
        self, system: CHCSystem, options: FinderOptions = FinderOptions()
    ) -> _IncrementalEngine:
        """The shared engine for ``system`` under ``options`` (creating
        it)."""
        return self._slot_for(system, options).engine

    def finder(
        self, system: CHCSystem, options: FinderOptions = FinderOptions()
    ) -> ModelFinder:
        """A ModelFinder for ``system`` riding the pooled engine; the
        deadline and minimum size go to each of its ``search`` calls."""
        slot = self._slot_for(system, options)
        engine = slot.engine
        hit = engine.problems_registered > 0
        finder = ModelFinder(system, options, engine=engine)
        self.stats.problems += 1
        slot.problems_hosted += 1
        if hit:
            self.stats.engine_hits += 1
            self.stats.cross_problem_clauses += (
                engine.solver.stats.clauses_added
            )
        return finder

    def release(self, finder: ModelFinder) -> None:
        """Retire a finished problem's activation selector.

        Safe to call for finders that never searched (no context yet)
        and idempotent for already-released ones.
        """
        engine, ctx = finder._engine, finder._ctx
        if engine is None or ctx is None or ctx.released:
            return
        engine.release(ctx)
        self.stats.released += 1

    def as_dict(self) -> dict:
        """Plain-dict stats view for reports / JSON artifacts."""
        self.stats.engines_live = len(self._engines)
        return self.stats.as_dict()


def publish_pool_stats(metrics, stats: dict) -> None:
    """Fold a :meth:`PoolStats.as_dict` view into ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`): the counters add
    under ``pool.``, and ``engines_live`` is set as the gauge
    ``pool.engines_live``."""
    counters = dict(stats)
    live = counters.pop("engines_live", None)
    metrics.publish("pool", counters)
    if live is not None:
        metrics.gauge("pool.engines_live", live)
