"""Speculative parallel size sweeps: a process-sharded vector portfolio.

The sequential sweep (:meth:`repro.mace.finder.ModelFinder.search`)
tries candidate size vectors in order of ascending total size on one
incremental engine.  This module keeps the same frontier and the same
verdict semantics but dispatches vectors to a portfolio of N engine
*shards* — subprocesses each hosting a private incremental engine,
warm-restored from an engine snapshot when one is available (the
:meth:`~repro.mace.pool.EnginePool.snapshot_for` fan-out) — and
*speculates*: while the lowest outstanding vector is still being
solved, later vectors are already running elsewhere.

Determinism / parity contract
-----------------------------

* A refutation is a sound, engine-independent fact (the vector provably
  has no model), so which engine refutes a vector never matters.
* The :class:`SweepScheduler` commits outcomes **strictly in sweep
  order**: a SAT answer wins only once every earlier vector has
  committed non-SAT, so the winning size vector — and with it the
  status and the model size — is exactly what the sequential sweep
  would have returned.  Outstanding speculation above the winner is
  cancelled (shards killed, partial answers discarded).
* Model *internals* may differ from a sequential run's (a CDCL model
  depends on search history); statuses, winning vector and model size
  do not, and every returned model still goes through the exact
  Herbrand verification in :mod:`repro.core.ringen`.
* With finite conflict budgets, *which* vectors exhaust their budget
  can differ between runs (each stays an honest "unknown"); the
  default budgets are effectively unbounded on the supported suites.

Core broadcast
--------------

Every refutation core a shard extracts is translated shard-side into
per-sort ``(lower, upper)`` bounds (the PR 3 logic), shipped back with
the verdict, folded into the scheduler's master bound list — pruning
the frontier before dispatch, ``vectors_skipped`` — and broadcast to
every other live shard, which prunes its own already-dispatched queue
without a solver call (``speculative_pruned``).

Fault tolerance
---------------

A shard that dies mid-speculation (crash, kill, injected fault) is
respawned from the same snapshot seed with the accumulated bounds
replayed through its spawn payload, and its in-flight vectors are
redispatched at ``attempt + 1``; a vector that keeps killing shards is
written off as exhausted after :data:`MAX_VECTOR_ATTEMPTS` (an honest
"unknown", never a wrong verdict).  Shards are driven directly over
``multiprocessing`` pipes — the supervised-worker protocol machinery
(:mod:`repro.exec.worker` hosts the shard entrypoint) with vector-level
task granularity and ``core`` control messages in both directions.

In-process fallback
-------------------

Daemonic processes may not have children, so inside an isolated
supervised worker (``--isolate`` campaigns) the portfolio falls back to
an in-process variant: N private engines in this process, round-robin,
one whole vector per turn.  Scheduler, commit order and broadcast
semantics are identical; there is no wall-clock speedup (cross-problem
parallelism already comes from the supervisor in that mode).
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from multiprocessing import connection as mp_connection
from typing import Optional, Sequence

from repro.chc.clauses import CHCSystem
from repro.exec.faults import ReproFaultPlan
from repro.mace.finder import (
    FinderError,
    FinderOptions,
    FinderResult,
    FinderStats,
    _IncrementalEngine,
    engine_fingerprint,
    flatten_clause,
    size_vectors,
)
from repro.obs import runtime as obs_runtime

_UNSET = object()

#: vectors queued per shard beyond the one it is solving: the queue
#: keeps a shard busy the moment it answers while leaving queued
#: vectors exposed to broadcast cores (the shard-side prune needs a
#: queue deep enough that a sibling's refutation lands before the
#: covered vector starts; shallower queues prune almost never, much
#: deeper ones waste speculation past the commit horizon)
SHARD_QUEUE_DEPTH = 4

#: dispatch attempts per vector before a repeatedly shard-killing
#: vector is written off as exhausted, and respawns per shard slot
#: before the slot is abandoned
MAX_VECTOR_ATTEMPTS = 3


def _covered(
    bounds: Sequence[tuple[dict, dict]], sizes: tuple[int, ...]
) -> bool:
    """True when some (index-keyed) core bound pair refutes ``sizes``."""
    for lower, upper in bounds:
        if all(sizes[i] >= k for i, k in lower.items()) and all(
            sizes[i] <= k for i, k in upper.items()
        ):
            return True
    return False


class _ShardRunner:
    """One engine shard: the portfolio member that actually solves.

    Process mode runs it behind a pipe
    (:func:`repro.exec.worker.shard_entry`); the in-process fallback
    drives the same object directly.  Either way it owns a private
    incremental engine — warm-restored from the payload snapshot when
    :func:`~repro.mace.finder.check_engine` accepts it for the payload's
    options and signature, cold otherwise — plus the sibling bounds
    broadcast to it, and renders every answer as the scheduler's wire
    dict.
    """

    def __init__(self, payload: dict):
        self.uid = payload["shard"]
        self.isolated = bool(payload.get("isolated"))
        self.options: FinderOptions = payload["options"]
        self.fault_plan = ReproFaultPlan.parse(payload.get("fault_plan"))
        system: CHCSystem = payload["system"]
        sorts = sorted(system.adts.sorts, key=lambda s: s.name)
        functions = sorted(
            system.adts.signature.functions.values(), key=lambda f: f.name
        )
        predicates = sorted(
            system.predicates.values(), key=lambda p: p.name
        )
        self.stats = FinderStats(incremental=True)
        engine = None
        snap = payload.get("snapshot")
        if snap is not None:
            try:
                engine = _IncrementalEngine.restore(
                    snap,
                    self.options,
                    engine_fingerprint(sorts, functions, predicates),
                )
                self.stats.engine_shared = True
            except Exception:
                engine = None  # stale or foreign snapshot: start cold
        if engine is None:
            engine = _IncrementalEngine(
                sorts, functions, predicates, self.options
            )
        self.engine = engine
        # a restored engine's signature objects are value-equal copies
        # of the payload's; key size dicts by the engine's own
        self.sorts = list(engine.sorts)
        self._sort_pos = {s: i for i, s in enumerate(self.sorts)}
        counter = itertools.count()
        self.ctx = engine.register(
            [flatten_clause(cl, counter) for cl in system.clauses]
        )
        #: index-keyed bounds broadcast from sibling shards; checked
        #: before solving a dispatched vector — a hit is a shard-side
        #: prune, no solver call
        self.foreign_bounds: list[tuple[dict, dict]] = []
        # a respawned shard replays the bounds accumulated before its
        # predecessor died (the scheduler puts them in the payload)
        self.adopt_bounds(payload.get("bounds") or ())
        self._start = time.monotonic()
        self._base_added = engine.total_added
        self._base_learned = engine.total_learned
        self._base_glue = engine.total_glue

    def adopt_bounds(
        self, bounds: Sequence[tuple[dict, dict]]
    ) -> None:
        """Fold broadcast (index-keyed) bounds from sibling shards."""
        self.foreign_bounds.extend(
            (dict(lower), dict(upper)) for lower, upper in bounds
        )

    def _index_bounds(
        self, bounds: tuple[dict, dict]
    ) -> tuple[dict, dict]:
        """Sort-keyed engine bounds → index-keyed wire bounds."""
        lower, upper = bounds
        pos = self._sort_pos
        return (
            {pos[s]: k for s, k in lower.items()},
            {pos[s]: k for s, k in upper.items()},
        )

    def solve_vector(
        self,
        seq: int,
        sizes_t: tuple[int, ...],
        attempt: int,
        deadline: Optional[float],
    ) -> dict:
        """Solve (or prune) one dispatched vector; returns the wire
        result dict — outcome, fresh core bounds, cumulative stats."""
        if self.isolated:
            # deterministic fault injection, keyed like supervised
            # tasks: the integer key is the vector sequence number
            self.fault_plan.fire(
                f"shard{self.uid}",
                seq,
                attempt,
                isolated=True,
                timeout=None,
                mem_limit_mb=None,
            )
        result: dict = {"kind": "result", "seq": seq, "shard": self.uid}
        sizes = dict(zip(self.sorts, sizes_t))
        if self.options.core_guided_sweep and self.engine.vector_covered(
            self.ctx, sizes
        ):
            # own core (or one inherited with a restored engine): the
            # scheduler's frontier filter just had not caught up with it
            self.stats.vectors_skipped += 1
            result["outcome"] = "skipped"
            result["foreign"] = False
        elif _covered(self.foreign_bounds, sizes_t):
            self.stats.vectors_skipped += 1
            result["outcome"] = "skipped"
            result["foreign"] = True
        else:
            self.stats.attempts += 1
            pre_cores = len(self.ctx.refuted_cores)
            outcome = self.engine.try_vector(
                self.ctx, sizes, self.stats, self.options, deadline=deadline
            )
            if outcome.model is not None:
                result["outcome"] = "sat"
                result["model"] = outcome.model
                self.stats.model_size = outcome.model.size()
            elif outcome.refuted:
                result["outcome"] = "refuted"
            else:
                result["outcome"] = "exhausted"
            fresh = self.ctx.refuted_cores[pre_cores:]
            if fresh:
                result["cores"] = [self._index_bounds(b) for b in fresh]
            if self.ctx.hopeless:
                result["hopeless"] = True
        # cumulative mirror of ModelFinder.search's finish() fields, so
        # the scheduler's newest-stats-wins fold stays additive-correct
        self.stats.elapsed = time.monotonic() - self._start
        self.stats.clauses_encoded = (
            self.engine.total_added - self._base_added
        )
        self.stats.learned_total = (
            self.engine.total_learned - self._base_learned
        )
        self.stats.learned_glue = (
            self.engine.total_glue - self._base_glue
        )
        self.stats.learned_kept = self.engine.solver.learned_count()
        result["stats"] = self.stats.as_dict()
        return result


class _ProcessShard:
    """Scheduler-side handle on one shard subprocess."""

    def __init__(self, ctx, payload: dict):
        from repro.exec import worker as exec_worker

        self.uid = payload["shard"]
        parent, child = ctx.Pipe(duplex=True)
        self.conn = parent
        self.proc = ctx.Process(
            target=exec_worker.shard_entry,
            args=(child, payload),
            daemon=True,
        )
        self.proc.start()
        child.close()
        #: seq -> (sizes tuple, attempt) for every unanswered dispatch
        self.inflight: dict[int, tuple[tuple[int, ...], int]] = {}
        self.dead = False

    @property
    def depth(self) -> int:
        return len(self.inflight)

    def _send(self, msg: dict) -> None:
        try:
            self.conn.send(msg)
        except (OSError, ValueError):
            self.dead = True

    def dispatch(
        self,
        seq: int,
        sizes_t: tuple[int, ...],
        attempt: int,
        deadline: Optional[float],
    ) -> None:
        self.inflight[seq] = (sizes_t, attempt)
        self._send(
            {
                "kind": "vector",
                "seq": seq,
                "sizes": list(sizes_t),
                "attempt": attempt,
                "deadline": deadline,
            }
        )

    def broadcast(self, bounds: list) -> None:
        self._send({"kind": "core", "bounds": bounds})

    def poll(self) -> list[dict]:
        """Drain available messages; EOF marks the shard dead (its
        buffered answers are still delivered first — pipe semantics)."""
        out: list[dict] = []
        if self.dead:
            return out
        try:
            while self.conn.poll(0):
                msg = self.conn.recv()
                if msg.get("kind") == "result":
                    self.inflight.pop(msg.get("seq"), None)
                out.append(msg)
        except (EOFError, OSError):
            self.dead = True
        return out

    def stop(self) -> None:
        self._send({"kind": "stop"})

    def kill(self) -> None:
        from repro.exec.supervisor import _kill

        try:
            self.conn.close()
        except OSError:
            pass
        _kill(self.proc)


class _SweepState:
    """Sweep-order bookkeeping shared by both portfolio modes.

    Owns the frontier iterator, the master (index-keyed) bound list,
    per-sequence outcomes, and the strictly-in-order commit pointer
    that makes the parallel sweep's verdict match the sequential one.
    Bounds only ever come from cores the shards recorded, so with core
    guidance off the list stays empty and nothing is pruned.
    """

    def __init__(
        self,
        sorts: list,
        options: FinderOptions,
        min_total: int,
        stats: FinderStats,
    ):
        self._iter = size_vectors(sorts, options.max_total_size, min_total)
        self._sorts = sorts
        self.stats = stats
        self.bounds: list[tuple[dict, dict]] = []
        self.next_seq = 0
        self.next_commit = 0
        self.outcomes: dict[int, dict] = {}
        self.exhausted_frontier = False
        self.sat_seq: Optional[int] = None
        self.winner = None  # FiniteModel of the committed winning vector
        self.hopeless = False
        self.complete = True

    def next_vector(self) -> Optional[tuple[int, tuple[int, ...]]]:
        """Next uncovered frontier vector with its sequence number.

        ``None`` once the frontier is exhausted — or while a SAT answer
        is pending commit: vectors above it can never win, so dispatch
        stops (in-flight lower vectors still resolve normally).
        """
        if self.sat_seq is not None:
            return None
        while True:
            sizes = next(self._iter, None)
            if sizes is None:
                self.exhausted_frontier = True
                return None
            sizes_t = tuple(sizes[s] for s in self._sorts)
            if _covered(self.bounds, sizes_t):
                # a broadcast core already refutes this vector: pruned
                # before dispatch, exactly the sequential skip
                self.stats.vectors_skipped += 1
                continue
            seq = self.next_seq
            self.next_seq += 1
            return seq, sizes_t

    def add_bounds(
        self, bounds: Sequence[tuple[dict, dict]]
    ) -> list[tuple[dict, dict]]:
        """Fold shard-reported bounds; returns the genuinely new ones."""
        fresh = []
        for bound in bounds:
            pair = (dict(bound[0]), dict(bound[1]))
            if pair not in self.bounds:
                self.bounds.append(pair)
                fresh.append(pair)
        return fresh

    def resolve(self, seq: int, outcome: dict) -> None:
        """Record a shard answer (or write-off) for one sequence."""
        if seq < self.next_commit or seq in self.outcomes:
            return  # late duplicate (e.g. answered then redispatched)
        self.outcomes[seq] = outcome
        if outcome.get("hopeless"):
            # size-independent refutation: definitive for the whole
            # sweep regardless of order, same as the sequential loop
            self.hopeless = True
        if outcome["outcome"] == "sat" and (
            self.sat_seq is None or seq < self.sat_seq
        ):
            self.sat_seq = seq

    def commit(self) -> bool:
        """Advance the in-order pointer; True once a winner committed."""
        while self.next_commit in self.outcomes:
            outcome = self.outcomes.pop(self.next_commit)
            self.next_commit += 1
            kind = outcome["outcome"]
            if kind == "sat":
                self.winner = outcome["model"]
                return True
            if kind == "exhausted":
                self.complete = False
            # refuted / skipped just advance the pointer
        return False


class SweepScheduler:
    """Drives one speculative sweep over a portfolio of shards."""

    def __init__(self, finder: "ParallelModelFinder", mode: str):
        self.finder = finder
        self.mode = mode
        self.shards = finder.options.sweep_shards
        self.stats = FinderStats(incremental=True, sweep_shards=self.shards)
        #: newest cumulative FinderStats dict per shard uid — survives
        #: the shard's death, folded additively at the end
        self.shard_stats: dict[int, dict] = {}
        self.state: Optional[_SweepState] = None

    # -- shared result handling -------------------------------------------
    def _consume(self, msg: dict, siblings_fn) -> None:
        """Fold one shard message into the sweep state.

        ``siblings_fn(origin_uid)`` yields the live sibling receivers a
        fresh core should be broadcast to (mode-specific transport).
        """
        kind = msg.get("kind")
        if kind == "done":
            metrics = obs_runtime.METRICS
            if metrics is not None and msg.get("obs_metrics"):
                metrics.merge(msg["obs_metrics"])
            spans = msg.get("obs_spans")
            if spans and obs_runtime.TRACER is not None:
                obs_runtime.TRACER.absorb(spans)
            return
        if kind != "result":
            return
        state = self.state
        uid = msg.get("shard")
        if msg.get("stats"):
            self.shard_stats[uid] = msg["stats"]
        spans = msg.get("obs_spans")
        if spans and obs_runtime.TRACER is not None:
            obs_runtime.TRACER.absorb(spans)
        if msg.get("outcome") == "skipped" and msg.get("foreign"):
            # a sibling's broadcast core pruned this shard's queue —
            # the cross-process vectors_skipped the tentpole exists for
            self.stats.speculative_pruned += 1
        fresh = state.add_bounds(msg.get("cores") or ())
        if fresh:
            receivers = list(siblings_fn(uid))
            for receiver in receivers:
                receiver(fresh)
            if receivers:
                self.stats.cores_broadcast += len(fresh)
        state.resolve(
            msg["seq"],
            {
                "outcome": msg["outcome"],
                "model": msg.get("model"),
                "hopeless": msg.get("hopeless", False),
            },
        )

    def _finalize(
        self, start: float, model, complete: bool
    ) -> FinderResult:
        stats = self.stats
        for shard_dict in self.shard_stats.values():
            try:
                stats.merge(FinderStats(**shard_dict))
            except TypeError:
                pass  # foreign/stale stats dict: drop, never crash
        # shard elapsed times overlap; wall clock is the honest figure
        stats.elapsed = time.monotonic() - start
        stats.sweep_shards = self.shards
        if self.state is not None and self.state.hopeless:
            stats.hopeless = True
        if model is not None:
            stats.model_size = model.size()
        metrics = obs_runtime.METRICS
        if metrics is not None:
            metrics.inc(
                "finder.speculative.vectors", stats.vectors_speculated
            )
            metrics.inc(
                "finder.speculative.cores_broadcast", stats.cores_broadcast
            )
            metrics.inc(
                "finder.speculative.pruned", stats.speculative_pruned
            )
            metrics.inc(
                "finder.speculative.shard_restarts", stats.shard_restarts
            )
        return FinderResult(
            model, stats, complete=model is not None or complete
        )

    # -- process portfolio -------------------------------------------------
    def run_process(self, min_total: int) -> FinderResult:
        finder = self.finder
        from repro.exec.supervisor import _mp_context

        start = time.monotonic()
        state = _SweepState(
            finder.sorts, finder.options, min_total, self.stats
        )
        self.state = state
        ctx = _mp_context()
        uid_counter = itertools.count()
        #: vectors orphaned by a shard death, sorted by seq
        requeue: list[tuple[int, tuple[int, ...], int]] = []

        def spawn() -> _ProcessShard:
            uid = next(uid_counter)
            payload = finder._payload(uid, isolated=True)
            payload["bounds"] = [
                (dict(lo), dict(hi)) for lo, hi in state.bounds
            ]
            return _ProcessShard(ctx, payload)

        shards: list[Optional[_ProcessShard]] = []
        restarts = [0] * self.shards
        decided = False  # winner or hopeless: kill + discard speculation
        try:
            shards = [spawn() for _ in range(self.shards)]

            def live() -> list[_ProcessShard]:
                return [s for s in shards if s is not None and not s.dead]

            def siblings(origin_uid: int):
                for shard in live():
                    if shard.uid != origin_uid:
                        yield shard.broadcast

            while True:
                if (
                    finder.deadline is not None
                    and time.monotonic() > finder.deadline
                ):
                    self.stats.deadline_hit = True
                    state.complete = False
                    break
                # bury dead shards: respawn (bounds replayed via the
                # payload) and redispatch their unanswered vectors
                for slot, shard in enumerate(shards):
                    if shard is None or not shard.dead:
                        continue
                    orphans = sorted(shard.inflight.items())
                    shard.kill()
                    shards[slot] = None
                    if restarts[slot] < MAX_VECTOR_ATTEMPTS:
                        restarts[slot] += 1
                        self.stats.shard_restarts += 1
                        shards[slot] = spawn()
                    for seq, (sizes_t, attempt) in orphans:
                        if attempt + 1 > MAX_VECTOR_ATTEMPTS:
                            # this vector keeps killing shards: an
                            # honest unknown, never a wrong verdict
                            state.resolve(seq, {"outcome": "exhausted"})
                        else:
                            requeue.append((seq, sizes_t, attempt + 1))
                    requeue.sort()
                alive = live()
                if not alive:
                    # every slot abandoned: resolve what remains as
                    # exhausted and let the commit pointer decide
                    for seq, _sizes, _attempt in requeue:
                        state.resolve(seq, {"outcome": "exhausted"})
                    requeue.clear()
                    if state.commit():
                        decided = True
                    else:
                        state.complete = False
                    break
                # dispatch: redispatch orphans first, then the frontier
                for shard in alive:
                    while shard.depth < SHARD_QUEUE_DEPTH:
                        if requeue:
                            seq, sizes_t, attempt = requeue.pop(0)
                            if (
                                state.sat_seq is not None
                                and seq > state.sat_seq
                            ):
                                continue  # can never win: drop
                        else:
                            nxt = state.next_vector()
                            if nxt is None:
                                break
                            seq, sizes_t = nxt
                            attempt = 1
                        if any(s.depth for s in alive):
                            self.stats.vectors_speculated += 1
                        shard.dispatch(
                            seq, sizes_t, attempt, finder.deadline
                        )
                # receive
                conns = [s.conn for s in live()]
                if conns:
                    mp_connection.wait(conns, timeout=0.05)
                for shard in live():
                    for msg in shard.poll():
                        self._consume(msg, siblings)
                if state.commit() or state.hopeless:
                    decided = True
                    break
                inflight = sum(s.depth for s in live())
                if (
                    inflight == 0
                    and not requeue
                    and not any(s is not None and s.dead for s in shards)
                    and (state.exhausted_frontier or state.sat_seq is not None)
                ):
                    if state.commit():
                        decided = True
                    break
        finally:
            for shard in shards:
                if shard is None:
                    continue
                if decided or shard.dead:
                    # cancel outstanding speculation: kill + discard
                    shard.kill()
                else:
                    shard.stop()
            stop_deadline = time.monotonic() + 2.0
            for shard in shards:
                if shard is None or shard.dead or decided:
                    continue
                try:
                    while shard.conn.poll(
                        max(stop_deadline - time.monotonic(), 0)
                    ):
                        msg = shard.conn.recv()
                        self._consume(
                            msg, lambda _uid: ()
                        )
                        if msg.get("kind") == "done":
                            break
                except (EOFError, OSError):
                    pass
                shard.kill()
        complete = (
            state.winner is not None
            or state.hopeless
            or (
                state.complete
                and state.exhausted_frontier
                and not self.stats.deadline_hit
            )
        )
        return self._finalize(start, state.winner, complete)

    # -- in-process portfolio ----------------------------------------------
    def run_inprocess(self, min_total: int) -> FinderResult:
        finder = self.finder
        start = time.monotonic()
        state = _SweepState(
            finder.sorts, finder.options, min_total, self.stats
        )
        self.state = state
        runners = [
            _ShardRunner(finder._payload(uid, isolated=False))
            for uid in range(self.shards)
        ]
        queues: list[list[tuple[int, tuple[int, ...]]]] = [
            [] for _ in runners
        ]

        def siblings(origin_uid: int):
            for runner in runners:
                if runner.uid != origin_uid:
                    yield runner.adopt_bounds

        decided = False
        while not decided:
            if (
                finder.deadline is not None
                and time.monotonic() > finder.deadline
            ):
                self.stats.deadline_hit = True
                state.complete = False
                break
            for queue in queues:
                while len(queue) < SHARD_QUEUE_DEPTH:
                    nxt = state.next_vector()
                    if nxt is None:
                        break
                    if any(queues):
                        self.stats.vectors_speculated += 1
                    queue.append(nxt)
            if not any(queues):
                state.commit()
                break
            # round-robin: each runner solves one whole vector per
            # turn, so sibling cores land between a runner's queued
            # vectors exactly as they would across processes
            for runner, queue in zip(runners, queues):
                if not queue:
                    continue
                seq, sizes_t = queue.pop(0)
                msg = runner.solve_vector(seq, sizes_t, 1, finder.deadline)
                self._consume(msg, siblings)
                if state.commit() or state.hopeless:
                    decided = True
                    break
        complete = (
            state.winner is not None
            or state.hopeless
            or (
                state.complete
                and state.exhausted_frontier
                and not self.stats.deadline_hit
            )
        )
        return self._finalize(start, state.winner, complete)


class ParallelModelFinder:
    """Drop-in :class:`~repro.mace.finder.ModelFinder` running the size
    sweep as a speculative shard portfolio (see the module docstring).

    ``options`` configures it exactly like the sequential finder, with
    ``options.sweep_shards`` as the portfolio width.  ``mode`` is
    ``"process"`` (subprocess shards, fork-preferred), ``"inprocess"``
    (the interleaved fallback portfolio) or ``"auto"`` (process shards
    unless this process is daemonic — e.g. inside an isolated
    supervised worker — which may not have children).  ``snapshot``
    seeds every shard with one serialized engine state
    (:meth:`~repro.mace.pool.EnginePool.snapshot_for`).  The search
    contract — signature, :class:`FinderResult`, ``complete``
    semantics — matches :meth:`ModelFinder.search`, so
    :mod:`repro.core.ringen` drives either interchangeably.
    """

    def __init__(
        self,
        system: CHCSystem,
        options: FinderOptions = FinderOptions(),
        *,
        deadline: Optional[float] = None,
        min_total_size: int = 0,
        snapshot: Optional[dict] = None,
        mode: str = "auto",
        fault_plan: Optional[ReproFaultPlan] = None,
    ):
        if options.sweep_shards < 1:
            raise FinderError("sweep_shards must be >= 1")
        if mode not in ("auto", "process", "inprocess"):
            raise FinderError(f"unknown sweep mode {mode!r}")
        self.system = system
        self.options = options
        self.deadline = deadline
        self.min_total_size = min_total_size
        self.snapshot = snapshot
        self.mode = mode
        self.fault_plan = fault_plan
        self.sorts = sorted(system.adts.sorts, key=lambda s: s.name)

    def _payload(self, uid: int, *, isolated: bool) -> dict:
        plan = self.fault_plan
        if plan is None:
            plan = ReproFaultPlan.from_env()
        return {
            "shard": uid,
            "system": self.system,
            "snapshot": self.snapshot,
            "options": self.options,
            "isolated": isolated,
            "fault_plan": plan.encode() if plan else None,
            "obs": {
                "trace": obs_runtime.TRACER is not None,
                "metrics": obs_runtime.METRICS is not None,
            },
        }

    def search(
        self,
        *,
        min_total_size: Optional[int] = None,
        deadline: object = _UNSET,
    ) -> FinderResult:
        """Run one speculative sweep; see :meth:`ModelFinder.search`
        for the deadline-replacement and ``complete`` semantics.  Each
        call spawns a fresh shard portfolio and tears it down (the rare
        Herbrand-retry resumption re-spawns; shards re-derive skips
        from the refutation bounds, which are cheap relative to the
        solves the retry still has to do)."""
        if deadline is not _UNSET:
            self.deadline = deadline  # type: ignore[assignment]
        min_total = (
            self.min_total_size
            if min_total_size is None
            else min_total_size
        )
        mode = self.mode
        if mode == "auto":
            mode = (
                "inprocess"
                if multiprocessing.current_process().daemon
                else "process"
            )
        scheduler = SweepScheduler(self, mode)
        obs_runtime.watch_finder_stats(scheduler.stats)
        if mode == "process":
            return scheduler.run_process(min_total)
        return scheduler.run_inprocess(min_total)
