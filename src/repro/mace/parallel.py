"""Speculative size sweeps over shard subprocesses.

:meth:`repro.mace.finder.ModelFinder.search` runs every size sweep as
``options.sweep_shards`` *lanes* (:class:`repro.mace.finder._Lane`):
the sequential sweep is one lane in-process, and a portfolio of N lanes
keeps the same frontier and verdict semantics while solving vectors on
N private engines.  This module is the portfolio's process transport:
each lane runs in a *shard* subprocess
(:func:`repro.exec.worker.shard_entry`) hosting a private incremental
engine, warm-restored from an engine snapshot when one is available
(the :meth:`~repro.mace.pool.EnginePool.snapshot_for` fan-out), and the
sweep *speculates*: while the lowest outstanding vector is still being
solved, later vectors are already running elsewhere.

Determinism / parity contract
-----------------------------

* A refutation is a sound, engine-independent fact (the vector provably
  has no model), so which engine refutes a vector never matters.
* The sweep (:class:`repro.mace.finder._SweepState`) commits outcomes
  **strictly in sweep order**: a SAT answer wins only once every
  earlier vector has committed non-SAT, so the winning size vector —
  and with it the status and the model size — is exactly what the
  one-lane sweep would have returned.  Outstanding speculation above
  the winner is cancelled (shards killed, partial answers discarded).
* Model *internals* may differ from a one-lane run's (a CDCL model
  depends on search history); statuses, winning vector and model size
  do not, and every returned model still goes through the exact
  Herbrand verification in :mod:`repro.core.ringen`.
* With finite conflict budgets, *which* vectors exhaust their budget
  can differ between runs (each stays an honest "unknown"); the
  default budgets are effectively unbounded on the supported suites.

Core broadcast
--------------

Every refutation core a lane extracts is translated lane-side into
per-sort ``(lower, upper)`` bounds, shipped back with the verdict,
folded into the sweep's master bound list — pruning the frontier
before dispatch, ``vectors_skipped`` — and broadcast to every other
live lane, which prunes its own already-dispatched queue without a
solver call (``speculative_pruned``).

Fault tolerance
---------------

A shard that dies mid-speculation (crash, kill, injected fault) is
respawned from the same snapshot seed with the accumulated bounds
replayed through its spawn payload, and its in-flight vectors are
redispatched at ``attempt + 1``; a vector that keeps killing shards is
written off as exhausted after :data:`MAX_VECTOR_ATTEMPTS` (an honest
"unknown", never a wrong verdict).  Shards are driven directly over
``multiprocessing`` pipes with vector-level task granularity and
``core`` control messages in both directions.

In-process portfolios
---------------------

Daemonic processes may not have children, so inside an isolated
supervised worker (``--isolate`` campaigns) ``mode="auto"`` runs the
lanes in-process instead — the sequential sweep's own loop
(:meth:`~repro.mace.finder.ModelFinder.search`), with N private
engines taking one whole vector per turn.  Commit order and broadcast
semantics are identical; there is no wall-clock speedup (cross-problem
parallelism already comes from the supervisor in that mode).
"""

from __future__ import annotations

import itertools
import time
from multiprocessing import connection as mp_connection
from typing import Optional

from repro.mace.finder import SHARD_QUEUE_DEPTH, ModelFinder, _SweepState

#: dispatch attempts per vector before a repeatedly shard-killing
#: vector is written off as exhausted, and respawns per shard slot
#: before the slot is abandoned
MAX_VECTOR_ATTEMPTS = 3


class _ProcessShard:
    """Sweep-side handle on one shard subprocess."""

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


def run_process(finder: ModelFinder, state: _SweepState, width: int) -> None:
    """Run one sweep's ``width`` lanes as shard subprocesses.

    Spawns the shards, keeps each one's queue ``SHARD_QUEUE_DEPTH``
    deep, folds every message through ``state``, respawns dead shards
    (bounds replayed via the payload) and requeues their vectors, and
    once the sweep is decided kills the outstanding speculation.
    """
    from repro.exec.supervisor import _mp_context

    ctx = _mp_context()
    stats = state.stats
    uid_counter = itertools.count()
    #: vectors orphaned by a shard death, sorted by seq
    requeue: list[tuple[int, tuple[int, ...], int]] = []

    def spawn() -> _ProcessShard:
        payload = finder._payload(next(uid_counter))
        payload["bounds"] = [(dict(lo), dict(hi)) for lo, hi in state.bounds]
        return _ProcessShard(ctx, payload)

    shards: list[Optional[_ProcessShard]] = []
    restarts = [0] * width
    decided = False  # winner or hopeless: kill + discard speculation
    try:
        shards = [spawn() for _ in range(width)]

        def live() -> list[_ProcessShard]:
            return [s for s in shards if s is not None and not s.dead]

        def siblings(origin_uid: int):
            return [s.broadcast for s in live() if s.uid != origin_uid]

        while not state.expired():
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
                    stats.shard_restarts += 1
                    shards[slot] = spawn()
                for seq, (sizes_t, attempt) in orphans:
                    if attempt + 1 > MAX_VECTOR_ATTEMPTS:
                        # this vector keeps killing shards: an honest
                        # unknown, never a wrong verdict
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
                        if state.sat_seq is not None and seq > state.sat_seq:
                            continue  # can never win: drop
                    else:
                        nxt = state.next_vector()
                        if nxt is None:
                            break
                        seq, sizes_t = nxt
                        attempt = 1
                    if any(s.depth for s in alive):
                        stats.vectors_speculated += 1
                    shard.dispatch(seq, sizes_t, attempt, state.deadline)
            # receive
            conns = [s.conn for s in live()]
            if conns:
                mp_connection.wait(conns, timeout=0.05)
            for shard in live():
                for msg in shard.poll():
                    state.consume(msg, siblings)
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
                    state.consume(msg, lambda _uid: ())
                    if msg.get("kind") == "done":
                        break
            except (EOFError, OSError):
                pass
            shard.kill()
