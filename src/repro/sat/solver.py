"""A CDCL SAT solver.

The finite model finder (:mod:`repro.mace`) reduces "does this EUF clause
set have a model of domain size k?" to propositional satisfiability, in the
style of MACE/Paradox — the same family of backends the paper runs behind
RInGen.  This module implements the required SAT engine from scratch:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style activity decision heuristic with phase saving,
* Luby restarts and learned-clause garbage collection.

Conflict quality and unsat cores (the model finder's guidance layer):

* every learned clause carries its **LBD** ("literals blocks distance",
  the number of distinct decision levels among its literals — Audemard &
  Simon's glue measure) and a bump/decay **activity**;
  :meth:`CDCLSolver.reduce_learned` retains by LBD tier instead of
  length, keeping *glue* clauses (LBD ≤ 2) unconditionally;
* when :meth:`CDCLSolver.solve` answers ``False`` under assumptions, a
  MiniSat-style final-conflict analysis records the **unsat core** — the
  subset of the assumptions the refutation actually used — retrievable
  via :meth:`CDCLSolver.core`.  Every ``False`` path produces a core,
  including the early conflict while the assumptions themselves are
  being propagated.  The model finder reads cores over its existence
  and clause-group selectors to prune the size sweep.

Literals are encoded as nonzero integers (DIMACS convention): variable
``v`` appears as ``+v`` / ``-v``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

UNASSIGNED = 0
TRUE_VAL = 1
FALSE_VAL = -1

#: schema version of :meth:`CDCLSolver.snapshot`; bumped whenever the
#: serialized layout changes incompatibly.  :meth:`CDCLSolver.restore`
#: rejects any other version instead of guessing.
SNAPSHOT_VERSION = 3


class SatError(ValueError):
    """Raised on malformed CNF input (zero literals, unknown variables)."""


@dataclass
class SatStats:
    """Counters reported by :meth:`CDCLSolver.solve`.

    All counters are cumulative over the solver's lifetime; incremental
    callers (the model finder's size sweep) snapshot them between calls
    to attribute work to individual :meth:`CDCLSolver.solve` calls.
    ``clauses_added`` counts every well-formed clause accepted by
    :meth:`CDCLSolver.add_clause` while the solver is still consistent —
    including units that were immediately propagated, tautologies and
    clauses already satisfied at level 0 — so reused-vs-newly-encoded
    clause accounting survives level-0 simplification and the counter
    means the same thing on every accepting return path.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    clauses_added: int = 0
    solve_calls: int = 0
    # conflict-quality layer: glue clauses (LBD <= 2) among `learned`,
    # and the number of unsat cores extracted by final-conflict analysis
    glue_learned: int = 0
    cores: int = 0
    # dynamic LBD maintenance: learned clauses whose glue improved when
    # they were reused as reasons (Glucose-style re-computation)
    lbd_updates: int = 0


def _luby(i: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 ... (1-indexed)."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class CDCLSolver:
    """Conflict-driven clause learning SAT solver.

    Learned clauses are garbage-collected by LBD tier with unconditional
    glue retention (Glucose-style; see :meth:`reduce_learned`).

    The model finder (:mod:`repro.mace.finder`), the engine pool
    (:mod:`repro.mace.pool`) and :class:`~repro.sat.cnf.SelectorPool`
    rely on this incremental contract:

    * variables and clauses may be added between ``solve`` calls;
    * ``solve(assumptions, max_conflicts=..., deadline=...)`` returns
      ``True`` / ``False`` / ``None`` — ``None`` means the conflict
      budget or the deadline ran out: indeterminate, never to be read
      as unsat;
    * after ``False``, :meth:`core` returns a subset of that call's
      assumptions whose conjunction with the database is unsat, as
      final-conflict analysis found it;
    * after ``True``, :meth:`model` returns the assignment, and it
      raises in any other state rather than serve stale values;
    * :meth:`fixed` reports a literal's value entailed by the database
      alone (level 0), ``None`` when it is not fixed there;
    * :meth:`simplify` and :meth:`reduce_learned` keep the database
      lean, and :meth:`snapshot` / :meth:`restore` round-trip its whole
      warm state;
    * ``stats`` is the :class:`SatStats` block; ``clauses_added`` and
      ``solve_calls`` are exact, since the engine's reuse accounting is
      built on them.
    """

    #: learned clauses at or below this LBD are "glue" — they connect
    #: decision levels so tightly that dropping them is never worth it
    GLUE_LBD = 2

    def __init__(self, num_vars: int = 0):
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.learned_clauses: list[list[int]] = []
        self.stats = SatStats()
        self._assign: list[int] = [UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        # watcher lists in one flat array indexed by literal code
        # (2*var for the positive literal, 2*var+1 for the negative):
        # the propagation loop replaces a dict hash per watched literal
        # with two adds and a list index.  Codes 0 and 1 are padding
        # for the nonexistent variable 0.
        self._watches: list[list[list[int]]] = [[], []]
        # VSIDS order heap: binary max-heap on activity with a position
        # index, so decisions cost O(log n) instead of a linear scan
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._queue_head = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        # learned-clause metadata, keyed by id() of the clause list
        # (clauses are plain lists shared with the watch lists, so a
        # side table is the only representation that leaves the hot
        # propagation loop untouched); entries are removed whenever the
        # clause is dropped in reduce_learned / simplify
        self._lbd: dict[int, int] = {}
        self._cla_act: dict[int, float] = {}
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        # unsat core of the last solve() call that returned False under
        # assumptions (None while the last answer was not False)
        self._core: Optional[list[int]] = None
        # globally valid unit facts learned while solving under
        # assumptions; pinned at level 0 by the next solve() call so
        # they survive the backtrack that clears assumption levels
        self._pending_units: list[int] = []
        self._ok = True
        # True only while the assignment left by the last solve() call is
        # a complete satisfying model; cleared by add_clause and by any
        # solve() outcome other than True (see model())
        self._model_ready = False
        # wall-clock deadline of the in-flight solve() call, polled
        # coarsely inside _propagate (long propagations at campaign
        # clause volumes must not overshoot the caller's budget)
        self._deadline: Optional[float] = None
        self._deadline_hit = False
        # per-phase wall-clock accounting (observability layer): None
        # means off, and every timed site guards on a cached local so
        # the disabled cost is one load + branch per _propagate/_analyze
        # *call*, never per literal; {"phase": [seconds, calls]} when on
        self._phase_times: Optional[dict[str, list]] = None
        if num_vars:
            self.new_vars(num_vars)

    # -- variable / clause management -------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(False)
        self._activity.append(0.0)
        self._heap_pos.append(-1)
        self._heap_insert(self.num_vars)
        self._watches.append([])  # code 2v: the positive literal
        self._watches.append([])  # code 2v+1: the negative literal
        return self.num_vars

    # -- VSIDS order heap --------------------------------------------------
    def _heap_swap(self, i: int, j: int) -> None:
        heap, pos = self._heap, self._heap_pos
        heap[i], heap[j] = heap[j], heap[i]
        pos[heap[i]], pos[heap[j]] = i, j

    def _heap_up(self, i: int) -> None:
        heap, act = self._heap, self._activity
        while i > 0:
            parent = (i - 1) >> 1
            if act[heap[i]] <= act[heap[parent]]:
                break
            self._heap_swap(i, parent)
            i = parent

    def _heap_down(self, i: int) -> None:
        heap, act = self._heap, self._activity
        size = len(heap)
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            best = left
            right = left + 1
            if right < size and act[heap[right]] > act[heap[left]]:
                best = right
            if act[heap[best]] <= act[heap[i]]:
                break
            self._heap_swap(i, best)
            i = best

    def _heap_insert(self, var: int) -> None:
        if self._heap_pos[var] != -1:
            return
        self._heap.append(var)
        self._heap_pos[var] = len(self._heap) - 1
        self._heap_up(len(self._heap) - 1)

    def _heap_pop(self) -> int:
        heap = self._heap
        top = heap[0]
        last = heap.pop()
        self._heap_pos[top] = -1
        if heap:
            heap[0] = last
            self._heap_pos[last] = 0
            self._heap_down(0)
        return top

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially unsat.

        Safe to call between :meth:`solve` calls (incremental use): any
        decision-level assignment left over from a previous answer is
        undone first, so unit propagation only ever sees permanent facts.

        One pass over ``literals`` validates them, drops duplicates,
        detects tautologies and resolves each literal against level-0
        facts (a true one satisfies the clause, a false one is dropped).
        A variable is a level-0 fact only when it is assigned *and* its
        level is 0: a value left at a decision level by the last answer
        is stale, which is why the pass may run before the backtrack.
        :class:`SatError` is raised before any state changes.
        """
        assign, level, num_vars = self._assign, self._level, self.num_vars
        seen: set[int] = set()
        clause: list[int] = []
        tautology = satisfied = False
        for lit in literals:
            if lit > 0:
                var = lit
            elif lit < 0:
                var = -lit
            else:
                raise SatError("literal 0 is not allowed")
            if var > num_vars:
                raise SatError(f"unknown variable {var}")
            if lit in seen:
                continue
            if -lit in seen:
                tautology = True
            seen.add(lit)
            val = assign[var]
            if val and level[var] == 0:
                if (val > 0) == (lit > 0):
                    satisfied = True
                continue  # true: clause satisfied; false: literal dropped
            clause.append(lit)
        if not self._ok:
            return False
        self._model_ready = False
        if self._trail_lim:
            self._backtrack(0)
        # every accepting path below counts exactly once, tautologies and
        # level-0-satisfied clauses included, so the incremental engine's
        # encoded/reused ratios compare like with like
        self.stats.clauses_added += 1
        if tautology or satisfied:
            return True
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        self.clauses.append(clause)
        self._watch(clause)
        return True

    def _watch(self, clause: list[int]) -> None:
        a, b = clause[0], clause[1]
        self._watches[a + a if a > 0 else 1 - a - a].append(clause)
        self._watches[b + b if b > 0 else 1 - b - b].append(clause)

    # -- assignment helpers ------------------------------------------------
    def _var_of(self, lit: int) -> int:
        """The variable of ``lit``; :class:`SatError` if it names none."""
        if lit == 0:
            raise SatError("literal 0 is not allowed")
        var = abs(lit)
        if var > self.num_vars:
            raise SatError(f"unknown variable {var}")
        return var

    def _value(self, lit: int) -> int:
        val = self._assign[abs(lit)]
        if val == UNASSIGNED:
            return UNASSIGNED
        return val if lit > 0 else -val

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        current = self._value(lit)
        if current == TRUE_VAL:
            return True
        if current == FALSE_VAL:
            return False
        var = abs(lit)
        self._assign[var] = TRUE_VAL if lit > 0 else FALSE_VAL
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause or None.

        The hot loop of the solver: literal values are computed inline
        on locally aliased arrays rather than through :meth:`_value`,
        which measurably matters at the model finder's clause volumes.
        """
        assign = self._assign
        watches = self._watches
        trail = self._trail
        deadline = self._deadline
        since_poll = 0
        while self._queue_head < len(trail):
            # the poll runs BEFORE the literal is popped: an aborted
            # call leaves _queue_head on the unprocessed literal, so the
            # next _propagate resumes exactly there and no watch list is
            # ever silently skipped (level-0 entries survive the
            # backtrack in solve(), so a skip would be permanent)
            if deadline is not None:
                since_poll += 1
                if since_poll >= 1024:
                    since_poll = 0
                    if time.monotonic() > deadline:
                        self._deadline_hit = True
                        return None
            lit = trail[self._queue_head]
            self._queue_head += 1
            self.stats.propagations += 1
            falsified = -lit
            # code of the falsified literal: 2*(-lit) when lit < 0,
            # 2*lit+1 when lit > 0 — pure integer arithmetic, no abs()
            fcode = lit + lit + 1 if lit > 0 else -(lit + lit)
            watchers = watches[fcode]
            new_watchers: list[list[int]] = []
            conflict: Optional[list[int]] = None
            for idx, clause in enumerate(watchers):
                if conflict is not None:
                    new_watchers.extend(watchers[idx:])
                    break
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                # clause[1] == falsified now (or clause was restructured)
                first = clause[0]
                val = assign[first] if first > 0 else -assign[-first]
                if val == TRUE_VAL:
                    new_watchers.append(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    oval = assign[other] if other > 0 else -assign[-other]
                    if oval != FALSE_VAL:
                        clause[1], clause[k] = other, clause[1]
                        watches[
                            other + other if other > 0 else 1 - other - other
                        ].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                new_watchers.append(clause)
                if val == FALSE_VAL:
                    conflict = clause
                else:  # first was unassigned: imply it (inlined _enqueue)
                    var = first if first > 0 else -first
                    assign[var] = TRUE_VAL if first > 0 else FALSE_VAL
                    self._level[var] = len(self._trail_lim)
                    self._reason[var] = clause
                    self._phase[var] = first > 0
                    trail.append(first)
            watches[fcode] = new_watchers
            if conflict is not None:
                return conflict
        return None

    # -- conflict analysis ---------------------------------------------------
    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        """First-UIP learning; returns (learned clause, backjump level, LBD).

        The LBD (glue) of the learned clause — the number of distinct
        decision levels among its literals — is computed here, while the
        levels are still live, and drives :meth:`reduce_learned`'s
        retention tiers.  Learned clauses consulted as reasons during
        the resolution walk get their activity bumped (bump/decay in the
        Glucose style), so retention can break LBD ties by usefulness,
        and their LBD *re-computed* from the live decision levels
        (Glucose's dynamic glue: a clause that propagates inside fewer
        levels than at birth is more valuable than its birth glue
        suggests, so :meth:`reduce_learned` should rank it by its
        current glue).  The stored LBD only ever improves.
        """
        learned: list[int] = [0]  # slot 0 holds the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        trail_lit: Optional[int] = None
        reason: Optional[list[int]] = conflict
        index = len(self._trail)
        current_level = len(self._trail_lim)
        cla_act = self._cla_act
        lbd_tbl = self._lbd
        level = self._level
        while True:
            assert reason is not None
            rid = id(reason)
            if rid in cla_act:
                cla_act[rid] += self._cla_inc
                if cla_act[rid] > 1e20:
                    for cid in cla_act:
                        cla_act[cid] *= 1e-20
                    self._cla_inc *= 1e-20
                # reuse-time glue: recompute from the current levels and
                # keep the minimum seen (levels are live here — this is
                # the only point where reused reasons pass through with
                # their levels assigned)
                old_lbd = lbd_tbl.get(rid)
                if old_lbd is not None and old_lbd > self.GLUE_LBD:
                    new_lbd = len(
                        {level[q] if q > 0 else level[-q] for q in reason}
                    )
                    if new_lbd < old_lbd:
                        lbd_tbl[rid] = new_lbd
                        self.stats.lbd_updates += 1
            for q in reason:
                if trail_lit is not None and q == trail_lit:
                    continue  # skip the literal this reason clause asserted
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                index -= 1
                trail_lit = self._trail[index]
                tvar = trail_lit if trail_lit > 0 else -trail_lit
                if seen[tvar]:
                    break
            seen[tvar] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[tvar]
        learned[0] = -trail_lit
        # backjump level: max level among learned[1:]; the first literal
        # attaining it moves to slot 1 for watching (one pass does both)
        if len(learned) == 1:
            back_level = 0
        else:
            best = 1
            q = learned[1]
            back_level = level[q] if q > 0 else level[-q]
            for i in range(2, len(learned)):
                q = learned[i]
                q_level = level[q] if q > 0 else level[-q]
                if q_level > back_level:
                    best = i
                    back_level = q_level
            learned[1], learned[best] = learned[best], learned[1]
        lbd = len({level[q] if q > 0 else level[-q] for q in learned})
        return learned, back_level, lbd

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            # uniform rescaling preserves the heap order
        if self._heap_pos[var] != -1:
            self._heap_up(self._heap_pos[var])

    def _decay(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._assign[var] = UNASSIGNED
            self._reason[var] = None
            self._heap_insert(var)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)

    def _decide(self) -> Optional[int]:
        while self._heap:
            var = self._heap_pop()
            if self._assign[var] == UNASSIGNED:
                return var if self._phase[var] else -var
        return None

    # -- main loop -------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        max_conflicts: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        """Solve under assumptions.

        Returns True (sat), False (unsat), or None if ``max_conflicts`` or
        the wall-clock ``deadline`` was exhausted (both are used by the
        model finder's per-size budgets).  The deadline is checked on
        every conflict and, coarsely, inside unit propagation itself, so
        a single long :meth:`_propagate` run at campaign clause volumes
        cannot overshoot the caller's budget by more than one poll
        interval.  ``max_conflicts`` is a *per call* budget: each call
        measures conflicts relative to its own start, so an incremental
        caller issuing many calls against one solver gives every call the
        same allowance.  Learned clauses, VSIDS activity and saved phases
        all persist across calls, which is what makes assumption-based
        incremental solving pay off.

        A ``False`` answer additionally records the unsat core — the
        subset of ``assumptions`` the refutation used — available from
        :meth:`core` until the next :meth:`solve` call.  An assumption
        that is 0 or names an unknown variable raises :class:`SatError`
        before any state changes.
        """
        for lit in assumptions:
            self._var_of(lit)
        self.stats.solve_calls += 1
        self._model_ready = False
        self._core = None
        self._deadline = deadline
        self._deadline_hit = False
        try:
            outcome = self._solve(assumptions, max_conflicts, deadline)
        finally:
            self._deadline = None
        self._model_ready = outcome is True
        if outcome is False:
            if self._core is None:
                # unsat before any assumption mattered (inconsistent
                # database): the empty core
                self._core = []
            self.stats.cores += 1
        else:
            self._core = None
        return outcome

    def core(self) -> list[int]:
        """The failed-assumption subset of the last unsat :meth:`solve`.

        Only available while the last :meth:`solve` call returned
        ``False``; the returned literals are a subset of that call's
        assumptions whose conjunction with the clause database is
        unsatisfiable (re-assuming exactly the core yields ``False``
        again).  An empty core means the database alone is unsat.
        """
        if self._core is None:
            raise SatError(
                "core() is only available after solve() returned False"
            )
        return list(self._core)

    def set_phase_timing(self, enabled: bool) -> None:
        """Switch per-phase wall-clock accounting on (resetting the
        accumulators) or off.  Phases: ``propagate`` and ``analyze``
        from the search loop."""
        self._phase_times = {} if enabled else None

    def phase_times(self) -> dict[str, tuple[float, int]]:
        """Accumulated ``{phase: (seconds, calls)}`` since timing was
        enabled; empty when timing is off."""
        return {
            name: (cell[0], cell[1])
            for name, cell in (self._phase_times or {}).items()
        }

    def _phase_add(self, name: str, dt: float) -> None:
        cell = self._phase_times.get(name)  # type: ignore[union-attr]
        if cell is None:
            self._phase_times[name] = [dt, 1]  # type: ignore[index]
        else:
            cell[0] += dt
            cell[1] += 1

    def clause_count(self) -> int:
        """Problem clauses currently in the database (learned excluded)."""
        return len(self.clauses)

    def learned_count(self) -> int:
        """Learned clauses currently retained."""
        return len(self.learned_clauses)

    def _analyze_final(
        self, conflict: Iterable[int], include: Optional[int] = None
    ) -> list[int]:
        """Final-conflict analysis: the assumptions a failure rests on.

        Walks the implication graph backwards from the literals of a
        falsified clause (MiniSat's ``analyzeFinal``), collecting the
        trail's reason-free decision literals — at the points this is
        called, every decision level on the trail is an assumption
        level, so those are exactly the assumptions used.  Level-0
        literals are consequences of the database alone and are
        excluded.  ``include`` prepends a literal known to belong to the
        core (the assumption that failed at enqueue time, which never
        made it onto the trail).
        """
        core: list[int] = [] if include is None else [include]
        if not self._trail_lim:
            return core
        seen: set[int] = set()
        for lit in conflict:
            var = abs(lit)
            if self._level[var] > 0:
                seen.add(var)
        limit = self._trail_lim[0]
        for i in range(len(self._trail) - 1, limit - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            if var not in seen:
                continue
            seen.discard(var)
            reason = self._reason[var]
            if reason is None:
                core.append(lit)
            else:
                for q in reason:
                    qv = abs(q)
                    if qv != var and self._level[qv] > 0:
                        seen.add(qv)
        return core

    def _solve(
        self,
        assumptions: Sequence[int],
        max_conflicts: Optional[int],
        deadline: Optional[float],
    ) -> Optional[bool]:
        call_conflicts_start = self.stats.conflicts
        # cached once per solve call: the disabled-path cost of phase
        # timing is this load plus a branch at each timed site
        pt = self._phase_times
        if not self._ok:
            return False
        self._backtrack(0)
        # units learned under assumptions are implied by the clause
        # database alone (assumptions are never resolved on), so they
        # become permanent level-0 facts here
        for lit in self._pending_units:
            if self._value(lit) == FALSE_VAL:
                self._ok = False
                return False
            self._enqueue(lit, None)
        self._pending_units.clear()
        if pt is None:
            conflict = self._propagate()
        else:
            _t0 = time.monotonic()
            conflict = self._propagate()
            self._phase_add("propagate", time.monotonic() - _t0)
        if conflict is not None:
            self._ok = False
            return False
        if self._deadline_hit:
            self._backtrack(0)
            return None
        for lit in assumptions:
            if self._value(lit) == FALSE_VAL:
                # the assumption is already refuted by the database plus
                # the assumptions enqueued so far: it belongs to the
                # core itself, along with whatever implied its negation
                self._core = self._analyze_final([lit], include=lit)
                return False
            if self._value(lit) == UNASSIGNED:
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                if pt is None:
                    conflict = self._propagate()
                else:
                    _t0 = time.monotonic()
                    conflict = self._propagate()
                    self._phase_add("propagate", time.monotonic() - _t0)
                if conflict is not None:
                    # the early assumption-propagation conflict: analyze
                    # before backtracking wipes the levels
                    self._core = self._analyze_final(conflict)
                    self._backtrack(0)
                    return False
                if self._deadline_hit:
                    self._backtrack(0)
                    return None
        base_level = len(self._trail_lim)
        restart_count = 0
        conflicts_here = 0
        steps = 0
        budget = 100 * _luby(restart_count + 1)
        while True:
            steps += 1
            if deadline is not None and steps % 512 == 0:
                if time.monotonic() > deadline:
                    self._backtrack(0)
                    return None
            if pt is None:
                conflict = self._propagate()
            else:
                _t0 = time.monotonic()
                conflict = self._propagate()
                self._phase_add("propagate", time.monotonic() - _t0)
            if conflict is None and self._deadline_hit:
                # propagation aborted on the wall clock: the queue may be
                # only partially drained, so give up rather than decide
                self._backtrack(0)
                return None
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                # the deadline is polled on every conflict — analysis
                # dwarfs a clock read, and per-conflict granularity keeps
                # overshoot bounded independent of propagation cost
                if deadline is not None and time.monotonic() > deadline:
                    self._backtrack(0)
                    return None
                if (
                    max_conflicts is not None
                    and self.stats.conflicts - call_conflicts_start
                    > max_conflicts
                ):
                    self._backtrack(0)
                    return None
                if len(self._trail_lim) == base_level:
                    # conflict with no decision beyond the assumptions:
                    # the final conflict — its analysis is the core
                    self._core = self._analyze_final(conflict)
                    return False
                if pt is None:
                    learned, back_level, lbd = self._analyze(conflict)
                else:
                    _t0 = time.monotonic()
                    learned, back_level, lbd = self._analyze(conflict)
                    self._phase_add("analyze", time.monotonic() - _t0)
                self._backtrack(max(back_level, base_level))
                if len(learned) == 1:
                    self._backtrack(base_level)
                    if base_level > 0:
                        # keep the fact beyond this call (see solve())
                        self._pending_units.append(learned[0])
                    if not self._enqueue(learned[0], None):
                        # the database-implied unit is false under the
                        # assumptions alone
                        self._core = self._analyze_final([learned[0]])
                        return False
                else:
                    self.learned_clauses.append(learned)
                    self.stats.learned += 1
                    self._lbd[id(learned)] = lbd
                    self._cla_act[id(learned)] = self._cla_inc
                    if lbd <= self.GLUE_LBD:
                        self.stats.glue_learned += 1
                    self._watch(learned)
                    self._enqueue(learned[0], learned)
                self._decay()
                if conflicts_here >= budget:
                    self.stats.restarts += 1
                    restart_count += 1
                    conflicts_here = 0
                    budget = 100 * _luby(restart_count + 1)
                    self._backtrack(base_level)
                continue
            decision = self._decide()
            if decision is None:
                return True
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    def reduce_learned(self, keep: int) -> int:
        """Garbage-collect the learned-clause database down to ``keep``.

        Clauses are retained by LBD tier: glue clauses (LBD ≤
        :data:`GLUE_LBD`) are kept *unconditionally* — even when that
        leaves more than ``keep`` clauses alive — and the remainder is
        ranked by (LBD, activity, length), dropping the worst.  The
        survivors' watch hooks stay intact and the dropped clauses are
        unhooked.
        Backtracks to level 0 first, where no learned clause is ever
        consulted as a reason again, so removal cannot invalidate an
        in-flight analysis.  Returns the number of clauses dropped.
        Incremental callers use this between :meth:`solve` calls to
        bound propagation cost over long solving sweeps.
        """
        if len(self.learned_clauses) <= keep:
            return 0
        self._backtrack(0)
        lbd, act = self._lbd, self._cla_act
        glue_cap = self.GLUE_LBD
        glue: list[list[int]] = []
        rest: list[list[int]] = []
        for clause in self.learned_clauses:
            if lbd.get(id(clause), glue_cap + 1) <= glue_cap:
                glue.append(clause)
            else:
                rest.append(clause)
        quota = max(keep - len(glue), 0)
        if len(rest) <= quota:
            # glue alone exceeds the cap: nothing is droppable, so skip
            # the ranking sort a caller's size trigger would otherwise
            # re-pay on every call
            return 0
        rest.sort(
            key=lambda c: (
                lbd.get(id(c), 1 << 30),
                -act.get(id(c), 0.0),
                len(c),
            )
        )
        kept = glue + rest[:quota]
        drop = rest[quota:]
        dropped = set(map(id, drop))
        self.learned_clauses = kept
        self._forget_metadata(dropped)
        watches = self._watches
        for code in range(2, len(watches)):
            watchers = watches[code]
            if watchers:
                watches[code] = [
                    c for c in watchers if id(c) not in dropped
                ]
        # level-0 reasons are never analyzed; clear stale references so
        # the dropped clauses can actually be collected
        for v in range(1, self.num_vars + 1):
            reason = self._reason[v]
            if reason is not None and id(reason) in dropped:
                self._reason[v] = None
        return len(drop)

    def _forget_metadata(self, dropped: set[int]) -> None:
        """Drop LBD/activity entries of clauses leaving the database."""
        for cid in dropped:
            self._lbd.pop(cid, None)
            self._cla_act.pop(cid, None)

    def simplify(self) -> int:
        """Drop clauses permanently satisfied at level 0.

        A literal true at level 0 satisfies its clauses in every future
        solving context, so those clauses (problem and learned alike) are
        dead weight in the watch lists — they accumulate fast in a
        campaign engine whose per-problem activation selectors are
        retired (pinned false) as problems finish.  Removal is sound
        because level-0 facts are consequences of the database alone,
        never of assumptions.  Returns the number of clauses dropped.
        """
        if not self._ok:
            return 0
        self._model_ready = False
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return 0
        assign, level = self._assign, self._level

        def satisfied(clause: list[int]) -> bool:
            for lit in clause:
                var = lit if lit > 0 else -lit
                val = assign[var] if lit > 0 else -assign[var]
                if val == TRUE_VAL and level[var] == 0:
                    return True
            return False

        dropped: set[int] = set()
        kept: list[list[int]] = []
        for clause in self.clauses:
            if satisfied(clause):
                dropped.add(id(clause))
            else:
                kept.append(clause)
        self.clauses = kept
        kept_learned: list[list[int]] = []
        for clause in self.learned_clauses:
            if satisfied(clause):
                dropped.add(id(clause))
            else:
                kept_learned.append(clause)
        self.learned_clauses = kept_learned
        if not dropped:
            return 0
        self._forget_metadata(dropped)
        watches = self._watches
        for code in range(2, len(watches)):
            watchers = watches[code]
            if watchers:
                watches[code] = [
                    c for c in watchers if id(c) not in dropped
                ]
        # level-0 reasons are never analyzed; clear stale references so
        # the dropped clauses can actually be collected
        for v in range(1, self.num_vars + 1):
            reason = self._reason[v]
            if reason is not None and id(reason) in dropped:
                self._reason[v] = None
        return len(dropped)

    def fixed(self, lit: int) -> Optional[bool]:
        """The literal's value if permanently fixed at level 0, else None.

        Level-0 assignments are consequences of the clause database alone
        (never of assumptions), so a ``False`` here means the database
        entails ``-lit`` — e.g. a problem's activation selector being
        fixed false proves that problem unsatisfiable under every
        assumption set the engine could ever pass.  Raises
        :class:`SatError` on literal 0 or an unknown variable.
        """
        var = self._var_of(lit)
        if self._assign[var] == UNASSIGNED or self._level[var] != 0:
            return None
        return self._value(lit) == TRUE_VAL

    def model(self) -> dict[int, bool]:
        """The satisfying assignment after a successful :meth:`solve`.

        Only valid while the last :meth:`solve` call returned ``True`` and
        no clause has been added since.  Any other state — the last call
        exhausted its conflict budget or deadline (returned ``None``),
        answered unsat (``False``), or :meth:`add_clause` invalidated the
        assignment — raises :class:`SatError` instead of silently handing
        back a stale or partial assignment.
        """
        if not self._model_ready:
            raise SatError(
                "model() is only available after solve() returned True "
                "(the last call timed out, answered unsat, or the "
                "formula changed since)"
            )
        return {
            v: self._assign[v] == TRUE_VAL
            for v in range(1, self.num_vars + 1)
            if self._assign[v] != UNASSIGNED
        }

    # -- snapshot / restore -------------------------------------------------
    def snapshot(self) -> dict:
        """The solver's complete warm state as a plain-data dict.

        Captures everything :meth:`restore` needs to rebuild an
        equivalent solver in another process: the clause database
        (original and learned, with per-clause LBD and activity), VSIDS
        activities and saved phases, the level-0 fixed literals, pending
        units, and the cumulative :class:`SatStats`.  Backtracks to
        level 0 first, so the trail holds only permanent facts — units
        are never stored in ``self.clauses``, so they must be captured
        explicitly here.  The result contains only ints / floats /
        bools / lists / dicts (JSON- and pickle-friendly) plus a
        ``version`` field checked on restore.
        """
        self._backtrack(0)
        return {
            "schema": "cdcl",
            "version": SNAPSHOT_VERSION,
            "num_vars": self.num_vars,
            "ok": self._ok,
            "clauses": [list(c) for c in self.clauses],
            "learned": [
                [
                    list(c),
                    self._lbd.get(id(c)),
                    self._cla_act.get(id(c), 0.0),
                ]
                for c in self.learned_clauses
            ],
            # level-0 trail = facts entailed by the database alone
            "fixed": list(self._trail),
            "pending_units": list(self._pending_units),
            "activity": list(self._activity[1:]),
            "phase": list(self._phase[1:]),
            "var_inc": self._var_inc,
            "cla_inc": self._cla_inc,
            "stats": asdict(self.stats),
        }

    @classmethod
    def restore(cls, snap: dict) -> "CDCLSolver":
        """Rebuild a solver from :meth:`snapshot` output.

        Clause lists are adopted verbatim with their first two literals
        watched: at the quiescent level-0 state a snapshot captures,
        every clause either has both watches non-false or is satisfied
        by its other watch, so re-enqueueing the same level-0 facts and
        propagating re-establishes the two-watched-literal invariant.
        Clauses are appended directly (not via :meth:`add_clause`) and
        the stats block is restored wholesale, so ``clauses_added`` /
        ``learned_count`` accounting survives the round trip exactly.
        Raises :class:`SatError` on a wrong schema or version.
        """
        if not isinstance(snap, dict) or snap.get("schema") != "cdcl":
            raise SatError("not a CDCL solver snapshot")
        if snap.get("version") != SNAPSHOT_VERSION:
            raise SatError(
                f"unsupported solver snapshot version "
                f"{snap.get('version')!r} (expected {SNAPSHOT_VERSION})"
            )
        solver = cls()
        solver.new_vars(int(snap["num_vars"]))
        if len(snap["activity"]) != solver.num_vars:
            raise SatError("snapshot activity table length mismatch")
        fixed: list[int] = [int(l) for l in snap["fixed"]]
        for lits in snap["clauses"]:
            clause = [int(l) for l in lits]
            if len(clause) >= 2:
                solver.clauses.append(clause)
                solver._watch(clause)
            elif clause:  # defensive: stored units become fixed facts
                fixed.append(clause[0])
        for lits, lbd, act in snap["learned"]:
            clause = [int(l) for l in lits]
            if len(clause) >= 2:
                solver.learned_clauses.append(clause)
                solver._watch(clause)
                if lbd is not None:
                    solver._lbd[id(clause)] = int(lbd)
                solver._cla_act[id(clause)] = float(act)
            elif clause:
                fixed.append(clause[0])
        for v in range(1, solver.num_vars + 1):
            solver._activity[v] = float(snap["activity"][v - 1])
            solver._phase[v] = bool(snap["phase"][v - 1])
        # every variable is already on the heap from new_vars; rebuild
        # the order bottom-up now that the activities are in place (tie
        # layouts may differ from the live heap — restored searches may
        # take different but equally correct paths)
        for i in range(len(solver._heap) // 2 - 1, -1, -1):
            solver._heap_down(i)
        ok = bool(snap["ok"])
        if ok:
            for lit in fixed:
                if not solver._enqueue(lit, None):
                    ok = False
                    break
            if ok and solver._propagate() is not None:
                ok = False
        solver._ok = ok
        solver._pending_units.extend(
            int(l) for l in snap["pending_units"]
        )
        solver._var_inc = float(snap["var_inc"])
        solver._cla_inc = float(snap["cla_inc"])
        # restored wholesale so cumulative accounting is exact (the
        # replay above must not inflate clauses_added/propagations)
        solver.stats = SatStats(**snap["stats"])
        return solver


def solve_cnf(
    clauses: Iterable[Iterable[int]],
    num_vars: int,
    *,
    max_conflicts: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Optional[dict[int, bool]]:
    """One-shot convenience API: solve a CNF, return a model or ``None``.

    ``None`` strictly means *unsatisfiable*.  When the optional
    ``max_conflicts`` / ``deadline`` budget runs out before an answer,
    the outcome is indeterminate and a :class:`SatError` is raised —
    collapsing it into "no model" would let a budgeted caller misread a
    timeout as unsat.
    """
    solver = CDCLSolver(num_vars)
    for clause in clauses:
        if not solver.add_clause(clause):
            return None
    result = solver.solve(max_conflicts=max_conflicts, deadline=deadline)
    if result is None:
        raise SatError(
            "solve_cnf: conflict/deadline budget exhausted before an "
            "answer (indeterminate, not unsat)"
        )
    if result is False:
        return None
    model = solver.model()
    for v in range(1, num_vars + 1):
        model.setdefault(v, False)
    return model


def brute_force_sat(
    clauses: Sequence[Sequence[int]], num_vars: int
) -> Optional[dict[int, bool]]:
    """Reference solver by exhaustive enumeration (tests only)."""
    for bits in itertools.product((False, True), repeat=num_vars):
        assignment = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(
            any(
                assignment[abs(l)] == (l > 0)
                for l in clause
            )
            for clause in clauses
        ):
            return assignment
    return None
