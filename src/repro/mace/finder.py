"""MACE/Paradox-style finite model finding for constraint-free CHCs.

The reduction of Sec. 4.2: a constraint-free CHC system read as EUF is
satisfiable in a finite structure iff a propositional encoding over a fixed
domain-size vector is satisfiable.  We search size vectors in order of
total size (matching the model sizes reported in Figure 6), encode each
candidate with

* cell variables ``F[f, args, v]`` ("f(args) = v") with exactly-one-value
  constraints (totality + functionality),
* relation variables ``P[p, args]``,
* one ground CNF clause per instantiation of each (flattened) CHC,
* least-constant symmetry breaking on base constructors,

and solve with the in-repo CDCL solver.  A SAT answer decodes into a
:class:`~repro.mace.model.FiniteModel`; the caller then converts it to a
tree automaton (Theorem 1) to obtain a regular Herbrand model (Theorem 5).

Incremental engine (the selector-literal encoding)
--------------------------------------------------

Consecutive size vectors share almost all of their ground encoding, so by
default one persistent SAT engine — the in-repo
:class:`~repro.sat.solver.CDCLSolver` — spans the whole sweep instead of
being rebuilt per vector.  Size-dependence is expressed through
*existence selectors*: for every sort ``s`` and index
``v`` a literal ``ex[s, v]`` reads "element ``v`` of sort ``s`` exists".
The selectors form a prefix chain (``ex[s, v] -> ex[s, v-1]``; ``ex[s, 0]``
is a unit fact), so a candidate vector ``k`` is selected purely through
assumptions: ``ex[s, k_s - 1]`` and ``-ex[s, k_s]`` pin the active domain
of each sort to exactly ``{0 .. k_s - 1}``.  Size-dependent clauses are
guarded so that they are vacuous outside the vectors they describe:

* *cells*: functionality (pairwise at-most-one) and value-existence
  (``F[f, args, v] -> ex[s, v]``) clauses are valid for every size and
  carry no guard; the totality (at-least-one) row for a cell is guarded
  by ``-ex`` literals on the argument elements (inactive cells are
  don't-care) plus the positive frontier literal ``ex[s, K]`` for the
  codomain bound ``K`` it was emitted at, so growing a sort's domain just
  re-emits that one row wider while everything else is reused;
* *ground CHC instances*: guarded by ``-ex`` literals on the instance's
  element values, so an instance emitted once binds for every vector
  that contains those elements;
* *universal blocks*: per-instance Tseitin literals are forced true for
  inactive instantiations (``ex[s, u] \\/ t_inst``) and the block
  conjunction carries frontier guards, so the same block literal is
  correct at every active size;
* *symmetry breaking*: the least-constant cuts are unit clauses valid at
  every size and are emitted once per new element.

Growing a sort's domain therefore only adds the new cells', instances'
and block rows' clauses, while learned clauses, VSIDS activity and saved
phases carry across the entire sweep (solved with
``solver.solve(assumptions=...)``).

The engine *resets* (discarding the solver and re-encoding from scratch)
in exactly two situations: when the caller asks for the from-scratch
ablation (``incremental=False`` — a reset before every vector), and as a
safety valve when the shared clause database derives a level-0
contradiction, which would otherwise bleed an UNSAT verdict into every
later size vector.  Both show up in :class:`FinderStats.solver_resets`.

Campaign mode (sharing one engine across problems)
--------------------------------------------------

Benchmark campaigns solve hundreds of systems that overwhelmingly share
their ADT signature, so the engine hosts *multiple problems* at once.
Every clause is encoded as a selector-guarded **clause group**
(:class:`_ClauseGroup`): the ground instances carry a ``¬sel`` guard
(selector allocated from the shared :class:`~repro.sat.cnf.SelectorPool`
by canonical clause structure, :func:`clause_key`), and a problem — a
:class:`_ProblemContext` — is activated for one ``try_vector`` call by
assuming exactly the selectors of the groups it references.  Groups are
engine-wide: two problems containing the same clause (up to variable
renaming — e.g. the five STLC typing rules shared by all 23
inhabitation problems, or a benchmark family's common rules) share one
ground encoding *and* every learned clause derived from it, since those
mention the same selector.  The signature-level encoding —
existence-selector chains, cell totality/functionality rows, symmetry
cuts — carries no guard at all and is shared by every problem, as are
VSIDS activity and saved phases.

Lifecycle: a released problem decrements its groups' refcounts; a group
nothing references survives ``GC_WINDOW`` further registrations (so
back-to-back problems from one family keep their rules warm) and is
then retired — its selector pinned false via
:meth:`~repro.sat.cnf.SelectorPool.retire`, which permanently satisfies
its clauses, and a level-0 ``simplify`` physically drops them from the
watch lists.  If unit propagation ever
fixes a group selector false at level 0, the database alone entails
that clause is unsatisfiable under every assumption set, i.e. at every
size vector: every problem containing it is ``hopeless`` and its sweep
stops early.  :class:`EnginePool` in :mod:`repro.mace.pool` keys
engines by a canonical signature fingerprint and hands out
:class:`ModelFinder` instances riding a shared engine.

Unsat-core–guided sweep and verdict completeness
------------------------------------------------

Every vector is solved purely under assumptions, so a refuted vector
yields an **unsat core** (the solver's ``core()``, optionally
shrunk further by its deletion-based ``minimize_core()``)
over exactly three kinds of literal: the problem's clause-group
selectors, positive existence frontiers ``ex[s, k-1]`` ("sort ``s`` has
at least ``k`` elements") and negative bounds ``-ex[s, k]`` ("at most
``k``").  The core is a semantic fact — database ∧ core ⊢ ⊥, and the
database only ever grows — so it transfers to any other size vector
whose assumptions *entail* it through the prefix chains: a candidate
``k'`` is already refuted if, for every sort, it still meets each lower
bound the core used (``k'_s ≥ k_s``) and each upper bound
(``k'_s ≤ k_s``).  :meth:`ModelFinder.search` keeps each problem's
refutation cores on its context and skips covered candidates without
touching the solver (``FinderStats.vectors_skipped``); a core that
mentions *no* existence selector at all proves the problem unsat at
every size — a sound, earlier ``ctx.hopeless`` than waiting for a group
selector to be pinned false at level 0.

The sweep also distinguishes *refuted* from *exhausted* vectors: a
solver ``None`` (conflict budget or deadline ran out) is not a
refutation, so ``FinderResult.complete`` is ``True`` — licensing the
claim "no model of total size ≤ N" — only when every candidate vector
was refuted (directly or via a covering core) and the sweep was not cut
short.  ``FinderOptions(core_guided_sweep=False)`` disables the pruning
(ablation; ``benchmarks/bench_core.py`` gates that verdicts are
identical either way).

Configuration
-------------

Every knob of the search lives in one frozen :class:`FinderOptions`
value: :class:`ModelFinder`, the parallel portfolio, the engine and the
engine pool are all configured by it, and its
:meth:`FinderOptions.engine_key` — the part a clause database depends
on — keys pooled engines, cache files and snapshots.  Whether given
engine state may serve a finder is decided in exactly one place,
:func:`check_engine`.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.logic.formulas import TRUE
from repro.logic.sorts import FuncSymbol, PredSymbol, Sort
from repro.logic.terms import App, Term, Var
from repro.mace.model import FiniteModel, validate_model
from repro.obs import runtime as obs_runtime
from repro.sat.cnf import SelectorPool
from repro.sat.solver import CDCLSolver


class FinderError(ValueError):
    """Raised on inputs the finder cannot encode."""


class EngineSnapshotError(FinderError):
    """An engine snapshot cannot be restored (wrong schema/version,
    mismatched signature fingerprint, or an unusable solver snapshot).
    Callers holding possibly-stale snapshots (the pool's disk warm
    cache, a supervised worker's task payload) treat this as "fall
    back to a cold engine", never as a campaign failure."""


#: schema version of :meth:`_IncrementalEngine.snapshot`; bumped
#: whenever the serialized layout changes incompatibly.  ``restore``
#: rejects any other version instead of guessing.
ENGINE_SNAPSHOT_VERSION = 2


@dataclass(frozen=True)
class FinderOptions:
    """The model finder's configuration, as one immutable value.

    ``max_total_size`` bounds the sweep (total domain size over all
    sorts); ``max_conflicts_per_size`` is the per-vector conflict budget
    (``None``: unbounded) and ``max_learned_clauses`` bounds the
    learned-clause database the engine carries across vectors.
    ``symmetry_breaking`` adds the least-constant cuts.  ``incremental``
    keeps one engine across the sweep; off, the engine is reset before
    every vector (the from-scratch reference path).
    ``core_guided_sweep`` prunes the sweep with the unsat cores of
    refuted vectors, and ``core_minimization`` shrinks each core by
    bounded deletion probes first.  ``sweep_shards`` > 1 runs the sweep
    as a speculative parallel portfolio (:mod:`repro.mace.parallel`).
    """

    max_total_size: int = 12
    max_conflicts_per_size: Optional[int] = 200_000
    max_learned_clauses: Optional[int] = 20_000
    symmetry_breaking: bool = True
    incremental: bool = True
    core_guided_sweep: bool = True
    core_minimization: bool = True
    sweep_shards: int = 1

    def engine_key(self) -> tuple:
        """The part of the configuration an engine's clause database
        depends on.  Engines, snapshots and pool slots built under
        different keys never serve each other's finders; every other
        field only steers how a search drives the engine."""
        return (self.symmetry_breaking,)


def engine_fingerprint(sorts, functions, predicates) -> tuple:
    """Canonical, hashable fingerprint of an engine signature.

    Order-insensitive over the three symbol families, built purely from
    names and sort names, so it is stable across processes and pickle
    round-trips.  :func:`repro.mace.pool.signature_fingerprint`
    delegates here, which is what guarantees a snapshot taken from a
    pooled engine carries exactly the fingerprint the pool will later
    look it up under.
    """
    return (
        tuple(sorted(s.name for s in sorts)),
        tuple(
            sorted(
                (
                    f.name,
                    tuple(s.name for s in f.arg_sorts),
                    f.result_sort.name,
                )
                for f in functions
            )
        ),
        tuple(
            sorted(
                (p.name, tuple(s.name for s in p.arg_sorts))
                for p in predicates
            )
        ),
    )


def check_engine(
    state: dict,
    options: FinderOptions,
    fingerprint: Optional[tuple] = None,
) -> None:
    """The one rule deciding whether engine state may serve a finder.

    ``state`` is an engine snapshot or a live engine's
    :meth:`_IncrementalEngine.header`.  It serves a finder configured by
    ``options`` iff it has this build's schema and version and was built
    under the same :meth:`FinderOptions.engine_key` — and, when
    ``fingerprint`` is given, over that signature.  Raises
    :class:`EngineSnapshotError` otherwise.  Engine injection into a
    :class:`ModelFinder` and every restore path (the pool's disk cache,
    adopted snapshots, parallel shards) go through here.
    """
    if not isinstance(state, dict) or state.get("schema") != "engine":
        raise EngineSnapshotError("not an engine snapshot")
    if state.get("version") != ENGINE_SNAPSHOT_VERSION:
        raise EngineSnapshotError(
            f"engine snapshot version {state.get('version')!r} "
            f"(this build reads {ENGINE_SNAPSHOT_VERSION})"
        )
    if state.get("engine_key") != options.engine_key():
        raise EngineSnapshotError(
            "engine was built under another engine policy "
            f"({state.get('engine_key')!r}, wanted "
            f"{options.engine_key()!r})"
        )
    if fingerprint is not None and state.get("fingerprint") != fingerprint:
        raise EngineSnapshotError(
            "engine was built for another signature "
            "(pool fingerprints must agree)"
        )


@dataclass
class FlatAtom:
    """A flattened atom ``P(x1, ..., xn)`` over variables only."""

    pred: PredSymbol
    vars: tuple[Var, ...]
    universal_vars: tuple[Var, ...] = ()
    # definitions local to the universal block: (func, arg vars, result var)
    local_defs: tuple[tuple[FuncSymbol, tuple[Var, ...], Var], ...] = ()
    local_vars: tuple[Var, ...] = ()


@dataclass
class FlatClause:
    """A flattened clause: definitions + body atoms -> head atom / bottom."""

    source: Clause
    vars: tuple[Var, ...]
    defs: tuple[tuple[FuncSymbol, tuple[Var, ...], Var], ...]
    body: tuple[FlatAtom, ...]
    head: Optional[FlatAtom]


def flatten_clause(cl: Clause, counter: itertools.count) -> FlatClause:
    """Flatten nested terms into chains of function-cell definitions.

    Every non-variable subterm receives a fresh variable; shared subterms
    share the variable.  Universal-block atoms get their own block-local
    definitions so that the block's Tseitin encoding can quantify over the
    intermediate values independently.
    """
    if cl.constraint != TRUE:
        raise FinderError(
            "model finder expects constraint-free clauses; preprocess first"
        )
    defs: dict[Term, Var] = {}
    def_list: list[tuple[FuncSymbol, tuple[Var, ...], Var]] = []

    def flatten_term(term: Term, sink: list, cache: dict) -> Var:
        if isinstance(term, Var):
            return term
        cached = cache.get(term)
        if cached is not None:
            return cached
        arg_vars = tuple(flatten_term(a, sink, cache) for a in term.args)
        fresh = Var(f"fl!{next(counter)}", term.func.result_sort)
        cache[term] = fresh
        sink.append((term.func, arg_vars, fresh))
        return fresh

    def flatten_atom(atom: BodyAtom) -> FlatAtom:
        if not atom.universal_vars:
            arg_vars = tuple(
                flatten_term(t, def_list, defs) for t in atom.args
            )
            return FlatAtom(atom.pred, arg_vars)
        local_sink: list = []
        local_cache: dict = {}
        arg_vars = tuple(
            flatten_term(t, local_sink, local_cache) for t in atom.args
        )
        local_vars = tuple(v for _, _, v in local_sink)
        return FlatAtom(
            atom.pred,
            arg_vars,
            atom.universal_vars,
            tuple(local_sink),
            local_vars,
        )

    body = tuple(flatten_atom(a) for a in cl.body)
    head: Optional[FlatAtom] = None
    if cl.head is not None:
        head = flatten_atom(cl.head)
    all_vars: set[Var] = set(cl.free_vars())
    all_vars.update(v for _, _, v in def_list)
    return FlatClause(
        cl,
        tuple(sorted(all_vars, key=lambda v: v.name)),
        tuple(def_list),
        body,
        head,
    )


@dataclass
class FinderStats:
    """Search statistics across attempted size vectors.

    ``clauses_encoded`` counts clauses handed to the SAT solver during
    this search, while ``clauses_reused`` sums, over all attempts, the
    clauses that were already in the solver when the attempt started —
    the quantity the incremental engine exists to maximise.
    ``learned_total`` counts conflict clauses derived during the search
    and ``learned_kept`` the learned clauses still alive (carried across
    attempts) when it ended; ``learned_glue`` is the subset of
    ``learned_total`` with LBD ≤ 2 (kept unconditionally by the LBD
    retention policy).

    The sweep-verdict counters partition the candidate vectors:
    ``vectors_refuted`` were proven unsat by the solver,
    ``vectors_exhausted`` hit the per-size conflict/deadline budget
    (*not* a refutation — see ``FinderResult.complete``), and
    ``vectors_skipped`` were pruned because a previously extracted unsat
    core (``cores_extracted`` of them carried usable size bounds)
    already covers them.  ``hopeless`` records a size-independent
    refutation: no vector can ever succeed.
    """

    attempts: int = 0
    sat_vars: int = 0
    sat_clauses: int = 0
    elapsed: float = 0.0
    model_size: Optional[int] = None
    clauses_encoded: int = 0
    clauses_reused: int = 0
    learned_total: int = 0
    learned_kept: int = 0
    learned_glue: int = 0
    solver_resets: int = 0
    incremental: bool = True
    # unsat-core–guided sweep accounting (see the module docstring)
    vectors_refuted: int = 0
    vectors_exhausted: int = 0
    vectors_skipped: int = 0
    cores_extracted: int = 0
    # deletion-based minimization before cores become sweep bounds:
    # cores that went through a minimization pass, and the assumption
    # literals those passes removed (each removed size-bound literal
    # widens the band of vectors the core refutes for free)
    cores_minimized: int = 0
    core_lits_dropped: int = 0
    hopeless: bool = False
    # True when the sweep was cut short by the *wall-clock* deadline
    # (mid-encoding or mid-solve) as opposed to the per-size conflict
    # budget — the two exhaustion modes have different remedies (more
    # time vs. more conflicts), so verdict reasons keep them apart
    deadline_hit: bool = False
    # campaign mode: True when this search ran on a pool-shared engine,
    # and the clauses other problems had already contributed to that
    # engine when this finder attached (cross-problem reuse)
    engine_shared: bool = False
    cross_problem_clauses: int = 0
    # speculative parallel sweeps (repro.mace.parallel):
    # ``vectors_speculated`` counts vectors dispatched to a shard while
    # another vector was still outstanding, ``cores_broadcast`` the
    # refutation cores relayed to at least one sibling shard,
    # ``speculative_pruned`` the already-dispatched vectors a sibling's
    # broadcast core pruned shard-side without a solver call, and
    # ``shard_restarts`` the shards respawned after dying
    # mid-speculation.  ``sweep_shards`` is the portfolio width (1 for
    # the sequential sweep).
    vectors_speculated: int = 0
    cores_broadcast: int = 0
    speculative_pruned: int = 0
    shard_restarts: int = 0
    sweep_shards: int = 1

    def as_dict(self) -> dict:
        """Plain-dict view for result details / JSON artifacts."""
        return dataclasses.asdict(self)

    def merge(self, part: "FinderStats") -> None:
        """Fold another search's statistics into this one.

        The single merge rule shared by the per-solve accumulator in
        :mod:`repro.core.ringen` (sequential searches resumed after a
        failed Herbrand check) and the parallel sweep scheduler folding
        per-shard statistics: additive counters add, high-water marks
        (``sat_vars``, ``sat_clauses``, ``learned_kept``,
        ``cross_problem_clauses``, ``sweep_shards``) take the max,
        sticky flags or together, and ``model_size`` keeps the most
        recent part that actually found a model.  ``incremental`` is a
        configuration echo and is left untouched.
        """
        self.attempts += part.attempts
        self.sat_vars = max(self.sat_vars, part.sat_vars)
        self.sat_clauses = max(self.sat_clauses, part.sat_clauses)
        self.elapsed += part.elapsed
        if part.model_size is not None:
            self.model_size = part.model_size
        self.clauses_encoded += part.clauses_encoded
        self.clauses_reused += part.clauses_reused
        self.learned_total += part.learned_total
        self.learned_kept = max(self.learned_kept, part.learned_kept)
        self.learned_glue += part.learned_glue
        self.solver_resets += part.solver_resets
        self.vectors_refuted += part.vectors_refuted
        self.vectors_exhausted += part.vectors_exhausted
        self.vectors_skipped += part.vectors_skipped
        self.cores_extracted += part.cores_extracted
        self.cores_minimized += part.cores_minimized
        self.core_lits_dropped += part.core_lits_dropped
        self.hopeless = self.hopeless or part.hopeless
        self.deadline_hit = self.deadline_hit or part.deadline_hit
        self.engine_shared = self.engine_shared or part.engine_shared
        self.cross_problem_clauses = max(
            self.cross_problem_clauses, part.cross_problem_clauses
        )
        self.vectors_speculated += part.vectors_speculated
        self.cores_broadcast += part.cores_broadcast
        self.speculative_pruned += part.speculative_pruned
        self.shard_restarts += part.shard_restarts
        self.sweep_shards = max(self.sweep_shards, part.sweep_shards)


@dataclass
class FinderResult:
    """Outcome of the finite model search.

    ``complete`` reports whether the sweep's verdict is *definitive*:
    ``True`` when a model was found, or when every candidate size
    vector up to the bound was refuted (directly, by a covering unsat
    core, or by a size-independent ``hopeless`` proof) — the only
    situations licensing "no model of total size ≤ N".  It is ``False``
    whenever any vector merely exhausted its conflict/deadline budget or
    the sweep was cut short by the search deadline, in which case the
    right reading is "unknown (budget)".
    """

    model: Optional[FiniteModel]
    stats: FinderStats
    complete: bool = False

    @property
    def found(self) -> bool:
        return self.model is not None


@dataclass
class _VectorOutcome:
    """What one :meth:`_IncrementalEngine.try_vector` call established."""

    model: Optional[FiniteModel] = None
    # True: the vector is proven to have no model (solver unsat);
    # False with model None: budget/deadline exhausted — indeterminate
    refuted: bool = False


def size_vectors(
    sorts: Sequence[Sort], max_total: int, min_total: int = 0
) -> Iterator[dict[Sort, int]]:
    """All per-sort size assignments in order of increasing total size."""
    n = len(sorts)
    for total in range(max(n, min_total), max_total + 1):
        for composition in _compositions(total, n):
            yield dict(zip(sorts, composition))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _combos(
    old: Optional[tuple[int, ...]], new: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Tuples over ``prod(range(n) for n in new)`` not yet covered.

    ``old is None`` means nothing was covered (yield the full space);
    otherwise yield exactly the difference of the two boxes, enumerated
    by the position of the first component that escapes the old box.
    """
    if old is None:
        yield from itertools.product(*[range(n) for n in new])
        return
    for pivot in range(len(new)):
        if new[pivot] <= old[pivot]:
            continue
        pools: list[range] = []
        for j in range(len(new)):
            if j < pivot:
                pools.append(range(old[j]))
            elif j == pivot:
                pools.append(range(old[j], new[j]))
            else:
                pools.append(range(new[j]))
        yield from itertools.product(*pools)


@dataclass
class _BlockState:
    """Persistent encoding state of one universal-block Tseitin literal."""

    atom: FlatAtom
    outer: dict[Var, int]
    t: int
    t_insts: dict[tuple[int, ...], int] = field(default_factory=dict)
    done_u: Optional[tuple[int, ...]] = None
    done_l: Optional[tuple[int, ...]] = None


def clause_key(flat: FlatClause) -> tuple:
    """A canonical, hashable key of a flat clause's logical content.

    Variables are renumbered by first occurrence in a fixed traversal
    (clause variables, definitions, body, head), so two flattenings of
    the same clause — even from different problems, with different fresh
    variable names — get equal keys.  Equal keys mean the ground
    encodings coincide up to variable naming, which is what lets a
    campaign engine share one selector-guarded clause group between
    every problem that contains the clause.
    """
    order: dict[Var, int] = {}

    def slot(v: Var) -> tuple:
        i = order.get(v)
        if i is None:
            i = len(order)
            order[v] = i
        return (i, v.sort.name)

    def atom_key(atom: FlatAtom) -> tuple:
        uindex = {v: i for i, v in enumerate(atom.universal_vars)}
        lindex = {v: i for i, v in enumerate(atom.local_vars)}

        def aslot(v: Var) -> tuple:
            if v in lindex:
                return ("l", lindex[v], v.sort.name)
            if v in uindex:
                return ("u", uindex[v], v.sort.name)
            return ("o",) + slot(v)

        return (
            atom.pred.name,
            tuple(aslot(v) for v in atom.vars),
            tuple(v.sort.name for v in atom.universal_vars),
            tuple(
                (f.name, tuple(aslot(a) for a in args), aslot(r))
                for f, args, r in atom.local_defs
            ),
            tuple(v.sort.name for v in atom.local_vars),
        )

    vars_key = tuple(slot(v) for v in flat.vars)
    defs_key = tuple(
        (f.name, tuple(slot(a) for a in args), slot(r))
        for f, args, r in flat.defs
    )
    body_key = tuple(atom_key(a) for a in flat.body)
    head_key = atom_key(flat.head) if flat.head is not None else None
    return (vars_key, defs_key, body_key, head_key)


class _ClauseGroup:
    """One selector-guarded ground encoding of one (canonical) clause.

    Groups are engine-wide: every problem containing a structurally
    identical clause references the same group, so its ground instances
    — and any learned clauses derived from them, which mention the same
    selector — encode once and serve the whole campaign.  ``refs``
    counts the live contexts referencing the group; an unreferenced
    group survives ``GC_WINDOW`` further problem registrations before
    its selector is retired (see :meth:`_IncrementalEngine._gc_groups`),
    so back-to-back problems from one family keep their shared rules
    hot while one-off query clauses age out.
    """

    __slots__ = (
        "flat",
        "serial",
        "sel",
        "cur",
        "done",
        "blocks",
        "atom_layouts",
        "refs",
        "last_touch",
    )

    def __init__(self, flat: FlatClause, serial: int):
        self.flat = flat
        self.serial = serial
        self.sel: Optional[int] = None
        self.cur: dict[Sort, int] = {}
        self.done: Optional[tuple[int, ...]] = None
        self.blocks: list[_BlockState] = []
        self.atom_layouts: dict[int, tuple] = {}
        self.refs = 0
        self.last_touch = 0


class _ProblemContext:
    """Per-problem state registered on a (possibly shared) engine.

    The context is thin: a problem is its set of clause groups (see
    :class:`_ClauseGroup`) plus a growth envelope.  Activating the
    problem for one ``solve`` call means assuming exactly its groups'
    selectors; everything else — cells, existence chains, symmetry cuts,
    the solver, and any group some other problem also contains — is
    shared engine state.
    """

    __slots__ = (
        "flat_clauses",
        "key",
        "cur",
        "groups",
        "hopeless",
        "released",
        "joined_at_clauses",
        "refuted_cores",
    )

    def __init__(
        self, flat_clauses: Sequence[FlatClause], key: int, joined_at: int
    ):
        self.flat_clauses = tuple(flat_clauses)
        self.key = key
        self.joined_at_clauses = joined_at
        self.hopeless = False
        self.released = False
        self.cur: dict[Sort, int] = {}
        # resolved lazily (and re-resolved after an engine reset)
        self.groups: Optional[list[_ClauseGroup]] = None
        # unsat cores of refuted size vectors as (lower, upper) bound
        # maps over sorts; like ``hopeless`` these are semantic facts
        # about the problem (the clause database only grows and the
        # existence chains are permanent), so they survive engine resets
        # and later searches on the same context
        self.refuted_cores: list[tuple[dict[Sort, int], dict[Sort, int]]] = []


class _IncrementalEngine:
    """One persistent CDCL encoding spanning size sweeps and problems.

    See the module docstring for the selector-literal scheme and the
    campaign extension.  The engine owns the solver, the cell/relation
    variable maps and the signature-level growth bookkeeping; each
    registered :class:`_ProblemContext` carries the per-problem state.
    :class:`ModelFinder` drives one context at a time through
    :meth:`try_vector`.  Of its :class:`FinderOptions` the engine keeps
    only the :meth:`~FinderOptions.engine_key` part; the search knobs
    arrive with every :meth:`try_vector` call.
    """

    #: how many problem registrations an unreferenced clause group
    #: survives before its selector is retired and its clauses dropped
    #: (campaign hygiene; see _gc_groups)
    GC_WINDOW = 8

    def __init__(
        self,
        sorts: Sequence[Sort],
        functions: Sequence[FuncSymbol],
        predicates: Sequence[PredSymbol],
        options: FinderOptions = FinderOptions(),
    ):
        self.sorts = list(sorts)
        self.functions = list(functions)
        self.predicates = list(predicates)
        self.symmetry_breaking = options.symmetry_breaking
        # what check_engine compares (see header)
        self.engine_key = options.engine_key()
        self.fingerprint = engine_fingerprint(
            self.sorts, self.functions, self.predicates
        )
        self._folded_added = 0
        self._folded_learned = 0
        self._folded_glue = 0
        self._tick_count = 0
        self._deadline: Optional[float] = None
        self._contexts: list[_ProblemContext] = []
        self._ctx_counter = itertools.count()
        self.problems_registered = 0
        self.groups_shared = 0  # group lookups served by an existing group
        # semantic memory across registrations of the *same problem*
        # (identified by its frozenset of canonical clause keys):
        # refutation cores and hopeless verdicts are facts about the
        # problem, not the encoding, so a re-registered problem — a
        # recycled engine, a warm-restored worker — inherits its sweep
        # bounds instead of re-deriving them.  FIFO-bounded; survives
        # ``reset`` for the same reason ``refuted_cores`` does.
        self._problem_facts: dict[
            frozenset,
            tuple[
                list[tuple[dict[Sort, int], dict[Sort, int]]], bool
            ],
        ] = {}
        self._constants: dict[Sort, list[FuncSymbol]] = {
            s: [
                f
                for f in self.functions
                if f.result_sort == s and f.arity == 0
            ]
            for s in self.sorts
        }
        self._fresh()

    # -- lifecycle ---------------------------------------------------------
    def _fresh(self) -> None:
        self.solver = CDCLSolver()
        self.selectors = SelectorPool(self.solver)
        self.cur: dict[Sort, int] = {s: 0 for s in self.sorts}
        # nested variable tables: one symbol hash to reach a table keyed
        # by cheap int tuples (the encode loops are hash-bound otherwise)
        self.func_vars: dict[
            FuncSymbol, dict[tuple[tuple[int, ...], int], int]
        ] = {f: {} for f in self.functions}
        self.pred_vars: dict[
            PredSymbol, dict[tuple[int, ...], int]
        ] = {p: {} for p in self.predicates}
        # existence selectors per sort, indexed by element: _ex_rows[s][v]
        self._ex_rows: dict[Sort, list[int]] = {
            s: [] for s in self.sorts
        }
        # per function: (arg-space sizes, codomain size) already encoded
        self._func_done: dict[
            FuncSymbol, tuple[tuple[int, ...], int]
        ] = {}
        self._sb_done: dict[Sort, int] = {s: 0 for s in self.sorts}
        self._groups: dict[tuple, _ClauseGroup] = {}
        self._group_serial = itertools.count()
        self._ok = True
        for ctx in self._contexts:
            self._reset_context(ctx)

    def _reset_context(self, ctx: _ProblemContext) -> None:
        """Drop a context's solver-scoped state (after an engine reset).

        ``hopeless`` survives: it records a semantic fact about the
        problem (the database entailed its unsatisfiability at every
        size), not an artifact of the discarded encoding.
        """
        ctx.cur = {s: 0 for s in self.sorts}
        ctx.groups = None

    #: how many distinct problems' cores/hopeless verdicts the engine
    #: remembers across release/re-register cycles (FIFO eviction)
    PROBLEM_FACTS_MAX = 256

    @staticmethod
    def _facts_key(flat_clauses: Sequence[FlatClause]) -> frozenset:
        """Renaming-invariant identity of a problem: its clause keys.

        A frozenset rather than a sorted tuple because clause keys are
        hashable but not mutually orderable (a ``None`` head does not
        compare with a tuple one).
        """
        return frozenset(clause_key(flat) for flat in flat_clauses)

    def register(
        self, flat_clauses: Sequence[FlatClause]
    ) -> _ProblemContext:
        """Attach one problem's flattened clauses to this engine."""
        ctx = _ProblemContext(
            flat_clauses, next(self._ctx_counter), self.total_added
        )
        self._reset_context(ctx)
        facts = self._problem_facts.get(self._facts_key(flat_clauses))
        if facts is not None:
            # this exact problem (up to variable renaming) was hosted
            # before: its refutation bounds are semantic facts and
            # transfer wholesale — the sweep resumes where it left off
            cores, hopeless = facts
            ctx.refuted_cores = [
                (dict(lower), dict(upper)) for lower, upper in cores
            ]
            ctx.hopeless = hopeless
        self._contexts.append(ctx)
        self.problems_registered += 1
        return ctx

    def _resolve_groups(self, ctx: _ProblemContext) -> list[_ClauseGroup]:
        """Map the context's clauses to engine-wide clause groups."""
        if ctx.groups is not None:
            return ctx.groups
        groups: list[_ClauseGroup] = []
        seen: set[int] = set()
        for flat in ctx.flat_clauses:
            key = clause_key(flat)
            group = self._groups.get(key)
            if group is None:
                group = _ClauseGroup(flat, next(self._group_serial))
                group.cur = {s: 0 for s in self.sorts}
                self._groups[key] = group
            elif group.serial not in seen:
                self.groups_shared += 1
            if group.serial in seen:
                continue  # duplicate clause within one problem
            seen.add(group.serial)
            group.refs += 1
            group.last_touch = self.problems_registered
            groups.append(group)
        ctx.groups = groups
        return groups

    def release(self, ctx: _ProblemContext) -> None:
        """Detach a finished problem and garbage-collect stale groups.

        The problem's groups lose one reference; groups nothing alive
        references any more stay warm for ``GC_WINDOW`` further problem
        registrations (back-to-back problems from one family re-hit
        their shared rules for free) and are then retired — their
        selector is pinned false, which permanently satisfies their
        clauses, and a level-0 simplify drops those from the solver.
        """
        if ctx.released:
            return
        ctx.released = True
        if ctx.refuted_cores or ctx.hopeless:
            key = self._facts_key(ctx.flat_clauses)
            self._problem_facts.pop(key, None)
            self._problem_facts[key] = (
                [
                    (dict(lower), dict(upper))
                    for lower, upper in ctx.refuted_cores
                ],
                ctx.hopeless,
            )
            while len(self._problem_facts) > self.PROBLEM_FACTS_MAX:
                self._problem_facts.pop(
                    next(iter(self._problem_facts))
                )
        if ctx in self._contexts:
            self._contexts.remove(ctx)
        if ctx.groups is not None:
            for group in ctx.groups:
                group.refs -= 1
            ctx.groups = None
        self._gc_groups()

    def _gc_groups(self) -> None:
        retired = False
        for key, group in list(self._groups.items()):
            if group.refs > 0:
                continue
            if (
                self.problems_registered - group.last_touch
                < self.GC_WINDOW
            ):
                continue
            del self._groups[key]
            if group.sel is not None:
                self.selectors.retire(("clause", group.serial))
                retired = True
        if retired:
            # retired selectors satisfy their groups' clauses at level 0;
            # physically dropping them keeps the watch lists (and hence
            # every later problem's propagation) lean
            self.solver.simplify()

    def reset(self, stats: FinderStats) -> None:
        """Discard the shared solver state and start over."""
        stats.solver_resets += 1
        self._folded_added += self.solver.stats.clauses_added
        self._folded_learned += self.solver.stats.learned
        self._folded_glue += self.solver.stats.glue_learned
        self._fresh()

    @property
    def total_added(self) -> int:
        return self._folded_added + self.solver.stats.clauses_added

    @property
    def total_learned(self) -> int:
        return self._folded_learned + self.solver.stats.learned

    @property
    def total_glue(self) -> int:
        return self._folded_glue + self.solver.stats.glue_learned

    # -- snapshot / restore ------------------------------------------------
    def header(self) -> dict:
        """What :func:`check_engine` reads: schema, version, engine key
        and signature fingerprint — also the head of every
        :meth:`snapshot`."""
        return {
            "schema": "engine",
            "version": ENGINE_SNAPSHOT_VERSION,
            "engine_key": self.engine_key,
            "fingerprint": self.fingerprint,
        }

    def snapshot(self) -> dict:
        """Serializable state of the whole engine (picklable dict).

        Captures the solver (via its own ``snapshot``), the
        selector table, the signature-level growth envelopes, every live
        clause group with its blocks, and the problem-facts memo.
        Problem *contexts* are deliberately absent: a restored engine
        starts with no registered problems, and re-registering one
        recovers its bounds through the memo.  ``atom_layouts`` is also
        dropped — it is keyed by object identity (``id(atom)``), which
        does not survive pickling, and :meth:`_block_layout` rebuilds it
        lazily on first use.

        The snapshot references the engine's own ``FlatClause``/``Var``
        structures; those are value objects the engine never mutates, so
        the dict stays valid even if the donor engine keeps solving
        (every mutable container is copied here).
        """
        groups = []
        for group in self._groups.values():
            groups.append(
                {
                    "flat": group.flat,
                    "serial": group.serial,
                    "sel": group.sel,
                    "cur": dict(group.cur),
                    "done": group.done,
                    "last_touch": group.last_touch,
                    "blocks": [
                        {
                            "atom": b.atom,
                            "outer": dict(b.outer),
                            "t": b.t,
                            "t_insts": dict(b.t_insts),
                            "done_u": b.done_u,
                            "done_l": b.done_l,
                        }
                        for b in group.blocks
                    ],
                }
            )
        return {
            **self.header(),
            "sorts": list(self.sorts),
            "functions": list(self.functions),
            "predicates": list(self.predicates),
            "solver": self.solver.snapshot(),
            "selectors": self.selectors.export_state(),
            "cur": dict(self.cur),
            "func_vars": {
                f: dict(table) for f, table in self.func_vars.items()
            },
            "pred_vars": {
                p: dict(table) for p, table in self.pred_vars.items()
            },
            "ex_rows": {
                s: list(row) for s, row in self._ex_rows.items()
            },
            "func_done": dict(self._func_done),
            "sb_done": dict(self._sb_done),
            "groups": groups,
            # ``itertools.count`` does not pickle; serial reuse of
            # *retired* groups is safe (retire pops the selector key),
            # so resuming past the live maximum is all that is needed
            "next_serial": max(
                (g.serial for g in self._groups.values()), default=-1
            )
            + 1,
            "problems_registered": self.problems_registered,
            "groups_shared": self.groups_shared,
            "folded": [
                self._folded_added,
                self._folded_learned,
                self._folded_glue,
            ],
            "ok": self._ok,
            "problem_facts": [
                [
                    key,
                    [
                        (dict(lower), dict(upper))
                        for lower, upper in cores
                    ],
                    hopeless,
                ]
                for key, (cores, hopeless) in self._problem_facts.items()
            ],
        }

    @classmethod
    def restore(
        cls,
        snap: dict,
        options: FinderOptions,
        fingerprint: Optional[tuple] = None,
    ) -> "_IncrementalEngine":
        """Rebuild an engine from a :meth:`snapshot` dict for finders
        configured by ``options`` (and, when given, the signature
        ``fingerprint``).

        :func:`check_engine` vets the snapshot first.  The engine is
        then constructed from the snapshot's own signature lists (sorted
        at snapshot time), so a finder whose fingerprint matches passes
        the same check on injection.  Raises
        :class:`EngineSnapshotError` on any mismatch or an internally
        inconsistent snapshot.
        """
        check_engine(snap, options, fingerprint)
        engine = cls(
            snap["sorts"], snap["functions"], snap["predicates"], options
        )
        engine._restore_from(snap)
        return engine

    def _restore_from(self, snap: dict) -> None:
        if snap["fingerprint"] != self.fingerprint:
            raise EngineSnapshotError(
                "snapshot fingerprint disagrees with its signature lists"
            )
        self.solver = CDCLSolver.restore(snap["solver"])
        self.selectors = SelectorPool(self.solver)
        self.selectors.import_state(snap["selectors"])
        # symbol-keyed tables: the snapshot's keys are value-equal to
        # this engine's own (frozen dataclasses hash by value), so the
        # adopted dicts serve lookups from self.functions/predicates
        self.cur = {s: int(snap["cur"].get(s, 0)) for s in self.sorts}
        self.func_vars = {
            f: dict(snap["func_vars"].get(f, {})) for f in self.functions
        }
        self.pred_vars = {
            p: dict(snap["pred_vars"].get(p, {}))
            for p in self.predicates
        }
        self._ex_rows = {
            s: list(snap["ex_rows"].get(s, ())) for s in self.sorts
        }
        self._func_done = dict(snap["func_done"])
        self._sb_done = {
            s: int(snap["sb_done"].get(s, 0)) for s in self.sorts
        }
        self._groups = {}
        for g in snap["groups"]:
            group = _ClauseGroup(g["flat"], int(g["serial"]))
            group.sel = g["sel"]
            group.cur = dict(g["cur"])
            group.done = g["done"]
            group.last_touch = int(g["last_touch"])
            for b in g["blocks"]:
                block = _BlockState(
                    b["atom"],
                    dict(b["outer"]),
                    b["t"],
                    dict(b["t_insts"]),
                    b["done_u"],
                    b["done_l"],
                )
                group.blocks.append(block)
            self._groups[clause_key(group.flat)] = group
        self._group_serial = itertools.count(int(snap["next_serial"]))
        self.problems_registered = int(snap["problems_registered"])
        self.groups_shared = int(snap["groups_shared"])
        (
            self._folded_added,
            self._folded_learned,
            self._folded_glue,
        ) = (int(x) for x in snap["folded"])
        self._ok = bool(snap["ok"])
        self._problem_facts = {
            key: (
                [
                    (dict(lower), dict(upper))
                    for lower, upper in cores
                ],
                bool(hopeless),
            )
            for key, cores, hopeless in snap["problem_facts"]
        }

    # -- small helpers -----------------------------------------------------
    def _add(self, literals: list[int]) -> None:
        self._ok &= self.solver.add_clause(literals)

    def _tick(self) -> bool:
        """Deadline poll for the encoding loops; False = give up."""
        self._tick_count += 1
        deadline = self._deadline
        if (
            deadline is not None
            and self._tick_count % 2048 == 0
            and time.monotonic() > deadline
        ):
            return False
        return True

    def _sel(self, group: _ClauseGroup) -> int:
        """The group's activation selector, allocated on first use."""
        if group.sel is None:
            group.sel = self.selectors.selector(("clause", group.serial))
        return group.sel

    def _ex(self, sort: Sort, v: int) -> int:
        """Existence selector ``ex[sort, v]`` with its chain clause."""
        row = self._ex_rows[sort]
        while len(row) <= v:
            lit = self.selectors.selector(("ex", sort, len(row)))
            if not row:
                self._add([lit])  # every sort is inhabited
            else:
                self._add([-lit, row[-1]])  # prefix chain
            row.append(lit)
        return row[v]

    def _fvar(self, f: FuncSymbol, args: tuple[int, ...], val: int) -> int:
        table = self.func_vars[f]
        key = (args, val)
        var = table.get(key)
        if var is None:
            var = self.solver.new_var()
            table[key] = var
        return var

    def _pvar(self, p: PredSymbol, args: tuple[int, ...]) -> int:
        table = self.pred_vars[p]
        var = table.get(args)
        if var is None:
            var = self.solver.new_var()
            table[args] = var
        return var

    # -- growth ------------------------------------------------------------
    def ensure(
        self, ctx: _ProblemContext, sizes: dict[Sort, int]
    ) -> Optional[bool]:
        """Grow the encoding so ``ctx`` covers ``sizes`` on every sort.

        Signature-level state (existence chains, cells, symmetry cuts)
        grows to the global envelope shared by every context; each of
        the context's clause groups grows to its own envelope — which a
        group shared with other problems may already exceed, in which
        case its ground instances are simply reused.  Returns ``None``
        when the deadline expired mid-encoding (the encoding stays
        consistent — already-emitted clauses are valid — but the
        envelopes are not advanced).
        """
        tracer, metrics = obs_runtime.TRACER, obs_runtime.METRICS
        if tracer is None and metrics is None:
            return self._ensure(ctx, sizes)
        t0 = time.monotonic()
        try:
            return self._ensure(ctx, sizes)
        finally:
            dt = time.monotonic() - t0
            if tracer is not None:
                tracer.aggregate("encode", dt, 1)
            if metrics is not None:
                metrics.inc("phase.encode_s", dt)
                metrics.inc("phase.encode_n", 1)

    def _ensure(
        self, ctx: _ProblemContext, sizes: dict[Sort, int]
    ) -> Optional[bool]:
        new = {s: max(self.cur[s], sizes[s]) for s in self.sorts}
        if new != self.cur:
            for s in self.sorts:
                self._ex(s, new[s])  # frontier + chain up front
            if self._encode_cells(new) is None:
                return None
            self._encode_symmetry(new)
            self.cur = new
        ctx_new = {s: max(ctx.cur[s], sizes[s]) for s in self.sorts}
        for group in self._resolve_groups(ctx):
            group_new = {
                s: max(group.cur[s], ctx_new[s]) for s in self.sorts
            }
            if group_new == group.cur:
                continue
            for block in list(group.blocks):
                if self._grow_block(group, block, group_new) is None:
                    return None
            if self._encode_group(group, group_new) is None:
                return None
            group.cur = group_new
        ctx.cur = ctx_new
        return self._ok

    def _encode_cells(self, new: dict[Sort, int]) -> Optional[bool]:
        for func in self.functions:
            res = func.result_sort
            new_cod = new[res]
            arg_sizes = tuple(new[s] for s in func.arg_sorts)
            done = self._func_done.get(func)
            old_args, old_cod = done if done else (None, 0)
            table = self.func_vars[func]
            res_row = self._ex_rows[res]
            arg_rows = [self._ex_rows[s] for s in func.arg_sorts]
            new_var = self.solver.new_var

            def cell_vars(args: tuple[int, ...]) -> list[int]:
                cell = []
                for v in range(new_cod):
                    key = (args, v)
                    var = table.get(key)
                    if var is None:
                        var = new_var()
                        table[key] = var
                    cell.append(var)
                return cell

            def emit_rows(args: tuple[int, ...], lo: int) -> None:
                """Functionality, value-existence and totality rows."""
                cell = cell_vars(args)
                for j in range(lo, new_cod):
                    for i in range(j):
                        self._add([-cell[i], -cell[j]])
                    if j >= 1:
                        self._add([-cell[j], res_row[j]])
                literals = [
                    -arg_rows[i][a]
                    for i, a in enumerate(args)
                    if a >= 1
                ]
                literals.append(res_row[new_cod])  # frontier guard
                literals.extend(cell)
                self._add(literals)

            for args in _combos(old_args, arg_sizes):
                if not self._tick():
                    return None
                emit_rows(args, 0)
            if done is not None and new_cod > old_cod:
                for args in itertools.product(
                    *[range(n) for n in old_args]
                ):
                    if not self._tick():
                        return None
                    emit_rows(args, old_cod)
            self._func_done[func] = (arg_sizes, new_cod)
        return self._ok

    def _encode_symmetry(self, new: dict[Sort, int]) -> None:
        """Least-number constraints on base constructors per sort.

        The i-th constant (in name order) of a sort may only take values
        ``0..i`` — a sound canonicity cut for constants (Claessen &
        Sörensson's least-number heuristic restricted to constants).
        The units are valid at every domain size, so they are emitted
        once per new element and shared by the whole sweep.
        """
        if not self.symmetry_breaking:
            return
        for sort in self.sorts:
            done, size = self._sb_done[sort], new[sort]
            if size <= done:
                continue
            for i, c in enumerate(self._constants[sort]):
                for v in range(max(i + 1, done), size):
                    self._add([-self._fvar(c, (), v)])
            self._sb_done[sort] = size

    def _encode_group(
        self, group: _ClauseGroup, new: dict[Sort, int]
    ) -> Optional[bool]:
        flat = group.flat
        var_sizes = tuple(new[v.sort] for v in flat.vars)
        old = group.done
        if old == var_sizes:
            return self._ok
        sel = self._sel(group)
        # precomputed layout: positions instead of Var-keyed dicts,
        # so the grounding loop only touches int tuples
        index = {v: i for i, v in enumerate(flat.vars)}
        ex_rows = [self._ex_rows[v.sort] for v in flat.vars]
        defs = [
            (
                self.func_vars[func],
                tuple(index[a] for a in arg_vars),
                index[result],
            )
            for func, arg_vars, result in flat.defs
        ]
        plain = []
        block_atoms = []
        for atom in flat.body:
            if atom.universal_vars:
                block_atoms.append(atom)
            else:
                plain.append(
                    (
                        self.pred_vars[atom.pred],
                        tuple(index[v] for v in atom.vars),
                    )
                )
        head = None
        if flat.head is not None:
            head = (
                self.pred_vars[flat.head.pred],
                tuple(index[v] for v in flat.head.vars),
            )
        new_var = self.solver.new_var
        # blocks created past this point belong to instances whose
        # group has not committed yet (``done``); on a deadline abort
        # they are dropped so a resumed sweep does not keep growing
        # orphans for combos it will re-emit
        blocks_committed = len(group.blocks)
        for combo in _combos(old, var_sizes):
            if not self._tick():
                del group.blocks[blocks_committed:]
                return None
            # the activation guard: the group's ground instances are
            # vacuous unless its selector is assumed — a problem is
            # activated as the set of its groups' selectors, which is
            # what lets campaign mode share one instance between every
            # problem containing the clause
            literals: list[int] = [-sel]
            for i, c in enumerate(combo):
                if c:
                    literals.append(-ex_rows[i][c])
            for table, apos, rpos in defs:
                key = (
                    tuple(combo[j] for j in apos),
                    combo[rpos],
                )
                var = table.get(key)
                if var is None:
                    var = new_var()
                    table[key] = var
                literals.append(-var)
            for atom in block_atoms:
                block = _BlockState(
                    atom,
                    {v: combo[i] for v, i in index.items()},
                    new_var(),
                )
                group.blocks.append(block)
                if self._grow_block(group, block, new) is None:
                    del group.blocks[blocks_committed:]
                    return None
                literals.append(-block.t)
            for table, apos in plain:
                args = tuple(combo[j] for j in apos)
                var = table.get(args)
                if var is None:
                    var = new_var()
                    table[args] = var
                literals.append(-var)
            if head is not None:
                table, apos = head
                args = tuple(combo[j] for j in apos)
                var = table.get(args)
                if var is None:
                    var = new_var()
                    table[args] = var
                literals.append(var)
            self._add(literals)
        group.done = var_sizes
        return self._ok

    # -- universal blocks --------------------------------------------------
    def _grow_block(
        self,
        group: _ClauseGroup,
        block: _BlockState,
        new: dict[Sort, int],
    ) -> Optional[bool]:
        """(Re-)encode one universal block up to the ``new`` sizes.

        ``t`` is implied by the truth of the whole universal block over
        the *active* elements, so a negated ``t`` in a ground clause
        soundly asserts the block fails.  Per instantiation ``u`` of the
        block's universal variables a literal ``t_inst`` is forced true
        when ``u`` is inactive and implied by ``defs /\\ P(args)`` for
        every choice of block-local intermediate values; the guarded
        conjunction ``(/\\ t_inst) -> t`` is re-emitted wider whenever a
        universal sort grows (the old row is vacuous beyond its frontier
        guard).
        """
        atom = block.atom
        u_sizes = tuple(new[v.sort] for v in atom.universal_vars)
        l_sizes = tuple(new[v.sort] for v in atom.local_vars)
        grew_u = block.done_u != u_sizes
        for ucombo in _combos(block.done_u, u_sizes):
            if not self._tick():
                return None
            t_inst = self.solver.new_var()
            block.t_insts[ucombo] = t_inst
            for v, u in zip(atom.universal_vars, ucombo):
                if u >= 1:
                    # inactive instantiations hold vacuously
                    self._add([self._ex(v.sort, u), t_inst])
            if (
                self._emit_premises(group, block, ucombo, None, l_sizes)
                is None
            ):
                return None
        if block.done_u is not None and block.done_l != l_sizes:
            for ucombo in itertools.product(
                *[range(n) for n in block.done_u]
            ):
                if (
                    self._emit_premises(
                        group, block, ucombo, block.done_l, l_sizes
                    )
                    is None
                ):
                    return None
        if grew_u:
            literals = [
                self._ex(s, new[s])
                for s in dict.fromkeys(
                    v.sort for v in atom.universal_vars
                )
            ]
            literals.extend(-ti for ti in block.t_insts.values())
            literals.append(block.t)
            self._add(literals)
        block.done_u, block.done_l = u_sizes, l_sizes
        return True

    def _block_layout(self, group: _ClauseGroup, atom: FlatAtom):
        """Positional layout of a block atom, computed once per atom.

        Variables are resolved to ("l", i) / ("u", i) / ("o", var)
        slots so the innermost grounding loop only touches int tuples
        (same optimization as the plain-clause grounding loop).
        """
        layout = group.atom_layouts.get(id(atom))
        if layout is None:
            uindex = {v: i for i, v in enumerate(atom.universal_vars)}
            lindex = {v: i for i, v in enumerate(atom.local_vars)}

            def pos(v: Var):
                if v in lindex:
                    return ("l", lindex[v])
                if v in uindex:
                    return ("u", uindex[v])
                return ("o", v)

            defs = [
                (
                    self.func_vars[func],
                    tuple(pos(a) for a in arg_vars),
                    pos(result),
                )
                for func, arg_vars, result in atom.local_defs
            ]
            layout = (
                defs,
                self.pred_vars[atom.pred],
                tuple(pos(v) for v in atom.vars),
            )
            group.atom_layouts[id(atom)] = layout
        return layout

    def _emit_premises(
        self,
        group: _ClauseGroup,
        block: _BlockState,
        ucombo: tuple[int, ...],
        old_l: Optional[tuple[int, ...]],
        l_sizes: tuple[int, ...],
    ) -> Optional[bool]:
        t_inst = block.t_insts[ucombo]
        defs, ptable, arg_slots = self._block_layout(group, block.atom)
        outer = block.outer
        new_var = self.solver.new_var
        lcombo: tuple[int, ...] = ()

        def value(slot) -> int:
            kind, x = slot
            if kind == "l":
                return lcombo[x]
            if kind == "u":
                return ucombo[x]
            return outer[x]

        for lcombo in _combos(old_l, l_sizes):
            if not self._tick():
                return None
            premise: list[int] = []
            for table, arg_pos, res_pos in defs:
                key = (
                    tuple(value(p) for p in arg_pos),
                    value(res_pos),
                )
                var = table.get(key)
                if var is None:
                    var = new_var()
                    table[key] = var
                premise.append(var)
            args = tuple(value(p) for p in arg_slots)
            var = ptable.get(args)
            if var is None:
                var = new_var()
                ptable[args] = var
            premise.append(var)
            self._add([-p for p in premise] + [t_inst])
        return True

    # -- solving -----------------------------------------------------------
    def vector_covered(
        self, ctx: _ProblemContext, sizes: dict[Sort, int]
    ) -> bool:
        """True if a stored refutation core already refutes ``sizes``.

        A core with lower bounds L and upper bounds U transfers to every
        vector meeting all of them: the existence prefix chains make
        that vector's assumptions entail the core's, so it is unsat
        without re-solving (see the module docstring).
        """
        for lower, upper in ctx.refuted_cores:
            if all(sizes[s] >= k for s, k in lower.items()) and all(
                sizes[s] <= k for s, k in upper.items()
            ):
                return True
        return False

    def try_vector(
        self,
        ctx: _ProblemContext,
        sizes: dict[Sort, int],
        stats: FinderStats,
        options: FinderOptions,
        *,
        deadline: Optional[float] = None,
    ) -> _VectorOutcome:
        """Attempt one size vector; says *how* it failed, not just that.

        Distinguishing a refutation (solver unsat — the vector provably
        has no model) from budget/deadline exhaustion (indeterminate) is
        what lets :meth:`ModelFinder.search` report an honest
        ``complete`` verdict; refutations additionally carry their unsat
        core into ``ctx.refuted_cores`` when
        ``options.core_guided_sweep`` is on.

        With observability on (:mod:`repro.obs.runtime`) each attempt
        runs inside a ``vector`` span with the solver's phase timers
        enabled; the per-phase totals land as aggregate child spans and
        ``phase.*`` metric counters.  Disabled, this wrapper is a single
        check and the untimed body runs verbatim — verdicts and stats
        are identical either way.
        """
        tracer, metrics = obs_runtime.TRACER, obs_runtime.METRICS
        if tracer is None and metrics is None:
            return self._try_vector(ctx, sizes, stats, options, deadline)
        self.solver.set_phase_timing(True)
        obs_runtime.watch_solver_stats(self.solver.stats)
        span = None
        if tracer is not None:
            span = tracer.begin(
                "vector",
                {
                    "sizes": {
                        getattr(s, "name", str(s)): k
                        for s, k in sizes.items()
                    }
                },
            )
        outcome: Optional[_VectorOutcome] = None
        try:
            outcome = self._try_vector(ctx, sizes, stats, options, deadline)
            return outcome
        finally:
            # a reset inside the attempt swaps the solver out; the new
            # instance starts with timing off and an empty table, so the
            # read below degrades to {} rather than misattributing
            for name, (secs, calls) in self.solver.phase_times().items():
                if tracer is not None:
                    tracer.aggregate(name, secs, calls)
                if metrics is not None:
                    metrics.inc(f"phase.{name}_s", secs)
                    metrics.inc(f"phase.{name}_n", calls)
            self.solver.set_phase_timing(False)
            if span is not None:
                if outcome is not None:
                    span.args["outcome"] = (
                        "model"
                        if outcome.model is not None
                        else "refuted" if outcome.refuted else "exhausted"
                    )
                tracer.end(span)

    def _try_vector(
        self,
        ctx: _ProblemContext,
        sizes: dict[Sort, int],
        stats: FinderStats,
        options: FinderOptions,
        deadline: Optional[float],
    ) -> _VectorOutcome:
        if ctx.released:
            raise FinderError(
                "problem context was released from its engine"
            )
        self._deadline = deadline
        # same counter family as clauses_encoded (accepted add_clause
        # calls incl. units), so the reuse ratio compares like with like
        pre_added = self.solver.stats.clauses_added
        grown = self.ensure(ctx, sizes)
        if grown is None:
            stats.vectors_exhausted += 1
            stats.deadline_hit = True
            return _VectorOutcome()  # deadline hit mid-encoding
        if not self._ok:
            # Level-0 contradiction in the shared database: it can no
            # longer discriminate between size vectors, so rebuild for
            # just this one (the documented reset safety valve).
            self.reset(stats)
            pre_added = 0
            if self.ensure(ctx, sizes) is None:
                stats.vectors_exhausted += 1
                stats.deadline_hit = True
                return _VectorOutcome()
            if not self._ok:
                # A fresh encoding is contradictory without assumptions.
                # Every clause is valid at every size, so the conflict is
                # size-independent: no vector can ever succeed.
                ctx.hopeless = True
                stats.vectors_refuted += 1
                return _VectorOutcome(refuted=True)
        stats.clauses_reused += pre_added
        limit = options.max_learned_clauses
        if limit is not None and self.solver.learned_count() > limit:
            self.solver.reduce_learned(limit // 2)
        # a problem is activated as the set of its groups' selectors;
        # each assumption's *meaning* is remembered so an unsat core can
        # be read back as size bounds
        assumptions: list[int] = []
        meaning: dict[int, tuple] = {}
        for g in self._resolve_groups(ctx):
            sel = self._sel(g)
            assumptions.append(sel)
            meaning[sel] = ("group",)
        for s in self.sorts:
            k = sizes[s]
            if k >= 2:
                lo = self._ex(s, k - 1)
                assumptions.append(lo)
                meaning[lo] = ("lo", s, k)
            hi = -self._ex(s, k)
            assumptions.append(hi)
            meaning[hi] = ("hi", s, k)
        pre_conflicts = self.solver.stats.conflicts
        outcome = self.solver.solve(
            assumptions,
            max_conflicts=options.max_conflicts_per_size,
            deadline=deadline,
        )
        stats.sat_vars = max(stats.sat_vars, self.solver.num_vars)
        stats.sat_clauses = max(
            stats.sat_clauses, self.solver.clause_count()
        )
        if outcome is True:
            return _VectorOutcome(
                model=self._decode(sizes, self.solver.model())
            )
        if outcome is None:
            # conflict budget or deadline exhausted: indeterminate, NOT
            # a refutation — the sweep's verdict must not claim it
            stats.vectors_exhausted += 1
            if deadline is not None and time.monotonic() >= deadline:
                stats.deadline_hit = True
            return _VectorOutcome()
        stats.vectors_refuted += 1
        if any(
            g.sel is not None
            and self.solver.fixed(g.sel) is False
            for g in (ctx.groups or ())
        ):
            # the database alone entails the negation of one of the
            # problem's selectors: that clause is unsatisfiable
            # under every assumption set, i.e. at every size vector
            # — stop the sweep early
            ctx.hopeless = True
        if options.core_guided_sweep:
            # minimization probes only pay for themselves when the
            # refutation they amortize against cost real search; a
            # propagation-only refutation already has a cheap, re-derivable
            # core, so probing it is pure overhead
            effort = self.solver.stats.conflicts - pre_conflicts
            self._record_core(
                ctx, meaning, stats,
                minimize=(
                    options.core_minimization
                    and effort >= self.CORE_MIN_TRIGGER_CONFLICTS
                ),
                effort=effort,
                deadline=deadline,
            )
        return _VectorOutcome(refuted=True)

    #: per-probe conflict budget of the deletion-based core
    #: minimization pass (each dropped literal costs at most this many
    #: conflicts; inconclusive probes just keep the literal)
    CORE_MIN_CONFLICTS = 500

    #: refutation cost (conflicts) below which a core is NOT worth
    #: minimizing: near-propagation refutations recur cheaply, so
    #: widening their stored bounds cannot win back the probe cost
    CORE_MIN_TRIGGER_CONFLICTS = 10

    #: refutation cost from which the long-shot upper-bound probes run
    #: too (see :meth:`_record_core`); below it only the lower-bound
    #: candidates — the probes that commonly succeed — are tried
    CORE_MIN_HI_CONFLICTS = 100

    def _record_core(
        self,
        ctx: _ProblemContext,
        meaning: dict[int, tuple],
        stats: FinderStats,
        *,
        minimize: bool = True,
        effort: int = 0,
        deadline: Optional[float] = None,
    ) -> None:
        """Translate the refutation's unsat core into reusable bounds.

        With ``minimize`` the core first goes through the solver's
        deletion-based :meth:`minimize_core` (bounded re-solves, budget
        capped per probe by the *refutation's own conflict count*
        ``effort`` up to :data:`CORE_MIN_CONFLICTS`, and by the sweep
        deadline — a probe never costs more than the search it is
        trying to generalize): every size-bound literal dropped widens
        the band of vectors the stored core covers, and a core
        minimized down to clause-group selectors alone upgrades to a
        size-independent refutation.
        """
        core = self.solver.core()
        # Only size-bound assumptions are worth deletion probes:
        # dropping one widens the stored bounds, while dropping a
        # clause-group selector leaves the translated core unchanged.
        # Lower bounds are probed on multi-sort sweeps only — the
        # sweep ascends and never revisits smaller totals, so widening
        # a band downward pays solely through *other compositions* of a
        # later total size.  Upper bounds are the long-shot probes: a
        # droppable "hi" upgrades the core toward a size-independent
        # refutation that stops the sweep, but such drops are rare, so
        # the gamble is only taken after a refutation expensive enough
        # (``CORE_MIN_HI_CONFLICTS``) that stopping the sweep would
        # repay many failed probes.
        multi_sort = len(self.sorts) > 1
        probe_hi = effort >= self.CORE_MIN_HI_CONFLICTS
        bound_lits = [
            lit
            for lit in core
            if (probe_hi and meaning.get(lit, ("",))[0] == "hi")
            or (multi_sort and meaning.get(lit, ("",))[0] == "lo")
        ]
        if minimize and bound_lits and len(core) > 1:
            before = len(core)
            # each probe may spend at most half the refutation's own
            # conflict count (floor: the trigger): a conclusive unsat
            # probe re-derives the refutation with the learned clauses
            # already in place, so it is normally much cheaper than the
            # original search, while a failed probe must not cost more
            # than the work it was trying to generalize
            core = self.solver.minimize_core(
                max_conflicts_per_probe=min(
                    self.CORE_MIN_CONFLICTS,
                    max(effort // 2, self.CORE_MIN_TRIGGER_CONFLICTS),
                ),
                deadline=deadline,
                candidates=bound_lits,
            )
            if len(core) < before:
                stats.cores_minimized += 1
                stats.core_lits_dropped += before - len(core)
        if not core:
            # an empty core means the shared database alone is unsat —
            # that is the reset safety valve's business, not evidence
            # about this particular problem
            return
        lower: dict[Sort, int] = {}
        upper: dict[Sort, int] = {}
        for lit in core:
            tag = meaning.get(lit)
            if tag is None:  # not one of our assumptions: don't trust it
                return
            kind = tag[0]
            if kind == "lo":
                lower[tag[1]] = max(lower.get(tag[1], 0), tag[2])
            elif kind == "hi":
                upper[tag[1]] = min(upper.get(tag[1], tag[2]), tag[2])
        stats.cores_extracted += 1
        if not lower and not upper:
            # the refutation rests on clause-group selectors alone —
            # no existence bound was involved, so the problem is unsat
            # at *every* size vector
            ctx.hopeless = True
            return
        bounds = (lower, upper)
        if bounds not in ctx.refuted_cores:
            ctx.refuted_cores.append(bounds)

    def _decode(
        self, sizes: dict[Sort, int], assignment: dict[int, bool]
    ) -> FiniteModel:
        functions: dict[FuncSymbol, dict[tuple[int, ...], int]] = {}
        for f, table in self.func_vars.items():
            res_size = sizes[f.result_sort]
            arg_sizes = [sizes[s] for s in f.arg_sorts]
            for (args, v), var in table.items():
                if v >= res_size:
                    continue
                if any(a >= k for a, k in zip(args, arg_sizes)):
                    continue
                if assignment.get(var):
                    functions.setdefault(f, {})[args] = v
        predicates: dict[PredSymbol, set[tuple[int, ...]]] = {
            p: set() for p in self.predicates
        }
        for p, table in self.pred_vars.items():
            arg_sizes = [sizes[s] for s in p.arg_sorts]
            for args, var in table.items():
                if any(a >= k for a, k in zip(args, arg_sizes)):
                    continue
                if assignment.get(var):
                    predicates[p].add(args)
        model = FiniteModel(dict(sizes), functions, predicates)
        validate_model(model)
        return model


_UNSET = object()


class ModelFinder:
    """Iterative-deepening finite model search for one CHC system.

    ``options`` (a :class:`FinderOptions`) is the whole configuration;
    ``deadline`` and ``min_total_size`` belong to the search, not the
    finder, and :meth:`search` may replace them per call.

    With ``options.incremental`` (the default) the finder keeps one
    :class:`_IncrementalEngine` alive across every :meth:`search` call,
    so repeated searches (e.g. resuming at a larger minimum size after a
    failed Herbrand check) also reuse the encoding and learned clauses.
    Off, the engine is reset before every size vector — the
    from-scratch behaviour, kept for the ablation benchmark.

    ``engine`` injects a shared engine (campaign mode): the finder
    registers its problem as one context on that engine instead of
    building its own, inheriting every clause, learned clause and
    heuristic score other signature-compatible problems left behind.
    :func:`check_engine` must accept it for this system's signature and
    ``options`` — the :class:`~repro.mace.pool.EnginePool` guarantees
    this by keying engines on exactly those two.
    """

    def __init__(
        self,
        system: CHCSystem,
        options: FinderOptions = FinderOptions(),
        *,
        deadline: Optional[float] = None,
        min_total_size: int = 0,
        engine: Optional[_IncrementalEngine] = None,
    ):
        self.system = system
        self.options = options
        self.deadline = deadline
        self.min_total_size = min_total_size
        counter = itertools.count()
        self.flat_clauses = [
            flatten_clause(cl, counter) for cl in system.clauses
        ]
        self.functions = sorted(
            system.adts.signature.functions.values(), key=lambda f: f.name
        )
        self.predicates = sorted(
            system.predicates.values(), key=lambda p: p.name
        )
        self.sorts = sorted(system.adts.sorts, key=lambda s: s.name)
        if engine is not None:
            if not options.incremental:
                raise FinderError(
                    "a shared engine requires incremental mode"
                )
            check_engine(
                engine.header(),
                options,
                engine_fingerprint(
                    self.sorts, self.functions, self.predicates
                ),
            )
        self._engine: Optional[_IncrementalEngine] = engine
        self._shared_engine = engine is not None
        self._ctx: Optional[_ProblemContext] = None

    # ------------------------------------------------------------------
    def search(
        self,
        *,
        min_total_size: Optional[int] = None,
        deadline: object = _UNSET,
    ) -> FinderResult:
        """Try size vectors in order of total size until a model appears.

        ``min_total_size`` applies to this call only.  Passing
        ``deadline`` *replaces* the finder's deadline from here on
        (callers resuming a sweep supply a fresh budget each call while
        the engine keeps its state); omit it to keep the current one.

        The returned :class:`FinderResult` carries ``complete=True``
        only when the verdict is definitive: a model was found, or
        every candidate vector was *refuted* — directly, by a covering
        unsat core (``vectors_skipped``), or by a size-independent
        hopeless proof.  A vector that merely ran out of conflict or
        wall-clock budget leaves the sweep incomplete.
        """
        options = self.options
        if self._shared_engine and not options.incremental:
            # defensive re-check of the constructor invariant (the
            # options attribute can be rebound): resetting a pooled
            # engine would wipe every other problem's state in it
            raise FinderError(
                "a shared engine requires incremental mode"
            )
        if deadline is not _UNSET:
            self.deadline = deadline  # type: ignore[assignment]
        min_total = (
            self.min_total_size if min_total_size is None else min_total_size
        )
        if self._engine is None:
            self._engine = _IncrementalEngine(
                self.sorts, self.functions, self.predicates, options
            )
        engine = self._engine
        if self._ctx is None:
            self._ctx = engine.register(self.flat_clauses)
        ctx = self._ctx
        stats = FinderStats(
            incremental=options.incremental,
            engine_shared=self._shared_engine,
            cross_problem_clauses=(
                ctx.joined_at_clauses if self._shared_engine else 0
            ),
        )
        base_added = engine.total_added
        base_learned = engine.total_learned
        base_glue = engine.total_glue
        start = time.monotonic()
        complete = True
        # live-progress registration is one weakref assignment, cheap
        # enough to do even with all collectors off
        obs_runtime.watch_finder_stats(stats)
        obs_runtime.watch_solver_stats(engine.solver.stats)
        sat_before = (
            dataclasses.asdict(engine.solver.stats)
            if obs_runtime.METRICS is not None
            else None
        )

        def finish(model: Optional[FiniteModel]) -> FinderResult:
            stats.elapsed = time.monotonic() - start
            stats.clauses_encoded = engine.total_added - base_added
            stats.learned_total = engine.total_learned - base_learned
            stats.learned_glue = engine.total_glue - base_glue
            stats.learned_kept = engine.solver.learned_count()
            stats.hopeless = ctx.hopeless
            if model is not None:
                stats.model_size = model.size()
            metrics = obs_runtime.METRICS
            if metrics is not None and sat_before is not None:
                after = dataclasses.asdict(engine.solver.stats)
                # deltas, clamped: an engine reset mid-sweep swaps in a
                # fresh counter object and must not go negative
                metrics.publish(
                    "sat",
                    {
                        key: max(value - sat_before.get(key, 0), 0)
                        for key, value in after.items()
                        if isinstance(value, (int, float))
                        and not isinstance(value, bool)
                    },
                )
            return FinderResult(
                model, stats, complete=model is not None or complete
            )

        if ctx.hopeless:
            return finish(None)
        for sizes in size_vectors(
            self.sorts, options.max_total_size, min_total
        ):
            if self.deadline is not None and time.monotonic() > self.deadline:
                complete = False  # sweep cut short: verdict not definitive
                stats.deadline_hit = True
                break
            if options.core_guided_sweep and engine.vector_covered(
                ctx, sizes
            ):
                # a previous refutation's core transfers to this vector:
                # it is proven unsat without touching the solver
                stats.vectors_skipped += 1
                continue
            stats.attempts += 1
            if not options.incremental:
                engine.reset(stats)
            outcome = engine.try_vector(
                ctx, sizes, stats, options, deadline=self.deadline
            )
            if outcome.model is not None:
                return finish(outcome.model)
            if not outcome.refuted:
                # budget/deadline exhaustion is not a refutation
                complete = False
            if ctx.hopeless:
                # size-independent contradiction: no model exists at
                # ANY size — definitive even if some earlier vector
                # had merely exhausted its budget
                complete = True
                break
        return finish(None)


def find_model(
    system: CHCSystem,
    *,
    timeout: Optional[float] = None,
    min_total_size: int = 0,
    **overrides,
) -> FinderResult:
    """Search for a finite model of a constraint-free CHC system.

    The one-call convenience: ``overrides`` are :class:`FinderOptions`
    fields.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    finder = ModelFinder(
        system,
        FinderOptions(**overrides),
        deadline=deadline,
        min_total_size=min_total_size,
    )
    return finder.search()
