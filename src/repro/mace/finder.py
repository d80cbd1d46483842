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
  inactive instantiations (``ex[s, u] \\/ t_inst``) and each block
  conjunction carries frontier guards, so the same block literal is
  correct at every active size;
* *symmetry breaking*: the least-constant cuts are unit clauses valid at
  every size and are emitted once per new element.

What each eagerly ground clause group and each universal block has
ground is a *staircase*: the maximal boxes of the size vectors it was
grown to.  A vector grounds only the part of its own box that no stair
covers (:func:`_box_minus`), so no instance is emitted that lies in no
vector tried — on a multi-sort sweep the per-sort hull of the vectors
tried is much larger than any one of them (total size 14 against 7 on the STLC
sweep).  Cells, existence chains and symmetry cuts are shared by every
problem on the engine and grow to that hull.  Since every emitted
clause is valid at every vector, the order of the vectors tried never
changes an answer; :class:`_IncrementalEngine` has the argument.

Growing the sweep therefore only adds the new cells', instances' and
block rows' clauses, while learned clauses, VSIDS activity and saved
phases carry across the entire sweep (solved with
``solver.solve(assumptions=...)``).

The engine never resets: it builds one solver and keeps it for life,
because its clause database is satisfiable by construction.  The
*canonical assignment* — every existence selector ``ex[s, v]`` true,
every other variable (cells, relations, clause-group selectors, Tseitin
literals) false — satisfies
every clause the engine emits: the chain clauses and the ``ex[s, 0]``
units hold by the ``ex`` literals; functionality, value-existence and
symmetry clauses each carry a negated cell; a totality row carries its
frontier ``ex[s, K]``; every ground group instance carries ``-sel``, as
does the unit retiring a group; a universal-block premise carries its
negated relation atom, and ``ex[s, u] \\/ t_inst`` and every block row
carry an ``ex`` literal.  Learned clauses and level-0 facts follow from
the database, so they hold there too.  Hence the database never derives
a level-0 contradiction, and every refutation rests on a non-empty set
of the vector's assumptions.  Both are checked where they would surface
— :meth:`_IncrementalEngine._add` and
:meth:`_IncrementalEngine._record_core` raise :class:`FinderError` —
so a broken encoder fails loudly instead of turning into a verdict.

On-demand grounding
-------------------

Eager grounding emits one instance per tuple of a clause's box, the
product of the sizes of *all* its flat variables — the results of its
flattened definitions included — so a clause with ``k`` flat variables
costs ``n^k`` instances at size ``n`` however few of them are free.  At
a vector where a clause group's box exceeds :data:`ON_DEMAND_BOX` and
the group has no universal block, the group is ground on demand, in
the style of model-based instantiation (Ge & de Moura, CAV 2009;
Reynolds et al., CADE 2013): :meth:`_IncrementalEngine.ensure` only
allocates its selector, and :meth:`_IncrementalEngine.try_vector`
loops — solve; decode the candidate model; for each on-demand group,
enumerate its free (non-defined) variables over the vector's box,
read every flattened definition's result off the model's function
tables, and add every instance the model violates
(:meth:`_IncrementalEngine._refine`); solve again.  One conflict
budget and the deadline span every round of a vector.  The groups
that carry a universal block stay eager.

Why this is sound and exact:

* every on-demand instance is one the eager encoder would emit for the
  same combo — one per-combo emitter writes both, ``-sel`` and ``-ex``
  guards and literal order included — so the canonical-assignment
  argument above holds unchanged, and a refutation over a subset of
  the eager instances refutes the eager encoding too: refutations and
  their unsat cores stand, and pooled problems share on-demand
  instances like any others;
* a model is returned only after a scan of every on-demand group over
  the vector's whole box finds no violated instance.  An instance whose
  definition cells disagree with the model holds through a false cell,
  so the scanned instances are the only ones the model could violate:
  it satisfies the eager encoding, and is exact at its vector.

The constant's window, measured on perfbench's workloads: no box of
stlc-refute exceeds 4,096 or one of cdcl-sweep 16,807 (7^5), while the
wide-clauses groups reach 32,768 (2^15) and 65,536, so any value from
16,807 to 32,767 leaves those two exactly as eager as before and grounds
the wide groups on demand; on table1-campaign it grounds one group on
demand, the ground fact ``Q(Z, S^7(Z))`` (8 defined variables, no free
one) at Nat size 4, and every other box there is at most 15,625.  Lower
values cost more: at 1,024 or 4,096 cdcl-sweep takes twice as long, one
solve per refinement round.

Campaign mode (sharing one engine across problems)
--------------------------------------------------

Benchmark campaigns solve hundreds of systems that overwhelmingly share
their ADT signature, so the engine hosts *multiple problems* at once.
Every clause is encoded as a selector-guarded **clause group**
(:class:`_ClauseGroup`, one per canonical clause structure,
:func:`clause_key`): the ground instances carry a ``¬sel`` guard, its
selector a fresh solver variable the group allocates on first use and
owns for life (in the Eén–Sörensson style: nothing is ever retracted,
so learned clauses mentioning it stay valid), and a problem — a
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
then retired — its selector pinned false by a unit clause, which
permanently satisfies its clauses, and a level-0 ``simplify``
physically drops them from the watch lists.  A problem that later
contains the same clause again gets a new group with a new selector.
If unit propagation ever fixes a group selector false at level 0, the
database alone entails that clause is unsatisfiable under every
assumption set, i.e. at every size vector: every problem containing it
is ``hopeless`` and its sweep stops early.  :class:`EnginePool` in
:mod:`repro.mace.pool` keys engines by a canonical signature
fingerprint and hands out :class:`ModelFinder` instances riding a
shared engine.

Unsat-core–guided sweep and verdict completeness
------------------------------------------------

Every vector is solved purely under assumptions, so a refuted vector
yields an **unsat core** (the solver's ``core()``, as final-conflict
analysis returns it)
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
short.

The sweep
---------

:meth:`ModelFinder.search` is the one size sweep: one loop, in this
process, over the finder's own (possibly pooled) engine.  It walks the
frontier in order of total size, skips every vector a refutation core
of the problem already covers (:func:`_covered`), and solves the others
one at a time through :meth:`_IncrementalEngine.try_vector`, which
counts each vector's outcome into the sweep's one
:class:`FinderStats`.  The sweep ends at the first model, at a
size-independent refutation, at the deadline or at the end of the
frontier.  Only ``try_vector`` touches the engine's one solver during
the sweep, so the sweep's solver work — its ``clauses_encoded``,
``learned_total`` and ``learned_glue``, and the ``sat.*`` counters it
publishes with metrics on — is one difference of the solver's
``SatStats`` between the start and the end of the sweep.

Configuration
-------------

Every knob of the search lives in one frozen :class:`FinderOptions`
value: :class:`ModelFinder`, its sweep, the engine and the engine pool
are all configured by it, and its
:meth:`FinderOptions.engine_key` — the part a clause database depends
on — keys pooled engines and warm-cache files.  Whether a given engine
may serve a finder is decided in exactly one place, :func:`check_engine`,
which reads an engine's :meth:`~_IncrementalEngine.header`.

Warm persistence
----------------

An engine pickles as it is, and an unpickled engine is an exact copy;
the pool's disk warm cache stores it beside its header.  Only the
solver and the clause groups define how they pickle (their
``__getstate__``), and problem contexts are not part of the engine: a
problem registered again recovers its refutation bounds through the
engine's problem-facts memo.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field
from operator import getitem, itemgetter, le, lt
from typing import Iterator, Optional, Sequence

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.logic.formulas import TRUE
from repro.logic.sorts import FuncSymbol, PredSymbol, Sort
from repro.logic.terms import Term, Var
from repro.mace.model import FiniteModel, validate_model
from repro.obs import runtime as obs_runtime
from repro.sat.solver import CDCLSolver


class FinderError(ValueError):
    """Raised on inputs the finder cannot encode."""


class EngineSnapshotError(FinderError):
    """An engine cannot serve a finder (see :func:`check_engine`): a
    foreign schema or version, another engine key or another signature.
    The pool's disk warm cache, which may hold stale engines, treats
    this as "fall back to a cold engine", never as a campaign
    failure."""


#: version of the pickled engine layout, stored in every
#: :meth:`_IncrementalEngine.header`; :func:`check_engine` rejects any
#: other.  Bump it whenever an attribute of :class:`_IncrementalEngine`,
#: :class:`~repro.sat.solver.CDCLSolver`, :class:`_ClauseGroup` or
#: :class:`_BlockState` changes, or what one holds (8: a group's ground
#: instances are no longer exactly its staircase's boxes), so a warm
#: cache written by another build starts cold.
ENGINE_SNAPSHOT_VERSION = 8

#: the learned-clause database an engine carries across vectors is
#: halved whenever it grows beyond this many clauses
MAX_LEARNED_CLAUSES = 20_000

#: a clause group without universal blocks whose box at a vector (the
#: product of its flat variables' sizes) exceeds this many tuples is
#: ground on demand there (see "On-demand grounding" above)
ON_DEMAND_BOX = 20_000


@dataclass(frozen=True)
class FinderOptions:
    """The model finder's configuration, as one immutable value.

    ``max_total_size`` bounds the sweep (total domain size over all
    sorts); ``max_conflicts_per_size`` is the per-vector conflict budget
    (``None``: unbounded); ``symmetry_breaking`` adds the least-constant
    cuts.  The search policy itself is fixed: one incremental engine per
    sweep, pruned by the unsat core of every refuted vector, its learned
    clauses capped at :data:`MAX_LEARNED_CLAUSES`.
    """

    max_total_size: int = 12
    max_conflicts_per_size: Optional[int] = 200_000
    symmetry_breaking: bool = True

    def engine_key(self) -> tuple:
        """The part of the configuration an engine's clause database
        depends on.  Engines, cache files and pool slots built under
        different keys never serve each other's finders; every other
        field only steers how a search drives the engine."""
        return (self.symmetry_breaking,)


def engine_fingerprint(sorts, functions, predicates) -> tuple:
    """Canonical, hashable fingerprint of an engine signature.

    Order-insensitive over the three symbol families, built purely from
    names and sort names, so it is stable across processes and pickle
    round-trips.  :func:`repro.mace.pool.signature_fingerprint`
    delegates here, which is what guarantees a pooled engine's header
    carries exactly the fingerprint the pool will later look it up
    under.
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
    """The one rule deciding whether an engine may serve a finder.

    ``state`` is an engine's :meth:`_IncrementalEngine.header`: a live
    engine's, or the one stored beside a pickled engine in the warm
    cache.  The engine serves a finder configured by ``options`` iff the
    header has this build's schema and version and the engine was built
    under the same :meth:`FinderOptions.engine_key` — and, when
    ``fingerprint`` is given, over that signature.  Raises
    :class:`EngineSnapshotError` otherwise.  Engine injection into a
    :class:`ModelFinder` and the pool's warm-cache loads go through
    here.
    """
    if not isinstance(state, dict) or state.get("schema") != "engine":
        raise EngineSnapshotError("not an engine header")
    if state.get("version") != ENGINE_SNAPSHOT_VERSION:
        raise EngineSnapshotError(
            f"engine layout version {state.get('version')!r} "
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
    retention policy).  The engine keeps one solver for life, so
    ``clauses_encoded``, ``learned_total`` and ``learned_glue`` are one
    difference of that solver's ``SatStats`` across the search.

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
    # unsat-core–guided sweep accounting (see the module docstring)
    vectors_refuted: int = 0
    vectors_exhausted: int = 0
    vectors_skipped: int = 0
    cores_extracted: int = 0
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
    # on-demand grounding: the extra solves vectors made after a scan
    # found violated instances, and the instances those scans added
    on_demand_rounds: int = 0
    on_demand_instances: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view for result details / JSON artifacts."""
        return dataclasses.asdict(self)

    def merge(self, part: "FinderStats") -> None:
        """Fold another search's statistics into this one.

        :mod:`repro.core.ringen` folds the searches it resumes after a
        failed Herbrand check into one per-solve total with it:
        additive counters add, high-water marks (``sat_vars``,
        ``sat_clauses``, ``learned_kept``, ``cross_problem_clauses``)
        take the max, sticky flags or together, and ``model_size`` keeps
        the most recent part that actually found a model.
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
        self.vectors_refuted += part.vectors_refuted
        self.vectors_exhausted += part.vectors_exhausted
        self.vectors_skipped += part.vectors_skipped
        self.cores_extracted += part.cores_extracted
        self.hopeless = self.hopeless or part.hopeless
        self.deadline_hit = self.deadline_hit or part.deadline_hit
        self.engine_shared = self.engine_shared or part.engine_shared
        self.cross_problem_clauses = max(
            self.cross_problem_clauses, part.cross_problem_clauses
        )
        self.on_demand_rounds += part.on_demand_rounds
        self.on_demand_instances += part.on_demand_instances


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


def _inside(box: tuple[int, ...], stairs: Sequence[tuple[int, ...]]) -> bool:
    """Whether ``box`` lies inside one of the ``stairs`` boxes."""
    return any(all(map(le, box, stair)) for stair in stairs)


def _add_stair(
    stairs: list[tuple[int, ...]], box: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """``stairs`` with ``box`` added, keeping only the maximal boxes."""
    if _inside(box, stairs):
        return stairs
    return [s for s in stairs if not all(map(le, s, box))] + [box]


def _box_minus(
    new: tuple[int, ...], stairs: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The tuples of ``box(new) = prod(range(n) for n in new)`` outside
    every stair box ``box(stair)``, each exactly once.

    The difference is split into disjoint sub-boxes one stair at a
    time.  A sub-box the stair covers is dropped and one it misses is
    kept whole; otherwise it splits by *pivot*, the first position that
    escapes the stair: earlier positions stay inside the stair, the
    pivot lies beyond it, later positions range freely.  With one stair
    inside ``new`` this is the enumeration of ``box(new)`` minus the old
    box by the first component that escapes it.
    """
    if _inside(new, stairs):
        return iter(())
    # one [lo, hi) range per position
    boxes = [[(0, n) for n in new]]
    for stair in stairs:
        split = []
        for box in boxes:
            if all(hi <= b for (_, hi), b in zip(box, stair)):
                continue
            if any(lo >= b for (lo, _), b in zip(box, stair)):
                split.append(box)
                continue
            for pivot, (lo, hi) in enumerate(box):
                b = stair[pivot]
                if hi <= b:
                    continue
                sub = [
                    (lo_j, min(hi_j, b_j))
                    for (lo_j, hi_j), b_j in zip(box[:pivot], stair)
                ]
                sub.append((b, hi))
                sub.extend(box[pivot + 1:])
                split.append(sub)
        boxes = split
    return itertools.chain.from_iterable(
        itertools.product(*[range(lo, hi) for lo, hi in box])
        for box in boxes
    )


def _picker(positions: Sequence[int]):
    """``row -> tuple(row[i] for i in positions)`` in one C call.

    ``itemgetter`` returns a bare value for one position and has no
    empty form, so those arities get lambdas, which do not pickle: keep
    pickers in per-call locals and ``_ClauseGroup.atom_layouts``, which
    a pickled group drops.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        i = positions[0]
        return lambda row: (row[i],)
    return lambda row: ()


@dataclass
class _BlockState:
    """Persistent encoding state of one universal-block Tseitin literal.

    ``outer`` is the ground instance the block belongs to: its values
    over the group's ``flat.vars`` positions.  ``t_insts`` maps each
    instantiation of the universal variables to its Tseitin literal, and
    ``stairs`` are the maximal boxes, over ``universal_vars +
    local_vars`` positions, whose premises are already emitted (see
    :meth:`_IncrementalEngine._grow_block`).
    """

    atom: FlatAtom
    outer: tuple[int, ...]
    t: int
    t_insts: dict[tuple[int, ...], int] = field(default_factory=dict)
    stairs: list[tuple[int, ...]] = field(default_factory=list)


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

    ``stairs`` are the maximal boxes, over ``flat.vars`` positions, whose
    ground instances are already emitted: the union of the boxes of the
    size vectors the group was grown to.
    """

    __slots__ = (
        "flat",
        "serial",
        "sel",
        "stairs",
        "blocks",
        "atom_layouts",
        "refs",
        "last_touch",
    )

    def __init__(self, flat: FlatClause, serial: int):
        self.flat = flat
        self.serial = serial
        self.sel: Optional[int] = None
        self.stairs: list[tuple[int, ...]] = []
        self.blocks: list[_BlockState] = []
        self.atom_layouts: dict[int, tuple] = {}
        self.refs = 0
        self.last_touch = 0

    def __getstate__(self) -> dict:
        # the layouts are keyed by id(atom) and hold picker lambdas, so
        # they stay behind (_block_layout rebuilds them lazily); a
        # stored engine hosts no problem
        state = {name: getattr(self, name) for name in self.__slots__}
        state["atom_layouts"] = {}
        state["refs"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)


class _ProblemContext:
    """Per-problem state registered on a (possibly shared) engine.

    The context is thin: a problem is its set of clause groups (see
    :class:`_ClauseGroup`) plus what its sweeps learned (refutation
    cores, ``hopeless``).  What is ground lives on the groups, whose
    staircases may already cover a vector because another problem
    sharing them tried it.  Activating the problem for one ``solve``
    call means assuming exactly its groups' selectors; everything else —
    cells, existence chains, symmetry cuts, the solver, and any group
    some other problem also contains — is shared engine state.
    """

    __slots__ = (
        "flat_clauses",
        "groups",
        "hopeless",
        "released",
        "joined_at_clauses",
        "refuted_cores",
    )

    def __init__(self, flat_clauses: Sequence[FlatClause], joined_at: int):
        self.flat_clauses = tuple(flat_clauses)
        self.joined_at_clauses = joined_at
        self.hopeless = False
        self.released = False
        # resolved lazily, on the context's first ensure
        self.groups: Optional[list[_ClauseGroup]] = None
        # unsat cores of refuted size vectors as (lower, upper) bound
        # maps over sorts; like ``hopeless`` these are semantic facts
        # about the problem (the clause database only grows and the
        # existence chains are permanent), so they hold for every later
        # search on the same context
        self.refuted_cores: list[tuple[dict[Sort, int], dict[Sort, int]]] = []


class _IncrementalEngine:
    """One persistent CDCL encoding spanning size sweeps and problems.

    See the module docstring for the selector-literal scheme, the
    campaign extension, why the clause database stays satisfiable and
    how the engine pickles.  The engine owns its one solver, built here
    and kept for life, the cell/relation variable maps and the
    signature-level growth bookkeeping; each registered
    :class:`_ProblemContext` carries the per-problem state.
    :class:`ModelFinder` drives one context at a time through
    :meth:`try_vector`.  Of its :class:`FinderOptions` the engine keeps
    only the :meth:`~FinderOptions.engine_key` part; the search knobs
    arrive with every :meth:`try_vector` call.

    Why the staircase encoding is sound whatever vectors are tried, in
    whatever order:

    * every emitted clause holds at every vector, in any model of that
      vector extended by the canonical Tseitin values (``t_inst`` true
      iff its instantiation is inactive or satisfies the block, ``t``
      true iff the block holds over the active elements): a group
      instance because its ``-ex`` guards on its own element values make
      it vacuous unless they are all active, premises and block rows by
      those definitions.  So emitting any set of instances is sound — no
      model of any vector is lost;
    * a vector's answer is exact once its own box lies inside the
      staircase of each of the problem's eager groups, and of each
      universal block whose instance lies in the vector — :meth:`ensure`
      grows exactly those before every solve — and once a scan of each
      group on demand there finds no instance the model violates (see
      "On-demand grounding" in the module docstring);
    * a block row emitted at universal sizes ``K`` applies exactly to
      the vectors whose universal sizes are at most ``K`` (its frontier
      literals ``ex[s, K_s]`` are false exactly there), and there the
      ``ex[s, u] \\/ t_inst`` clauses force the inactive instantiations
      true, so the row reads "every active instantiation holds -> t".
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
        self._tick_count = 0
        self._deadline: Optional[float] = None
        self.problems_registered = 0
        self.groups_shared = 0  # group lookups served by an existing group
        # semantic memory across registrations of the *same problem*
        # (identified by its frozenset of canonical clause keys):
        # refutation cores and hopeless verdicts are facts about the
        # problem, not the encoding, so a re-registered problem — a
        # recycled engine, one loaded from the warm cache — inherits
        # its sweep bounds instead of re-deriving them.  FIFO-bounded.
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
        self.solver = CDCLSolver()
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
        self._next_serial = 0

    # -- lifecycle ---------------------------------------------------------
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
        ctx = _ProblemContext(flat_clauses, self.solver.stats.clauses_added)
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
                group = _ClauseGroup(flat, self._next_serial)
                self._next_serial += 1
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
                self._add([-group.sel])
                retired = True
        if retired:
            # retired selectors satisfy their groups' clauses at level 0;
            # physically dropping them keeps the watch lists (and hence
            # every later problem's propagation) lean
            self.solver.simplify()

    def header(self) -> dict:
        """What :func:`check_engine` reads: schema, layout version,
        engine key and signature fingerprint.  The warm cache stores it
        beside the pickled engine, so a file written by another build
        is rejected by its version before the engine is used."""
        return {
            "schema": "engine",
            "version": ENGINE_SNAPSHOT_VERSION,
            "engine_key": self.engine_key,
            "fingerprint": self.fingerprint,
        }

    # -- small helpers -----------------------------------------------------
    def _add(self, literals: list[int]) -> None:
        if not self.solver.add_clause(literals):
            # impossible by the canonical-assignment argument of the
            # module docstring: only a broken encoder gets here
            raise FinderError(
                "the engine's clause database derived a level-0 "
                "contradiction"
            )

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
            group.sel = self.solver.new_var()
        return group.sel

    def _ex(self, sort: Sort, v: int) -> int:
        """Existence selector ``ex[sort, v]`` with its chain clause."""
        row = self._ex_rows[sort]
        while len(row) <= v:
            lit = self.solver.new_var()
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

    # -- growth ------------------------------------------------------------
    def ensure(
        self, ctx: _ProblemContext, sizes: dict[Sort, int]
    ) -> Optional[list[_ClauseGroup]]:
        """Grow the encoding so ``ctx`` is exact at the vector ``sizes``
        up to its on-demand groups.

        Signature-level state (existence chains, cells, symmetry cuts)
        grows to the per-sort hull of every vector tried, shared by
        every context.  Each of the context's eager clause groups, and
        each of its universal blocks inside the vector, grounds only the
        part of the vector's own box its staircase does not cover yet —
        a group shared with other problems may cover it already, in
        which case its ground instances are simply reused.  A group on
        demand at ``sizes`` (:meth:`_on_demand`) only gets its selector;
        :meth:`_refine` adds its instances as candidate models violate
        them.  Returns the on-demand groups (an empty list: the encoding
        is exact at ``sizes``), or ``None`` when the deadline expired
        mid-encoding (the encoding stays consistent — already-emitted
        clauses are valid — but the staircases are not advanced).
        """
        return self._timed_encode(self._ensure, ctx, sizes)

    def _timed_encode(self, encode, *args):
        """``encode(*args)``, counted as one ``encode`` aggregate and in
        ``phase.encode_*`` while observability is on."""
        tracer, metrics = obs_runtime.TRACER, obs_runtime.METRICS
        if tracer is None and metrics is None:
            return encode(*args)
        t0 = time.monotonic()
        try:
            return encode(*args)
        finally:
            dt = time.monotonic() - t0
            if tracer is not None:
                tracer.aggregate("encode", dt, 1)
            if metrics is not None:
                metrics.inc("phase.encode_s", dt)
                metrics.inc("phase.encode_n", 1)

    def _ensure(
        self, ctx: _ProblemContext, sizes: dict[Sort, int]
    ) -> Optional[list[_ClauseGroup]]:
        new = {s: max(self.cur[s], sizes[s]) for s in self.sorts}
        if new != self.cur:
            for s in self.sorts:
                self._ex(s, new[s])  # frontier + chain up front
            if self._encode_cells(new) is None:
                return None
            self._encode_symmetry(new)
            self.cur = new
        on_demand: list[_ClauseGroup] = []
        for group in self._resolve_groups(ctx):
            if group.blocks:
                # a block whose instance lies outside the vector is
                # vacuous there (its instance's -ex guards hold)
                var_sizes = tuple(sizes[v.sort] for v in group.flat.vars)
                for block in group.blocks:
                    if (
                        all(map(lt, block.outer, var_sizes))
                        and self._grow_block(group, block, sizes) is None
                    ):
                        return None
            if self._on_demand(group, sizes):
                self._sel(group)
                on_demand.append(group)
            elif self._encode_group(group, sizes) is None:
                return None
        return on_demand

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

            for args in _box_minus(arg_sizes, [old_args] if done else []):
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
        return True

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
        self, group: _ClauseGroup, sizes: dict[Sort, int]
    ) -> Optional[bool]:
        """Ground the group's instances in the vector's box that its
        staircase does not cover yet (eager grounding)."""
        var_sizes = tuple(sizes[v.sort] for v in group.flat.vars)
        stairs = group.stairs
        if _inside(var_sizes, stairs):
            return True
        emit = self._emitter(group, sizes)
        # blocks created past this point belong to instances whose
        # group has not committed yet (``stairs``); on a deadline abort
        # they are dropped so a resumed sweep does not keep growing
        # orphans for combos it will re-emit
        blocks_committed = len(group.blocks)
        for combo in _box_minus(var_sizes, stairs):
            if not self._tick() or emit(combo) is None:
                del group.blocks[blocks_committed:]
                return None
        group.stairs = _add_stair(stairs, var_sizes)
        return True

    def _emitter(self, group: _ClauseGroup, sizes: dict[Sort, int]):
        """The one per-combo emitter of the group's ground instances.

        ``emit(combo)`` adds the instance whose values over the group's
        ``flat.vars`` positions are ``combo`` (each inside the vector
        ``sizes``), growing its universal blocks first; it returns
        ``None`` when the deadline cut a block's growth.  Eager grounding
        feeds it :func:`_box_minus`, on-demand grounding the violation
        scan of :meth:`_refine`, so both emit the same clause, guards and
        literal order included, for the same combo.
        """
        flat = group.flat
        var_sizes = tuple(sizes[v.sort] for v in flat.vars)
        sel = self._sel(group)
        # precomputed layout: every table key is read out of the combo
        # tuple by a positional picker, so the grounding loop builds no
        # per-combo generator
        index = {v: i for i, v in enumerate(flat.vars)}
        # -ex[s, c] guard of each position, 0 (filtered out) at c = 0
        neg_ex = [
            [0] + [-lit for lit in self._ex_rows[v.sort][1:n]]
            for v, n in zip(flat.vars, var_sizes)
        ]
        defs = [
            (
                self.func_vars[func],
                _picker([index[a] for a in arg_vars]),
                itemgetter(index[result]),
            )
            for func, arg_vars, result in flat.defs
        ]
        atoms = [
            (
                self.pred_vars[atom.pred],
                _picker([index[v] for v in atom.vars]),
            )
            for atom in flat.body
            if not atom.universal_vars
        ]
        block_atoms = [atom for atom in flat.body if atom.universal_vars]
        head = None
        if flat.head is not None:
            head = (
                self.pred_vars[flat.head.pred],
                _picker([index[v] for v in flat.head.vars]),
            )
        new_var = self.solver.new_var

        def emit(combo: tuple[int, ...]) -> Optional[bool]:
            # the activation guard: the group's ground instances are
            # vacuous unless its selector is assumed — a problem is
            # activated as the set of its groups' selectors, which is
            # what lets campaign mode share one instance between every
            # problem containing the clause
            literals: list[int] = [-sel]
            literals.extend(filter(None, map(getitem, neg_ex, combo)))
            for table, pick_args, pick_result in defs:
                key = (pick_args(combo), pick_result(combo))
                var = table.get(key)
                if var is None:
                    var = new_var()
                    table[key] = var
                literals.append(-var)
            for atom in block_atoms:
                block = _BlockState(atom, combo, new_var())
                group.blocks.append(block)
                if self._grow_block(group, block, sizes) is None:
                    return None
                literals.append(-block.t)
            for table, pick in atoms:
                args = pick(combo)
                var = table.get(args)
                if var is None:
                    var = new_var()
                    table[args] = var
                literals.append(-var)
            if head is not None:
                table, pick = head
                args = pick(combo)
                var = table.get(args)
                if var is None:
                    var = new_var()
                    table[args] = var
                literals.append(var)
            self._add(literals)
            return True

        return emit

    # -- on-demand grounding -----------------------------------------------
    @staticmethod
    def _on_demand(group: _ClauseGroup, sizes: dict[Sort, int]) -> bool:
        """Whether the group is ground on demand at the vector ``sizes``:
        its box there exceeds :data:`ON_DEMAND_BOX`, its staircase does
        not cover that box, and it has no universal block."""
        var_sizes = tuple(sizes[v.sort] for v in group.flat.vars)
        return (
            math.prod(var_sizes) > ON_DEMAND_BOX
            and not _inside(var_sizes, group.stairs)
            and not any(atom.universal_vars for atom in group.flat.body)
        )

    def _refine(
        self,
        groups: Sequence[_ClauseGroup],
        sizes: dict[Sort, int],
        model: FiniteModel,
        stats: FinderStats,
    ) -> Optional[bool]:
        """Add every instance of the on-demand ``groups`` that ``model``
        violates, counting each in ``stats.on_demand_instances``;
        whether it added any, ``None`` at the deadline.

        The violation scan: per group, enumerate its free variables over
        the vector's box, read every flattened definition's result off
        the model's function tables, and hand each combo whose body
        holds and head fails to the group's :meth:`_emitter`.
        """
        added = False
        for group in groups:
            flat = group.flat
            index = {v: i for i, v in enumerate(flat.vars)}
            defined = {result for _, _, result in flat.defs}
            free = [i for i, v in enumerate(flat.vars) if v not in defined]
            ranges = [range(sizes[flat.vars[i].sort]) for i in free]
            # flattening lists a definition after those of its arguments
            defs = [
                (
                    model.functions[func],
                    _picker([index[a] for a in arg_vars]),
                    index[result],
                )
                for func, arg_vars, result in flat.defs
            ]
            body = [
                (
                    model.predicates[atom.pred],
                    _picker([index[v] for v in atom.vars]),
                )
                for atom in flat.body
            ]
            head_rel = head_pick = None
            if flat.head is not None:
                head_rel = model.predicates[flat.head.pred]
                head_pick = _picker([index[v] for v in flat.head.vars])
            emit = self._emitter(group, sizes)
            row = [0] * len(flat.vars)
            for values in itertools.product(*ranges):
                if not self._tick():
                    return None
                for i, value in zip(free, values):
                    row[i] = value
                for table, pick_args, result in defs:
                    row[result] = table[pick_args(row)]
                if all(pick(row) in rel for rel, pick in body) and (
                    head_rel is None or head_pick(row) not in head_rel
                ):
                    emit(tuple(row))
                    stats.on_demand_instances += 1
                    added = True
        return added

    # -- universal blocks --------------------------------------------------
    def _grow_block(
        self,
        group: _ClauseGroup,
        block: _BlockState,
        sizes: dict[Sort, int],
    ) -> Optional[bool]:
        """Grow one universal block so it is exact at the vector ``sizes``.

        ``t`` is implied by the truth of the whole universal block over
        the *active* elements, so a negated ``t`` in a ground clause
        soundly asserts the block fails.  Per instantiation ``u`` of the
        block's universal variables a literal ``t_inst`` is forced true
        when ``u`` is inactive (``ex[s, u_s] \\/ t_inst``) and implied by
        ``defs /\\ P(args)`` for every choice ``l`` of block-local
        intermediate values (one *premise* per ``(u, l)``).  A *row*
        ``(/\\ t_inst over box U) -> t``, guarded by the frontier
        ``ex[s, U_s]`` of each universal sort, applies at exactly the
        vectors whose universal sizes are at most ``U``; there the
        guards force the instantiations outside the vector true.

        The vector's universal sizes ``U`` and local sizes ``L`` grow
        the block by the premises of ``box(U + L)`` outside every stair
        (a ``t_inst`` is created with its first premise), and by a row
        at ``U`` unless a stair's universal part already covers ``U``.
        """
        atom = block.atom
        univ = atom.universal_vars
        nu = len(univ)
        box = tuple(sizes[v.sort] for v in univ + atom.local_vars)
        stairs = block.stairs
        if _inside(box, stairs):
            return True
        defs, ptable, pick, pick_outer = self._block_layout(group, atom)
        outer = pick_outer(block.outer)
        t_insts = block.t_insts
        new_var = self.solver.new_var
        for combo in _box_minus(box, stairs):
            if not self._tick():
                return None
            ucombo = combo[:nu]
            t_inst = t_insts.get(ucombo)
            if t_inst is None:
                t_inst = new_var()
                t_insts[ucombo] = t_inst
                for v, u in zip(univ, ucombo):
                    if u >= 1:
                        # inactive instantiations hold vacuously
                        self._add([self._ex(v.sort, u), t_inst])
            row = combo + outer
            literals: list[int] = []
            for table, pick_args, pick_result in defs:
                key = (pick_args(row), pick_result(row))
                var = table.get(key)
                if var is None:
                    var = new_var()
                    table[key] = var
                literals.append(-var)
            args = pick(row)
            var = ptable.get(args)
            if var is None:
                var = new_var()
                ptable[args] = var
            literals.append(-var)
            literals.append(t_inst)
            self._add(literals)
        u_box = box[:nu]
        if not _inside(u_box, [stair[:nu] for stair in stairs]):
            literals = [
                self._ex(s, sizes[s])
                for s in dict.fromkeys(v.sort for v in univ)
            ]
            literals.extend(
                -ti for u, ti in t_insts.items() if all(map(lt, u, u_box))
            )
            literals.append(block.t)
            self._add(literals)
        block.stairs = _add_stair(stairs, box)
        return True

    def _block_layout(self, group: _ClauseGroup, atom: FlatAtom):
        """Positional layout of a block atom, computed once per atom.

        A premise row is ``ucombo + lcombo + outer values`` (universal,
        then local, then the block's outer variables, whose values
        ``pick_outer`` reads out of :attr:`_BlockState.outer`), and
        every table key is read out of it by a positional picker, as in
        the plain-clause grounding loop.
        """
        layout = group.atom_layouts.get(id(atom))
        if layout is None:
            bound = atom.universal_vars + atom.local_vars
            slots = {v: i for i, v in enumerate(bound)}
            refs = [v for _, args, r in atom.local_defs for v in (*args, r)]
            outer_vars = [
                v for v in dict.fromkeys(refs + list(atom.vars))
                if v not in slots
            ]
            slots.update(
                (v, len(bound) + k) for k, v in enumerate(outer_vars)
            )
            index = {v: i for i, v in enumerate(group.flat.vars)}
            defs = [
                (
                    self.func_vars[func],
                    _picker([slots[a] for a in arg_vars]),
                    itemgetter(slots[result]),
                )
                for func, arg_vars, result in atom.local_defs
            ]
            layout = (
                defs,
                self.pred_vars[atom.pred],
                _picker([slots[v] for v in atom.vars]),
                _picker([index[v] for v in outer_vars]),
            )
            group.atom_layouts[id(atom)] = layout
        return layout

    # -- solving -----------------------------------------------------------
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
        core into ``ctx.refuted_cores``.  The vector's counts (refuted
        or exhausted, cores, reused clauses, the solver's size) land in
        ``stats``, the sweep's one :class:`FinderStats`.

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
        on_demand = self.ensure(ctx, sizes)
        if on_demand is None:
            stats.vectors_exhausted += 1
            stats.deadline_hit = True
            return _VectorOutcome()  # deadline hit mid-encoding
        stats.clauses_reused += pre_added
        if self.solver.learned_count() > MAX_LEARNED_CLAUSES:
            self.solver.reduce_learned(MAX_LEARNED_CLAUSES // 2)
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
        # one conflict budget spans every refinement round of the
        # vector: ``cap`` is the solver's count at which it runs out
        cap = options.max_conflicts_per_size
        if cap is not None:
            cap += self.solver.stats.conflicts
        while True:
            outcome = self.solver.solve(
                assumptions,
                max_conflicts=(
                    None if cap is None else cap - self.solver.stats.conflicts
                ),
                deadline=deadline,
            )
            stats.sat_vars = max(stats.sat_vars, self.solver.num_vars)
            stats.sat_clauses = max(
                stats.sat_clauses, self.solver.clause_count()
            )
            if outcome is not True:
                break
            model = self._decode(sizes, self.solver.model())
            if not on_demand:
                return _VectorOutcome(model=model)
            # timed as encoding, like ensure
            added = self._timed_encode(
                self._refine, on_demand, sizes, model, stats
            )
            if added is False:
                # the scan covered every on-demand group's whole box:
                # the model is exact at this vector
                return _VectorOutcome(model=model)
            if added is None or (
                deadline is not None and time.monotonic() > deadline
            ):
                stats.vectors_exhausted += 1
                stats.deadline_hit = True
                return _VectorOutcome()  # deadline hit while refining
            stats.on_demand_rounds += 1
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
        self._record_core(ctx, meaning, stats)
        return _VectorOutcome(refuted=True)

    def _record_core(
        self,
        ctx: _ProblemContext,
        meaning: dict[int, tuple],
        stats: FinderStats,
    ) -> None:
        """Translate the refutation's unsat core into reusable bounds."""
        core = self.solver.core()
        if not core:
            # the database alone would be unsat, which the
            # canonical-assignment argument of the module docstring
            # rules out: only a broken encoder gets here
            raise FinderError(
                "refutation with an empty unsat core: the engine's "
                "clause database is unsatisfiable"
            )
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


# ---------------------------------------------------------------------------
# the size sweep and the finder


def _signature(system: CHCSystem) -> tuple[list, list, list]:
    """The system's sorts, functions and predicates, each sorted by
    name: the signature order every engine shares."""
    return (
        sorted(system.adts.sorts, key=lambda s: s.name),
        sorted(
            system.adts.signature.functions.values(), key=lambda f: f.name
        ),
        sorted(system.predicates.values(), key=lambda p: p.name),
    )


def _covered(
    sizes: dict[Sort, int],
    cores: Sequence[tuple[dict[Sort, int], dict[Sort, int]]],
) -> bool:
    """Whether a known refutation core covers the vector ``sizes``.

    The known cores are a context's refutation cores: those it
    inherited (an earlier search, the problem-facts memo) and each one
    the engine appends as it refutes a vector.  A core with lower
    bounds L and upper bounds U covers every vector meeting all of
    them: the existence prefix chains make that vector's assumptions
    entail the core's, so it is unsat without touching the solver (see
    the module docstring).
    """
    return any(
        all(sizes[s] >= k for s, k in lower.items())
        and all(sizes[s] <= k for s, k in upper.items())
        for lower, upper in cores
    )


class ModelFinder:
    """Iterative-deepening finite model search for one CHC system.

    ``options`` (a :class:`FinderOptions`) is the whole configuration;
    the deadline and the minimum total size belong to each
    :meth:`search` call, not to the finder.

    The finder keeps its own :class:`_IncrementalEngine` alive across
    every :meth:`search` call, so repeated searches (e.g. resuming at a
    larger minimum size after a failed Herbrand check) also reuse the
    encoding and learned clauses.

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
        engine: Optional[_IncrementalEngine] = None,
    ):
        self.system = system
        self.options = options
        counter = itertools.count()
        self.flat_clauses = [
            flatten_clause(cl, counter) for cl in system.clauses
        ]
        self.sorts, self.functions, self.predicates = _signature(system)
        if engine is not None:
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
        min_total_size: int = 0,
        deadline: Optional[float] = None,
    ) -> FinderResult:
        """Try size vectors in order of total size until a model appears.

        Both arguments apply to this call only: the sweep starts at
        total size ``min_total_size`` and stops at the ``deadline``
        (``time.monotonic()`` seconds; ``None``: no wall-clock limit).
        Callers resuming a sweep supply a fresh budget each call while
        the engine keeps its state.

        The returned :class:`FinderResult` carries ``complete=True``
        only when the verdict is definitive: a model was found, or
        every candidate vector was *refuted* — directly, by a covering
        unsat core (``vectors_skipped``), or by a size-independent
        hopeless proof.  A vector that merely ran out of conflict or
        wall-clock budget leaves the sweep incomplete.
        """
        options = self.options
        if self._engine is None:
            self._engine = _IncrementalEngine(
                self.sorts, self.functions, self.predicates, options
            )
        engine = self._engine
        if self._ctx is None:
            self._ctx = engine.register(self.flat_clauses)
        ctx = self._ctx
        stats = FinderStats(
            engine_shared=self._shared_engine,
            cross_problem_clauses=(
                ctx.joined_at_clauses if self._shared_engine else 0
            ),
        )
        counters = engine.solver.stats
        before = dataclasses.asdict(counters)
        start = time.monotonic()
        # live-progress registration is one weakref assignment each,
        # cheap enough to do even with all collectors off
        obs_runtime.watch_finder_stats(stats)
        obs_runtime.watch_solver_stats(counters)
        # a pooled or unpickled engine's sorts are value-equal copies of
        # the finder's, in the same order; size dicts key the engine's
        frontier = size_vectors(
            engine.sorts, options.max_total_size, min_total_size
        )
        model: Optional[FiniteModel] = None
        swept = False
        # a context already known to be hopeless returns before any
        # attempt: no model exists at any size
        while not ctx.hopeless:
            if deadline is not None and time.monotonic() > deadline:
                stats.deadline_hit = True
                break
            for sizes in frontier:
                if not _covered(sizes, ctx.refuted_cores):
                    break
                stats.vectors_skipped += 1
            else:
                swept = True
                break
            stats.attempts += 1
            model = engine.try_vector(
                ctx, sizes, stats, options, deadline=deadline
            ).model
            if model is not None:
                break
        # only try_vector touches the engine's one solver during the
        # sweep, so the difference of its counters is the sweep's work
        sat = {
            key: value - before[key]
            for key, value in dataclasses.asdict(counters).items()
        }
        stats.clauses_encoded = sat["clauses_added"]
        stats.learned_total = sat["learned"]
        stats.learned_glue = sat["glue_learned"]
        stats.learned_kept = engine.solver.learned_count()
        stats.elapsed = time.monotonic() - start
        stats.hopeless = ctx.hopeless
        if model is not None:
            stats.model_size = model.size()
        if obs_runtime.METRICS is not None:
            obs_runtime.METRICS.publish("sat", sat)
        # definitive only with a model, a size-independent refutation,
        # or a whole frontier refuted with no vector exhausted and no
        # deadline cut
        complete = (
            model is not None
            or ctx.hopeless
            or (
                swept
                and not stats.vectors_exhausted
                and not stats.deadline_hit
            )
        )
        return FinderResult(model, stats, complete=complete)


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
    finder = ModelFinder(system, FinderOptions(**overrides))
    return finder.search(min_total_size=min_total_size, deadline=deadline)
