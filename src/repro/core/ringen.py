"""RInGen: regular invariant generation for CHCs over ADTs (Sec. 4, 8).

The end-to-end pipeline of Figure 1:

1. preprocess the system (selectors/testers out, equalities unified away,
   disequalities replaced by ``diseq`` atoms with their Horn rules),
2. run a quick bounded counterexample search — a derivation of ⊥ that
   :func:`~repro.core.certify.replay` re-checks proves UNSAT outright,
3. hand the constraint-free clauses to the finite model finder: one
   size sweep over one incremental engine, the campaign pool's shared
   engine when a pool or warm cache is configured; a finite model yields
   a regular Herbrand model of the original system (Theorems 1 and 5),
4. verify the model exactly against the preprocessed clauses (decidable;
   a model that fails resumes the sweep at the next total size) and
   bounded-check it against the original system up to height
   :data:`VERIFY_HEIGHT`.

Answers: SAT with a :class:`~repro.core.regular_model.RegularModel`,
UNSAT with a derivation, or UNKNOWN on resource exhaustion — the three
outcomes tabulated in Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.chc.clauses import CHCSystem
from repro.chc.transform import preprocess
from repro.core.certify import certified
from repro.core.cex import search_counterexample
from repro.core.regular_model import RegularModel
from repro.core.result import SolveResult, Status, sat, unknown
from repro.mace.finder import FinderOptions, FinderStats, ModelFinder
from repro.mace.pool import EnginePool
from repro.obs import runtime as obs_runtime

#: the bounded counterexample search starts at this height and stops
#: at ``RInGenConfig.cex_max_height`` or after this many facts
CEX_START_HEIGHT = 2
CEX_MAX_FACTS = 60_000
#: height of the bounded Herbrand check of a found model against the
#: original system
VERIFY_HEIGHT = 3


@dataclass
class RInGenConfig:
    """Tuning knobs of the pipeline (all have benchmark-friendly defaults).

    The model-finder fields — ``max_model_size`` (the finder's
    ``max_total_size``), ``max_conflicts_per_size`` and
    ``symmetry_breaking`` — are documented on
    :class:`~repro.mace.finder.FinderOptions`; :meth:`finder_options`
    converts them once per solve.  ``cex_max_height`` caps the bounded
    counterexample search.

    Campaign knobs: ``engine_pool`` plugs a shared
    :class:`~repro.mace.pool.EnginePool` into the model-finding phase,
    so consecutive ``solve`` calls on signature-compatible systems reuse
    one incremental engine (batch mode for the harness); each solve
    releases its problem from the pool when it finishes.
    ``engine_cache_dir`` points at a disk-backed warm cache of
    serialized engines (see
    :class:`~repro.mace.pool.EnginePool`): without an injected pool, a
    solve builds a private pool over that cache, so repeated runs on
    the same signature start from the previous run's encodings, learned
    clauses and refutation bounds (the CLI's ``--warm-cache``).
    """

    max_model_size: int = 12
    cex_max_height: int = 4
    max_conflicts_per_size: Optional[int] = 200_000
    symmetry_breaking: bool = True
    timeout: Optional[float] = None
    engine_pool: Optional[EnginePool] = None
    engine_cache_dir: Optional[str] = None

    def finder_options(self) -> FinderOptions:
        """The model-finder part of this configuration, as one value."""
        return FinderOptions(
            max_total_size=self.max_model_size,
            max_conflicts_per_size=self.max_conflicts_per_size,
            symmetry_breaking=self.symmetry_breaking,
        )


class RInGen:
    """Regular Invariant Generator (the paper's tool, reimplemented)."""

    name = "ringen"

    def __init__(self, config: Optional[RInGenConfig] = None):
        self.config = config or RInGenConfig()

    def solve(self, system: CHCSystem) -> SolveResult:
        tracer = obs_runtime.TRACER
        if tracer is None:
            return self._solve_impl(system)
        span = tracer.begin(
            "solve", {"system": getattr(system, "name", None)}
        )
        try:
            result = self._solve_impl(system)
            span.args["status"] = result.status.value
            return result
        finally:
            tracer.end(span)

    def _solve_impl(self, system: CHCSystem) -> SolveResult:
        start = time.monotonic()
        cfg = self.config
        deadline = None if cfg.timeout is None else start + cfg.timeout

        prepared = preprocess(system)

        # Phase 1: bounded refutation search (sound UNSAT answers).  The
        # searcher cannot refute through universal-block queries (see
        # repro.chc.semantics), so when every query carries a block the
        # phase is skipped entirely.
        refutable = any(
            not any(a.universal_vars for a in cl.body)
            for cl in prepared.queries
        )
        if refutable:
            cex_budget = None
            if cfg.timeout is not None:
                cex_budget = max(cfg.timeout * 0.3, 0.05)
            cex = search_counterexample(
                prepared,
                start_height=CEX_START_HEIGHT,
                max_height=cfg.cex_max_height,
                max_facts=CEX_MAX_FACTS,
                timeout=cex_budget,
            )
            if cex.found:
                result = certified(self.name, prepared, cex.refutation)
                if result.is_unsat:
                    result.details["cex_height"] = cex.max_height_tried
                result.elapsed = time.monotonic() - start
                return result

        # Phase 2: finite model search.  The SAT encoding quantifies
        # existential witnesses (universal blocks in bodies) over the full
        # domain, while Herbrand satisfaction quantifies over the
        # constructor-reachable substructure only; a found model is
        # therefore re-checked exactly and, if it fails (possible only for
        # quantifier-alternating systems with junk elements), the search
        # resumes at the next size vector.
        predicates = list(prepared.predicates.values())
        # One ModelFinder spans every resumption of the sweep: with the
        # incremental engine, a model that fails the Herbrand check below
        # resumes the search at the next size with all encoding and
        # learned clauses intact instead of starting over.  In campaign
        # mode the finder additionally rides the pool's shared engine for
        # this signature, inheriting other problems' state.
        options = cfg.finder_options()
        pool = cfg.engine_pool
        ephemeral: Optional[EnginePool] = None
        if pool is None and cfg.engine_cache_dir:
            # no shared pool, but a warm cache: a private pool scoped to
            # this solve loads the signature's engine from disk (if any)
            # and persists it back when done
            pool = ephemeral = EnginePool(cache_dir=cfg.engine_cache_dir)
        if pool is not None:
            finder = pool.finder(prepared, options)
        else:
            finder = ModelFinder(prepared, options)
        try:
            result = self._model_search(
                system, prepared, finder, predicates, deadline, start
            )
        finally:
            if pool is not None:
                pool.release(finder)
            if ephemeral is not None:
                ephemeral.flush_cache()
        if pool is not None:
            result.details["engine_pool"] = {
                "pooled": True,
                "cross_problem_clauses": result.details.get(
                    "finder", {}
                ).get("cross_problem_clauses", 0),
            }
        return result

    def _model_search(
        self,
        system: CHCSystem,
        prepared: CHCSystem,
        finder: ModelFinder,
        predicates: list,
        deadline: Optional[float],
        start: float,
    ) -> SolveResult:
        """Phase 2 body: drive the finder, verify models, build results."""
        cfg = self.config
        finder_stats = FinderStats()
        min_size = 0
        while True:
            finder_result = finder.search(
                min_total_size=min_size, deadline=deadline
            )
            finder_stats.merge(finder_result.stats)
            if finder_result.model is None:
                # an honest verdict: "no model ≤ N" may only be claimed
                # when every size vector was actually refuted — a sweep
                # that ran out of conflict or wall-clock budget anywhere
                # is merely unknown.  A resumed sweep (min_size > 0,
                # the Herbrand-retry path) never re-examines the found
                # model's siblings at its own total size, so its
                # verdict is never definitive either.
                complete = finder_result.complete and min_size == 0
                if complete and finder_result.stats.hopeless:
                    kind = "complete"
                    reason = (
                        "no finite model exists at any size "
                        "(size-independent refutation)"
                    )
                elif complete:
                    kind = "complete"
                    reason = (
                        f"no finite model of total size <= "
                        f"{cfg.max_model_size} (every vector refuted)"
                    )
                elif min_size:
                    kind = "herbrand"
                    reason = (
                        "models found but none passes the Herbrand "
                        "check within the remaining budget"
                    )
                elif finder_stats.deadline_hit:
                    # cut short by the cooperative wall clock — distinct
                    # from conflict-budget exhaustion (whose remedy is a
                    # bigger budget, not more time) and from the
                    # supervisor's error:timeout_hard (a killed worker
                    # never reports a reason at all)
                    kind = "budget"
                    reason = (
                        "unknown: wall-clock timeout (cooperative)"
                    )
                else:
                    kind = "budget"
                    reason = "unknown: conflict/size budget exhausted"
                result = unknown(self.name, reason)
                result.elapsed = time.monotonic() - start
                result.details["attempts"] = finder_stats.attempts
                result.details["complete"] = complete
                result.details["verdict_kind"] = kind
                result.details["timeout_hit"] = finder_stats.deadline_hit
                result.details["finder"] = finder_stats.as_dict()
                return result
            model = RegularModel.from_finite_model(
                prepared.adts, finder_result.model, predicates
            )
            if not model.verify_exact(prepared):
                min_size = finder_result.model.size() + 1
                if min_size > cfg.max_model_size:
                    result = unknown(
                        self.name,
                        "models found but none passes the Herbrand check",
                    )
                    result.elapsed = time.monotonic() - start
                    result.details["complete"] = False
                    result.details["verdict_kind"] = "herbrand"
                    result.details["finder"] = finder_stats.as_dict()
                    return result
                continue
            break
        violation = model.verify_bounded(system, max_height=VERIFY_HEIGHT)
        if violation is not None:
            result = unknown(
                self.name,
                f"internal error: bounded Herbrand check failed: "
                f"{violation}",
            )
            result.elapsed = time.monotonic() - start
            return result
        result = sat(self.name, model)
        result.elapsed = time.monotonic() - start
        result.details["model_size"] = model.size()
        result.details["complete"] = True
        result.details["finder_attempts"] = finder_stats.attempts
        result.details["finder"] = finder_stats.as_dict()
        return result


def solve(
    system: CHCSystem, *, timeout: Optional[float] = None, **overrides
) -> SolveResult:
    """One-call API: run RInGen on a CHC system.

    >>> from repro.problems import even_system
    >>> result = solve(even_system())
    >>> result.status
    <Status.SAT: 'sat'>
    """
    return RInGen(RInGenConfig(timeout=timeout, **overrides)).solve(system)
