"""Regular Herbrand models: the invariants RInGen produces.

A regular model (Sec. 3, "Regular Herbrand Models") interprets every
uninterpreted predicate of the CHC system by the language of a DFTA; all
the automata share one transition table, so the model is simultaneously a
finite structure (the one the model finder returned) and a family of
automata (Theorem 1).  This class keeps both views and provides:

* Herbrand membership queries (is a ground tuple in the invariant?),
* exact verification against the preprocessed, constraint-free system
  (decidable: a finite-model check, Lemma 2),
* independent bounded verification against the *original* system over the
  Herbrand structure, via :func:`repro.chc.semantics.check_model_bounded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.automata.dfta import DFTA
from repro.automata.from_model import model_to_automata
from repro.automata.ops import (
    difference,
    intersection,
    language_key,
    language_universal,
    memoized,
)
from repro.chc.clauses import CHCSystem, Clause
from repro.chc.semantics import ClauseViolation, check_model_bounded
from repro.chc.transform import is_diseq_symbol
from repro.logic.adt import ADTSystem
from repro.logic.formulas import TRUE
from repro.logic.sorts import PredSymbol
from repro.logic.terms import Term, Var
from repro.mace.model import FiniteModel


@dataclass
class RegularModel:
    """A tuple of regular relations interpreting the CHC predicates."""

    adts: ADTSystem
    finite_model: FiniteModel
    automata: dict[PredSymbol, DFTA]

    @classmethod
    def from_finite_model(
        cls,
        adts: ADTSystem,
        model: FiniteModel,
        predicates: list[PredSymbol],
    ) -> "RegularModel":
        """Theorem 1 applied to every predicate of the system."""
        return cls(adts, model, model_to_automata(model, adts, predicates))

    # ------------------------------------------------------------------
    def member(self, pred: PredSymbol, terms: tuple[Term, ...]) -> bool:
        """Whether a ground tuple belongs to the invariant of ``pred``.

        Evaluated through the finite model (equivalent to the automaton
        run by Theorem 1, and considerably faster).
        """
        values = tuple(self.finite_model.eval_term(t) for t in terms)
        return self.finite_model.holds(pred, values)

    def interpretation(self, pred: PredSymbol, terms: tuple[Term, ...]) -> bool:
        """Interpretation callback for the bounded Herbrand verifier.

        ``diseq`` predicates introduced by preprocessing are given their
        *intended* semantics (true disequality): by Lemma 4, substituting
        the true disequality relation for any over-approximating
        interpretation preserves clause satisfaction.
        """
        if is_diseq_symbol(pred):
            return terms[0] != terms[1]
        return self.member(pred, terms)

    # ------------------------------------------------------------------
    def verify_exact(self, preprocessed: CHCSystem) -> bool:
        """Decidable inductiveness check on the constraint-free system.

        Clauses whose atoms all range over one shared tuple of distinct
        variables are decided on the automata view:
        ``P1(x̄) ∧ ... ∧ Pn(x̄) → Q(x̄)`` holds in the Herbrand
        interpretation iff ``⋂ L(A_Pi) ⊆ L(A_Q)`` (Theorem 1), checked
        with the sparse product and the shared memoized emptiness cache.

        The clauses the automata view cannot decide fall back to the
        finite model, evaluated over its constructor-reachable
        substructure: quantification over reachable elements is exactly
        Herbrand quantification, so this check is sound and complete for
        Herbrand satisfaction of the induced relations — including the
        quantifier-alternating clauses of the STLC case study.
        """
        residual: list[Clause] = []
        for cl in preprocessed.clauses:
            verdict = self._clause_via_automata(cl)
            if verdict is False:
                return False
            if verdict is None:
                residual.append(cl)
        if not residual:
            return True
        filtered = CHCSystem(
            preprocessed.adts, dict(preprocessed.predicates)
        )
        filtered.extend(residual)
        return self.finite_model.satisfies(filtered, herbrand=True)

    def _clause_via_automata(self, cl: Clause) -> Optional[bool]:
        """Decide one clause via language inclusion, if it has the shape.

        Returns ``None`` when the clause does not fit (nested terms,
        universal blocks, mismatched or repeated variable tuples) and
        must be evaluated on the finite model instead.
        """
        if cl.constraint != TRUE:
            return None
        atoms = list(cl.body) + ([cl.head] if cl.head is not None else [])
        if not atoms:
            return False  # ⊥ ← ⊤: no interpretation satisfies it
        for atom in atoms:
            if getattr(atom, "universal_vars", ()):
                return None
            if not all(isinstance(t, Var) for t in atom.args):
                return None
        shared = atoms[0].args
        if len(set(shared)) != len(shared):
            return None
        if any(atom.args != shared for atom in atoms[1:]):
            return None
        try:
            body_autos = [self.automata[a.pred] for a in cl.body]
            head_auto = (
                self.automata[cl.head.pred] if cl.head is not None else None
            )
        except KeyError:
            return None
        if not body_autos:
            assert head_auto is not None
            return language_universal(head_auto)
        # the whole clause verdict is memoized on the operand
        # fingerprints, so a repeat query (the Herbrand-retry loop,
        # campaign re-verification) skips the product chain entirely
        key = (
            "clause",
            tuple(language_key(a) for a in body_autos),
            language_key(head_auto) if head_auto is not None else None,
        )

        def check() -> bool:
            inter = body_autos[0]
            for nxt in body_autos[1:]:
                inter = intersection(inter, nxt)
            if head_auto is None:
                return inter.is_empty()
            return difference(inter, head_auto).is_empty()

        return memoized(key, check)

    def verify_bounded(
        self, original: CHCSystem, *, max_height: int = 3
    ) -> Optional[ClauseViolation]:
        """Bounded Herbrand check of the *original* system (Theorem 5).

        Returns ``None`` when no violation exists among instantiations with
        terms up to ``max_height``.  A non-``None`` result would contradict
        Theorem 5 and indicates an implementation bug, which is why the
        test suite runs this after every SAT answer.

        Clauses with universal blocks are skipped here: bounded checking of
        an inner quantifier is not conclusive in either direction, and those
        clauses are already *exactly* verified by :meth:`verify_exact` over
        the reachable substructure.
        """
        filtered = CHCSystem(original.adts, dict(original.predicates))
        filtered.extend(
            cl
            for cl in original.clauses
            if not any(a.universal_vars for a in cl.body)
        )
        return check_model_bounded(
            filtered, self.interpretation, max_height=max_height
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            "regular model (finite-model view):",
            self.finite_model.describe(),
            "",
            "per-predicate automata:",
        ]
        for pred, auto in sorted(
            self.automata.items(), key=lambda kv: kv[0].name
        ):
            if is_diseq_symbol(pred):
                continue
            lines.append(f"-- {pred.name} --")
            lines.append(auto.describe())
        return "\n".join(lines)

    def size(self) -> int:
        """Sum of sort cardinalities (Figure 6's notion of model size)."""
        return self.finite_model.size()
