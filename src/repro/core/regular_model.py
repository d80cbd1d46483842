"""Regular Herbrand models: the invariants RInGen produces.

A regular model (Sec. 3, "Regular Herbrand Models") interprets every
uninterpreted predicate of the CHC system by the language of a DFTA; all
the automata share one transition table, so the model is simultaneously a
finite structure (the one the model finder returned) and a family of
automata (Theorem 1).  This class keeps both views — the automata are
the invariant as the paper presents it (``--model`` prints them) — and
provides:

* Herbrand membership queries (is a ground tuple in the invariant?),
* exact verification against the preprocessed, constraint-free system
  (decidable: a finite-model check over the reachable substructure,
  Lemma 2),
* independent bounded verification against the *original* system over the
  Herbrand structure, via :func:`repro.chc.semantics.check_model_bounded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.automata.dfta import DFTA
from repro.automata.from_model import model_to_automata
from repro.chc.clauses import CHCSystem
from repro.chc.semantics import ClauseViolation, check_model_bounded
from repro.chc.transform import is_diseq_symbol
from repro.logic.adt import ADTSystem
from repro.logic.sorts import PredSymbol
from repro.logic.terms import Term
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

        Every clause is evaluated on the finite model over its
        constructor-reachable substructure: quantification over reachable
        elements is exactly Herbrand quantification, so the check is
        sound and complete for Herbrand satisfaction of the induced
        relations (Lemma 2) — including the quantifier-alternating
        clauses of the STLC case study.  By Theorem 1 it decides what
        automata inclusion over :attr:`automata` would, on the same
        tables.
        """
        return self.finite_model.satisfies(preprocessed, herbrand=True)

    def verify_bounded(
        self, original: CHCSystem, *, max_height: int = 3
    ) -> Optional[ClauseViolation]:
        """Bounded Herbrand check of the *original* system (Theorem 5).

        Returns ``None`` when no violation exists among instantiations with
        terms up to ``max_height``.  A non-``None`` result would contradict
        Theorem 5 and indicates an implementation bug, which is why the
        test suite runs this after every SAT answer.

        :func:`check_model_bounded` skips clauses with universal blocks;
        those are *exactly* verified by :meth:`verify_exact` over the
        reachable substructure.
        """
        return check_model_bounded(
            original, self.interpretation, max_height=max_height
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
