"""The expressiveness atlas: Figure 3 with executable witnesses.

Each of the five programs of the paper is packaged with:

* its CHC system (from :mod:`repro.problems`),
* the ground-truth membership of its canonical safe invariant,
* the *positive* witnesses the paper gives: the regular invariants of
  Props. 4/6/9 (explicit DFTAs, transcribed from the paper's transition
  tables), the elementary invariants of Examples 4/11 and the size
  invariants of Props. 8/12,
* its Figure 3 classification (membership in Reg / Elem / SizeElem),
  with the supporting proposition numbers.

The test suite checks every positive witness is a genuine inductive
invariant (via the automaton→finite-model correspondence and exact
Herbrand evaluation), and replays the negative results with the pumping
refuters of :mod:`repro.theory.pumping`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.automata.dfta import DFTA, make_dfta
from repro.chc.clauses import CHCSystem
from repro.logic.adt import (
    ADTSystem,
    NAT,
    TREE,
    nat_system,
    nat_value,
    tree_system,
)
from repro.logic.sorts import PredSymbol
from repro.logic.terms import App, Term
from repro.problems import (
    DEC,
    INC,
    diag_system,
    even_system,
    evenleft_system,
    incdec_system,
    ltgt_system,
)


# ----------------------------------------------------------------------
# ground-truth membership of the canonical invariants
# ----------------------------------------------------------------------
def even_member(t: Term) -> bool:
    """``{S^2n(Z)}`` — the unique safe invariant of *Even* (Example 4)."""
    return nat_value(t) % 2 == 0


def inc_member(x: Term, y: Term) -> bool:
    """Least model of ``inc``: y = x + 1."""
    return nat_value(y) == nat_value(x) + 1


def dec_member(x: Term, y: Term) -> bool:
    return nat_value(x) == nat_value(y) + 1


def leftmost_length(t: Term) -> int:
    """Number of nodes along the leftmost branch."""
    n = 0
    while isinstance(t, App) and t.func.name == "node":
        n += 1
        t = t.args[0]
    return n


def evenleft_member(t: Term) -> bool:
    """Least model of *EvenLeft*: even leftmost branch length."""
    return leftmost_length(t) % 2 == 0


def eq_member(x: Term, y: Term) -> bool:
    return x == y


def diseq_member(x: Term, y: Term) -> bool:
    return x != y


def lt_member(x: Term, y: Term) -> bool:
    return nat_value(x) < nat_value(y)


def gt_member(x: Term, y: Term) -> bool:
    return nat_value(x) > nat_value(y)


# ----------------------------------------------------------------------
# the paper's automata (Props. 4, 6, 9)
# ----------------------------------------------------------------------
def even_automaton(adts: Optional[ADTSystem] = None) -> DFTA:
    """Prop. 6 / Example 1's automaton: parity of ``S`` applications."""
    adts = adts or nat_system()
    return make_dfta(
        adts,
        {NAT: 2},
        {
            ("Z", ()): 0,
            ("S", (0,)): 1,
            ("S", (1,)): 0,
        },
        [(0,)],
        (NAT,),
    )


def incdec_automata(
    adts: Optional[ADTSystem] = None,
) -> dict[PredSymbol, DFTA]:
    """Prop. 4: the mod-3 2-automata for ``inc`` and ``dec``.

    ``inc`` accepts ``(x mod 3, y mod 3) in {(0,1), (1,2), (2,0)}`` —
    an over-approximation of +1 that still refutes the query.
    """
    adts = adts or nat_system()
    transitions = {
        ("Z", ()): 0,
        ("S", (0,)): 1,
        ("S", (1,)): 2,
        ("S", (2,)): 0,
    }
    inc = make_dfta(
        adts, {NAT: 3}, transitions, [(0, 1), (1, 2), (2, 0)], (NAT, NAT)
    )
    dec = make_dfta(
        adts, {NAT: 3}, transitions, [(1, 0), (2, 1), (0, 2)], (NAT, NAT)
    )
    return {INC: inc, DEC: dec}


def evenleft_automaton(adts: Optional[ADTSystem] = None) -> DFTA:
    """Prop. 9's automaton: parity of the leftmost branch."""
    adts = adts or tree_system()
    return make_dfta(
        adts,
        {TREE: 2},
        {
            ("leaf", ()): 0,
            ("node", (0, 0)): 1,
            ("node", (0, 1)): 1,
            ("node", (1, 0)): 0,
            ("node", (1, 1)): 0,
        },
        [(0,)],
        (TREE,),
    )


# ----------------------------------------------------------------------
# Figure 3 classification
# ----------------------------------------------------------------------
@dataclass
class AtlasEntry:
    """One program of Figure 3 with witnesses and classification."""

    name: str
    system_factory: Callable[[], CHCSystem]
    in_reg: bool
    in_elem: bool
    in_sizeelem: bool
    positive_reference: str
    negative_reference: str = ""

    @property
    def classification(self) -> dict[str, bool]:
        return {
            "Reg": self.in_reg,
            "Elem": self.in_elem,
            "SizeElem": self.in_sizeelem,
        }


ATLAS: dict[str, AtlasEntry] = {
    "Even": AtlasEntry(
        "Even",
        even_system,
        in_reg=True,
        in_elem=False,
        in_sizeelem=True,
        positive_reference="Prop. 6 (Reg), Prop. 8 (SizeElem)",
        negative_reference="Prop. 1 (not Elem, by the Elem pumping lemma)",
    ),
    "IncDec": AtlasEntry(
        "IncDec",
        incdec_system,
        in_reg=True,
        in_elem=True,
        in_sizeelem=True,
        positive_reference="Example 4 (Elem), Prop. 4 (Reg)",
    ),
    "EvenLeft": AtlasEntry(
        "EvenLeft",
        evenleft_system,
        in_reg=True,
        in_elem=False,
        in_sizeelem=False,
        positive_reference="Prop. 9 (Reg)",
        negative_reference=(
            "Prop. 2 (not SizeElem, by the SizeElem pumping lemma); "
            "Elem ⊆ SizeElem gives not Elem"
        ),
    ),
    "Diag": AtlasEntry(
        "Diag",
        diag_system,
        in_reg=False,
        in_elem=True,
        in_sizeelem=True,
        positive_reference="Prop. 11 (Elem: eq(x,y) ≡ x=y)",
        negative_reference=(
            "Prop. 11 (not Reg: tree automata cannot express disequality, "
            "Comon et al.)"
        ),
    ),
    "LtGt": AtlasEntry(
        "LtGt",
        ltgt_system,
        in_reg=False,
        in_elem=False,
        in_sizeelem=True,
        positive_reference="Prop. 12 (SizeElem: size(x) < size(y))",
        negative_reference=(
            "Prop. 12 (not Reg: union lt ∪ gt would make Diag regular)"
        ),
    ),
}


def figure3_rows() -> list[dict[str, object]]:
    """Figure 3 as a table: one row per program with class membership."""
    rows = []
    for name, entry in ATLAS.items():
        row: dict[str, object] = {"program": name}
        row.update(entry.classification)
        rows.append(row)
    return rows


def format_figure3() -> str:
    """Render Figure 3's content as an ASCII table."""
    rows = figure3_rows()
    header = f"{'program':<10} {'Reg':<5} {'Elem':<6} {'SizeElem':<8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['program']:<10} "
            f"{'yes' if row['Reg'] else 'no':<5} "
            f"{'yes' if row['Elem'] else 'no':<6} "
            f"{'yes' if row['SizeElem'] else 'no':<8}"
        )
    return "\n".join(lines)
