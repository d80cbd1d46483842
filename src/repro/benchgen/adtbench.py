"""The De Angelis-inspired 60-problem suite (Sec. 8 "Benchmarks").

The paper's own benchmark set: 60 CHC systems over binary trees, queues,
lists and Peano numbers, split into

* **PositiveEq** (35 problems): equality occurs only positively in clause
  bodies — the population where finite models abound (RInGen: 27 SAT;
  Spacer: 4; Eldarica: 1),
* **Diseq** (25 problems, one of them unsatisfiable): disequality
  constraints in bodies, where finite models are rare (Sec. 4.4's
  discussion; RInGen: 4 SAT + 1 UNSAT).

We regenerate the same population structure from the deterministic
builders of :mod:`repro.benchgen.builders`; `expected_classes` encodes
which representation class admits an invariant, which is what the paper's
per-solver counts track.
"""

from __future__ import annotations

from functools import partial

from repro.benchgen.builders import (
    add_conjecture_system,
    diag_variant_system,
    diseq_guard_system,
    diseq_unsat_system,
    list_alternating_system,
    list_every_other_z_system,
    list_length_mod_system,
    list_length_ordering_system,
    nat_mod_system,
    nat_two_residues_system,
    offset_pair_system,
    ordering_system,
    tree_branch_parity_system,
    tree_left_spine_zigzag_system,
)
from repro.benchgen.suite import Suite

REG = "Reg"
ELEM = "Elem"
SIZE = "SizeElem"


def positiveeq_suite() -> Suite:
    """The 35 PositiveEq problems (no negative equality anywhere)."""
    suite = Suite("PositiveEq")

    # -- 12 Peano modular problems (regular + size-expressible) --------
    mod_params = [
        (2, 0, 1), (2, 1, 1), (2, 0, 3), (3, 0, 1), (3, 0, 2), (3, 1, 1),
        (3, 2, 2), (4, 0, 1), (4, 0, 2), (4, 1, 2), (4, 2, 3), (5, 0, 2),
    ]
    for m, r, c in mod_params:
        suite.add(
            f"nat-mod{m}-r{r}-c{c}",
            "nat-mod",
            partial(nat_mod_system, m, r, c),
            "sat",
            (REG, SIZE),
        )

    # -- 4 two-residue disjointness problems ---------------------------
    for m, r1, r2 in [(2, 0, 1), (3, 0, 1), (3, 1, 2), (4, 1, 3)]:
        suite.add(
            f"nat-mod{m}-{r1}-vs-{r2}",
            "nat-mod2",
            partial(nat_two_residues_system, m, r1, r2),
            "sat",
            (REG, SIZE),
        )

    # -- 5 list-length parity problems ----------------------------------
    for m, r, c in [(2, 0, 1), (2, 1, 1), (3, 0, 1), (3, 0, 2), (4, 0, 2)]:
        suite.add(
            f"list-len-mod{m}-{r}-{c}",
            "list-parity",
            partial(list_length_mod_system, m, r, c),
            "sat",
            (REG, SIZE),
        )

    # -- 3 structural list regularities (Reg only) ----------------------
    suite.add(
        "list-alt-zh", "list-structural",
        partial(list_alternating_system, head_first=True), "sat", (REG,),
    )
    suite.add(
        "list-alt-sh", "list-structural",
        partial(list_alternating_system, head_first=False), "sat", (REG,),
    )
    suite.add(
        "list-every-other-z", "list-structural",
        list_every_other_z_system, "sat", (REG,),
    )

    # -- 3 tree branch parity problems (Reg only, Prop. 2) --------------
    suite.add(
        "tree-left-parity", "tree-parity",
        partial(tree_branch_parity_system, left=True), "sat", (REG,),
    )
    suite.add(
        "tree-right-parity", "tree-parity",
        partial(tree_branch_parity_system, left=False), "sat", (REG,),
    )
    suite.add(
        "tree-zigzag", "tree-parity",
        tree_left_spine_zigzag_system, "sat", (REG,),
    )

    # -- 4 elementary offset problems (Spacer's four) -------------------
    for c1, c2 in [(1, 2), (1, 3), (2, 3), (2, 4)]:
        suite.add(
            f"nat-offset-{c1}-vs-{c2}",
            "nat-offset",
            partial(offset_pair_system, c1, c2),
            "sat",
            (REG, ELEM, SIZE),
            notes="IncDec family: mod-(c2-c1+k) regular models also exist",
        )

    # -- 1 ordering problem (Eldarica's one) ----------------------------
    suite.add(
        "list-len-ord", "ordering",
        list_length_ordering_system, "sat", (SIZE,),
    )

    # -- 3 safe-but-undefinable conjectures (everyone diverges) ---------
    # (only positive-equality kinds belong in this half of the benchmark)
    for kind in ("mono", "grow"):
        suite.add(
            f"nat-add-{kind}", "add-conjecture",
            partial(add_conjecture_system, kind), "sat", (),
        )
    suite.add(
        "nat-ord-strict", "ordering",
        partial(ordering_system, strict=True), "sat", (SIZE,),
    )
    assert len(suite) == 35, f"PositiveEq has {len(suite)} problems"
    return suite


def diseq_suite() -> Suite:
    """The 25 Diseq problems: 24 SAT candidates (RInGen proves 4) plus
    the 1 UNSAT instance of Table 1's Diseq/UNSAT row."""
    suite = Suite("Diseq")

    # -- 4 diseq-guarded problems with finite regular models ------------
    for offset in (2, 3, 4, 5):
        suite.add(
            f"diseq-guard-{offset}", "diseq-guard",
            partial(diseq_guard_system, offset), "sat", (REG, SIZE),
        )

    # -- 3 Diag variants (Elem only — Prop. 11) -------------------------
    for kind in ("nat", "list", "tree"):
        suite.add(
            f"diag-{kind}", "diag",
            partial(diag_variant_system, kind), "sat", (ELEM, SIZE),
        )

    # -- 17 involution problems (everyone diverges) ----------------------
    # mirror/reverse are involutions: the query's disequality can never
    # fire, but proving that requires tracking a *functional relation*
    # between the two arguments — outside Reg (pointwise relations, like
    # Diag), outside Elem (unbounded depth) and outside SizeElem (sizes
    # are preserved but equality is not size-determined).  Finite models
    # do not exist either: diseq must hold on unboundedly many distinct
    # pairs (the Sec. 4.4 effect).
    from repro.benchgen.builders import mirror_system, revacc_system

    for g in range(9):
        suite.add(
            f"tree-mirror-g{g}", "involution",
            partial(mirror_system, g), "sat", (),
        )
    for g in range(8):
        suite.add(
            f"list-rev-g{g}", "involution",
            partial(revacc_system, g), "sat", (),
        )

    # -- 1 UNSAT problem -------------------------------------------------
    suite.add(
        "diseq-unsat", "diseq-unsat", diseq_unsat_system, "unsat",
    )
    assert len(suite) == 25, f"Diseq has {len(suite)} problems"
    return suite


def adtbench_suites() -> list[Suite]:
    """Both halves of the De Angelis-inspired benchmark (60 systems)."""
    return [positiveeq_suite(), diseq_suite()]
