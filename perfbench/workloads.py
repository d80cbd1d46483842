"""The benchmark's four fixed-work workloads.

Every budget is a model size or a conflict count, never a wall-clock
limit: a pass does the same work on every run and only its duration
varies.  ``--seed`` permutes the problem order (on ``table1-campaign``
that decides which problem warms each pooled engine; verdicts must not
depend on it, but the work does).  ``perfbench/README.md`` records why
each workload exists, its measured layer shares and the predictions
the per-layer metrics serve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Item:
    """One problem: a CHC-system factory plus its ground truth."""

    name: str
    build: Callable
    truth: str  # "sat" | "unsat": the generator's ground truth
    problem: object = None  # the benchgen Problem, for the campaign


@dataclass
class Workload:
    name: str
    seed: int
    items: list[Item]
    # RInGenConfig overrides (budgets only); unused by the campaign
    config: dict = field(default_factory=dict)
    # run through repro.harness.runner.run_campaign(share_engines=True)
    campaign: bool = False
    # seconds of a run's budget one pass is charged: a run makes
    # max(2, round(seconds / pass_weight_s)) passes, so every run of a
    # workload does equal work.  Typical pass durations as measured on a
    # shared 2-core x86 box: stlc 5.5 s, campaign 4.5 s, cdcl 5.5 s,
    # wide 8.5 s.  The campaign is charged less than it takes because
    # its work depends on the order and a steady median needs more
    # orders; wide-clauses so that its median has a third pass
    pass_weight_s: float = 5.5

    def ordered(self, k: int = 0) -> list[Item]:
        """The problems in the ``k``-th order drawn from the seed."""
        items = list(self.items)
        random.Random(f"{self.seed}/{k}").shuffle(items)
        return items


#: per-problem timeout of the campaign workload: far above its slowest
#: problem (~1 s), so it never binds and verdicts stay budget-free
CAMPAIGN_TIMEOUT_S = 120.0

CDCL_SWEEP = ("nat-add-mono", "nat-add-grow", "nat-ord-strict", "list-len-ord")
WIDE_CLAUSES = (
    "tip-mirror-g6", "tip-rev-g6", "tip-add-fun-g6", "tip-dbl-fun-g6"
)

#: the 17 TIP ``broken`` problems the cex search refutes within its
#: default height 4 (the other 25 need deeper derivations)
TIP_REFUTED = frozenset(
    [f"tip-broken-mod2-d1-v{i}" for i in range(6)]
    + [f"tip-broken-mod3-d1-v{i}" for i in range(8)]
    + [f"tip-broken-list-{k}" for k in (1, 2, 3)]
)
TIP_SOLVED_FAMILIES = frozenset({"structural", "parity", "offset"})

NAMES = ("stlc-refute", "table1-campaign", "cdcl-sweep", "wide-clauses")


def _table1_items() -> list[Item]:
    """Every Table-1 problem RInGen decides at the seed: 31 PositiveEq
    SAT, 4 ``diseq-guard`` SAT, ``diseq-unsat``, 44 TIP SAT and 17 TIP
    UNSAT — 97 in all, each expected to get its definite answer."""
    from repro.benchgen import diseq_suite, positiveeq_suite, tip_suite

    chosen = [p for p in positiveeq_suite() if p.name not in CDCL_SWEEP]
    chosen += [
        p
        for p in diseq_suite()
        if p.family in ("diseq-guard", "diseq-unsat")
    ]
    chosen += [
        p
        for p in tip_suite()
        if p.family in TIP_SOLVED_FAMILIES or p.name in TIP_REFUTED
    ]
    return [Item(p.name, p.build, p.expected_status, p) for p in chosen]


def _suite_items(suite_factory, names) -> list[Item]:
    by_name = {p.name: p for p in suite_factory()}
    return [
        Item(n, by_name[n].build, by_name[n].expected_status) for n in names
    ]


def build(name: str, seed: int) -> Workload:
    """The workload ``name``, its problem orders drawn from ``seed``."""
    if name == "stlc-refute":
        from repro.stlc import stlc_problems

        # "divergent" problems are uninhabited types: the CHC system is
        # satisfiable, but no small regular invariant exists
        items = [
            Item(p.name, p.system,
                 "sat" if p.expected == "divergent" else p.expected)
            for p in stlc_problems()
            if p.category == "classical-only"
        ]
        workload = Workload(
            name, seed, items, {"max_model_size": 7}
        )
    elif name == "table1-campaign":
        workload = Workload(
            name, seed, _table1_items(), campaign=True, pass_weight_s=2.6
        )
    elif name == "cdcl-sweep":
        from repro.benchgen import positiveeq_suite

        workload = Workload(
            name,
            seed,
            _suite_items(positiveeq_suite, CDCL_SWEEP),
            {"max_model_size": 7, "max_conflicts_per_size": 2000},
        )
    elif name == "wide-clauses":
        from repro.benchgen import tip_suite

        workload = Workload(
            name,
            seed,
            _suite_items(tip_suite, WIDE_CLAUSES),
            {"max_model_size": 2},
            pass_weight_s=6.0,
        )
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return workload
