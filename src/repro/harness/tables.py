"""Rendering of Table 1 and the textual forms of Figures 4-6.

The paper's artifacts, regenerated from a :class:`Campaign`:

* :func:`table1` — the per-suite SAT/UNSAT/unique counts, and
  :func:`table1_header` the representation-class header row (read from
  :data:`repro.solvers.SOLVERS`),
* :func:`figure4_data` / :func:`figure5_data` — the timing scatter pairs
  (all results / SAT-only), with timeouts pinned to the boundary,
* :func:`figure6_data` — the histogram of finite-model sizes,
* ASCII renderers for each, used by the benchmark harness and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.result import Status
from repro.harness.runner import Campaign, SOLVER_ORDER
from repro.solvers import SOLVERS


@dataclass
class Table1Row:
    """One row of Table 1."""

    suite: str
    total: int
    answer: str
    counts: dict[str, int]


def table1(
    campaign: Campaign,
    suite_sizes: dict[str, int],
    *,
    solvers: Sequence[str] = SOLVER_ORDER,
) -> list[Table1Row]:
    """Compute the rows of Table 1 from campaign records."""
    rows: list[Table1Row] = []
    for suite, total in suite_sizes.items():
        for status, label in ((Status.SAT, "SAT"), (Status.UNSAT, "UNSAT")):
            counts = {
                s: campaign.count(suite, s, status) for s in solvers
            }
            rows.append(Table1Row(suite, total, label, counts))
            if suite == "TIP":
                unique = {
                    s: campaign.unique_count(suite, s, status, solvers)
                    for s in solvers
                }
                rows.append(
                    Table1Row(suite, total, f"Unique {label}", unique)
                )
    # totals
    for status, label in ((Status.SAT, "SAT"), (Status.UNSAT, "UNSAT")):
        counts = {
            s: sum(
                campaign.count(suite, s, status) for suite in suite_sizes
            )
            for s in solvers
        }
        rows.append(
            Table1Row("Total", sum(suite_sizes.values()), label, counts)
        )
    return rows


def table1_header(solvers: Sequence[str]) -> list[str]:
    """Table 1's header row: each solver with its representation
    class."""
    return ["Problem Set", "#", "Answer"] + [
        f"{s} ({SOLVERS[s].representation if s in SOLVERS else '-'})"
        for s in solvers
    ]


def format_table1(
    rows: list[Table1Row], *, solvers: Sequence[str] = SOLVER_ORDER
) -> str:
    """ASCII rendering in the paper's layout."""
    headers = table1_header(solvers)
    widths = [max(14, len(h)) for h in headers]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        cells = [row.suite, str(row.total), row.answer] + [
            str(row.counts.get(s, 0)) for s in solvers
        ]
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(cells, widths))
        )
    return "\n".join(lines)


def figure4_data(campaign: Campaign) -> dict[str, list[tuple[float, float, str]]]:
    """Figure 4: RInGen-vs-competitor timing pairs (all results)."""
    return {
        solver: campaign.scatter_points(solver)
        for solver in SOLVER_ORDER
        if solver != "ringen"
    }


def figure5_data(campaign: Campaign) -> dict[str, list[tuple[float, float, str]]]:
    """Figure 5: the SAT-only subset of the scatter."""
    return {
        solver: campaign.scatter_points(solver, sat_only=True)
        for solver in SOLVER_ORDER
        if solver != "ringen"
    }


def format_scatter(
    data: dict[str, list[tuple[float, float, str]]], *, title: str
) -> str:
    """Summarize scatter data: wins/losses/ties per competitor."""
    lines = [title]
    for solver, points in data.items():
        wins = sum(1 for x, y, _ in points if x < y)
        losses = sum(1 for x, y, _ in points if x > y)
        ties = len(points) - wins - losses
        lines.append(
            f"  vs {solver}: ringen faster on {wins}, slower on "
            f"{losses}, tied on {ties} (of {len(points)})"
        )
    return "\n".join(lines)


def figure6_data(campaign: Campaign) -> dict[int, int]:
    """Figure 6: model-size histogram of RInGen's SAT answers."""
    return campaign.model_size_histogram()


def format_histogram(histogram: dict[int, int], *, title: str) -> str:
    """ASCII bar chart of the model-size distribution."""
    lines = [title]
    if not histogram:
        return title + "\n  (no models)"
    peak = max(histogram.values())
    for size in sorted(histogram):
        count = histogram[size]
        bar = "#" * max(1, round(count * 40 / peak))
        lines.append(f"  size {size:>3}: {bar} {count}")
    return "\n".join(lines)
