"""Markdown experiment report generation.

Combines a campaign's Table 1 counts, scatter summaries and the model-size
histogram into a single markdown document — the artifact a downstream
user regenerates to compare their run against the paper's Table 1 and
figures.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.result import Status
from repro.harness.runner import Campaign, SOLVER_ORDER
from repro.harness.tables import (
    figure4_data,
    figure5_data,
    figure6_data,
    table1,
    table1_header,
)


def markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def campaign_report(
    campaign: Campaign,
    suite_sizes: dict[str, int],
    *,
    title: str = "Experiment report",
    solvers: Sequence[str] = SOLVER_ORDER,
) -> str:
    """Render the full report for one campaign."""
    sections: list[str] = [f"# {title}", ""]
    sections.append(
        f"Per-run timeout: {campaign.timeout:.1f}s — "
        f"{len(campaign.records)} runs total."
    )
    sections.append("")
    if campaign.interrupted:
        sections.append(
            "**PARTIAL REPORT** — the campaign was interrupted "
            "(SIGINT/SIGTERM); the tables below cover only the "
            "journaled prefix.  Re-run with `--resume` on the same "
            "journal to finish the remaining problems."
        )
        sections.append("")

    # Table 1
    sections.append("## Table 1 — correct answers per solver")
    sections.append("")
    headers = table1_header(solvers)
    rows = []
    for row in table1(campaign, suite_sizes, solvers=solvers):
        rows.append(
            [row.suite, row.total, row.answer]
            + [row.counts.get(s, 0) for s in solvers]
        )
    sections.append(markdown_table(headers, rows))
    sections.append("")

    # timing comparison
    sections.append("## Figures 4/5 — timing vs RInGen")
    sections.append("")
    fig4 = figure4_data(campaign)
    fig5 = figure5_data(campaign)
    headers = ["competitor", "faster (all)", "slower (all)",
               "faster (SAT)", "slower (SAT)"]
    rows = []
    for solver in solvers:
        if solver == "ringen":
            continue
        all_points = fig4.get(solver, [])
        sat_points = fig5.get(solver, [])
        rows.append(
            [
                solver,
                sum(1 for x, y, _ in all_points if x < y),
                sum(1 for x, y, _ in all_points if x > y),
                sum(1 for x, y, _ in sat_points if x < y),
                sum(1 for x, y, _ in sat_points if x > y),
            ]
        )
    sections.append(markdown_table(headers, rows))
    sections.append("")

    # model sizes
    sections.append("## Figure 6 — finite model sizes")
    sections.append("")
    histogram = figure6_data(campaign)
    if histogram:
        rows = [
            [size, count, "#" * count] for size, count in sorted(
                histogram.items()
            )
        ]
        sections.append(markdown_table(["size", "count", ""], rows))
    else:
        sections.append("_no models found_")
    sections.append("")

    # model finder engine statistics (incremental CDCL reuse)
    finder_rows = [
        (record, record.details["finder"])
        for record in campaign.records
        if record.solver == "ringen" and "finder" in record.details
    ]
    if finder_rows:
        sections.append("## Model finder — incremental engine")
        sections.append("")
        encoded = sum(f["clauses_encoded"] for _, f in finder_rows)
        reused = sum(f["clauses_reused"] for _, f in finder_rows)
        learned_total = sum(f["learned_total"] for _, f in finder_rows)
        learned_kept = sum(f["learned_kept"] for _, f in finder_rows)
        learned_glue = sum(
            f.get("learned_glue", 0) for _, f in finder_rows
        )
        attempts = sum(f["attempts"] for _, f in finder_rows)
        refuted = sum(
            f.get("vectors_refuted", 0) for _, f in finder_rows
        )
        exhausted = sum(
            f.get("vectors_exhausted", 0) for _, f in finder_rows
        )
        skipped = sum(
            f.get("vectors_skipped", 0) for _, f in finder_rows
        )
        cores = sum(
            f.get("cores_extracted", 0) for _, f in finder_rows
        )
        denominator = encoded + reused
        reuse_pct = (100.0 * reused / denominator) if denominator else 0.0
        sections.append(
            markdown_table(
                ["metric", "value"],
                [
                    ["runs with finder stats", len(finder_rows)],
                    ["size vectors attempted", attempts],
                    ["vectors refuted (proven unsat)", refuted],
                    ["vectors exhausted (budget, unknown)", exhausted],
                    ["vectors skipped by unsat cores", skipped],
                    ["unsat cores extracted", cores],
                    ["clauses encoded", encoded],
                    ["clauses reused across vectors", reused],
                    ["reuse ratio", f"{reuse_pct:.1f}%"],
                    ["learned clauses derived", learned_total],
                    ["glue clauses (LBD <= 2) derived", learned_glue],
                    ["learned clauses kept at end", learned_kept],
                ],
            )
        )
        sections.append("")

    # honest unknown verdicts: a completed sweep proves "no model <= N"
    # while a budget-cut sweep proves nothing — report which was which.
    # Execution-layer errors (crashes, hard kills, OOMs) are NOT
    # unknowns; they get their own section below.
    unknown_rows = [
        record
        for record in campaign.records
        if record.solver == "ringen"
        and record.status is Status.UNKNOWN
        and not record.errored
    ]
    if unknown_rows:
        sections.append("## Model finder — unknown verdicts")
        sections.append("")
        rows = []
        for record in unknown_rows:
            # structured key set by ringen; records without it (old
            # artifacts) fall into the "other" bucket
            kind = record.details.get("verdict_kind")
            if record.details.get("complete"):
                verdict = "no model within size bound (sweep complete)"
            elif kind == "herbrand":
                # raising budgets is not the remedy here
                verdict = "unknown (model verification failed)"
            elif kind == "budget" and record.details.get("timeout_hit"):
                verdict = "unknown (wall-clock timeout)"
            elif kind == "budget":
                verdict = "unknown (conflict budget exhausted)"
            else:
                verdict = "unknown (other)"
            rows.append(
                [
                    f"{record.problem.suite}/{record.problem.name}",
                    verdict,
                    record.reason,
                ]
            )
        sections.append(
            markdown_table(["problem", "verdict", "detail"], rows)
        )
        sections.append("")

    # execution-layer failures: every crashed / hard-killed / OOM-killed
    # task, with exception type and retry count — these used to be
    # silently folded into the unknowns
    error_rows = [r for r in campaign.records if r.errored]
    if error_rows:
        sections.append("## Errors — crashed / killed / OOM tasks")
        sections.append("")
        rows = []
        for record in error_rows:
            detail = record.reason
            exc_type = record.details.get("exception_type")
            if exc_type and exc_type not in detail:
                detail = f"{exc_type}: {detail}"
            rows.append(
                [
                    f"{record.problem.suite}/{record.problem.name}",
                    record.solver,
                    record.error_kind,
                    record.attempts,
                    detail,
                ]
            )
        sections.append(
            markdown_table(
                ["problem", "solver", "error", "attempts", "detail"], rows
            )
        )
        sections.append("")

    # execution layer: mode, worker / retry / resume accounting
    if campaign.exec_stats is not None:
        stats = campaign.exec_stats
        sections.append("## Execution")
        sections.append("")
        error_counts = stats.get("error_counts") or {}
        rows = [
            ["mode", "isolated" if stats.get("isolate") else "in-process"],
            ["tasks total", stats.get("tasks_total", 0)],
            ["tasks executed", stats.get("tasks_executed", 0)],
            ["tasks resumed from journal", stats.get("tasks_resumed", 0)],
            ["transient retries", stats.get("retries", 0)],
            ["workers spawned", stats.get("workers_spawned", 0)],
            ["interrupted", "yes" if stats.get("interrupted") else "no"],
        ]
        for kind in sorted(error_counts):
            rows.append([f"errors: {kind}", error_counts[kind]])
        sections.append(markdown_table(["metric", "value"], rows))
        sections.append("")

    # campaign batch mode: cross-problem engine sharing — rendered
    # uniformly from the consolidated PoolStats dict, so new counters
    # (e.g. warm-cache snapshot accounting) appear without edits here
    if campaign.pool_stats is not None:
        sections.append("## Campaign engine pool — cross-problem reuse")
        sections.append("")
        pool = campaign.pool_stats
        pooled_runs = sum(
            1 for _, f in finder_rows if f.get("engine_shared")
        )
        labels = {
            "problems": "problems through the pool",
            "engines_created": "engines created",
            "engine_hits": "warm-engine hits",
            "cross_problem_clauses": "cross-problem clauses inherited",
            "engine_recycles": "engines recycled",
            "engines_evicted": "engines evicted",
            "released": "problems released",
            "engines_live": "engines live at the end",
            "snapshot_saves": "snapshots persisted to the warm cache",
            "snapshot_hits": "warm starts from a snapshot",
            "snapshot_misses": "warm-cache misses",
            "snapshot_rejected": "snapshots rejected (fell back cold)",
        }
        rows = [["runs on a shared engine", pooled_runs]]
        for key, value in pool.items():
            rows.append([labels.get(key, key.replace("_", " ")), value])
        sections.append(markdown_table(["metric", "value"], rows))
        sections.append("")

    # observability: where the wall clock went, from the merged metrics
    # snapshot (present only when the campaign ran with --metrics)
    if campaign.obs is not None:
        counters = campaign.obs.get("counters") or {}
        phase_names = sorted(
            {
                name[len("phase."):-len("_s")]
                for name in counters
                if name.startswith("phase.") and name.endswith("_s")
            }
        )
        if phase_names:
            sections.append("## Timing breakdown — solver phases")
            sections.append("")
            total = sum(
                counters.get(f"phase.{p}_s", 0.0) for p in phase_names
            )
            rows = []
            for phase in phase_names:
                secs = counters.get(f"phase.{phase}_s", 0.0)
                calls = int(counters.get(f"phase.{phase}_n", 0))
                share = (100.0 * secs / total) if total else 0.0
                rows.append(
                    [phase, f"{secs:.3f}", calls, f"{share:.1f}%"]
                )
            sections.append(
                markdown_table(
                    ["phase", "time (s)", "calls", "share"], rows
                )
            )
            sections.append("")
        hist = (campaign.obs.get("histograms") or {}).get("task.elapsed")
        if hist and hist.get("count"):
            sections.append("## Timing breakdown — task wall clock")
            sections.append("")
            mean = hist["total"] / hist["count"]
            sections.append(
                markdown_table(
                    ["metric", "value"],
                    [
                        ["tasks", hist["count"]],
                        ["total (s)", f"{hist['total']:.3f}"],
                        ["mean (s)", f"{mean:.3f}"],
                        ["min (s)", f"{hist['min']:.3f}"],
                        ["max (s)", f"{hist['max']:.3f}"],
                    ],
                )
            )
            sections.append("")

    # per-problem appendix: everything any solver answered
    sections.append("## Appendix — solved problems")
    sections.append("")
    headers = ["problem", "solver", "answer", "time (s)"]
    rows = []
    for record in campaign.records:
        if record.status is not Status.UNKNOWN and record.correct:
            rows.append(
                [
                    f"{record.problem.suite}/{record.problem.name}",
                    record.solver,
                    record.status.value,
                    f"{record.elapsed:.3f}",
                ]
            )
    sections.append(markdown_table(headers, rows))
    sections.append("")
    return "\n".join(sections)
