"""Experiments E4/E5: Figures 4 and 5 — engine timing scatters.

Figure 4 plots RInGen's time against each competitor's on every problem
(timeouts pinned to the boundary); Figure 5 restricts to problems where
someone found an invariant.  The paper's reading: "not only did RInGen
infer more invariants, it was also generally faster" — on the SAT subset
the points mass below the diagonal.

We regenerate the data from the De Angelis campaign and check that
diagonal dominance; the raw points go to benchmarks/output/.
"""

from repro.harness import (
    figure4_data,
    figure5_data,
    format_scatter,
)

from conftest import write_artifact


def _dump(points_by_solver, name):
    lines = []
    for solver, points in points_by_solver.items():
        for x, y, problem in points:
            lines.append(f"{solver}\t{problem}\t{x:.4f}\t{y:.4f}")
    write_artifact(name, "\n".join(lines) + "\n")


def test_figure4_all_results(benchmark, adtbench_campaign):
    campaign, _ = adtbench_campaign
    data = benchmark.pedantic(
        lambda: figure4_data(campaign), rounds=1, iterations=1
    )
    _dump(data, "figure4_points.tsv")
    summary = format_scatter(
        data, title="Figure 4 (all results, x=ringen y=competitor):"
    )
    write_artifact("figure4_summary.txt", summary)
    print("\n" + summary)
    # every competitor pairing covers the full problem set
    for solver, points in data.items():
        assert len(points) == 60, solver


def test_figure5_sat_only_dominance(benchmark, adtbench_campaign):
    campaign, _ = adtbench_campaign
    data = benchmark.pedantic(
        lambda: figure5_data(campaign), rounds=1, iterations=1
    )
    _dump(data, "figure5_points.tsv")
    summary = format_scatter(
        data, title="Figure 5 (SAT results only):"
    )
    write_artifact("figure5_summary.txt", summary)
    print("\n" + summary)
    # the paper's claim on invariant-finding speed: against each
    # competitor, RInGen is at least as often faster than slower on the
    # problems where an invariant was found at all
    for solver, points in data.items():
        if not points:
            continue
        wins = sum(1 for x, y, _ in points if x < y)
        losses = sum(1 for x, y, _ in points if x > y)
        assert wins >= losses, (solver, wins, losses)


def test_bench_scatter_extraction(benchmark, adtbench_campaign):
    campaign, _ = adtbench_campaign
    benchmark(lambda: figure4_data(campaign))
