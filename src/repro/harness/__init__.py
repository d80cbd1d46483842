"""Experiment harness: multi-solver runs and Table 1 / Fig 4-6 rendering."""

from repro.harness.runner import (
    Campaign,
    RunRecord,
    SOLVER_ORDER,
    batch_order,
    make_solver,
    run_campaign,
    run_problem,
)
from repro.harness.tables import (
    Table1Row,
    figure4_data,
    figure5_data,
    figure6_data,
    format_histogram,
    format_scatter,
    format_table1,
    table1,
)

__all__ = [
    "Campaign",
    "batch_order",
    "RunRecord",
    "SOLVER_ORDER",
    "Table1Row",
    "figure4_data",
    "figure5_data",
    "figure6_data",
    "format_histogram",
    "format_scatter",
    "format_table1",
    "make_solver",
    "run_campaign",
    "run_problem",
    "table1",
]
