"""Experiment harness regenerating every table and figure of the paper."""

from .figures import (
    FIG5_N,
    FIG6_N,
    PAPER_PEER_COUNTS,
    FigureSeries,
    check_paper_claims,
    figure_series,
    scaled_size,
)
from .harness import (
    DEFAULT_TOL,
    RunResult,
    full_mode,
    run_job,
    scaled_spec,
)
from .reporting import figure_report, format_table
from .table1 import Table1Audit, audit_table1

__all__ = [
    "FIG5_N", "FIG6_N", "PAPER_PEER_COUNTS",
    "FigureSeries", "check_paper_claims", "figure_series", "scaled_size",
    "DEFAULT_TOL", "RunResult", "full_mode", "run_job",
    "scaled_spec",
    "figure_report", "format_table",
    "Table1Audit", "audit_table1",
]
