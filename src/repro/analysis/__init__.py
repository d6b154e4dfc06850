"""Statistics helpers and anomaly analysis for benchmark reports."""

from repro.analysis.anomalies import AnomalyReport
from repro.analysis.availability import AvailabilityReport, availability_report
from repro.analysis.elasticity import ElasticityReport, elasticity_report
from repro.analysis.matrix_report import (
    availability_pct,
    format_table,
    matrix_report_json,
    merge_cells,
    render_matrix_report,
)
from repro.analysis.stats import describe, mean, percentile

__all__ = [
    "AnomalyReport",
    "AvailabilityReport",
    "ElasticityReport",
    "availability_pct",
    "availability_report",
    "describe",
    "elasticity_report",
    "format_table",
    "matrix_report_json",
    "mean",
    "merge_cells",
    "percentile",
    "render_matrix_report",
]
