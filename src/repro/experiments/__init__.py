"""Experiment harness reproducing the paper's evaluation (Section 7 + Appendix D)."""

from repro.experiments.harness import (
    DecompositionEvaluation,
    QueryExperiment,
)
from repro.experiments.report import format_table

__all__ = [
    "QueryExperiment",
    "DecompositionEvaluation",
    "format_table",
]
