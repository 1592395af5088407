"""Gate-level quantum walk backtracking with a Sudoku constraint-oracle front end."""

from .circuit import Circuit, Gate, GateKind, UsageError, invert
from .sim import (MeasurementCounts, ResourceLimitError, SparseState, apply,
                  dense_unitary, sample)
from .transpile import ResourceMetrics, metrics, transpile

__all__ = [
    "Circuit", "Gate", "GateKind", "UsageError", "invert",
    "MeasurementCounts", "ResourceLimitError", "SparseState", "apply",
    "dense_unitary", "sample", "ResourceMetrics", "metrics", "transpile",
]
