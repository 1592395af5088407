"""Gate-level quantum walk backtracking with a Sudoku constraint-oracle front end."""

from .circuit import Circuit, Gate, GateKind, UsageError, invert
from .sim import ResourceLimitError, SparseState, apply, dense_unitary, sample
from .transpile import ResourceMetrics, metrics, transpile

__all__ = [
    "Circuit", "Gate", "GateKind", "UsageError", "invert",
    "ResourceLimitError", "SparseState", "apply", "dense_unitary", "sample",
    "ResourceMetrics", "metrics", "transpile",
]
