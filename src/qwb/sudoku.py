"""Sudoku problem model, graph-coloring reduction, walk oracles, and the
classical backtracking reference solver.

Cell values are 0-based internally; the text format uses 1-based symbols with
'.' (or '0') for empty cells.  The tree for an instance with k empty cells
has depth k + 1: the extra level keeps rejected siblings of a solution from
being accepted at height 0, so accept and reject never fire together.
Assignment a (row-major over empty cells) lives in branch register
``max_depth - 1 - a`` and is checked under control of the matching height
qubit, so comparisons involving not-yet-assigned cells stay inert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, UsageError
from .synthesis import cq_in_set, mcx, qq_equal
from .walk import BacktrackingTree

Cell = tuple[int, int]


class ParseError(ValueError):
    """Malformed or inconsistent board text."""


@dataclass(frozen=True)
class SudokuBoard:
    block_size: int
    cells: tuple[tuple[int | None, ...], ...]

    @property
    def size(self) -> int:
        return self.block_size ** 2

    def value(self, cell: Cell) -> int | None:
        return self.cells[cell[0]][cell[1]]

    def empty_cells(self) -> list[Cell]:
        return [(r, c) for r in range(self.size) for c in range(self.size)
                if self.cells[r][c] is None]

    def with_value(self, cell: Cell, value: int) -> "SudokuBoard":
        rows = [list(row) for row in self.cells]
        rows[cell[0]][cell[1]] = value
        return SudokuBoard(self.block_size, tuple(tuple(r) for r in rows))

    def is_complete(self) -> bool:
        return not self.empty_cells()


def peers(size: int, block: int, cell: Cell) -> set[Cell]:
    r, c = cell
    out = {(r, j) for j in range(size)} | {(i, c) for i in range(size)}
    br, bc = (r // block) * block, (c // block) * block
    out |= {(br + i, bc + j) for i in range(block) for j in range(block)}
    out.discard(cell)
    return out


def _block_size_for(n_rows: int) -> int:
    b = math.isqrt(n_rows)
    if b * b != n_rows:
        raise ParseError(f"board must have a square-number side, got {n_rows} rows")
    return b


def parse_board(text: str) -> SudokuBoard:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty board text")
    block = _block_size_for(len(lines))
    size = len(lines)
    rows = []
    for r, line in enumerate(lines):
        tokens = line.split() if " " in line else list(line)
        if len(tokens) != size:
            raise ParseError(f"row {r}: expected {size} symbols, got {len(tokens)}")
        row = []
        for c, tok in enumerate(tokens):
            if tok in (".", "0"):
                row.append(None)
            else:
                try:
                    v = int(tok)
                except ValueError:
                    raise ParseError(f"row {r}, col {c}: bad symbol {tok!r}") from None
                if not 1 <= v <= size:
                    raise ParseError(f"row {r}, col {c}: value {v} out of range 1..{size}")
                row.append(v - 1)
        rows.append(tuple(row))
    board = SudokuBoard(block, tuple(rows))
    for r in range(size):
        for c in range(size):
            v = board.cells[r][c]
            if v is None:
                continue
            for (pr, pc) in peers(size, block, (r, c)):
                if board.cells[pr][pc] == v:
                    raise ParseError(
                        f"row {r}, col {c}: value {v + 1} repeats at ({pr}, {pc})")
    return board


def format_board(board: SudokuBoard) -> str:
    sep = " " if board.size > 9 else ""
    out = []
    for row in board.cells:
        out.append(sep.join("." if v is None else str(v + 1) for v in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# graph-coloring reduction


@dataclass(frozen=True)
class ComparisonGraph:
    nodes: dict[Cell, str]            # "given" | "assigned"
    given_values: dict[Cell, int]
    cq_edges: frozenset[tuple[Cell, Cell]]   # (assigned, given)
    qq_edges: frozenset[tuple[Cell, Cell]]   # unordered, stored sorted


def to_coloring_graph(board: SudokuBoard) -> ComparisonGraph:
    """Nodes for every cell; one edge per distinctness comparison that
    involves at least one empty (assigned) cell."""
    nodes = {}
    given_values = {}
    size, block = board.size, board.block_size
    for r in range(size):
        for c in range(size):
            v = board.cells[r][c]
            nodes[(r, c)] = "assigned" if v is None else "given"
            if v is not None:
                given_values[(r, c)] = v
    cq = set()
    qq = set()
    for cell, kind in nodes.items():
        if kind != "assigned":
            continue
        for p in peers(size, block, cell):
            if nodes[p] == "given":
                cq.add((cell, p))
            else:
                qq.add(tuple(sorted((cell, p))))
    return ComparisonGraph(nodes, given_values, frozenset(cq), frozenset(qq))


@dataclass(frozen=True)
class CheckPlan:
    assignment_order: tuple[Cell, ...]
    branch_bits: int
    cq_batches: dict[int, frozenset[int]]   # assignment index -> forbidden values
    qq_pairs: frozenset[tuple[int, int]]    # assignment-index pairs, a < b


def branch_bits_for(board: SudokuBoard) -> int:
    return max(1, math.ceil(math.log2(board.size)))


def build_check_plan(graph: ComparisonGraph, order=None, *,
                     branch_bits: int | None = None) -> CheckPlan:
    """Collapse cq edges into per-cell forbidden-value batches and qq edges
    into assignment-index pairs.  Branch codes beyond the value range (when
    the register can hold more than ``size`` values) are forbidden in every
    batch."""
    assigned = [cell for cell, kind in sorted(graph.nodes.items())
                if kind == "assigned"]
    if order is None:
        order = assigned
    order = [tuple(c) for c in order]
    if sorted(order) != sorted(assigned):
        raise UsageError("order must cover exactly the assigned nodes")
    index = {cell: a for a, cell in enumerate(order)}

    size = math.isqrt(len(graph.nodes))
    bits = branch_bits if branch_bits is not None else max(1, math.ceil(math.log2(size)))
    spare_codes = frozenset(range(size, 2 ** bits))

    batches: dict[int, set[int]] = {a: set(spare_codes) for a in range(len(order))}
    for (cell, given) in graph.cq_edges:
        batches[index[cell]].add(graph.given_values[given])
    qq = set()
    for (u, v) in graph.qq_edges:
        a, b = sorted((index[u], index[v]))
        qq.add((a, b))
    return CheckPlan(tuple(order), bits,
                     {a: frozenset(vals) for a, vals in batches.items() if vals},
                     frozenset(qq))


# ---------------------------------------------------------------------------
# oracle builders


def accept_builder(tree: BacktrackingTree, circ: Circuit) -> int:
    """Height-zero acceptance: copy h[0] into the result."""
    res = circ.allocate()
    circ.cx(tree.h[0], res)
    return res


def make_reject_builder(plan: CheckPlan):
    """Reject oracle: one phase-tolerant comparison per cq batch and qq pair,
    each controlled on the height qubit of its most recent assignment,
    aggregated by an all-zero-state MCX and a final X."""

    def builder(tree: BacktrackingTree, circ: Circuit) -> int:
        n = tree.max_depth
        comparisons = []
        for a in sorted(plan.cq_batches):
            i = n - 1 - a
            q = circ.allocate()
            cq_in_set(circ, tree.branch_reg(i), plan.cq_batches[a], q,
                      ctrl=tree.h[i], phase_tolerant=True)
            comparisons.append(q)
        for (a, b) in sorted(plan.qq_pairs):
            i, j = n - 1 - a, n - 1 - b   # i > j; h[j] is the newer assignment
            q = circ.allocate()
            qq_equal(circ, tree.branch_reg(i), tree.branch_reg(j), q,
                     ctrl=tree.h[j], phase_tolerant=True)
            comparisons.append(q)
        res = circ.allocate()
        if comparisons:
            method = "balauca_logdepth" if len(comparisons) >= 4 else "gray"
            mcx(circ, comparisons, res, (0,) * len(comparisons), method=method)
            circ.x(res)
        return res

    return builder


def tree_for_board(board: SudokuBoard, subspace_optimization: bool = False
                   ) -> tuple[BacktrackingTree, CheckPlan]:
    """Backtracking tree of depth k+1 for an instance with k empty cells.

    The reject oracle only examines branch entries at or above the active
    height qubit, so it satisfies the non-algorithmic-subspace condition and
    ``subspace_optimization`` is legal for Sudoku.
    """
    empties = board.empty_cells()
    if not empties:
        raise UsageError("board has no empty cells")
    bits = branch_bits_for(board)
    plan = build_check_plan(to_coloring_graph(board), empties, branch_bits=bits)
    tree = BacktrackingTree(len(empties) + 1, bits, accept_builder,
                            make_reject_builder(plan),
                            subspace_optimization=subspace_optimization)
    return tree, plan


def assignments_from_path(board: SudokuBoard, path) -> dict[Cell, int]:
    """Map a solution path (possibly including the dummy final branch) to
    cell assignments."""
    empties = board.empty_cells()
    labels = list(path)[:len(empties)]
    return {cell: label for cell, label in zip(empties, labels)}


def board_with_path(board: SudokuBoard, path) -> SudokuBoard:
    out = board
    for cell, v in assignments_from_path(board, path).items():
        out = out.with_value(cell, v)
    return out


# ---------------------------------------------------------------------------
# classical reference solver


def violates(board: SudokuBoard, cell: Cell, value: int) -> bool:
    return any(board.value(p) == value
               for p in peers(board.size, board.block_size, cell))


def classical_solve(board: SudokuBoard, limit: int | None = None) -> list[SudokuBoard]:
    """Depth-first backtracking over the empty cells in row-major order;
    returns every solution (up to ``limit``)."""
    solutions: list[SudokuBoard] = []

    def walk(b: SudokuBoard):
        if limit is not None and len(solutions) >= limit:
            return
        empties = b.empty_cells()
        if not empties:
            solutions.append(b)
            return
        cell = empties[0]
        for v in range(b.size):
            if not violates(b, cell, v):
                walk(b.with_value(cell, v))

    walk(board)
    return solutions


def restrict_board(board: SudokuBoard, keep: int,
                   solution: SudokuBoard | None = None) -> SudokuBoard:
    """Fill all but the first ``keep`` empty cells from a solution."""
    if solution is None:
        sols = classical_solve(board, limit=1)
        if not sols:
            raise UsageError("board has no solution to restrict against")
        solution = sols[0]
    out = board
    for cell in board.empty_cells()[keep:]:
        out = out.with_value(cell, solution.value(cell))
    return out


FIG1_BOARD = """\
1.3.
3.1.
.1.3
4...
"""
