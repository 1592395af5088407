"""Sudoku problem model, check plan, walk oracles, and the classical
backtracking reference solver.

Cell values are 0-based internally; the text format uses 1-based symbols with
'.' (or '0') for empty cells.  The tree for an instance with k empty cells
has depth k + 1: the extra level keeps rejected siblings of a solution from
being accepted at height 0, so accept and reject never fire together.
Assignment a (row-major over empty cells) is path entry a: the reject oracle
reads it from the register ``tree.level(a)`` names and checks it under that
level's height qubit, so comparisons involving not-yet-assigned cells stay
inert, and each diffuser's oracle holds only the levels of its own parents.
``check_plan`` lists those comparisons straight from the board:
classical-quantum (cq) batches of forbidden values and quantum-quantum (qq)
pairs of assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, UsageError
from .synthesis import and_ladder, cq_in_set, qq_equal
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
        tokens = line.split() if any(ch.isspace() for ch in line) else list(line)
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
# check plan


@dataclass(frozen=True)
class CheckPlan:
    cq_batches: dict[int, frozenset[int]]   # assignment index -> forbidden values
    qq_pairs: frozenset[tuple[int, int]]    # assignment-index pairs, a < b


def branch_bits_for(board: SudokuBoard) -> int:
    return max(1, math.ceil(math.log2(board.size)))


def check_plan(board: SudokuBoard) -> CheckPlan:
    """The comparisons the reject oracle makes, with assignment a the a-th
    empty cell in row-major order: per assignment, the values its peers'
    givens forbid plus every branch code beyond the value range (a cq batch,
    kept when non-empty), and every pair of assignments that are peers (a qq
    pair)."""
    empties = board.empty_cells()
    index = {cell: a for a, cell in enumerate(empties)}
    spare_codes = range(board.size, 2 ** branch_bits_for(board))
    batches, qq = {}, set()
    for a, cell in enumerate(empties):
        batch = set(spare_codes)
        for p in peers(board.size, board.block_size, cell):
            if board.value(p) is not None:
                batch.add(board.value(p))
            elif index[p] < a:
                qq.add((index[p], a))
        if batch:
            batches[a] = frozenset(batch)
    return CheckPlan(batches, frozenset(qq))


# ---------------------------------------------------------------------------
# oracle builders


def accept_builder(tree: BacktrackingTree, circ: Circuit) -> int:
    """Height-zero acceptance: the result is the wire ``h[0]`` itself, with
    no gate and no ancilla, since the diffuser only reads it."""
    return tree.h[0]


def make_reject_builder(plan: CheckPlan):
    """Reject oracle: one phase-tolerant comparison per cq batch and qq pair
    whose most recent assignment ``tree.fires`` (on one diffuser's lifted
    tree, only the checks of that diffuser's parents), each controlled on
    that assignment's height qubit, ORed onto a fresh result by an
    all-zero-state MCX and a final X.  From 4 comparisons on, the MCX reads
    the last layer of an ``and_ladder`` that stays computed, like the rest
    of the builder, until the caller's ``within`` undoes it.  None, with no
    wire allocated, when no check fires."""

    def builder(tree: BacktrackingTree, circ: Circuit) -> int | None:
        comparisons = []
        for a in sorted(plan.cq_batches):
            if not tree.fires(a):
                continue
            height, reg = tree.level(a)
            q = circ.allocate()
            cq_in_set(circ, reg, plan.cq_batches[a], q, ctrl=height,
                      phase_tolerant=True)
            comparisons.append(q)
        for (a, b) in sorted(plan.qq_pairs):
            # b > a is the newer assignment; its height qubit gates the check.
            if not tree.fires(b):
                continue
            (_, reg_a), (height_b, reg_b) = tree.level(a), tree.level(b)
            q = circ.allocate()
            qq_equal(circ, reg_a, reg_b, q, ctrl=height_b, phase_tolerant=True)
            comparisons.append(q)
        if not comparisons:
            return None
        res = circ.allocate()
        if len(comparisons) >= 4:
            circ.mcx(and_ladder(circ, comparisons, (0,) * len(comparisons)), res)
        else:
            circ.mcx(comparisons, res, (0,) * len(comparisons))
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
    plan = check_plan(board)
    tree = BacktrackingTree(len(empties) + 1, branch_bits_for(board), accept_builder,
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


def restrict_board(board: SudokuBoard, keep: int) -> SudokuBoard:
    """Fill all but the first ``keep`` empty cells from the first solution."""
    sols = classical_solve(board, limit=1)
    if not sols:
        raise UsageError("board has no solution to restrict against")
    out = board
    for cell in board.empty_cells()[keep:]:
        out = out.with_value(cell, sols[0].value(cell))
    return out


FIG1_BOARD = """\
1.3.
3.1.
.1.3
4...
"""
