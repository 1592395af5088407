"""4x4 Sudoku inputs and answer checks owned by the benchmark.

Nothing here calls qwb: the grids, the puzzles drawn from them and the
checks of qwb's answers are computed independently, so a defect in qwb's
own sudoku code cannot make a wrong answer pass.

A grid is a tuple of 16 values 1..4 in row-major order; a puzzle is the same
with 0 for an empty cell.
"""

from __future__ import annotations

SIZE = 4
BOX = 2

# FIG1 board of the paper, as text for qwb and as a puzzle for the checks.
FIG1_TEXT = "1.3.\n3.1.\n.1.3\n4...\n"


def units() -> list[tuple[int, ...]]:
    """Cell indices of every row, column and box."""
    rows = [tuple(r * SIZE + c for c in range(SIZE)) for r in range(SIZE)]
    cols = [tuple(r * SIZE + c for r in range(SIZE)) for c in range(SIZE)]
    boxes = [tuple((br + i) * SIZE + bc + j for i in range(BOX) for j in range(BOX))
             for br in range(0, SIZE, BOX) for bc in range(0, SIZE, BOX)]
    return rows + cols + boxes


UNITS = units()
PEERS = [sorted({p for u in UNITS if cell in u for p in u} - {cell})
         for cell in range(SIZE * SIZE)]


def valid_grids() -> list[tuple[int, ...]]:
    """Every complete valid 4x4 grid (there are 288), by backtracking, in
    lexicographic order."""
    out = []
    cells = [0] * (SIZE * SIZE)

    def fill(i):
        if i == SIZE * SIZE:
            out.append(tuple(cells))
            return
        for v in range(1, SIZE + 1):
            if all(cells[p] != v for p in PEERS[i] if p < i):
                cells[i] = v
                fill(i + 1)
        cells[i] = 0

    fill(0)
    return out


def parse(text: str) -> tuple[int, ...]:
    """Puzzle or grid from board text ('.' for an empty cell)."""
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(rows) != SIZE or any(len(r) != SIZE for r in rows):
        raise ValueError(f"expected {SIZE} rows of {SIZE} symbols, got {rows!r}")
    return tuple(0 if ch == "." else int(ch) for r in rows for ch in r)


def to_text(puzzle) -> str:
    return "".join("".join("." if v == 0 else str(v)
                           for v in puzzle[r * SIZE:(r + 1) * SIZE]) + "\n"
                   for r in range(SIZE))


def relabel(puzzle, digits) -> tuple[int, ...]:
    """Replace digit d by digits[d - 1]; empty cells stay empty."""
    return tuple(digits[v - 1] if v else 0 for v in puzzle)


def restrict(puzzle, solution, keep: int) -> tuple[int, ...]:
    """Fill all but the first ``keep`` empty cells (row-major) from a
    solution."""
    out = list(puzzle)
    empties = [i for i, v in enumerate(puzzle) if v == 0]
    for i in empties[keep:]:
        out[i] = solution[i]
    return tuple(out)


def fig1(grids, keep: int) -> tuple[int, ...]:
    """FIG1 restricted to its first ``keep`` blanks, filled from its
    lexicographically first solution."""
    board = parse(FIG1_TEXT)
    return restrict(board, solutions(board, grids)[0], keep)


def is_solution(puzzle, grid) -> bool:
    """``grid`` keeps the givens of ``puzzle`` and every row, column and box
    is a permutation of 1..4."""
    if len(grid) != SIZE * SIZE:
        return False
    if any(p and p != g for p, g in zip(puzzle, grid)):
        return False
    return all(sorted(grid[i] for i in u) == list(range(1, SIZE + 1))
               for u in UNITS)


def solutions(puzzle, grids) -> list[tuple[int, ...]]:
    """Every valid grid that keeps the givens, by brute force over all of
    them, in lexicographic order."""
    return [g for g in grids if all(p in (0, v) for p, v in zip(puzzle, g))]
