"""Command-line surface: solve boards end to end, run detection, benchmark
circuit resources, and emit tree visualizations.

Every command prints a single JSON run report to stdout (the solved grid is
also printed as plain text).  Exit codes: 0 solution found / marked, 2 no
solution / not marked, 1 usage or parse error, 3 simulator capacity or a
refused allocation.
Reports are byte-identical for identical seeds and flags apart from the
"timings" object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from .circuit import UsageError
from .sim import KEY_BITS, ResourceLimitError, SparseState, apply
from .sudoku import (ParseError, assignments_from_path, board_with_path, format_board,
                     parse_board, restrict_board, tree_for_board)
from .transpile import metrics, transpile
from .walk import (DetectionResult, SearchStats, WalkConfig, decode_tree_state,
                   demo_tree, detect_marked, find_solution, to_dot)

PAPER_REFERENCE_K1 = {"qubit_count": 15, "u3_count": 1434, "cx_count": 1157,
                      "depth": 1396}


def _seed_from(args) -> int:
    """``--seed``, else ``QWB_SEED``, else 0; either must be a non-negative
    integer."""
    if args.seed is not None:
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.seed
    text = os.environ.get("QWB_SEED", "0")
    if not (text.isascii() and text.isdigit()):
        raise UsageError(f"QWB_SEED must be a non-negative integer, got {text!r}")
    return int(text)


def _report(command: str, config: dict, outcome: dict, timings: dict,
            circuit_metrics=None) -> dict:
    report = {
        "command": command,
        "config": config,
        "outcome": outcome,
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    if circuit_metrics is not None:
        report["metrics"] = circuit_metrics.as_dict()
    return report


def _read_board(path: str):
    """Parse the board file at ``path``; a file that cannot be read as UTF-8
    text is a usage error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read board {path!r}: {exc}") from None
    return parse_board(text)


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _check_max_support(args) -> None:
    if args.max_support < 1:
        raise UsageError("--max-support must be >= 1")


def cmd_solve(args) -> int:
    _check_max_support(args)
    seed = _seed_from(args)
    board = _read_board(args.board)
    config = WalkConfig(precision_bits=args.precision, shots=args.shots)
    config_echo = {"precision": args.precision, "shots": args.shots,
                   "seed": seed, "subspace_opt": args.subspace_opt}
    timings = {}

    if board.is_complete():
        print(format_board(board), end="")
        _emit(_report("solve", config_echo,
                      {"solution": format_board(board), "assignments": {},
                       "quantum_steps": 0}, timings))
        return 0

    t0 = time.perf_counter()
    tree, _ = tree_for_board(board, subspace_optimization=args.subspace_opt)
    step = tree.new_circuit()           # the root's step: the search's first run reuses it
    tree.quantum_step(step)
    if step.num_qubits > KEY_BITS:      # as the search's first step run would
        raise ResourceLimitError(f"{step.num_qubits} wires exceed the {KEY_BITS}-bit sparse key")
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()            # the gate cap fires here, before any QPE run
    m = root_metrics(tree, args.precision)
    timings["metrics"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stats = SearchStats()
    path = find_solution(tree, config, seed=seed,
                         max_support=args.max_support, stats=stats, step=step)
    timings["search"] = time.perf_counter() - t0

    if path is None:
        _emit(_report("solve", config_echo,
                      {"solution": None, "qpe_runs": stats.qpe_runs,
                       "max_support": stats.max_support}, timings, m))
        return 2
    solved = board_with_path(board, path)
    assignments = {f"{r},{c}": v + 1
                   for (r, c), v in assignments_from_path(board, path).items()}
    print(format_board(solved), end="")
    _emit(_report("solve", config_echo,
                  {"solution": format_board(solved), "assignments": assignments,
                   "path": list(path), "qpe_runs": stats.qpe_runs,
                   "max_support": stats.max_support}, timings, m))
    return 0


def cmd_detect(args) -> int:
    _check_max_support(args)
    seed = _seed_from(args)
    board = _read_board(args.board)
    config = WalkConfig(delta=args.delta, beta_const=args.beta,
                        gamma_const=args.gamma)
    t0 = time.perf_counter()
    if board.is_complete():     # the root is a solution: nothing to simulate
        result = DetectionResult(True, accept_number=0, repetitions=0, precision_bits=0)
    else:
        tree, _ = tree_for_board(board, subspace_optimization=args.subspace_opt)
        result = detect_marked(tree, config, seed=seed, max_support=args.max_support)
    timings = {"detect": time.perf_counter() - t0}
    print("marked node exists" if result.marked else "no marked node")
    _emit(_report("detect",
                  {"delta": args.delta, "beta": args.beta, "gamma": args.gamma,
                   "seed": seed, "subspace_opt": args.subspace_opt},
                  {"marked": result.marked,
                   "accept_number": result.accept_number,
                   "repetitions": result.repetitions,
                   "precision_bits": result.precision_bits}, timings))
    return 0 if result.marked else 2


def root_metrics(tree, precision: int):
    """Metrics of the transpiled phase-estimation circuit at the tree's root
    (circuit construction only, no simulation)."""
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    tree.estimate_phase(circ, precision)
    return metrics(transpile(circ))


def bench_row(board, k: int, precision: int, subspace_opt: bool = False):
    """Metrics of the phase-estimation circuit for the instance restricted to
    its first k empty cells (circuit construction only, no simulation)."""
    if k < 1:
        raise UsageError("--missing must be >= 1")
    empties = board.empty_cells()
    if k > len(empties):
        raise UsageError(f"board has only {len(empties)} empty cells")
    restricted = restrict_board(board, k)
    tree, _ = tree_for_board(restricted, subspace_optimization=subspace_opt)
    return root_metrics(tree, precision)


def cmd_bench(args) -> int:
    board = _read_board(args.board)
    t0 = time.perf_counter()
    m = bench_row(board, args.missing, args.precision, args.subspace_opt)
    timings = {"bench": time.perf_counter() - t0}
    row = m.as_dict()
    print(f"missing={args.missing} qubits={m.qubit_count} u3={m.u3_count} "
          f"cx={m.cx_count} depth={m.depth}")
    outcome = {"missing": args.missing, "row": row}
    if args.missing == 1:
        outcome["paper_reference_k1"] = PAPER_REFERENCE_K1
    _emit(_report("bench", {"missing": args.missing, "precision": args.precision,
                            "subspace_opt": args.subspace_opt}, outcome, timings))
    return 0


def _check_tree_width(width: int) -> None:
    if width > KEY_BITS:
        raise ResourceLimitError(f"{width} tree qubits exceed the "
                                 f"{KEY_BITS}-qubit sparse index capacity", qubit_count=width)


def cmd_viz(args) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    t0 = time.perf_counter()
    if args.demo_tree is not None:
        _check_tree_width(2 * args.demo_tree + 1)     # demo_tree's wires, before building it
        tree = demo_tree(args.demo_tree)
    else:
        if args.board is None:
            raise UsageError("viz needs a board path or --demo-tree")
        board = _read_board(args.board)
        if board.is_complete():     # the root is a solution: no tree to draw
            print(format_board(board), end="")
            _emit(_report("viz", {"demo_tree": None, "steps": args.steps},
                          {"files": []}, {"viz": time.perf_counter() - t0}))
            return 0
        tree, _ = tree_for_board(board)
    _check_tree_width(tree.num_tree_qubits)     # before building any diffuser

    # Diffuser s (from 0) has even parity iff depth + s is even; the walk
    # applies the two parities' circuits in turn to the root state.
    n = tree.effective_depth
    diffusers = []
    for s in range(min(args.steps, 2)):
        circ = tree.new_circuit()
        tree.qstep_diffuser(circ, even=(n + s) % 2 == 0)
        diffusers.append(circ)
    width = max([tree.num_tree_qubits] + [c.num_qubits for c in diffusers])
    state = SparseState.basis_state(width, tree.node_index(()))
    paths = []
    for step in range(args.steps + 1):
        if step:
            state = apply(state, diffusers[(step - 1) % 2])
        out_path = f"{args.out}_step{step}.dot"
        try:
            with open(out_path, "w") as fh:
                fh.write(to_dot(decode_tree_state(tree, state)))
        except OSError as exc:
            raise UsageError(f"cannot write {out_path!r}: {exc}") from None
        paths.append(out_path)
    timings = {"viz": time.perf_counter() - t0}
    for p in paths:
        print(p)
    _emit(_report("viz", {"demo_tree": args.demo_tree, "steps": args.steps},
                  {"files": paths}, timings))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors print the usage and raise
    ``UsageError`` (exit 1), not exit 2, the code for "no solution"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qwb`` argument parser, built on first use and shared after."""
    parser = _Parser(
        prog="qwb", description="Quantum walk backtracking for Sudoku instances")
    sub = parser.add_subparsers(dest="cmd", required=True)

    solve = sub.add_parser("solve", help="find a solution end to end")
    solve.add_argument("board")
    solve.add_argument("--precision", type=int, default=3)
    solve.add_argument("--shots", type=int, default=10000)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--subspace-opt", action="store_true", dest="subspace_opt")
    solve.add_argument("--max-support", type=int, default=2_000_000)
    solve.set_defaults(fn=cmd_solve)

    detect = sub.add_parser("detect", help="detect whether a solution exists")
    detect.add_argument("board")
    detect.add_argument("--delta", type=float, default=0.25)
    detect.add_argument("--beta", type=float, default=1.0)
    detect.add_argument("--gamma", type=float, default=4.0)
    detect.add_argument("--seed", type=int, default=None)
    detect.add_argument("--subspace-opt", action="store_true", dest="subspace_opt")
    detect.add_argument("--max-support", type=int, default=2_000_000)
    detect.set_defaults(fn=cmd_detect)

    bench = sub.add_parser("bench", help="report circuit resources (no simulation)")
    bench.add_argument("board")
    bench.add_argument("--missing", type=int, required=True)
    bench.add_argument("--precision", type=int, default=3)
    bench.add_argument("--subspace-opt", action="store_true", dest="subspace_opt")
    bench.set_defaults(fn=cmd_bench)

    viz = sub.add_parser("viz", help="emit DOT files of the walked tree")
    viz.add_argument("board", nargs="?", default=None)
    viz.add_argument("--demo-tree", type=int, default=None, dest="demo_tree")
    viz.add_argument("--steps", type=int, default=0)
    viz.add_argument("--out", default="walk")
    viz.set_defaults(fn=cmd_viz)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
