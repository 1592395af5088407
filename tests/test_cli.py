import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qwb
from helpers import copied_accept
from qwb import cli, sim, walk
from qwb.circuit import Circuit
from qwb.cli import main
from qwb.sim import ResourceLimitError
from qwb.sudoku import (FIG1_BOARD, classical_solve, format_board, parse_board,
                        restrict_board)
from qwb.walk import BacktrackingTree

SOLVED_TEXT = "1234\n3412\n2143\n4321\n"
UNSOLVABLE_TEXT = ".214\n34.2\n2143\n4321\n"


@pytest.fixture()
def k2_board(tmp_path):
    board = restrict_board(parse_board(FIG1_BOARD), 2)
    p = tmp_path / "k2.board"
    p.write_text(format_board(board))
    return str(p)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    text, _, js = out.partition("{")
    report = json.loads("{" + js) if js else None
    return code, text, report


def test_solve_k2(capsys, k2_board):
    code, text, report = run_main(
        capsys, ["solve", k2_board, "--precision", "3", "--shots", "10000",
                 "--seed", "7", "--subspace-opt"])
    assert code == 0
    assert text.startswith(SOLVED_TEXT)
    assert report["outcome"]["assignments"] == {"0,1": 2, "0,3": 4}
    for v in report["metrics"].values():
        assert v > 0


def test_solve_already_solved(capsys, tmp_path):
    p = tmp_path / "solved.board"
    p.write_text(SOLVED_TEXT)
    code, text, report = run_main(capsys, ["solve", str(p)])
    assert code == 0
    assert text.startswith(SOLVED_TEXT)
    assert report["outcome"]["quantum_steps"] == 0


def test_solve_parse_error_exit_1(capsys, tmp_path):
    p = tmp_path / "bad.board"
    p.write_text("11..\n....\n....\n....\n")
    assert main(["solve", str(p)]) == 1


@pytest.mark.parametrize("cmd", ["solve", "detect", "bench", "viz"])
@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_board_exit_1(capsys, tmp_path, cmd, kind):
    path = tmp_path
    if kind == "not utf-8":
        path = tmp_path / "latin1.board"
        path.write_bytes("1234\n3412\n2143\n432\xe9\n".encode("latin-1"))
    extra = ["--missing", "1"] if cmd == "bench" else []
    assert main([cmd, str(path)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read board")
    assert captured.out == ""


def test_solve_resource_error_exit_3(capsys, k2_board):
    assert main(["solve", k2_board, "--max-support", "4", "--seed", "0"]) == 3


def _k4_precision_1_outcomes(capsys, tmp_path):
    """(text, solution, path, qpe_runs) of a seeded precision-1 solve of
    FIG1 at 4 blanks, with the default support cap and with a cap of 100."""
    p = tmp_path / "k4.board"
    p.write_text(format_board(restrict_board(parse_board(FIG1_BOARD), 4)))
    argv = ["solve", str(p), "--precision", "1", "--seed", "1"]
    outcomes = []
    for extra in ([], ["--max-support", "100"]):
        code, text, report = run_main(capsys, argv + extra)
        assert code == 0
        outcomes.append((text, report["outcome"]["solution"], report["outcome"]["path"],
                         report["outcome"]["qpe_runs"]))
    return outcomes


def test_solve_under_a_support_cap_splits_the_step_batches(capsys, tmp_path):
    # All 37 reachable nodes in one step run reach support 576; one node at a
    # time stays under 100, so the cap splits the batches instead of failing.
    outcomes = _k4_precision_1_outcomes(capsys, tmp_path)
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][2:] == ([1, 3, 3, 1, 1], 16)


def test_step_batches_under_a_support_cap_rarely_fail(capsys, tmp_path, monkeypatch):
    # Each level's batches are sized from the previous level's support per
    # node, so almost no step run passes the cap and is thrown away.
    real, failed = walk.apply, []

    def spy(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except ResourceLimitError:
            failed.append(1)
            raise

    monkeypatch.setattr(walk, "apply", spy)
    monkeypatch.setattr(sim, "apply", spy)
    outcomes = _k4_precision_1_outcomes(capsys, tmp_path)
    assert outcomes[0] == outcomes[1]
    assert len(failed) <= 2


def test_detect_solvable_and_unsolvable(capsys, tmp_path, k2_board):
    code, text, report = run_main(capsys, ["detect", k2_board, "--seed", "1"])
    assert code == 0 and text.startswith("marked node exists")

    p = tmp_path / "unsat.board"
    p.write_text(UNSOLVABLE_TEXT)
    code, text, report = run_main(capsys, ["detect", str(p), "--seed", "1"])
    assert code == 2 and text.startswith("no marked node")
    assert report["outcome"]["marked"] is False


def test_detect_already_solved(capsys, tmp_path, monkeypatch):
    # A complete board is its own solution: marked, with nothing simulated.
    monkeypatch.setattr(walk, "qpe_state", lambda *a, **k: pytest.fail("simulated"))
    p = tmp_path / "solved.board"
    p.write_text(SOLVED_TEXT)
    code, text, report = run_main(capsys, ["detect", str(p), "--seed", "1"])
    assert code == 0 and text.startswith("marked node exists")
    assert report["outcome"] == {"marked": True, "accept_number": 0,
                                 "repetitions": 0, "precision_bits": 0}


def test_solve_unsolvable_exit_2(capsys, tmp_path):
    p = tmp_path / "unsat.board"
    p.write_text(UNSOLVABLE_TEXT)
    code, _, report = run_main(capsys, ["solve", str(p), "--seed", "0",
                                        "--shots", "2000", "--subspace-opt"])
    assert code == 2
    assert report["outcome"]["solution"] is None


def test_detect_k_arithmetic(capsys, k2_board):
    code, _, report = run_main(
        capsys, ["detect", k2_board, "--delta", "0.5", "--gamma", "1", "--seed", "0"])
    assert report["outcome"]["repetitions"] == 1


def test_bench_row_and_reference(capsys, tmp_path):
    p = tmp_path / "fig1.board"
    p.write_text(FIG1_BOARD)
    code, text, report = run_main(capsys, ["bench", str(p), "--missing", "1"])
    assert code == 0
    assert report["outcome"]["paper_reference_k1"]["qubit_count"] == 15
    assert report["outcome"]["row"]["qubit_count"] >= 8


def test_bench_k0_usage_error(tmp_path):
    p = tmp_path / "fig1.board"
    p.write_text(FIG1_BOARD)
    assert main(["bench", str(p), "--missing", "0"]) == 1


def test_viz_demo_tree(capsys, tmp_path):
    out = str(tmp_path / "demo")
    code, text, report = run_main(
        capsys, ["viz", "--demo-tree", "3", "--steps", "2", "--out", out])
    assert code == 0
    step0 = Path(out + "_step0.dot").read_text()
    assert step0.count("palegreen") == 1 and "plum" not in step0
    step2 = Path(out + "_step2.dot").read_text()
    assert '"[0]"' in step2
    assert '"[0,0]"' not in step2      # rejected subtree unexplored
    assert '"[1,0]"' in step2


@pytest.mark.parametrize("blocked", ["regular file", "directory"])
def test_viz_unwritable_out_exits_1(capsys, tmp_path, blocked):
    # An --out under a regular file, or a step file that is a directory.
    if blocked == "regular file":
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "w"
    else:
        out = tmp_path / "w"
        (tmp_path / "w_step0.dot").mkdir()
    assert main(["viz", "--demo-tree", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write")
    assert captured.out == ""


def test_viz_already_solved(capsys, tmp_path):
    # A complete board is its own solution: no tree, no DOT file.
    p = tmp_path / "solved.board"
    p.write_text(SOLVED_TEXT)
    out = tmp_path / "solved"
    code, text, report = run_main(capsys, ["viz", str(p), "--out", str(out)])
    assert code == 0 and text == SOLVED_TEXT
    assert report["outcome"] == {"files": []}
    assert list(tmp_path.iterdir()) == [p]


def test_viz_builds_one_diffuser_per_parity(capsys, tmp_path, monkeypatch):
    calls = []
    build = BacktrackingTree.qstep_diffuser

    def spy(self, circ, even, ctrl=()):
        calls.append(even)
        build(self, circ, even, ctrl)

    monkeypatch.setattr(BacktrackingTree, "qstep_diffuser", spy)
    out = str(tmp_path / "demo")
    code, _, report = run_main(
        capsys, ["viz", "--demo-tree", "3", "--steps", "6", "--out", out])
    assert code == 0 and len(report["outcome"]["files"]) == 7
    assert len(calls) <= 6


def test_report_reproducible_excluding_timings(capsys, k2_board):
    def run():
        code, _, report = run_main(
            capsys, ["solve", k2_board, "--seed", "9", "--subspace-opt"])
        report.pop("timings")
        return json.dumps(report, sort_keys=True)

    assert run() == run()


def test_env_seed_fallback(capsys, k2_board, monkeypatch):
    monkeypatch.setenv("QWB_SEED", "13")
    _, _, report = run_main(capsys, ["detect", k2_board])
    assert report["config"]["seed"] == 13


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
def test_env_seed_must_be_a_non_negative_integer(capsys, k2_board, monkeypatch, value):
    monkeypatch.setenv("QWB_SEED", value)
    assert main(["detect", k2_board]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: QWB_SEED") and captured.out == ""


def test_console_entry_point(tmp_path):
    p = tmp_path / "solved.board"
    p.write_text(SOLVED_TEXT)
    # The child imports the same qwb as this process, installed or not.
    src = str(Path(qwb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "qwb.cli", "solve", str(p)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith(SOLVED_TEXT)


@pytest.mark.parametrize("argv", [["detect", "--beta", "0"], ["detect", "--beta", "-1"],
                                  ["detect", "--gamma", "-5"], ["solve", "--shots", "0"],
                                  ["viz", "--steps", "-1"], ["solve", "--max-support", "-1"],
                                  ["solve", "--max-support", "0"],
                                  ["detect", "--max-support", "0"],
                                  ["detect", "--beta", "nan"], ["detect", "--beta", "inf"],
                                  ["detect", "--gamma", "nan"], ["detect", "--gamma", "inf"],
                                  ["solve", "--seed", "-1"], ["detect", "--seed", "-1"],
                                  ["detect", "--gamma", "1e19"], ["detect", "--delta", "1e-320"],
                                  ["solve", "--shots", "100000000000000000000"]])
def test_walk_parameters_out_of_range_exit_1(capsys, k2_board, argv):
    assert main([argv[0], k2_board] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.fixture()
def fig1_board(tmp_path):
    p = tmp_path / "fig1.board"
    p.write_text(FIG1_BOARD)
    return str(p)


@pytest.fixture()
def nine_board(tmp_path):
    # A solved 9x9 grid with its first 10 cells blank: 56 tree wires.
    rows = [[str((r * 3 + r // 3 + c) % 9 + 1) for c in range(9)] for r in range(9)]
    for i in range(10):
        rows[i // 9][i % 9] = "."
    p = tmp_path / "nine.board"
    p.write_text("".join("".join(row) + "\n" for row in rows))
    return str(p)


@pytest.mark.parametrize("cmd, message", [
    ("solve", "resource error: 110 wires exceed the 62-bit sparse key"),
    ("detect", "resource error: 56 tree wires plus 24 ancillae exceed the 62-bit sparse key"),
], ids=["solve", "detect"])
def test_past_the_sparse_key_exits_3_without_gate_level_qpe(capsys, nine_board, monkeypatch,
                                                            cmd, message):
    # Solve's walk step, or detect's tree wires and ancillae, need more than
    # the 62-bit sparse key; the command must say so before building any
    # phase-estimation circuit.
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_phase called")

    monkeypatch.setattr(BacktrackingTree, "estimate_phase", refuse)
    assert main([cmd, nine_board, "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err.strip() == message
    assert captured.out == ""


@pytest.mark.parametrize("k", [8, 9])
def test_fig1_k8_and_full_board_detect_marked_and_solve(capsys, tmp_path, k):
    # The paper's largest FIG1 instances: 50 and 61 step wires fit the key.
    board = parse_board(FIG1_BOARD)
    p = tmp_path / "fig1.board"
    p.write_text(format_board(restrict_board(board, k)))
    code, text, report = run_main(capsys, ["detect", str(p), "--seed", "1"])
    assert (code, text, report["outcome"]["marked"]) == (0, "marked node exists\n", True)
    code, text, report = run_main(capsys, ["solve", str(p), "--seed", "1"])
    assert code == 0
    assert parse_board(text) in classical_solve(board)
    assert report["outcome"]["solution"] == text


@pytest.mark.parametrize("argv, message", [
    (["detect", "BOARD", "--max-support", "1e40"],
     "error: argument --max-support: invalid int value: '1e40'"),
    (["solve"], "error: the following arguments are required: board"),
])
def test_argument_errors_exit_1_with_argparse_message(capsys, fig1_board, argv, message):
    # Exit 2 means "no solution"; a malformed command line is a usage error.
    assert main([fig1_board if a == "BOARD" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: qwb ")
    assert captured.err.rstrip().endswith(message)
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--precision", "40", "--max-support", str(10 ** 20)],
    ["detect", "--beta", "1e-30", "--max-support", str(10 ** 40)],
])
def test_phase_estimation_past_the_sparse_key_or_memory_exits_3(capsys, tmp_path, argv):
    # FIG1 at 3 blanks: the system refuses 2^40 x 21 amplitudes, and precision
    # 105 puts the ancillae past the 62-bit key before any step run.
    p = tmp_path / "k3.board"
    p.write_text(format_board(restrict_board(parse_board(FIG1_BOARD), 3)))
    assert main([argv[0], str(p)] + argv[1:]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("resource error:")
    assert captured.out == ""


def test_solve_gate_cap_exits_3_before_any_qpe_run(capsys, tmp_path, monkeypatch):
    # Precision 13 needs about 5.0M gates for the report's circuit, past
    # the gate cap; the search must not start.
    monkeypatch.setattr(cli, "find_solution",
                        lambda *args, **kwargs: pytest.fail("search ran"))
    p = tmp_path / "k3.board"
    p.write_text(format_board(restrict_board(parse_board(FIG1_BOARD), 3)))
    assert main(["solve", str(p), "--precision", "13", "--max-support", "10000000"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("resource error: phase estimation at precision 13")
    assert captured.out == ""


def test_viz_past_the_sparse_key_exits_3_before_building(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(BacktrackingTree, "qstep_diffuser",
                        lambda *args, **kwargs: pytest.fail("diffuser built"))
    out = str(tmp_path / "wide")
    assert main(["viz", "--demo-tree", "20000", "--steps", "1", "--out", out]) == 3
    assert capsys.readouterr().err.startswith("resource error: 40001 tree qubits")
    assert list(tmp_path.iterdir()) == []


def test_viz_demo_tree_past_the_sparse_key_exits_3_before_building_it(capsys, tmp_path,
                                                                      monkeypatch):
    # The demo tree's 2D + 1 wires are refused before its D levels are built.
    monkeypatch.setattr(cli, "demo_tree", lambda *args, **kwargs: pytest.fail("tree built"))
    out = str(tmp_path / "huge")
    assert main(["viz", "--demo-tree", str(10 ** 12), "--steps", "1", "--out", out]) == 3
    assert capsys.readouterr().err.startswith("resource error: 2000000000001 tree qubits")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd, precision", [
    ("bench", 14000), ("solve", 15000), ("bench", 10 ** 9), ("solve", 10 ** 9),
])
def test_precision_past_the_gate_cap_exits_3_before_any_ancilla(capsys, tmp_path, monkeypatch,
                                                                 cmd, precision):
    # Past 22 bits the 2^p - 1 steps alone pass the gate cap, so the
    # refusal comes before any ancilla, and its message does not write out
    # 2^p (past 4,300 digits, formatting it raises).
    allocate = Circuit.allocate_register
    monkeypatch.setattr(Circuit, "allocate_register",
                        lambda self, size: allocate(self, size) if size <= 64
                        else pytest.fail(f"{size} wires allocated"))
    p = tmp_path / "k3.board"
    p.write_text(format_board(restrict_board(parse_board(FIG1_BOARD), 3)))
    extra = ["--missing", "1"] if cmd == "bench" else []
    assert main([cmd, str(p), "--precision", str(precision)] + extra) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"resource error: phase estimation at precision {precision} ")
    assert len(captured.err) < 200
    assert captured.out == ""


def test_bench_gate_cap_exits_3_before_replaying(capsys, fig1_board, monkeypatch):
    # Precision 20 would replay the controlled step about 2^20 times; the cap
    # fires after the first step is built.
    built = []
    step = BacktrackingTree.quantum_step
    monkeypatch.setattr(BacktrackingTree, "quantum_step",
                        lambda self, circ, ctrl=(): built.append(ctrl) or step(self, circ, ctrl))
    assert main(["bench", fig1_board, "--missing", "1", "--precision", "20"]) == 3
    assert capsys.readouterr().err.startswith("resource error:")
    assert len(built) == 1


def test_solve_builds_the_root_step_once(capsys, tmp_path, monkeypatch):
    # The step built for the sparse-key check serves the search's first QPE
    # run: FIG1 at 3 blanks, seed 1, builds it once there, once controlled
    # for the report's circuit, and once for each of the 3 later QPE runs.
    built = []
    step = BacktrackingTree.quantum_step
    monkeypatch.setattr(BacktrackingTree, "quantum_step",
                        lambda self, circ, ctrl=(): built.append(ctrl) or step(self, circ, ctrl))
    p = tmp_path / "k3.board"
    p.write_text(format_board(restrict_board(parse_board(FIG1_BOARD), 3)))
    code, _, report = run_main(capsys, ["solve", str(p), "--seed", "1"])
    assert (code, report["outcome"]["qpe_runs"]) == (0, 4)
    assert len(built) == 5
    assert [len(ctrl) for ctrl in built] == [0, 1, 0, 0, 0]


# (qubits, U3, CX, depth) of ``bench --precision 3`` on FIG1 at k = 1..9.
FIG1_BENCH_ROWS = [
    (15, 1282, 1168, 1389), (19, 2103, 1938, 1921), (23, 2973, 2806, 2446),
    (31, 3908, 3884, 3041), (34, 4552, 4486, 3230), (41, 5435, 5340, 3566),
    (46, 6797, 6642, 4364), (53, 7826, 7720, 4721), (64, 9578, 9470, 5267),
]

# The same rows with the accept result copied into an ancilla (``copied_accept``).
COPIED_ACCEPT_BENCH_ROWS = [
    (15, 1289, 1196, 1522), (19, 2110, 1966, 2054), (23, 2980, 2834, 2586),
    (31, 3915, 3912, 3181), (34, 4559, 4514, 3377), (41, 5442, 5368, 3713),
    (46, 6804, 6670, 4518), (53, 7833, 7748, 4875), (64, 9585, 9498, 5428),
]


BENCH_FIELDS = ("qubit_count", "u3_count", "cx_count", "depth")


def _bench_rows(capsys, board):
    rows = []
    for k in range(1, 10):
        code, _, report = run_main(capsys, ["bench", board, "--missing", str(k),
                                            "--precision", "3"])
        assert code == 0, k
        rows.append(tuple(report["outcome"]["row"][f] for f in BENCH_FIELDS))
    return rows


def test_bench_rows_at_precision_3_equal_the_recorded_rows(capsys, fig1_board, monkeypatch):
    # The gate cap leaves every benchmarked row buildable; each row equals
    # its pin and lies at or below the row the benchmark recorded, and the
    # rows pinned while the accept oracle copied h[0] are still reproduced.
    recorded = json.loads((Path(__file__).parents[1] / "perfbench" / "fig1_rows.json").read_text())
    assert _bench_rows(capsys, fig1_board) == FIG1_BENCH_ROWS
    for k, pinned in enumerate(FIG1_BENCH_ROWS, 1):
        assert all(got <= recorded["rows"][str(k)][f] for f, got in zip(BENCH_FIELDS, pinned)), k
    copied_accept(monkeypatch)
    assert _bench_rows(capsys, fig1_board) == COPIED_ACCEPT_BENCH_ROWS
