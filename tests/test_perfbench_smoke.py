"""The benchmark driver wraps qwb's layer boundaries by name; short traced
runs guard those names and the driver's own correctness checks."""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import FIG1_BENCH_ROWS

ROOT = Path(__file__).resolve().parent.parent


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result


def test_traced_solve_run_is_correct_and_replays_exactly():
    result = _traced_run("solve")
    assert result["metrics"]["sim.replay.ok"]["value"] == 1


def test_traced_detect_run_is_correct_and_replays_exactly():
    # Detection simulates through several apply calls (the step-matrix
    # batches and the inverse QFT); each is replayed gate by gate.
    result = _traced_run("detect")
    assert result["metrics"]["sim.replay.ok"]["value"] == 1


def test_traced_resources_run_is_correct():
    # The bench sweep passes perfbench's row check, and the rows it reads
    # are the rows pinned in test_cli.
    result = _traced_run("resources")
    assert result["metrics"]["transpile.row1.cx"]["value"] == FIG1_BENCH_ROWS[0][2]


def test_traced_verify_run_is_correct_and_replays_exactly():
    # dense_unitary runs one apply on sum_c |c>|c> at prune_epsilon=0, where
    # every mixing gate pairs the whole 2n-qubit state.
    result = _traced_run("verify")
    assert result["metrics"]["sim.replay.ok"]["value"] == 1
