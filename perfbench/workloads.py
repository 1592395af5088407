"""The four workloads: inputs made from the workload seed, the timed calls
into qwb, and the benchmark's own check of each call's output.

An operation is ``parts`` calls into qwb, run in order; call ``i`` is part
``i % parts`` of operation ``i // parts``.  Every call drives a public qwb
entry point in-process: ``qwb.cli.main`` for ``solve``, ``detect`` and
``bench``, and ``qwb.sim.dense_unitary`` for verification.  qwb only ever
receives board files and ``--seed`` values.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import numpy as np

import puzzles

HERE = Path(__file__).resolve().parent

# Puzzles, qwb --seed values and checked columns drawn per run; more than any
# run gets through, so the call count is set by --seconds alone.
POOL = 64


def run_cli(qwb, argv) -> tuple[int, str, dict]:
    """``qwb.cli.main(argv)`` with stdout captured; returns the exit code,
    the plain-text lines before the JSON report, and the report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = qwb.cli.main([str(a) for a in argv])
    text = out.getvalue()
    start = 0 if text.startswith("{") else text.find("\n{") + 1
    if not text[start:].startswith("{"):
        return rc, text, {}
    return rc, text[:start], json.loads(text[start:])


def write_board(workdir: Path, name: str, puzzle) -> Path:
    path = workdir / f"{name}.txt"
    path.write_text(puzzles.to_text(puzzle))
    return path


class Solve:
    """``qwb solve --precision 3`` on FIG1 restricted to its first 3 blanks,
    under a digit relabeling drawn from the workload seed (none for the
    first operation, which is FIG1 itself), with qwb's --seed drawn from the
    workload seed too.  One operation is one puzzle.

    Per-puzzle time is the search's length times the cost of each phase
    estimation, and both vary widely with the puzzle: between random valid
    grids with 5 blanks it varies about 2x, and at the CLI's default 10,000
    shots the same puzzle takes 6 to 10 phase-estimation runs from one
    --seed to the next, depending on how near-tied label votes fall.  A run
    of a few puzzles cannot average that out.  Relabeling keeps the tree
    shape, and at SHOTS = 10^6 near-ties resolve the same way for every seed
    (4 runs for each relabeling of FIG1 at 3 blanks tried, 8 at 5 blanks),
    while exact ties, and so the solution found, still follow the seed.
    Sampling is one multinomial draw over the outcomes present, so the shot
    count costs no simulation.  Three blanks rather than five keep a puzzle
    near 2 s instead of 7 s, so a run times enough of them for a steady
    median.
    """

    label, per = "solve", "per puzzle"
    parts = 1
    BLANKS, SHOTS = 3, 10 ** 6

    def __init__(self, qwb, seed: int, workdir: Path):
        rng = random.Random(seed)
        base = puzzles.fig1(puzzles.valid_grids(), self.BLANKS)
        self.inputs = []
        for i in range(POOL):
            digits = list(range(1, puzzles.SIZE + 1))
            if i:
                rng.shuffle(digits)
            puzzle = puzzles.relabel(base, digits)
            path = write_board(workdir, f"solve{i}", puzzle)
            qwb.sudoku.parse_board(path.read_text())
            self.inputs.append((puzzle, path, rng.randrange(2 ** 31)))

    def run(self, qwb, i: int):
        _, path, seed = self.inputs[i % POOL]
        return run_cli(qwb, ["solve", path, "--precision", 3, "--shots", self.SHOTS,
                             "--seed", seed])

    def check(self, i: int, output) -> list[str]:
        puzzle = self.inputs[i % POOL][0]
        rc, text, _ = output
        if rc != 0:
            return [f"exit code {rc}, want 0 (solution found)"]
        try:
            grid = puzzles.parse(text)
        except ValueError as exc:
            return [f"printed grid: {exc}"]
        if not puzzles.is_solution(puzzle, grid):
            return [f"printed grid {text!r} does not solve {puzzles.to_text(puzzle)!r}"]
        return []

    def layer_counts(self, outputs) -> dict:
        outcome = outputs[0][2].get("outcome", {})
        runs = outcome.get("qpe_runs", 0)
        return {"walk.qpe_runs": runs,
                "walk.search_efficiency": len(outcome.get("path", ())) / runs if runs else 0.0}


class Detect:
    """``qwb detect`` on FIG1 restricted to its first 3 blanks.  One operation
    is one detection: a single long phase-estimation circuit.

    beta = 4 gives precision 4 (15 literal controlled walk steps, about 2 s)
    instead of the default's 6 (63 steps, 26 to 33 s), so that a run times
    enough detections for a steady median.
    delta = 1e-15 raises the vote count from 6 to 139; the votes are shots
    from one simulated distribution, so this costs no simulation, and it
    keeps the procedure's designed error rate (delta = 0.25 by default) from
    showing up as failed operations.
    """

    label, per = "detect", "per detection"
    parts = 1
    BLANKS, BETA, DELTA = 3, 4.0, 1e-15

    def __init__(self, qwb, seed: int, workdir: Path):
        rng = random.Random(seed)
        grids = puzzles.valid_grids()
        self.puzzle = puzzles.fig1(grids, self.BLANKS)
        self.solvable = bool(puzzles.solutions(self.puzzle, grids))
        self.path = write_board(workdir, "detect", self.puzzle)
        qwb.sudoku.parse_board(self.path.read_text())
        self.seeds = [rng.randrange(2 ** 31) for _ in range(POOL)]

    def run(self, qwb, i: int):
        return run_cli(qwb, ["detect", self.path, "--beta", self.BETA,
                             "--delta", self.DELTA, "--seed", self.seeds[i % POOL]])

    def check(self, i: int, output) -> list[str]:
        rc, _, report = output
        marked = report.get("outcome", {}).get("marked")
        if rc not in (0, 2) or not isinstance(marked, bool) or marked != (rc == 0):
            return [f"exit code {rc} with marked={marked!r}"]
        if marked != self.solvable:
            return [f"verdict marked={marked}, brute force says solvable={self.solvable}"]
        return []

    def layer_counts(self, outputs) -> dict:
        return {"walk.detect.precision_bits":
                outputs[0][2].get("outcome", {}).get("precision_bits", 0)}


class Resources:
    """One sweep of ``qwb bench <FIG1> --missing k --precision 3`` for
    k = 1..9: circuit build, transpile and metrics, no simulation.  Each
    ``bench`` call is one part, so part p is row k = p + 1.  The inputs do
    not depend on the seed."""

    label, per = "resources", "per 9-row sweep"
    KS = range(1, 10)
    parts = len(KS)
    FIELDS = ("qubit_count", "u3_count", "cx_count", "depth")
    SHORT = ("qubits", "u3", "cx", "depth")
    TOTALS = ("qubit_total", "u3_total", "cx_total", "depth_total")

    def __init__(self, qwb, seed: int, workdir: Path):
        self.path = workdir / "fig1.txt"
        self.path.write_text(puzzles.FIG1_TEXT)
        qwb.sudoku.parse_board(self.path.read_text())
        recorded = json.loads((HERE / "fig1_rows.json").read_text())
        self.recorded = {int(k): row for k, row in recorded["rows"].items()}
        self.paper_k1 = recorded["paper_k1"]
        self.changed_rows = {}
        self.last_row = {}

    def run(self, qwb, i: int):
        k = self.KS[i % self.parts]
        return run_cli(qwb, ["bench", self.path, "--missing", k, "--precision", 3])

    def row(self, output) -> tuple:
        return tuple(output[2].get("outcome", {}).get("row", {}).get(f, 0)
                     for f in self.FIELDS)

    def rows(self, outputs) -> dict:
        return {k: self.row(out) for k, out in zip(self.KS, outputs)}

    def check(self, i: int, output) -> list[str]:
        k = self.KS[i % self.parts]
        row = self.row(output)
        self.last_row[k] = row
        errors = [f"k={k}: exit code {output[0]}"] if output[0] != 0 else []
        if k == 1:
            paper = self.paper_k1["qubit_count"]
            if not paper / 2 <= row[0] <= paper * 2:
                errors.append(f"k=1: {row[0]} qubits, not within 2x of the paper's {paper}")
        # Parts run in order, so row k - 1 is this sweep's.
        elif any(now < before for now, before in zip(row, self.last_row[k - 1])):
            errors.append(f"k={k}: row {row} falls below k={k - 1}'s {self.last_row[k - 1]}")
        want = tuple(self.recorded[k][f] for f in self.FIELDS)
        if row != want:
            self.changed_rows[k] = (row, want)
            if any(now > rec for now, rec in zip(row, want)):
                errors.append(f"k={k}: row {row} rises above the recorded {want}")
        return errors

    def layer_counts(self, outputs) -> dict:
        rows = self.rows(outputs)
        out = {}
        for j, short in enumerate(self.SHORT):
            for k in self.KS:
                out[f"transpile.row{k}.{short}"] = rows[k][j]
            out[f"transpile.total.{short}"] = sum(rows[k][j] for k in self.KS)
        return out


class Verify:
    """``qwb.sim.dense_unitary`` of both diffusers of ``demo_tree(2)``
    (8 qubits, 256 sparse runs on basis states each).  One operation is
    both unitaries; each is one part.  Depth 2 rather than the acceptance
    suite's depth 3 keeps a part near 1 s instead of 4 to 8 s, so a run
    times enough of them for a steady median; the calls stay tiny-support
    and bound by per-call set-up either way."""

    label, per = "verify", "for both dense unitaries"
    DEPTH = 2
    parts = 2
    COLUMNS = 8

    def __init__(self, qwb, seed: int, workdir: Path):
        rng = random.Random(seed)
        tree = qwb.walk.demo_tree(self.DEPTH)
        self.circuits = []
        for even in (True, False):
            circ = tree.new_circuit()
            tree.qstep_diffuser(circ, even=even)
            self.circuits.append(circ)
        self.columns = [[sorted(rng.sample(range(2 ** c.num_qubits), self.COLUMNS))
                         for c in self.circuits] for _ in range(POOL)]
        self.qwb = qwb

    def run(self, qwb, i: int):
        # Looked up on the module at call time, so a traced run sees it.
        return qwb.sim.dense_unitary(self.circuits[i % self.parts])

    def check(self, i: int, output) -> list[str]:
        sim = self.qwb.sim
        circ = self.circuits[i % self.parts]
        cols = self.columns[(i // self.parts) % POOL][i % self.parts]
        n, u = circ.num_qubits, output
        if u.shape != (2 ** n, 2 ** n):
            return [f"shape {u.shape} for {n} qubits"]
        errors = []
        err = np.abs(u.conj().T @ u - np.eye(2 ** n)).max()
        if err > 1e-10:
            errors.append(f"not unitary: max |U^H U - I| = {err:.3e}")
        for col in cols:
            st = sim.apply(sim.SparseState.basis_state(n, col), circ)
            want = np.zeros(2 ** n, dtype=complex)
            want[st.keys] = st.amps
            err = np.abs(u[:, col] - want).max()
            if err > 1e-10:
                errors.append(f"column {col} differs from apply by {err:.3e}")
        return errors

    def layer_counts(self, outputs) -> dict:
        return {}


WORKLOADS = {"solve": Solve, "detect": Detect, "resources": Resources,
             "verify": Verify}
