"""Outside-in tracing of qwb: wrap the names qwb looks up, record spans.

A span is (name, start, end, parent, attrs).  Spans are kept in memory and
written out as JSON lines when the run ends.  The wrappers are installed only
in the traced run and record only while ``Tracer.enabled`` is set, so the
benchmark's own checks never show up as program time.

The per-gate-kind simulator numbers come from ``replay``: the first call of
the public ``apply`` on each distinct circuit is repeated one gate at a time,
timed per gate, and its final state is compared with the unsplit call's.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

# Gate kinds that get their own sim.kind.<KIND> metrics; a "c" prefix marks
# a controlled gate.  MCZ is always controlled and keeps its own name.  Any
# other kind is counted under "other".
KINDS = ("X", "cX", "H", "S", "SDG", "T", "TDG", "RY", "U3", "MCZ", "other")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ApplyCall:
    circuit: object
    state_in: object
    kwargs: dict
    result: object
    seconds: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches = []
        self.apply_calls: dict[int, ApplyCall] = {}   # first call per circuit
        self.builds = []                                # (tree, precision, gates)

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def __enter__(self) -> "Tracer":
        """Record while inside ``with tracer:``; may be entered again."""
        self.enabled = True
        return self

    def __exit__(self, *exc) -> None:
        self.enabled = False

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_return=None):
        """Replace ``owner.attr`` by a recording wrapper; returns the
        original.  ``on_return(span, args, kwargs, result)`` adds attrs."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if on_return is not None:
                on_return(self.spans[index], args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return original

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "attrs": s.attrs}) + "\n")

    # -- attrs recorded at the boundaries -----------------------------------

    def on_apply(self, span, args, kwargs, result):
        circuit = args[1]
        span.attrs["gates"] = len(circuit.gates)
        span.attrs["max_support"] = int(result.max_support_seen)
        if id(circuit) not in self.apply_calls:
            self.apply_calls[id(circuit)] = ApplyCall(
                circuit, args[0], dict(kwargs), result, span.duration)

    def on_estimate_phase(self, span, args, kwargs, result):
        tree, circ, precision = args[0], args[1], args[2]
        span.attrs["gates"] = len(circ.gates)
        span.attrs["qubits"] = circ.num_qubits
        self.builds.append((tree, precision, len(circ.gates)))

    @staticmethod
    def on_transpile(span, args, kwargs, result):
        span.attrs["gates_in"] = len(args[0].gates)
        span.attrs["gates_out"] = len(result.gates)

    @staticmethod
    def on_dense_unitary(span, args, kwargs, result):
        span.attrs["columns"] = 2 ** args[0].num_qubits


def install(tracer: Tracer, qwb) -> dict:
    """Wrap qwb where it looks names up; returns the originals that the
    replay and the build-peak measurement call directly."""
    cli, walk, sim = qwb.cli, qwb.walk, qwb.sim
    originals = {}
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "find_solution", "walk.find_solution")
    tracer.wrap(cli, "detect_marked", "walk.detect_marked")
    tracer.wrap(cli, "transpile", "transpile.transpile", tracer.on_transpile)
    tracer.wrap(cli, "metrics", "transpile.metrics")
    tracer.wrap(cli, "tree_for_board", "sudoku.tree_for_board")
    originals["apply"] = tracer.wrap(walk, "apply", "sim.apply", tracer.on_apply)
    tracer.wrap(walk, "sample", "sim.sample")
    tracer.wrap(walk, "classically_accepted", "walk.classically_accepted")
    originals["estimate_phase"] = tracer.wrap(
        walk.BacktrackingTree, "estimate_phase", "walk.estimate_phase",
        tracer.on_estimate_phase)
    tracer.wrap(sim, "apply", "sim.apply", tracer.on_apply)
    tracer.wrap(sim, "dense_unitary", "sim.dense_unitary", tracer.on_dense_unitary)
    return originals


def span_metrics(spans: list[Span]) -> dict:
    """Per-layer times and counts of one traced operation."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    total, self_s, calls = {}, {}, {}
    for i, s in enumerate(spans):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + s.duration - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in spans if s.name == name), default=0)

    apply_s, apply_gates = total.get("sim.apply", 0.0), attr_sum("sim.apply", "gates")
    return {
        "sim.apply.s": apply_s,
        "sim.apply.calls": calls.get("sim.apply", 0),
        "sim.apply.gates": apply_gates,
        "sim.us_per_gate": 1e6 * apply_s / apply_gates if apply_gates else 0.0,
        "sim.max_support": attr_max("sim.apply", "max_support"),
        "sim.sample.s": total.get("sim.sample", 0.0),
        "sim.sample.calls": calls.get("sim.sample", 0),
        "sim.dense_unitary.s": total.get("sim.dense_unitary", 0.0),
        "sim.dense_unitary.columns": attr_sum("sim.dense_unitary", "columns"),
        "walk.estimate_phase.s": total.get("walk.estimate_phase", 0.0),
        "walk.estimate_phase.calls": calls.get("walk.estimate_phase", 0),
        "circuit.gates": attr_sum("walk.estimate_phase", "gates"),
        "circuit.qubits": attr_max("walk.estimate_phase", "qubits"),
        "walk.find_solution.self_s": self_s.get("walk.find_solution", 0.0),
        "walk.classically_accepted.s": total.get("walk.classically_accepted", 0.0),
        "walk.detect_marked.self_s": self_s.get("walk.detect_marked", 0.0),
        "transpile.transpile.s": total.get("transpile.transpile", 0.0),
        "transpile.metrics.s": total.get("transpile.metrics", 0.0),
        "transpile.gates_in": attr_sum("transpile.transpile", "gates_in"),
        "transpile.gates_out": attr_sum("transpile.transpile", "gates_out"),
        "sudoku.tree_for_board.s": total.get("sudoku.tree_for_board", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def kind_of(gate) -> str:
    name = gate.kind.value
    if gate.controls and name != "MCZ":
        name = "c" + name
    return name if name in KINDS else "other"


def replay(calls, apply, circuit_cls, deadline: float) -> tuple[dict, bool]:
    """Repeat each captured apply call one gate at a time through ``apply``.

    Returns per-kind seconds and gate counts, the summed support after every
    gate, the replay's overhead against the unsplit calls, and whether every
    replayed final state equals the unsplit one to 1e-10.  Calls are replayed
    in capture order until ``deadline`` (perf_counter) passes.
    """
    kind_s = dict.fromkeys(KINDS, 0.0)
    kind_n = dict.fromkeys(KINDS, 0)
    amp_updates = 0
    unsplit_s = replay_s = 0.0
    ok, replayed = True, 0
    for call in calls:
        if replayed and time.perf_counter() > deadline:
            break
        n = call.circuit.num_qubits
        state = call.state_in
        for gate in call.circuit.gates:
            one = circuit_cls(n)
            one.gates.append(gate)
            t0 = time.perf_counter()
            state = apply(state, one, **call.kwargs)
            dt = time.perf_counter() - t0
            kind = kind_of(gate)
            kind_s[kind] += dt
            kind_n[kind] += 1
            replay_s += dt
            amp_updates += len(state.keys)
        unsplit_s += call.seconds
        replayed += 1
        want = call.result
        ok = ok and np.array_equal(state.keys, want.keys) and bool(
            np.allclose(state.amps, want.amps, rtol=0.0, atol=1e-10))
    out = {f"sim.kind.{k}.s": kind_s[k] for k in KINDS}
    out.update({f"sim.kind.{k}.gates": kind_n[k] for k in KINDS})
    out.update({
        "sim.amp_updates": amp_updates,
        "sim.ns_per_amp": 1e9 * unsplit_s / amp_updates if amp_updates else 0.0,
        "sim.replay.calls": replayed,
        "sim.replay.ok": int(ok),
        "sim.replay.overhead_share": replay_s / unsplit_s - 1.0 if unsplit_s else 0.0,
    })
    return out, ok


def build_peak_mb(builds, estimate_phase) -> float:
    """tracemalloc peak while rebuilding the largest phase-estimation circuit
    the traced operation built (0 when it built none)."""
    if not builds:
        return 0.0
    tree, precision, _ = max(builds, key=lambda b: b[2])
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    tracemalloc.start()
    try:
        estimate_phase(tree, circ, precision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20
