"""Transpilation to the {U3, CX} basis and resource metrics.

Lowering and fusion are one pass, exact up to a global phase.  Only X and MCZ
carry controls (an invariant of ``Gate``), so every controlled gate has its
own network: the MCZ phase network (``_mcz``) and the MCX as one CX or an
H-conjugated MCZ (``_mcx``), open controls conjugated with X.  A network
yields ops: ``(wire, matrix)`` multiplies a row-major 2x2, a 4-tuple of
complex as ``gate_matrix`` returns it, into the wire's pending matrix, and
``(target, ctrl)`` is a CX; an uncontrolled gate is one multiply.  A CX first
flushes its two wires; the end of the circuit flushes the rest in ascending
wire order.  A flush drops a global phase times the identity and otherwise
emits one U3 from one ``zyz`` call, so each wire carries at most one U3
between CXs; this fusion is what keeps the CX-dominant counts meaningful.
A network depends only on its gate and a U3 only on its wire and matrix, so
one ``transpile`` call builds each distinct gate's ops once, as a tape that
it replays against the pending matrices, and each distinct U3 and CX once.
Depth counts the longest gate-dependency chain at unit cost per gate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind, UsageError
from .sim import gate_matrix
from .synthesis import gray_transitions

_X = gate_matrix(Gate(GateKind.X, 0))
_H = gate_matrix(Gate(GateKind.H, 0))

# Members read once: a GateKind member lookup costs more than the test it
# feeds in per-gate code.
_KIND_X, _KIND_MCZ, _KIND_U3 = GateKind.X, GateKind.MCZ, GateKind.U3
_UNSEEN = object()     # a flush not memoised yet


def _arg(z) -> float:
    # Signed zeros make phase(-x - 0j) = -pi; normalize so -x maps to +pi.
    return cmath.phase(complex(z.real, z.imag + 0.0))


def zyz(m):
    """Decompose a 2x2 unitary, given as its row-major entries, as
    e^{i alpha} U3(theta, phi, lam)."""
    m00, m01, m10, m11 = m
    if abs(m10) < 1e-12:
        alpha = _arg(m00)
        lam = _arg(m11) - alpha
        return alpha, 0.0, 0.0, lam
    if abs(m00) < 1e-12:
        return 0.0, math.pi, _arg(m10), _arg(-m01)
    alpha = _arg(m00)
    theta = 2.0 * math.atan2(abs(m10), abs(m00))
    phi = _arg(m10) - alpha
    lam = _arg(-m01) - alpha
    return alpha, theta, phi, lam


def _is_identity(m) -> bool:
    """True when the row-major 2x2 ``m`` is a global phase times I, to 1e-10."""
    m00, m01, m10, m11 = m
    return (abs(abs(m00) - 1.0) <= 1e-10 and abs(m01) < 1e-10
            and abs(m10) < 1e-10 and abs(m11 - m00) < 1e-10)


def _network(gate: Gate):
    kind = gate.kind
    if kind is _KIND_X and gate.controls:
        yield from _mcx(gate.controls, gate.control_state, gate.target)
    elif kind is _KIND_MCZ:
        yield from _mcz(gate.qubits, (1,) + gate.control_state)
    else:
        yield gate.target, gate_matrix(gate)


def _flip(qubits, state):
    """X on every qubit whose control state is 0."""
    for q, s in zip(qubits, state):
        if not s:
            yield q, _X


def _mcx(controls, state, target: int):
    """Exact multi-controlled X: one CX for one control (open ones
    conjugated with X), else the H-conjugated MCZ network, 2^(k+1) - 2 CX."""
    if len(controls) > 1:
        yield target, _H
        yield from _mcz(controls + (target,), state + (1,))
        yield target, _H
        return
    yield from _flip(controls, state)
    yield target, controls[0]
    yield from _flip(controls, state)


def _mcz(qubits, state):
    """Exact C^(w-1)Z phase network over w qubits: 2^w - 2 CX.

    Decomposes the all-ones AND phase pi into rotations over every
    nonempty parity, walked level by level in Gray order; open qubits
    are conjugated with X.
    """
    w = len(qubits)
    theta = math.pi / 2 ** (w - 1)
    plus, minus = _phase(theta), _phase(-theta)
    yield from _flip(qubits, state)
    for q in qubits:
        yield q, plus
    for j in range(1, w):
        subset = 0
        for t in gray_transitions(j):
            yield qubits[j], qubits[t]
            subset ^= 1 << t
            if subset:
                yield qubits[j], minus if bin(subset).count("1") % 2 else plus
    yield from _flip(qubits, state)


class _Lowerer:
    """Rewrites arbitrary gates into CX and fused U3 (no controls), building
    each distinct gate's network and each distinct flushed U3 or CX once."""

    def __init__(self):
        self.gates: list[Gate] = []
        self.pending: dict[int, tuple[complex, ...]] = {}
        self._tapes: dict[Gate, tuple] = {}
        self._u3s: dict[tuple, Gate | None] = {}
        self._cxs: dict[tuple[int, int], Gate] = {}

    def lower_gate(self, gate: Gate) -> None:
        tape = self._tapes.get(gate)
        if tape is None:
            tape = self._tapes[gate] = tuple(_network(gate))
        pending = self.pending
        for q, m in tape:
            if m.__class__ is int:
                self._cx(m, q)
                continue
            prev = pending.get(q)
            if prev is not None:
                a, b, c, d = m
                e, f, g, h = prev
                m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            pending[q] = m

    def _flush(self, q: int) -> None:
        m = self.pending.pop(q, None)
        if m is not None:
            u3 = self._u3s.get((q, m), _UNSEEN)
            if u3 is _UNSEEN:
                u3 = self._u3s[q, m] = None if _is_identity(m) else Gate(_KIND_U3, q, zyz(m)[1:])
            if u3 is not None:
                self.gates.append(u3)

    def _cx(self, ctrl: int, target: int) -> None:
        self._flush(target)
        self._flush(ctrl)
        cx = self._cxs.get((ctrl, target))
        if cx is None:
            cx = self._cxs[ctrl, target] = Gate(_KIND_X, target, (), (ctrl,), (1,))
        self.gates.append(cx)

    def finish(self) -> list[Gate]:
        for q in sorted(self.pending):
            self._flush(q)
        return self.gates


def _phase(a):
    return 1 + 0j, 0j, 0j, cmath.exp(1j * a)


def transpile(circuit: Circuit) -> Circuit:
    """Rewrite into {U3, CX}; equal to the input up to global phase."""
    lw = _Lowerer()
    for g in circuit.gates:
        lw.lower_gate(g)
    out = Circuit(circuit.num_qubits)
    out.extend(lw.finish())
    return out


@dataclass(frozen=True)
class ResourceMetrics:
    qubit_count: int
    u3_count: int
    cx_count: int
    depth: int

    def as_dict(self):
        return {"qubit_count": self.qubit_count, "u3_count": self.u3_count,
                "cx_count": self.cx_count, "depth": self.depth}


def metrics(circuit: Circuit) -> ResourceMetrics:
    """Counts and dependency depth of a circuit already in {U3, CX}: a U3
    advances its wire's clock, a CX sets both wires' clocks to one past the
    later of the two."""
    u3 = cx = 0
    clock = [0] * circuit.num_qubits
    U3, X = GateKind.U3, GateKind.X
    for g in circuit.gates:
        kind, t, _, controls, state = g
        if kind is U3:
            u3 += 1
            clock[t] += 1
        elif kind is X and len(controls) == 1 and state == (1,):
            cx += 1
            c = controls[0]
            clock[t] = clock[c] = max(clock[t], clock[c]) + 1
        else:
            raise UsageError(f"untranspiled gate kind {g.display_name()} in metrics")
    return ResourceMetrics(circuit.num_qubits, u3, cx, max(clock, default=0))
