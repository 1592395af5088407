"""Transpilation to the {U3, CX} basis and resource metrics.

Lowering and fusion are one pass, exact up to a global phase.  Only X and MCZ
carry controls (an invariant of ``Gate``), so every controlled gate has its
own network: the MCZ phase network (``_mcz``) and the MCX as one CX or an
H-conjugated MCZ (``_mcx``), open controls conjugated with X.  The lowerer
keeps one pending 2x2 matrix per wire, a row-major 4-tuple of complex as
``gate_matrix`` returns it, and writes each network straight into it: every
single-qubit factor, and every uncontrolled gate, multiplies into its wire's
matrix.  A CX first flushes its two wires; the end of the circuit
flushes the rest in ascending wire order.  A flush drops a global phase times
the identity and otherwise emits one U3 from one ``zyz`` call, so each wire
carries at most one U3 between CXs; this fusion is what keeps the CX-dominant
counts meaningful.  The only gates built are the U3s and CXs of the output.
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


def _is_identity(m, tol=1e-10) -> bool:
    """True when the row-major 2x2 ``m`` is a global phase times the identity."""
    m00, m01, m10, m11 = m
    return (abs(abs(m00) - 1.0) <= tol and abs(m01) < tol
            and abs(m10) < tol and abs(m11 - m00) < tol)


class _Lowerer:
    """Rewrites arbitrary gates into CX and fused U3 (no controls)."""

    def __init__(self):
        self.gates: list[Gate] = []
        self.pending: dict[int, tuple[complex, ...]] = {}

    def lower_gate(self, gate: Gate) -> None:
        if gate.kind is GateKind.X and gate.controls:
            self._mcx(gate.controls, gate.control_state, gate.target)
        elif gate.kind is GateKind.MCZ:
            self._mcz(gate.qubits, (1,) + gate.control_state)
        else:
            self._mul(gate.target, gate_matrix(gate))

    def _flip(self, qubits, state) -> None:
        """X on every qubit whose control state is 0."""
        for q, s in zip(qubits, state):
            if not s:
                self._mul(q, _X)

    def _mcx(self, controls, state, target: int) -> None:
        """Exact multi-controlled X: one CX for one control (open ones
        conjugated with X), else the H-conjugated MCZ network, 2^(k+1) - 2 CX."""
        if len(controls) > 1:
            self._mul(target, _H)
            self._mcz(tuple(controls) + (target,), tuple(state) + (1,))
            self._mul(target, _H)
            return
        self._flip(controls, state)
        self._cx(controls[0], target)
        self._flip(controls, state)

    def _mcz(self, qubits, state) -> None:
        """Exact C^(w-1)Z phase network over w qubits: 2^w - 2 CX.

        Decomposes the all-ones AND phase pi into rotations over every
        nonempty parity, walked level by level in Gray order; open qubits
        are conjugated with X.
        """
        w = len(qubits)
        theta = math.pi / 2 ** (w - 1)
        plus, minus = _phase(theta), _phase(-theta)
        self._flip(qubits, state)
        for q in qubits:
            self._mul(q, plus)
        for j in range(1, w):
            subset = 0
            for t in gray_transitions(j):
                self._cx(qubits[t], qubits[j])
                subset ^= 1 << t
                if subset:
                    self._mul(qubits[j], minus if bin(subset).count("1") % 2 else plus)
        self._flip(qubits, state)

    def _mul(self, q: int, m) -> None:
        prev = self.pending.get(q)
        if prev is not None:
            a, b, c, d = m
            e, f, g, h = prev
            m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        self.pending[q] = m

    def _flush(self, q: int) -> None:
        m = self.pending.pop(q, None)
        if m is not None and not _is_identity(m):
            _, theta, phi, lam = zyz(m)
            self.gates.append(Gate(GateKind.U3, q, (theta, phi, lam)))

    def _cx(self, ctrl: int, target: int) -> None:
        self._flush(target)
        self._flush(ctrl)
        self.gates.append(Gate(GateKind.X, target, controls=(ctrl,), control_state=(1,)))

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
