"""Transpilation to the {U3, CX} basis and resource metrics.

Lowering and fusion are one pass, exact up to a global phase.  The lowerer
keeps one pending 2x2 matrix per wire: each uncontrolled single-qubit gate,
whether it comes from the input or from lowering a controlled gate (the MCX
and MCZ networks, the X conjugation of open controls, the ABC factors of a
controlled unitary), multiplies into its wire's matrix.  A CX first flushes
its two wires; the end of the circuit flushes the rest in ascending wire
order.  A flush drops a global phase times the identity and otherwise emits
one U3 from one ``zyz`` call, so each wire carries at most one U3 between
CXs; this fusion is what keeps the CX-dominant counts meaningful.  Depth
counts the longest gate-dependency chain at unit cost per gate; barriers are
ignored.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit, Gate, GateKind, SINGLE_QUBIT_KINDS, UsageError
from .sim import gate_matrix
from .synthesis import emit_mcx_network, emit_mcz_network, emit_xxyy_decomposition

_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _arg(z) -> float:
    # Signed zeros make phase(-x - 0j) = -pi; normalize so -x maps to +pi.
    return cmath.phase(complex(z.real, z.imag + 0.0))


def zyz(m: np.ndarray):
    """Decompose a 2x2 unitary as e^{i alpha} U3(theta, phi, lam)."""
    if abs(m[1, 0]) < 1e-12:
        alpha = _arg(m[0, 0])
        lam = _arg(m[1, 1]) - alpha
        return alpha, 0.0, 0.0, lam
    if abs(m[0, 0]) < 1e-12:
        return 0.0, math.pi, _arg(m[1, 0]), _arg(-m[0, 1])
    alpha = _arg(m[0, 0])
    theta = 2.0 * math.atan2(abs(m[1, 0]), abs(m[0, 0]))
    phi = _arg(m[1, 0]) - alpha
    lam = _arg(-m[0, 1]) - alpha
    return alpha, theta, phi, lam


def _is_identity(m: np.ndarray, tol=1e-10) -> bool:
    """True when ``m`` is a global phase times the identity."""
    return bool(abs(abs(m[0, 0]) - 1.0) <= tol and abs(m[0, 1]) < tol
                and abs(m[1, 0]) < tol and abs(m[1, 1] - m[0, 0]) < tol)


def _sqrtm_2x2_unitary(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(m)
    return vecs @ np.diag(np.sqrt(vals.astype(complex))) @ np.linalg.inv(vecs)


class _Lowerer:
    """Rewrites arbitrary gates into CX and fused U3 (no controls)."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.gates: list[Gate] = []
        self.pending: dict[int, np.ndarray] = {}

    def lower_gate(self, gate: Gate) -> None:
        kind = gate.kind
        if kind is GateKind.BARRIER:
            return
        if kind in SINGLE_QUBIT_KINDS:
            self._lower_1q(gate)
            return
        if kind is GateKind.MCZ:
            qubits = gate.targets + gate.controls
            state = (1,) + gate.control_state
            sub = Circuit(self.num_qubits)
            emit_mcz_network(sub, qubits, state)
            for g in sub.gates:
                self.lower_gate(g)
            return
        if kind is GateKind.SWAP:
            a, b = gate.targets
            for c, t in ((a, b), (b, a), (a, b)):
                self.lower_gate(Gate(GateKind.X, (t,), controls=(c,) + gate.controls,
                                     control_state=(1,) + gate.control_state))
            return
        if kind is GateKind.XXPLUSYY:
            phi, beta = gate.params
            if abs(beta - math.pi / 2) > 1e-12:
                raise UsageError("XXPLUSYY transpilation fixed at beta = pi/2")
            sub = Circuit(self.num_qubits)
            emit_xxyy_decomposition(sub, phi, *gate.targets)
            for g in sub.gates:
                self.lower_gate(replace(g, controls=g.controls + gate.controls,
                                        control_state=g.control_state + gate.control_state))
            return
        raise UsageError(f"cannot lower gate kind {kind.value}")

    def _lower_1q(self, gate: Gate) -> None:
        target = gate.targets[0]
        if not gate.controls:
            self._mul(target, gate_matrix(gate))
            return
        flipped = [c for c, s in zip(gate.controls, gate.control_state) if not s]
        for c in flipped:
            self._mul(c, _X)
        if gate.kind is not GateKind.X:
            self._controlled_unitary(list(gate.controls), target, gate_matrix(gate))
        elif len(gate.controls) == 1:
            self._cx(gate.controls[0], target)
        else:
            sub = Circuit(self.num_qubits)
            emit_mcx_network(sub, gate.controls, (1,) * len(gate.controls), target)
            for g in sub.gates:
                self.lower_gate(g)
        for c in flipped:
            self._mul(c, _X)

    def _controlled_unitary(self, controls: list[int], target: int, m: np.ndarray) -> None:
        """C^k-U via ABC (k=1) or the sqrt recursion (k>=2); exact up to
        a global phase."""
        if _is_identity(m):
            return
        if len(controls) == 1:
            alpha, theta, phi, lam = zyz(m)
            alpha = alpha + (phi + lam) / 2  # block phase relative to U3's det
            ctrl = controls[0]
            self._mul(target, _rz((lam - phi) / 2))
            self._cx(ctrl, target)
            self._mul(target, _ry(-theta / 2) @ _rz(-(phi + lam) / 2))
            self._cx(ctrl, target)
            self._mul(target, _rz(phi) @ _ry(theta / 2))
            self._mul(ctrl, np.diag([1.0, cmath.exp(1j * alpha)]))
            return
        v = _sqrtm_2x2_unitary(m)
        vdg = v.conj().T
        last = controls[-1]
        rest = controls[:-1]
        self._controlled_unitary([last], target, v)
        self.lower_gate(Gate(GateKind.X, (last,), controls=tuple(rest),
                             control_state=(1,) * len(rest)))
        self._controlled_unitary([last], target, vdg)
        self.lower_gate(Gate(GateKind.X, (last,), controls=tuple(rest),
                             control_state=(1,) * len(rest)))
        self._controlled_unitary(rest, target, v)

    def _mul(self, q: int, m: np.ndarray) -> None:
        prev = self.pending.get(q)
        self.pending[q] = m if prev is None else m @ prev

    def _flush(self, q: int) -> None:
        m = self.pending.pop(q, None)
        if m is not None and not _is_identity(m):
            _, theta, phi, lam = zyz(m)
            self.gates.append(Gate(GateKind.U3, (q,), (theta, phi, lam)))

    def _cx(self, ctrl: int, target: int) -> None:
        self._flush(target)
        self._flush(ctrl)
        self.gates.append(Gate(GateKind.X, (target,), controls=(ctrl,), control_state=(1,)))

    def finish(self) -> list[Gate]:
        for q in sorted(self.pending):
            self._flush(q)
        return self.gates


def _rz(a):
    return np.array([[cmath.exp(-1j * a / 2), 0], [0, cmath.exp(1j * a / 2)]])


def _ry(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def transpile(circuit: Circuit) -> Circuit:
    """Rewrite into {U3, CX}; equal to the input up to global phase."""
    lw = _Lowerer(circuit.num_qubits)
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
    """Counts and dependency depth of a circuit already in {U3, CX}."""
    u3 = cx = 0
    clock = [0] * circuit.num_qubits
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            continue
        if g.kind is GateKind.U3 and not g.controls:
            u3 += 1
        elif g.kind is GateKind.X and len(g.controls) == 1 and g.control_state == (1,):
            cx += 1
        else:
            raise UsageError(f"untranspiled gate kind {g.display_name()} in metrics")
        level = max(clock[q] for q in g.qubits) + 1
        for q in g.qubits:
            clock[q] = level
    depth = max(clock) if clock else 0
    return ResourceMetrics(circuit.num_qubits, u3, cx, depth)
