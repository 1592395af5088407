"""Transpilation to the {U3, CX} basis and resource metrics.

Lowering is exact up to a global phase.  Adjacent single-qubit gates on one
wire are fused into a single U3 (identities are dropped); this fusion is what
keeps the CX-dominant counts meaningful.  Depth counts the longest
gate-dependency chain at unit cost per gate; barriers are ignored.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit, Gate, GateKind, SINGLE_QUBIT_KINDS, UsageError
from .sim import gate_matrix
from .synthesis import emit_mcx_network, emit_mcz_network, emit_xxyy_decomposition

_ID2 = np.eye(2, dtype=complex)


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


def _u3_of_matrix(m: np.ndarray) -> tuple[float, float, float]:
    _, theta, phi, lam = zyz(m)
    return theta, phi, lam


def _is_identity(m: np.ndarray, tol=1e-10) -> bool:
    """True when ``m`` is a global phase times the identity."""
    return bool(abs(abs(m[0, 0]) - 1.0) <= tol and abs(m[0, 1]) < tol
                and abs(m[1, 0]) < tol and abs(m[1, 1] - m[0, 0]) < tol)


def _sqrtm_2x2_unitary(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(m)
    return vecs @ np.diag(np.sqrt(vals.astype(complex))) @ np.linalg.inv(vecs)


class _Lowerer:
    """Rewrites arbitrary gates into U3 (no controls) and CX."""

    def __init__(self, num_qubits: int):
        self.circ = Circuit(num_qubits)

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
            sub = Circuit(self.circ.num_qubits)
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
            sub = Circuit(self.circ.num_qubits)
            emit_xxyy_decomposition(sub, phi, *gate.targets)
            for g in sub.gates:
                self.lower_gate(replace(g, controls=g.controls + gate.controls,
                                        control_state=g.control_state + gate.control_state))
            return
        raise UsageError(f"cannot lower gate kind {kind.value}")

    def _lower_1q(self, gate: Gate) -> None:
        target = gate.targets[0]
        if not gate.controls:
            if gate.kind is GateKind.U3:
                self.circ.u3(*gate.params, target)
            else:
                self.circ.u3(*_u3_of_matrix(gate_matrix(gate)), target)
            return
        if gate.kind is GateKind.X:
            flipped = [c for c, s in zip(gate.controls, gate.control_state) if not s]
            for c in flipped:
                self._x(c)
            if len(gate.controls) == 1:
                self.circ.cx(gate.controls[0], target)
            else:
                sub = Circuit(self.circ.num_qubits)
                emit_mcx_network(sub, gate.controls, (1,) * len(gate.controls), target)
                for g in sub.gates:
                    self.lower_gate(g)
            for c in flipped:
                self._x(c)
            return
        # Controlled single-qubit unitary.
        flipped = [c for c, s in zip(gate.controls, gate.control_state) if not s]
        for c in flipped:
            self._x(c)
        self._controlled_unitary(list(gate.controls), target, gate_matrix(gate))
        for c in flipped:
            self._x(c)

    def _controlled_unitary(self, controls: list[int], target: int, m: np.ndarray) -> None:
        """C^k-U via ABC (k=1) or the sqrt recursion (k>=2); exact up to
        a global phase."""
        if _is_identity(m):
            return
        if len(controls) == 1:
            alpha, theta, phi, lam = zyz(m)
            alpha = alpha + (phi + lam) / 2  # block phase relative to U3's det
            a = _rz(phi) @ _ry(theta / 2)
            b = _ry(-theta / 2) @ _rz(-(phi + lam) / 2)
            c = _rz((lam - phi) / 2)
            ctrl = controls[0]
            self._emit_u3_if(c, target)
            self.circ.cx(ctrl, target)
            self._emit_u3_if(b, target)
            self.circ.cx(ctrl, target)
            self._emit_u3_if(a, target)
            if abs(alpha) > 1e-12:
                self.circ.phase(alpha, ctrl)
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

    def _emit_u3_if(self, m: np.ndarray, q: int) -> None:
        if not _is_identity(m):
            self.circ.u3(*_u3_of_matrix(m), q)

    def _x(self, q: int) -> None:
        self.circ.u3(math.pi, 0.0, math.pi, q)


def _rz(a):
    return np.array([[cmath.exp(-1j * a / 2), 0], [0, cmath.exp(1j * a / 2)]])


def _ry(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _fuse(gates, num_qubits: int) -> list[Gate]:
    """Fuse adjacent single-qubit U3 runs per wire; drop identities."""
    pending: dict[int, np.ndarray] = {}
    out: list[Gate] = []

    def flush(q):
        m = pending.pop(q, None)
        if m is None or _is_identity(m):
            return
        out.append(Gate(GateKind.U3, (q,), _u3_of_matrix(m)))

    for g in gates:
        if g.kind is GateKind.U3 and not g.controls:
            q = g.targets[0]
            pending[q] = gate_matrix(g) @ pending.get(q, _ID2)
        else:
            for q in g.qubits:
                flush(q)
            out.append(g)
    for q in sorted(pending):
        flush(q)
    return out


def transpile(circuit: Circuit) -> Circuit:
    """Rewrite into {U3, CX}; equal to the input up to global phase."""
    lw = _Lowerer(circuit.num_qubits)
    for g in circuit.gates:
        lw.lower_gate(g)
    fused = _fuse(lw.circ.gates, circuit.num_qubits)
    out = Circuit(circuit.num_qubits)
    out.extend(fused)
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
