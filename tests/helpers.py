"""Shared test utilities: an independent dense-gate oracle, random
circuit generation, the walk's eigenvector witness ``phi_state`` and
``every_check``, which restores the reject oracle that kept every check in
both diffusers.

``definitional_unitary`` computes circuit matrices straight from the gate
definitions with per-basis-state bit arithmetic, sharing no code with the
package's simulator.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from qwb import sudoku
from qwb.circuit import Circuit, Gate, GateKind
from qwb.sim import SparseState
from qwb.synthesis import xx_plus_yy
from qwb.walk import BacktrackingTree


def _matrix_1q(gate: Gate) -> np.ndarray:
    k = gate.kind
    if k is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k is GateKind.H:
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if k is GateKind.S:
        return np.diag([1, 1j]).astype(complex)
    if k is GateKind.SDG:
        return np.diag([1, -1j]).astype(complex)
    if k is GateKind.T:
        return np.diag([1, cmath.exp(1j * math.pi / 4)])
    if k is GateKind.TDG:
        return np.diag([1, cmath.exp(-1j * math.pi / 4)])
    if k is GateKind.RY:
        th = gate.params[0]
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k is GateKind.U3:
        th, ph, la = gate.params
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -cmath.exp(1j * la) * s],
                         [cmath.exp(1j * ph) * s, cmath.exp(1j * (ph + la)) * c]])
    raise AssertionError(k)


def _controls_satisfied(gate: Gate, idx: int) -> bool:
    return all(((idx >> q) & 1) == s for q, s in zip(gate.controls, gate.control_state))


def definitional_gate_column(gate: Gate, idx: int, out: np.ndarray) -> None:
    """Add the gate's action on basis state ``idx`` into column vector ``out``."""
    t = gate.target
    if not _controls_satisfied(gate, idx):
        out[idx] += 1.0
        return
    if gate.kind is GateKind.MCZ:
        out[idx] += -1.0 if (idx >> t) & 1 else 1.0
        return
    m = _matrix_1q(gate)
    bit = (idx >> t) & 1
    out[idx & ~(1 << t)] += m[0, bit]
    out[idx | (1 << t)] += m[1, bit]


def xxyy_matrix(phi: float, controlled: bool = False) -> np.ndarray:
    """XX+YY(phi, beta=pi/2) on qubits (0, 1): RY(phi) on |01>, |10> (qubit 0
    is the low bit), |00> and |11> unchanged.  With ``controlled``, the 8x8
    matrix of the gate under an activate-on-1 control on qubit 2."""
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    u = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]], dtype=complex)
    if controlled:
        u = np.kron(np.diag([1, 0]), np.eye(4)) + np.kron(np.diag([0, 1]), u)
    return u


def definitional_unitary(circuit: Circuit) -> np.ndarray:
    dim = 2 ** circuit.num_qubits
    u = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        g = np.zeros((dim, dim), dtype=complex)
        for idx in range(dim):
            definitional_gate_column(gate, idx, g[:, idx])
        u = g @ u
    return u


_SINGLE_QUBIT = [(GateKind.H, 0), (GateKind.S, 0), (GateKind.SDG, 0), (GateKind.T, 0),
                 (GateKind.TDG, 0), (GateKind.RY, 1), (GateKind.U3, 3)]


def random_circuit(rng, num_qubits: int, num_gates: int,
                   mixing_only: bool = False) -> Circuit:
    """Random gates of every kind, including open-controlled MCX, MCZ and
    controlled H, and ``Circuit.phase``.  A "cu" draw is a single-qubit gate
    followed by an MCX on the same target."""
    circ = Circuit(num_qubits)
    kinds = ["x", "h", "s", "sdg", "t", "tdg", "ry", "u3", "cx", "swap",
             "xxyy", "mcz", "mcx", "phase", "cu", "ch"]
    if mixing_only:
        kinds = ["h", "ry", "u3", "cx"]
    for _ in range(num_gates):
        kind = kinds[rng.integers(len(kinds))]
        qs = rng.permutation(num_qubits)
        if kind == "x":
            circ.x(int(qs[0]))
        elif kind == "h":
            circ.h(int(qs[0]))
        elif kind == "s":
            circ.s(int(qs[0]))
        elif kind == "sdg":
            circ.sdg(int(qs[0]))
        elif kind == "t":
            circ.t(int(qs[0]))
        elif kind == "tdg":
            circ.tdg(int(qs[0]))
        elif kind == "ry":
            circ.ry(rng.uniform(-3, 3), int(qs[0]))
        elif kind == "u3":
            circ.u3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), int(qs[0]))
        elif kind == "cx":
            circ.cx(int(qs[0]), int(qs[1]))
        elif kind == "swap":
            a, b = int(qs[0]), int(qs[1])
            circ.cx(a, b)
            circ.cx(b, a)
            circ.cx(a, b)
        elif kind == "xxyy":
            xx_plus_yy(circ, rng.uniform(-3, 3), int(qs[0]), int(qs[1]))
        elif kind == "mcz":
            w = int(rng.integers(2, min(4, num_qubits) + 1))
            circ.mcz([int(q) for q in qs[:w]], [int(b) for b in rng.integers(0, 2, w)])
        elif kind == "mcx":
            w = int(rng.integers(1, min(3, num_qubits - 1) + 1))
            circ.mcx([int(q) for q in qs[:w]], int(qs[w]),
                     [int(b) for b in rng.integers(0, 2, w)])
        elif kind == "phase":
            circ.phase(rng.uniform(-3, 3), int(qs[0]))
        elif kind == "cu":
            base, nparams = _SINGLE_QUBIT[rng.integers(len(_SINGLE_QUBIT))]
            w = int(rng.integers(1, min(3, num_qubits - 1) + 1))
            params = tuple(float(p) for p in rng.uniform(-3, 3, nparams))
            controls = [int(q) for q in qs[:w]]
            state = [int(b) for b in rng.integers(0, 2, w)]
            circ.extend([Gate(base, int(qs[w]), params)])
            circ.mcx(controls, int(qs[w]), state)
        elif kind == "ch":
            w = int(rng.integers(1, min(3, num_qubits - 1) + 1))
            circ.extend([Gate(GateKind.H, int(qs[w]), (), tuple(int(q) for q in qs[:w]),
                              tuple(int(b) for b in rng.integers(0, 2, w)))])
    return circ


def phi_state(tree, path, num_qubits: int | None = None) -> SparseState:
    """Normalized alternating-sign superposition along the root-to-node
    path (sqrt(n) weight on the root); fixed by the walk step when the
    endpoint is marked."""
    n_eff = tree.effective_depth
    amplitudes = {tree.node_index(()): math.sqrt(n_eff)}
    for ell in range(1, len(path) + 1):
        amplitudes[tree.node_index(tuple(path[:ell]))] = (-1.0) ** ell
    norm = math.sqrt(sum(a * a for a in amplitudes.values()))
    nq = num_qubits if num_qubits is not None else tree.num_tree_qubits
    return SparseState.from_dict(nq, {k: v / norm for k, v in amplitudes.items()})


def random_sparse_dict(rng, num_qubits: int, support: int) -> dict[int, complex]:
    dim = 2 ** num_qubits
    keys = rng.choice(dim, size=min(support, dim), replace=False)
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    return {int(k): complex(a) for k, a in zip(keys, amps)}


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol=1e-9) -> bool:
    k = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[k]) < tol or abs(b[k]) < tol:
        return False
    phase = b[k] / a[k]
    return bool(np.max(np.abs(a * phase - b)) <= tol)


def every_check(monkeypatch) -> None:
    """Keep every reject check in both diffusers, as before each diffuser's
    oracle held only its own parents' checks (``BacktrackingTree.fires``)."""
    monkeypatch.setattr(BacktrackingTree, "fires", lambda self, a: True)


def copied_accept(monkeypatch) -> None:
    """Copy ``h[0]`` into a fresh ancilla for the accept phase, as Sudoku's
    accept builder did before it returned ``h[0]`` itself.  ``tree_for_board``
    binds the builder, so only trees built after the patch use it."""

    def builder(tree, circ):
        res = circ.allocate()
        circ.cx(tree.h[0], res)
        return res

    monkeypatch.setattr(sudoku, "accept_builder", builder)
