"""Sparse statevector simulator.

State is a map from basis index to complex amplitude, stored internally as a
sorted int64 key array plus a complex128 amplitude array so gate application
vectorizes.  Qubit 0 is the least-significant bit of the basis index.

Every gate is one 2x2 matrix (``gate_matrix``) on one target wire under
controls, and one kernel applies it to the pairs of basis states that differ
only in the target bit: a diagonal matrix scales amplitudes in place, X swaps
the pair by flipping the target bit, and any other matrix (H, RY, U3, which
never carry controls) mixes each pair once.

Amplitudes below ``PRUNE_EPSILON`` are dropped after every gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, UsageError

PRUNE_EPSILON = 1e-12

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    GateKind.S: np.diag([1, 1j]),
    GateKind.SDG: np.diag([1, -1j]),
    GateKind.T: np.diag([1, np.exp(1j * math.pi / 4)]),
    GateKind.TDG: np.diag([1, np.exp(-1j * math.pi / 4)]),
    GateKind.MCZ: np.diag([1, -1]).astype(complex),
}


class ResourceLimitError(RuntimeError):
    """Simulation exceeds capacity (qubit count or sparse support)."""

    def __init__(self, message: str, qubit_count: int | None = None):
        super().__init__(message)
        self.qubit_count = qubit_count


def gate_matrix(gate: Gate) -> np.ndarray:
    """Exact 2x2 matrix of a gate kind on its target's |0>, |1> (no global
    phase slack), ignoring controls.  MCZ, the only controlled diagonal, is
    diag(1, -1) on its target."""
    kind = gate.kind
    if kind in _FIXED:
        return _FIXED[kind]
    if kind is GateKind.RY:
        th = gate.params[0]
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    th, ph, lam = gate.params    # U3, the one kind left
    c, s = math.cos(th / 2), math.sin(th / 2)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * ph) * s, np.exp(1j * (ph + lam)) * c]])


@dataclass
class SparseState:
    """Sparse statevector.  ``keys`` sorted ascending, parallel to ``amps``."""

    num_qubits: int
    keys: np.ndarray
    amps: np.ndarray
    max_support_seen: int = 0

    @classmethod
    def zero(cls, num_qubits: int) -> "SparseState":
        return cls.basis_state(num_qubits, 0)

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "SparseState":
        return cls.from_dict(num_qubits, {index: 1.0})

    @classmethod
    def from_dict(cls, num_qubits: int, amplitudes: dict[int, complex]) -> "SparseState":
        if num_qubits > 62:
            raise ResourceLimitError(
                f"{num_qubits} qubits exceed the 62-qubit sparse index capacity",
                qubit_count=num_qubits)
        keys = np.array(sorted(amplitudes), dtype=np.int64)
        amps = np.array([amplitudes[int(k)] for k in keys], dtype=complex)
        return cls(num_qubits, keys, amps, len(keys))

    @property
    def amplitudes(self) -> dict[int, complex]:
        return {int(k): complex(a) for k, a in zip(self.keys, self.amps)}

    def amplitude(self, basis_index: int) -> complex:
        i = np.searchsorted(self.keys, basis_index)
        if i < len(self.keys) and self.keys[i] == basis_index:
            return complex(self.amps[i])
        return 0.0

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def support(self) -> int:
        return len(self.keys)

    def copy(self) -> "SparseState":
        return SparseState(self.num_qubits, self.keys.copy(), self.amps.copy(),
                           self.max_support_seen)

    def probability(self, qubit: int, value: int = 1) -> float:
        mask = ((self.keys >> qubit) & 1) == value
        return float(np.sum(np.abs(self.amps[mask]) ** 2))


def _control_mask(gate: Gate):
    cmask = 0
    cval = 0
    for q, s in zip(gate.controls, gate.control_state):
        cmask |= 1 << q
        if s:
            cval |= 1 << q
    return np.int64(cmask), np.int64(cval)


def _sort(keys, amps):
    order = np.argsort(keys, kind="stable")
    return keys[order], amps[order]


def _lookup(keys, amps, query):
    idx = np.searchsorted(keys, query)
    idx = np.clip(idx, 0, len(keys) - 1) if len(keys) else idx
    out = np.zeros(len(query), dtype=complex)
    if len(keys):
        hit = keys[idx] == query
        out[hit] = amps[idx[hit]]
    return out


def _prune(keys, amps, eps):
    if eps <= 0:
        keep = np.abs(amps) > 0
    else:
        keep = np.abs(amps) >= eps
    return keys[keep], amps[keep]


def apply(state: SparseState, circuit: Circuit, *, debug: bool = False,
          prune_epsilon: float = PRUNE_EPSILON,
          max_support: int | None = None) -> SparseState:
    """Run the circuit on a copy of ``state``, gate by gate."""
    if circuit.num_qubits > state.num_qubits:
        raise UsageError(
            f"circuit uses {circuit.num_qubits} qubits, state has {state.num_qubits}")
    if state.num_qubits > 62:
        raise ResourceLimitError(
            f"{state.num_qubits} qubits exceed sparse index capacity",
            qubit_count=state.num_qubits)

    keys, amps = _prune(state.keys.copy(), state.amps.copy(), prune_epsilon)
    max_seen = max(state.max_support_seen, len(keys))
    dealloc_by_pos: dict[int, list[int]] = {}
    if debug:
        for pos, q in circuit.dealloc_events:
            dealloc_by_pos.setdefault(pos, []).append(q)

    for pos, gate in enumerate(circuit.gates):
        if any(not 0 <= q < state.num_qubits for q in gate.qubits):
            raise UsageError(f"{gate.display_name()} on {gate.qubits} is outside "
                             f"the {state.num_qubits}-qubit state")
        if debug and pos in dealloc_by_pos:
            _assert_zero(keys, amps, dealloc_by_pos[pos])
        keys, amps = _apply_gate(keys, amps, gate)
        keys, amps = _prune(keys, amps, prune_epsilon)
        max_seen = max(max_seen, len(keys))
        if max_support is not None and len(keys) > max_support:
            raise ResourceLimitError(
                f"sparse support {len(keys)} exceeds cap {max_support} "
                f"({state.num_qubits} qubits)", qubit_count=state.num_qubits)
    if debug and len(circuit.gates) in dealloc_by_pos:
        _assert_zero(keys, amps, dealloc_by_pos[len(circuit.gates)])

    return SparseState(state.num_qubits, keys, amps, max_seen)


def _assert_zero(keys, amps, qubits):
    for q in qubits:
        p1 = float(np.sum(np.abs(amps[((keys >> q) & 1) == 1]) ** 2))
        if p1 > 1e-9:
            raise UsageError(
                f"deallocated qubit {q} is not |0> (P(1)={p1:.3e})")


def _apply_gate(keys, amps, gate: Gate):
    """Apply ``gate_matrix(gate)`` to every control-satisfied pair of basis
    states that differ only in the target bit.

    Updates ``keys`` and ``amps`` in place where it can; ``apply`` owns them.
    The path is chosen from exact tests on the matrix entries.
    """
    m = gate_matrix(gate)
    cmask, cval = _control_mask(gate)
    sel = (keys & cmask) == cval if cmask else np.ones(len(keys), dtype=bool)
    if not sel.any():
        return keys, amps
    bit = np.int64(1 << gate.target)

    if m[0, 1] == 0 and m[1, 0] == 0:
        for half, factor in ((0, m[0, 0]), (bit, m[1, 1])):
            if factor != 1:
                amps[sel & ((keys & bit) == half)] *= factor
        return keys, amps

    if m[0, 0] == 0 and m[1, 1] == 0 and m[0, 1] == 1 and m[1, 0] == 1:
        keys[sel] ^= bit
        return _sort(keys, amps)

    # Only X and MCZ take controls, so a mixing gate (H, RY, U3) has none
    # and touches every entry: each pair is formed from the whole state.
    lo_keys = np.unique(keys & ~bit)
    hi_keys = lo_keys | bit
    a_lo = _lookup(keys, amps, lo_keys)
    a_hi = _lookup(keys, amps, hi_keys)
    return _sort(np.concatenate([lo_keys, hi_keys]),
                 np.concatenate([m[0, 0] * a_lo + m[0, 1] * a_hi,
                                 m[1, 0] * a_lo + m[1, 1] * a_hi]))


@dataclass
class MeasurementCounts:
    shots: int
    counts: dict[str, int]


def sample(state: SparseState, measured_qubits, shots: int, seed) -> MeasurementCounts:
    """Draw ``shots`` outcomes from the marginal over ``measured_qubits``.

    Outcome strings read as binary numbers: the last character is
    ``measured_qubits[0]``'s bit.
    """
    measured = list(measured_qubits)
    if not measured:
        raise UsageError("measured_qubits must be nonempty")
    if shots < 1:
        raise UsageError("shots must be >= 1")

    width = len(measured)
    outcome_vals = np.zeros(len(state.keys), dtype=np.int64)
    for i, q in enumerate(measured):
        outcome_vals |= ((state.keys >> q) & 1) << i
    probs: dict[int, float] = {}
    weights = np.abs(state.amps) ** 2
    for v, w in zip(outcome_vals, weights):
        probs[int(v)] = probs.get(int(v), 0.0) + float(w)

    vals = sorted(probs)
    p = np.array([probs[v] for v in vals])
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p)
    counts = {}
    for v, n in zip(vals, draws):
        if n:
            counts[format(v, f"0{width}b")] = int(n)
    return MeasurementCounts(shots, counts)


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """2^n x 2^n matrix from one run on the 2n-qubit state sum_c |c>|c>.

    The circuit acts on the low n qubits; the high n qubits keep a copy of
    each input column c, so basis index (c << n) | r holds entry (r, c).
    """
    n = circuit.num_qubits
    if n > 12:
        raise UsageError(f"dense_unitary supports at most 12 qubits, got {n}")
    dim = 2 ** n
    cols = np.arange(dim, dtype=np.int64)
    start = SparseState(2 * n, (cols << n) | cols, np.ones(dim, dtype=complex), dim)
    st = apply(start, circuit, prune_epsilon=0.0)
    out = np.zeros((dim, dim), dtype=complex)
    out[st.keys & (dim - 1), st.keys >> n] = st.amps
    return out


def dump_state(state: SparseState) -> str:
    """Text lines ``bitstring amplitude_re amplitude_im`` sorted by bitstring."""
    n = state.num_qubits
    lines = []
    for k, a in zip(state.keys, state.amps):
        lines.append(f"{format(int(k), f'0{n}b')} {a.real:.17g} {a.imag:.17g}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_state(text: str, num_qubits: int) -> SparseState:
    """Parse ``dump_state`` text: one ``num_qubits``-wide bit string per line,
    no basis state twice, norm 1 within 1e-9."""
    amplitudes = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise UsageError(f"malformed state line: {line!r}")
        bits, re_s, im_s = fields
        if len(bits) != num_qubits or set(bits) - {"0", "1"}:
            raise UsageError(f"{bits!r} is not a {num_qubits}-bit basis state")
        key = int(bits, 2)
        if key in amplitudes:
            raise UsageError(f"basis state {bits} appears twice")
        try:
            amplitudes[key] = complex(float(re_s), float(im_s))
        except ValueError:
            raise UsageError(f"malformed amplitude in state line: {line!r}") from None
    state = SparseState.from_dict(num_qubits, amplitudes)
    if not abs(state.norm() - 1.0) <= 1e-9:
        raise UsageError(f"state norm {state.norm():.12g} is not 1")
    return state
