"""Sparse statevector simulator.

State is a map from basis index to complex amplitude, stored internally as a
sorted int64 key array plus a complex128 amplitude array so gate application
vectorizes.  Qubit 0 is the least-significant bit of the basis index.

Every gate is one 2x2 matrix (``gate_matrix``) on one target wire under
controls.  Compile once, run many: ``compile`` turns a circuit into a
``Program``, each gate once into its control bits, target bit and matrix
entries, and ``apply`` runs a program on a state (a circuit it is given is
compiled first), so a circuit run on many states, such as the walk step, is
compiled once.  The kernel works on the pairs of basis states that differ
only in the target bit: a diagonal matrix scales amplitudes in place, X
flips the target bit of the keys in place (no sort), and any other matrix
(H, RY, U3, which never carry controls) finds each key's partner by binary
search and mixes each pair once, appending the partners that were absent.
Keys are sorted only before a mixing gate that follows a permutation and
once at the end.

Amplitudes below ``PRUNE_EPSILON`` are dropped after every mixing gate, the
only kind that can shrink a magnitude: a diagonal gate's entries have
modulus 1 and a flip moves amplitudes without changing them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, UsageError

PRUNE_EPSILON = 1e-12

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED = {kind: tuple(m.ravel().tolist()) for kind, m in {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    GateKind.S: np.diag([1, 1j]),
    GateKind.SDG: np.diag([1, -1j]),
    GateKind.T: np.diag([1, np.exp(1j * math.pi / 4)]),
    GateKind.TDG: np.diag([1, np.exp(-1j * math.pi / 4)]),
    GateKind.MCZ: np.diag([1, -1]).astype(complex),
}.items()}

# Read once: a GateKind member lookup costs more than the test it feeds.
_RY = GateKind.RY


class ResourceLimitError(RuntimeError):
    """Simulation exceeds capacity (qubit count or sparse support)."""

    def __init__(self, message: str, qubit_count: int | None = None):
        super().__init__(message)
        self.qubit_count = qubit_count


def gate_matrix(gate: Gate) -> tuple[complex, complex, complex, complex]:
    """Exact 2x2 matrix of a gate kind on its target's |0>, |1> (no global
    phase slack), ignoring controls, as the row-major entries
    (m00, m01, m10, m11).  MCZ, the only controlled diagonal, is diag(1, -1)
    on its target."""
    kind = gate.kind
    fixed = _FIXED.get(kind)
    if fixed is not None:
        return fixed
    if kind is _RY:
        th = gate.params[0]
        c, s = math.cos(th / 2), math.sin(th / 2)
        return complex(c), complex(-s), complex(s), complex(c)
    th, ph, lam = gate.params    # U3, the one kind left
    c, s = math.cos(th / 2), math.sin(th / 2)
    return (complex(c), -cmath.exp(1j * lam) * s,
            cmath.exp(1j * ph) * s, cmath.exp(1j * (ph + lam)) * c)


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

    def probability(self, qubit: int, value: int = 1) -> float:
        mask = ((self.keys >> qubit) & 1) == value
        return float(np.sum(np.abs(self.amps[mask]) ** 2))


# Kernel paths of a compiled gate (see ``_compile``).
_DIAG, _FLIP, _MIX = range(3)


def _compile(gate: Gate):
    """(path, cmask, cval, bit, m00, m01, m10, m11) for one gate: the path
    (chosen from exact tests on the entries of ``gate_matrix``), the control
    bits and the values they must hold, the target bit and the entries."""
    cmask = cval = 0
    for q, s in zip(gate.controls, gate.control_state):
        cmask |= 1 << q
        cval |= s << q
    m00, m01, m10, m11 = gate_matrix(gate)
    if m01 == 0 and m10 == 0:
        path = _DIAG
    elif m00 == 0 and m11 == 0 and m01 == 1 and m10 == 1:
        path = _FLIP
    else:
        path = _MIX
    return path, cmask, cval, 1 << gate.target, m00, m01, m10, m11


@dataclass(frozen=True)
class Program:
    """A circuit compiled for ``apply``: its gates, one ``_compile`` tuple
    per gate, the wires freed before each gate position (for ``debug``) and
    one past the highest wire any gate touches."""

    num_qubits: int
    gates: tuple[Gate, ...]
    ops: tuple[tuple, ...]
    deallocs: dict[int, list[int]]
    wires: int


def compile(circuit: Circuit) -> Program:
    """Compile every gate of ``circuit`` once, for any number of ``apply``
    runs.  A gate on a negative wire raises here; a gate past the state's
    wires raises in ``apply``, before any gate runs."""
    gates = tuple(circuit.gates)
    wires = [q for gate in gates for q in gate.qubits]
    if wires and min(wires) < 0:
        gate = next(g for g in gates if min(g.qubits) < 0)
        raise UsageError(f"{gate.display_name()} on {gate.qubits} is outside "
                         f"every state")
    deallocs: dict[int, list[int]] = {}
    for pos, q in circuit.dealloc_events:
        deallocs.setdefault(pos, []).append(q)
    return Program(circuit.num_qubits, gates, tuple(map(_compile, gates)),
                   deallocs, max(wires, default=-1) + 1)


def _sort(keys, amps):
    order = keys.argsort()     # keys are distinct, so any sort is stable
    return keys[order], amps[order]


def _prune(keys, amps, eps):
    keep = np.abs(amps) >= eps if eps > 0 else np.abs(amps) > 0
    if np.count_nonzero(keep) == len(keep):
        return keys, amps
    return keys[keep], amps[keep]


def apply(state: SparseState, circuit: Circuit | Program, *, debug: bool = False,
          prune_epsilon: float = PRUNE_EPSILON,
          max_support: int | None = None) -> SparseState:
    """Run a circuit, or a program ``compile`` made from one, on a copy of
    ``state`` with the kernel described above; a circuit is compiled first.
    A gate off the state raises before any gate runs.  ``prune_epsilon`` 0
    keeps every nonzero amplitude; ``debug`` checks each deallocated wire for
    |0>; ``max_support`` caps the support."""
    n = state.num_qubits
    if circuit.num_qubits > n:
        raise UsageError(
            f"circuit uses {circuit.num_qubits} qubits, state has {n}")
    if n > 62:
        raise ResourceLimitError(
            f"{n} qubits exceed sparse index capacity", qubit_count=n)
    program = circuit if isinstance(circuit, Program) else compile(circuit)
    if program.wires > n:
        gate = next(g for g in program.gates if max(g.qubits) >= n)
        raise UsageError(f"{gate.display_name()} on {gate.qubits} is outside "
                         f"the {n}-qubit state")
    ops = program.ops
    deallocs = program.deallocs if debug else {}

    keys, amps = _prune(state.keys.copy(), state.amps.copy(), prune_epsilon)
    max_seen = max(state.max_support_seen, len(keys))
    if ops:
        _check_cap(len(keys), max_support, n)
    unsorted = False
    for pos, (path, cmask, cval, bit, m00, m01, m10, m11) in enumerate(ops):
        if pos in deallocs:
            _assert_zero(keys, amps, deallocs[pos])
        if path == _FLIP:
            if cmask:
                np.bitwise_xor(keys, bit, out=keys, where=(keys & cmask) == cval)
            else:
                keys ^= bit
            unsorted = True
            continue
        if path == _DIAG:
            for half, factor in ((0, m00), (bit, m11)):
                if factor != 1:
                    amps[(keys & (cmask | bit)) == (cval | half)] *= factor
            continue
        if unsorted:
            keys, amps = _sort(keys, amps)
            unsorted = False
        partner = keys ^ bit
        idx = keys.searchsorted(partner)
        np.minimum(idx, len(keys) - 1, out=idx)
        present = keys[idx] == partner
        complete = np.count_nonzero(present) == len(keys)
        other = amps[idx] if complete else np.where(present, amps[idx], 0)
        lo = partner > keys
        # m00*a_lo + m01*a_hi on a low key, m11*a_hi + m10*a_lo on a high one;
        # an absent partner's amplitude is the zero in ``other``.
        mixed = np.where(lo, m00, m11) * amps + np.where(lo, m01, m10) * other
        if not complete:
            miss = ~present
            lo_m = lo[miss]
            keys = np.concatenate((keys, partner[miss]))
            mixed = np.concatenate((mixed, np.where(lo_m, m10, m01) * amps[miss]
                                    + np.where(lo_m, m11, m00) * other[miss]))
            unsorted = True
        keys, amps = _prune(keys, mixed, prune_epsilon)
        max_seen = max(max_seen, len(keys))
        _check_cap(len(keys), max_support, n)
    if len(ops) in deallocs:
        _assert_zero(keys, amps, deallocs[len(ops)])
    if unsorted:
        keys, amps = _sort(keys, amps)
    return SparseState(n, keys, amps, max_seen)


def _check_cap(support, max_support, num_qubits):
    if max_support is not None and support > max_support:
        raise ResourceLimitError(
            f"sparse support {support} exceeds cap {max_support} "
            f"({num_qubits} qubits)", qubit_count=num_qubits)


def _assert_zero(keys, amps, qubits):
    for q in qubits:
        p1 = float(np.sum(np.abs(amps[((keys >> q) & 1) == 1]) ** 2))
        if p1 > 1e-9:
            raise UsageError(
                f"deallocated qubit {q} is not |0> (P(1)={p1:.3e})")


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
