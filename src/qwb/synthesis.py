"""Reusable gate constructions.

The relative-phase multi-controlled X and the log-depth AND ladder,
truth-table logic synthesis (exact and phase-tolerant, with controlled
variants), the XX+YY interaction used to shift one-hot registers,
custom-controlled swap, and equality comparators.

Phase conventions for the synthesis walks
-----------------------------------------

A boolean function f on n input wires is written on a result wire as
|x>|y> -> |x>|y xor f(x)| by conjugating a diagonal phase operator with H on
the result wire.  The diagonal is built from rotations applied while the
result wire cycles through every input parity (cyclic reflected Gray order,
one CX per step, 2^n steps).  Rotation angles come from the Walsh spectrum of
f.  This leaves an input-dependent garbage phase; the exact variant cancels
it with a second walk performed while the result wire still holds |0>.
Singleton parities ride along in the walk rather than being applied directly,
which keeps CX counts independent of the table:

  * exact synthesis:              2 * 2^n CX per output bit
  * phase-tolerant:                   2^n CX per output bit
  * controlled exact (ctrl folded in as an extra input): 2^(n+2) CX
  * controlled phase-tolerant (conjugated half-angle double walk):
                                      2^(n+1) + 2 CX

``rmcx`` uses the 3-CX and 6-CX relative-phase constructions for 2 and 3
controls, and ``and_ladder`` pairs controls with the 3-CX one.  Both are exact
only up to a diagonal of garbage phases and are legal only inside
compute/uncompute pairs (caller contract).  The exact multi-controlled X is
``Circuit.mcx``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, UsageError, check_control_state

PI = math.pi


# ---------------------------------------------------------------------------
# truth tables


@dataclass(frozen=True)
class TruthTable:
    """Total deterministic map from n-bit inputs to m-bit outputs."""

    input_bits: int
    output_bits: int
    rows: tuple[int, ...]  # rows[x] = f(x), length 2**input_bits

    def __post_init__(self):
        if len(self.rows) != 2 ** self.input_bits:
            raise UsageError("truth table must be total")
        for v in self.rows:
            if not 0 <= v < 2 ** self.output_bits:
                raise UsageError(f"table output {v} exceeds {self.output_bits} bits")

    def output_column(self, bit: int) -> np.ndarray:
        return np.array([(v >> bit) & 1 for v in self.rows], dtype=float)


def _walsh(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard spectrum: W[S] = sum_x f(x) (-1)^(S.x)."""
    w = values.astype(float).copy()
    n = int(math.log2(len(w)))
    for i in range(n):
        step = 1 << i
        for start in range(0, len(w), 2 * step):
            a = w[start:start + step].copy()
            b = w[start + step:start + 2 * step].copy()
            w[start:start + step] = a + b
            w[start + step:start + 2 * step] = a - b
    return w


def gray_transitions(n: int) -> list[int]:
    """Bit positions of a cyclic reflected-Gray walk over n bits (2^n steps)."""
    seq = [(i & -i).bit_length() - 1 for i in range(1, 2 ** n)]
    seq.append(n - 1)
    return seq


def _emit_phase_walk(circ: Circuit, inputs, wire, angles, *, start_phase=True):
    """Cycle ``wire`` through every parity of ``inputs``; rotate at each stop.

    ``angles[S]`` is applied while the wire holds (its own bit) xor parity_S.
    The rotation at S=0 is applied first iff ``start_phase``.
    """
    if start_phase and abs(angles[0]) > 1e-15:
        circ.phase(angles[0], wire)
    subset = 0
    for t in gray_transitions(len(inputs)):
        circ.cx(inputs[t], wire)
        subset ^= 1 << t
        if subset and abs(angles[subset]) > 1e-15:
            circ.phase(angles[subset], wire)


def _compute_angles(f: np.ndarray) -> np.ndarray:
    """Walk angles b_S with sum_S b_S (-1)^(S.x) = pi f(x)."""
    n = len(f)
    return PI * _walsh(f) / n


def synth_truth_table(circ: Circuit, table: TruthTable, input_qubits,
                      output_qubits, ctrl=None, phase_tolerant=False) -> None:
    """Write |x>|0> -> |x>|f(x)> (up to garbage phase if ``phase_tolerant``).

    With ``ctrl`` the exact variant synthesizes the extended table with the
    control as an additional input (every output with ctrl=0 stays 0); the
    phase-tolerant variant conjugates a half-angle double walk with CX from
    the control, which nets to identity on the result wire when ctrl=0.
    """
    input_qubits = list(input_qubits)
    output_qubits = list(output_qubits)
    if len(input_qubits) != table.input_bits or len(output_qubits) != table.output_bits:
        raise UsageError("register sizes do not match the table")
    if ctrl is not None and (ctrl in input_qubits or ctrl in output_qubits):
        raise UsageError("ctrl must be disjoint from the table registers")

    for bit, out in enumerate(output_qubits):
        f = table.output_column(bit)
        if not f.any():
            continue
        if f.all():
            if ctrl is None:
                circ.x(out)
            else:
                circ.cx(ctrl, out)
            continue
        if ctrl is None:
            b = _compute_angles(f)
            if not phase_tolerant:
                # Cancel the garbage phase while the result wire is still |0>:
                # the wire then holds parity_S exactly, so rotating by -b_S at
                # each stop contributes -sum_S b_S p_S(x), the junk's negative.
                _emit_phase_walk(circ, input_qubits, out, -b, start_phase=False)
            circ.h(out)
            _emit_phase_walk(circ, input_qubits, out, b)
            circ.h(out)
        elif not phase_tolerant:
            ext = TruthTable(table.input_bits + 1, 1,
                             tuple([0] * len(f)) + tuple(int(v) for v in f))
            synth_truth_table(circ, ext, input_qubits + [ctrl], [out])
        else:
            b = _compute_angles(f)
            circ.h(out)
            _emit_phase_walk(circ, input_qubits, out, b / 2)
            circ.cx(ctrl, out)
            _emit_phase_walk(circ, input_qubits, out, -b / 2)
            circ.cx(ctrl, out)
            circ.h(out)


# ---------------------------------------------------------------------------
# multi-controlled X


def _fold_polarity(circ: Circuit, controls, control_state):
    """X on each open control, refusing what ``Gate`` refuses before any gate."""
    if len(controls) != len(control_state):
        raise UsageError("controls and control_state lengths differ")
    flipped = [c for c, s in zip(controls, check_control_state(control_state)) if not s]
    for c in flipped:
        circ.x(c)
    return flipped


def _rccx(circ: Circuit, c0, c1, target):
    """Relative-phase Toffoli, 3 CX (Margolus)."""
    circ.h(target)
    circ.t(target)
    circ.cx(c1, target)
    circ.tdg(target)
    circ.cx(c0, target)
    circ.t(target)
    circ.cx(c1, target)
    circ.tdg(target)
    circ.h(target)


def _rc3x(circ: Circuit, c0, c1, c2, target):
    """Relative-phase 3-controlled X, 6 CX."""
    circ.h(target)
    circ.t(target)
    circ.cx(c2, target)
    circ.tdg(target)
    circ.h(target)
    circ.cx(c0, target)
    circ.t(target)
    circ.cx(c1, target)
    circ.tdg(target)
    circ.cx(c0, target)
    circ.t(target)
    circ.cx(c1, target)
    circ.tdg(target)
    circ.h(target)
    circ.t(target)
    circ.cx(c2, target)
    circ.tdg(target)
    circ.h(target)


def and_ladder(circ: Circuit, controls, control_state) -> list[int]:
    """Compute the AND of ``controls`` matching ``control_state`` onto at
    most two wires, and return them: their AND is the controls' match.

    X on each open control, then relative-phase Toffolis pair the layer's
    wires onto fresh ancillae until at most two wires are left (logarithmic
    depth, 3 CX per ancilla).  Everything stays computed, flips included,
    and the ladder is exact only up to a diagonal of relative phases: it is
    legal only as the compute step of a ``Circuit.within`` whose action
    commutes with that diagonal, which undoes it and frees the ancillae.
    """
    _fold_polarity(circ, controls, control_state)
    layer = list(controls)
    while len(layer) > 2:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(circ.allocate())
            _rccx(circ, layer[i], layer[i + 1], nxt[-1])
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer


def rmcx(circ: Circuit, controls, target, control_state=None) -> None:
    """X on ``target`` iff the controls match ``control_state``, up to a
    diagonal of relative phases.

    One control is the exact gate, 2 and 3 controls the 3-CX and 6-CX
    relative-phase forms, and 4 or more the exact gate, which meets the
    phase-tolerance contract trivially.  Open controls are folded with X.
    """
    controls = list(controls)
    if not controls:
        raise UsageError("rmcx needs at least one control")
    if control_state is None:
        control_state = (1,) * len(controls)
    if len(controls) == 1:
        circ.mcx(controls, target, control_state)
        return
    flipped = _fold_polarity(circ, controls, control_state)
    if len(controls) == 2:
        _rccx(circ, controls[0], controls[1], target)
    elif len(controls) == 3:
        _rc3x(circ, controls[0], controls[1], controls[2], target)
    else:
        circ.mcx(controls, target)
    for c in flipped:
        circ.x(c)


# ---------------------------------------------------------------------------
# XX+YY, Fredkin


def xx_plus_yy(circ: Circuit, phi, q0, q1, ctrl_qubits=None, ctrl_state=None) -> None:
    """XX+YY(phi, beta=pi/2) on (q0, q1), optionally controlled.

    The controlled form uses the gamma = (phi + pi)/4 rewrite whose inner H
    pair is what carries the control (one CX per controlled H, or a single
    MCX for multiple controls).  It equals the generically controlled gate up
    to a diagonal sign on the q0 = 1 input columns (state equivalence on all
    basis inputs except |11> of (q0, q1), which one-hot registers never
    populate).  The sign diagonal is applied first, so it commutes with any
    diagonal it is conjugated around and cancels between a preparation and
    its inverse; the walk only ever uses this gate in that pattern.
    """
    if not ctrl_qubits:
        # V^dag (RY x RY) V with V = CX(q1 -> q0) H(q1).
        circ.h(q1)
        circ.cx(q1, q0)
        circ.ry(-phi / 2, q0)
        circ.ry(-phi / 2, q1)
        circ.cx(q1, q0)
        circ.h(q1)
        return
    ctrl_qubits = list(ctrl_qubits)
    if ctrl_state is None:
        ctrl_state = (1,) * len(ctrl_qubits)
    flipped = _fold_polarity(circ, ctrl_qubits, ctrl_state)

    gamma = (phi + PI) / 4
    circ.h(q1)
    circ.cx(q1, q0)
    circ.ry(gamma, q0)
    circ.ry(gamma, q1)
    if len(ctrl_qubits) == 1:
        circ.ch(ctrl_qubits[0], q0)
        circ.ch(ctrl_qubits[0], q1)
    else:
        # One multi-controlled X instead of two multi-controlled H gates.
        for q in (q0, q1):
            circ.s(q)
            circ.h(q)
            circ.t(q)
        circ.cx(q0, q1)
        circ.mcx(ctrl_qubits, q0)
        circ.cx(q0, q1)
        for q in (q0, q1):
            circ.tdg(q)
            circ.h(q)
            circ.sdg(q)
    circ.ry(-gamma, q0)
    circ.ry(-gamma, q1)
    circ.cx(q1, q0)
    circ.h(q1)

    for q in flipped:
        circ.x(q)


def fredkin(circ: Circuit, a, b, ctrl=None) -> None:
    """Swap a/b; with ``ctrl``, only the middle CX needs the control."""
    circ.cx(a, b)
    if ctrl is None:
        circ.cx(b, a)
    else:
        circ.mcx((ctrl, b), a)
    circ.cx(a, b)


# ---------------------------------------------------------------------------
# comparators


def qq_equal(circ: Circuit, reg_a, reg_b, result, ctrl=None,
             phase_tolerant=False) -> None:
    """result = [reg_a == reg_b] (AND ctrl).  CX fanout, all-zero MCX, undo.

    The MCX is ``Circuit.mcx``, or ``rmcx`` if ``phase_tolerant``: the result
    then carries relative phases, and only its uncompute removes them.
    """
    reg_a, reg_b = list(reg_a), list(reg_b)
    if len(reg_a) != len(reg_b):
        raise UsageError("qq_equal registers must have equal width")
    controls = list(reg_b)
    state = [0] * len(reg_b)
    if ctrl is not None:
        controls.append(ctrl)
        state.append(1)
    if not controls:
        raise UsageError("qq_equal needs a wire to compare or a ctrl")
    for x, y in zip(reg_a, reg_b):
        circ.cx(x, y)
    if phase_tolerant:
        rmcx(circ, controls, result, state)
    else:
        circ.mcx(controls, result, state)
    for x, y in zip(reg_a, reg_b):
        circ.cx(x, y)


def cq_in_set(circ: Circuit, reg, classical_values, result, ctrl=None,
              phase_tolerant=False) -> None:
    """result = [value(reg) in classical_values] (AND ctrl), via one synthesis call."""
    reg = list(reg)
    width = len(reg)
    values = set(int(v) for v in classical_values)
    for v in values:
        if not 0 <= v < 2 ** width:
            raise UsageError(f"value {v} not representable in {width} bits")
    if not values:
        return
    rows = tuple(1 if x in values else 0 for x in range(2 ** width))
    table = TruthTable(width, 1, rows)
    synth_truth_table(circ, table, reg, [result], ctrl=ctrl,
                      phase_tolerant=phase_tolerant)
