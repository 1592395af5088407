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
it replays against the pending matrices, each distinct U3 and CX once, and
each recorded fragment once: a span of copies that ``Circuit.repeat``
recorded is lowered from one template (``_Lowerer.splice``), byte-identical
to lowering it gate by gate.
Depth counts the longest gate-dependency chain at unit cost per gate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import islice

from .circuit import Circuit, Gate, GateKind, UsageError, rewired
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
    each distinct gate's network, each distinct flushed U3 or CX and each
    recorded fragment's template once."""

    def __init__(self):
        self.gates: list[Gate] = []
        self.pending: dict[int, tuple[complex, ...]] = {}
        self._tapes: dict[Gate, tuple] = {}
        self._u3s: dict[tuple, Gate | None] = {}
        self._cxs: dict[tuple[int, int], Gate] = {}
        self._templates: dict[int, tuple] = {}   # by id(fragment)

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

    def splice(self, fragment: tuple, times: int, moved) -> None:
        """Lower ``times`` copies of ``fragment``, wire ``old`` moved to
        ``new`` when ``moved`` is ``(old, new)``, as ``lower_gate`` would
        lower them one by one.  Past a wire's first CX the output does not
        depend on what was pending at the copy's entry, so each copy is the
        fragment's template, relabelled, with only each wire's first flush
        rebuilt: the entry's pending matrix times the matrices the template
        took before it, multiplied in the same order."""
        hit = self._templates.get(id(fragment))
        if hit is None or hit[0] is not fragment:
            hit = self._templates[id(fragment)] = fragment, self._template(fragment)
        template = hit[1] if moved is None else _relabel(hit[1], *moved)
        items, carried, closing = template
        pending, out, flush = self.pending, self.gates, self._flush
        for _ in range(times):
            for item in items:
                if item.__class__ is tuple:
                    q, mats = item
                    m = _fold(pending.get(q), mats)
                    if m is not None:
                        pending[q] = m
                        flush(q)
                else:
                    out += item
            for q, mats in carried:
                pending[q] = _fold(pending.get(q), mats)
            pending.update(closing)

    def _template(self, fragment: tuple):
        """Lower ``fragment`` from no pending matrices.  Returns its output
        as runs of gates with, in place of each wire's first flush, a slot
        ``(wire, matrices taken before its first CX)``; the wires it never
        CXs with all the matrices they take; and the pending matrices it
        leaves on the wires it CXs."""
        gates, pending = self.gates, self.pending
        self.gates, self.pending = [], {}
        for g in fragment:
            self.lower_gate(g)
        out, left = self.gates, self.pending
        self.gates, self.pending = gates, pending
        # A CX first flushes its target, then its control; only this CX's
        # flushes lie between it and the CX before it.
        items, run, flushed, cxd = [], [], {}, {}
        for g in out:
            if g.kind is _KIND_U3:
                flushed[g.target] = g
                continue
            for q in (g.target, g.controls[0]):
                if q not in cxd:
                    cxd[q] = taken = []
                    if run:
                        items.append(run)
                    items.append((q, taken))
                    run = []
                elif q in flushed:
                    run.append(flushed[q])
            flushed.clear()
            run.append(g)
        if run:
            items.append(run)
        # The matrices each wire takes before its first CX: all of them on a
        # wire with none, so the walk stops early only when every wire has one.
        carried = {q: [] for q in left if q not in cxd}
        taken, first = cxd | carried, set()
        for g in fragment:
            if not carried and len(first) == len(cxd):
                break
            for q, m in self._tapes[g]:
                if m.__class__ is int:
                    first.add(q)
                    first.add(m)
                elif q not in first:
                    taken[q].append(m)
        closing = {q: m for q, m in left.items() if q in cxd}
        return items, list(carried.items()), closing

    def finish(self) -> list[Gate]:
        for q in sorted(self.pending):
            self._flush(q)
        return self.gates


def _fold(m, mats):
    """The pending matrix ``m`` (None for none) with ``mats`` multiplied
    into it in turn, in the same arithmetic as ``_Lowerer.lower_gate``."""
    for a, b, c, d in mats:
        if m is None:
            m = a, b, c, d
        else:
            e, f, g, h = m
            m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return m


def _relabel(template, old: int, new: int):
    """A ``_Lowerer._template`` with wire ``old`` renamed ``new``."""
    items, carried, closing = template
    wire = {old: new}
    return ([(wire.get(item[0], item[0]), item[1]) if item.__class__ is tuple
             else rewired(item, old, new) for item in items],
            [(wire.get(q, q), mats) for q, mats in carried],
            {wire.get(q, q): m for q, m in closing.items()})


def _phase(a):
    return 1 + 0j, 0j, 0j, cmath.exp(1j * a)


def transpile(circuit: Circuit) -> Circuit:
    """Rewrite into {U3, CX}; equal to the input up to global phase.  Each
    span in ``circuit.repeats`` whose gates still match its record is
    lowered from its fragment's template; every other gate one by one."""
    lw = _Lowerer()
    gates, lower = circuit.gates, lw.lower_gate
    done = 0
    for start, fragment, times, moved in circuit.repeats:
        copy = list(fragment) if moved is None else rewired(fragment, *moved)
        end = start + len(copy) * times
        if start < done or gates[start:end] != copy * times:
            continue
        for g in islice(gates, done, start):
            lower(g)
        lw.splice(fragment, times, moved)
        done = end
    for g in islice(gates, done, None):
        lower(g)
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
