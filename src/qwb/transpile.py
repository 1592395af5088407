"""Transpilation to the {U3, CX} basis and resource metrics.

Lowering and fusion are one routine, exact up to a global phase.  Only X and
MCZ carry controls (an invariant of ``Gate``), so every controlled gate has
its own network: the MCZ phase network (``_mcz``) and the MCX as one CX or
an H-conjugated MCZ (``_mcx``), open controls conjugated with X.  A network
yields ops: ``(wire, matrix)`` multiplies a row-major 2x2, a 4-tuple of
complex as ``gate_matrix`` returns it, into the wire's pending matrix, and
``(target, ctrl)`` is a CX.  A CX first flushes its target, then its
control; the end of the circuit flushes the rest in ascending wire order.
A flush drops a global phase times the identity and otherwise emits one U3
from one ``zyz`` call, so each wire carries at most one U3 between CXs;
this fusion is what keeps the CX-dominant counts meaningful.

Every gate is lowered as part of a fragment (``_Lowerer.splice``): each span
that ``Circuit.repeat`` recorded, and the gates before, between and after
those spans as fragments of one copy.  A fragment's template is one pass
over its gates' ops from no pending matrices (``_Lowerer._template``).  Past
a wire's first CX the output no longer depends on what was pending at the
fragment's entry, so the template is the output with a slot in place of
each wire's first flush, and each copy only fills the slots from the
pending matrices at its entry.  All 2x2 products are ``_fold``'s, in one
order, so the output is byte-identical to lowering gate by gate.  A network
depends only on its gate and a U3 only on its wire and matrix, so one
``transpile`` call builds each distinct gate's ops, each distinct U3 and CX
and each fragment's template once.
Depth counts the longest gate-dependency chain at unit cost per gate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind, UsageError, _derive, rewired
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
    """Rewrites gate fragments into CX and fused U3 (no controls), building
    each distinct gate's network, each distinct U3 or CX and each fragment's
    template once."""

    def __init__(self):
        self.gates: list[Gate] = []
        self.pending: dict[int, tuple[complex, ...]] = {}
        self._tapes: dict[Gate, tuple] = {}
        self._u3s: dict[tuple, Gate | None] = {}
        self._cxs: dict[tuple[int, int], Gate] = {}
        self._templates: dict[int, tuple] = {}   # by id(fragment)

    def _u3(self, q: int, m) -> Gate | None:
        """The U3 that flushes matrix ``m`` from wire ``q``; None when ``m``
        is a global phase times the identity."""
        u3 = self._u3s.get((q, m), _UNSEEN)
        if u3 is _UNSEEN:
            u3 = None if _is_identity(m) else _derive(Gate, (_KIND_U3, q, zyz(m)[1:], (), ()))
            self._u3s[q, m] = u3
        return u3

    def splice(self, fragment: tuple, times: int, moved) -> None:
        """Lower ``times`` copies of ``fragment``, wire ``old`` moved to
        ``new`` when ``moved`` is ``(old, new)``.  Past a wire's first CX the
        output does not depend on what was pending at the copy's entry, so
        each copy is the fragment's template, relabelled, with only each
        wire's first flush rebuilt: the entry's pending matrix times the
        matrices the template took before it.  That flush empties the wire,
        so the matrices the copy leaves are folded into no pending matrix
        on a wire it CXs and into the entry's on any other."""
        hit = self._templates.get(id(fragment))
        if hit is None or hit[0] is not fragment:
            hit = self._templates[id(fragment)] = fragment, self._template(fragment)
        template = hit[1] if moved is None else _relabel(hit[1], *moved)
        items, left = template
        pending, out, u3 = self.pending, self.gates, self._u3
        for _ in range(times):
            for item in items:
                if item.__class__ is tuple:
                    q, mats = item
                    m = _fold(pending.pop(q, None), mats)
                    if m is not None and (g := u3(q, m)) is not None:
                        out.append(g)
                else:
                    out += item
            for q, mats in left:
                pending[q] = _fold(pending.get(q), mats)

    def _template(self, fragment: tuple):
        """Lower ``fragment`` from no pending matrices in one pass over its
        tapes, keeping per wire the matrices taken since its last flush.
        Returns the output as runs of gates with, in place of each wire's
        first flush, a slot ``(wire, matrices taken before its first CX)``,
        and the matrices left on each wire at the end, all it takes on a
        wire it never CXs."""
        tapes, cxs, u3 = self._tapes, self._cxs, self._u3
        items, run, taken, cxd = [], [], {}, set()
        for g in fragment:
            tape = tapes.get(g)
            if tape is None:
                tape = tapes[g] = tuple(_network(g))
            for q, m in tape:
                if m.__class__ is not int:
                    if q in taken:
                        taken[q].append(m)
                    else:
                        taken[q] = [m]
                    continue
                for w in (q, m):        # a CX flushes its target, then its control
                    mats = taken.pop(w, ())
                    if w not in cxd:
                        cxd.add(w)
                        if run:
                            items.append(run)
                            run = []
                        items.append((w, mats))
                    elif mats and (flushed := u3(w, _fold(None, mats))) is not None:
                        run.append(flushed)
                cx = cxs.get((m, q))
                if cx is None:
                    cx = cxs[m, q] = _derive(Gate, (_KIND_X, q, (), (m,), (1,)))
                run.append(cx)
        if run:
            items.append(run)
        return items, list(taken.items())

    def finish(self) -> list[Gate]:
        """The output, each wire's pending matrix flushed in ascending wire
        order."""
        for q in sorted(self.pending):
            if (g := self._u3(q, self.pending[q])) is not None:
                self.gates.append(g)
        return self.gates


def _fold(m, mats):
    """The pending matrix ``m`` (None for none) with ``mats`` multiplied
    into it in turn, each on the left: the lowering's only 2x2 product."""
    for a, b, c, d in mats:
        if m is None:
            m = a, b, c, d
        else:
            e, f, g, h = m
            m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return m


def _relabel(template, old: int, new: int):
    """A ``_Lowerer._template`` with wire ``old`` renamed ``new``."""
    items, left = template
    wire = {old: new}
    return ([(wire.get(item[0], item[0]), item[1]) if item.__class__ is tuple
             else rewired(item, old, new) for item in items],
            [(wire.get(q, q), mats) for q, mats in left])


def _phase(a):
    return 1 + 0j, 0j, 0j, cmath.exp(1j * a)


def transpile(circuit: Circuit) -> Circuit:
    """Rewrite into {U3, CX}; equal to the input up to global phase.  Each
    span in ``circuit.repeats`` whose gates still match its record is
    lowered as its fragment's copies; the gates before, between and after
    those spans are each lowered as a fragment of one copy."""
    lw = _Lowerer()
    gates = circuit.gates
    done = 0
    for start, fragment, times, moved in circuit.repeats:
        copy = list(fragment) if moved is None else rewired(fragment, *moved)
        end = start + len(copy) * times
        if start < done or gates[start:end] != copy * times:
            continue
        lw.splice(tuple(gates[done:start]), 1, None)
        lw.splice(fragment, times, moved)
        done = end
    lw.splice(tuple(gates[done:]), 1, None)
    out = Circuit(circuit.num_qubits)
    out.gates = lw.finish()     # built from checked gates on the input's wires
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
    for g in circuit.gates:
        kind, t, _, controls, state = g
        if kind is _KIND_U3:
            u3 += 1
            clock[t] += 1
        elif kind is _KIND_X and state == (1,):     # one control, as Gate checks
            cx += 1
            c, = controls
            a, b = clock[t], clock[c]
            clock[t] = clock[c] = (a if a > b else b) + 1
        else:
            raise UsageError(f"untranspiled gate kind {g.display_name()} in metrics")
    return ResourceMetrics(circuit.num_qubits, u3, cx, max(clock, default=0))
