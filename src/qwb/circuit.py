"""Gate and circuit representation with qubit allocation and structural transforms.

Conventions (fixed throughout the package):
  * Qubit 0 is the least-significant bit of a basis index.
  * Every gate is one 2x2 operation on one target wire under zero or more
    controls.
  * Only X and MCZ take controls: every controlled operation is built from
    CX, MCX and MCZ, each of which the transpiler lowers with its own network.
  * A controlled X with one activate-on-1 control is the CX gate; more controls
    (or open controls) make it an MCX.  MCZ stores one participating qubit as
    the target and the remaining ones as controls; it is symmetric under
    reordering.
  * Inversion negates rotation angles (U3 adjoint is U3(-theta, -lam, -phi))
    and swaps S/Sdg, T/Tdg.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import NamedTuple


class UsageError(ValueError):
    """Raised when an operation is applied outside its contract."""


class GateKind(str, Enum):
    X = "X"
    H = "H"
    S = "S"
    SDG = "SDG"
    T = "T"
    TDG = "TDG"
    RY = "RY"
    U3 = "U3"
    MCZ = "MCZ"


# Members read once and compared by identity: a GateKind member lookup, or
# hashing a kind for a dict lookup, costs more than the test it feeds in
# per-gate code.
_X, _H, _RY, _U3, _MCZ = GateKind.X, GateKind.H, GateKind.RY, GateKind.U3, GateKind.MCZ
_S, _SDG, _T, _TDG = GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG

# Builds a Gate without ``Gate.__new__``'s checks.  Only for fields derived
# from a checked gate's in a way that keeps them valid (an adjoint, a wire
# moved to one the gate does not use): a gate is checked once, where it is
# built from caller arguments.
_derive = tuple.__new__


class Gate(NamedTuple("Gate", [("kind", GateKind), ("target", int),
                                ("params", tuple), ("controls", tuple),
                                ("control_state", tuple)])):
    """One circuit instruction, an immutable named tuple checked on
    construction.

    ``target`` is the qubit the base operation acts on; ``controls`` carry
    an explicit per-qubit ``control_state`` (1 = activate on |1>, 0 = open
    circle / activate on |0>).  Only X and MCZ may have controls.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, target: int, params: tuple[float, ...] = (),
                controls: tuple[int, ...] = (), control_state: tuple[int, ...] = ()):
        if controls or control_state:
            if len(controls) != len(control_state):
                raise UsageError("controls and control_state lengths differ")
            if kind is not _X and kind is not _MCZ:
                raise UsageError(f"{kind.value} takes no controls")
        want = 1 if kind is _RY else 3 if kind is _U3 else 0
        if len(params) != want:
            raise UsageError(f"{kind.value} expects {want} params, got {len(params)}")
        if controls and len({target, *controls}) != 1 + len(controls):
            raise UsageError("target and controls must be disjoint and unique")
        return tuple.__new__(cls, (kind, target, params, controls, control_state))

    # ``_replace`` builds through ``_make``: route it through the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,) + self.controls

    def adjoint(self) -> "Gate":
        kind, params = self.kind, self.params
        if kind is _RY:
            params = (-params[0],)
        elif kind is _U3:
            th, ph, lam = params
            params = (-th, -lam, -ph)
        elif kind is _S:
            kind = _SDG
        elif kind is _SDG:
            kind = _S
        elif kind is _T:
            kind = _TDG
        elif kind is _TDG:
            kind = _T
        else:
            return self     # X, H and MCZ are their own inverses
        return _derive(Gate, (kind, self.target, params, self.controls, self.control_state))

    def display_name(self) -> str:
        """Conventional name: CX/MCX for controlled X, CZ for two-qubit MCZ."""
        if self.kind is GateKind.X and self.controls:
            if len(self.controls) == 1 and self.control_state == (1,):
                return "CX"
            return "MCX"
        if self.kind is GateKind.MCZ:
            if len(self.controls) == 1 and self.control_state == (1,):
                return "CZ"
            return "MCZ"
        return self.kind.value


class Circuit:
    """Ordered gate sequence over an allocatable qubit pool.

    ``allocate`` reuses the lowest free index before growing the pool.
    """

    def __init__(self, num_qubits: int = 0):
        self.num_qubits = num_qubits
        self.gates: list[Gate] = []
        self._free: list[int] = []          # min-heap of deallocated indices
        self._free_set: set[int] = set()
        # (gate position, qubit) pairs recorded at deallocation, used by the
        # simulator's debug mode to assert the |0> contract.
        self.dealloc_events: list[tuple[int, int]] = []
        self.alloc_events: list[tuple[int, int]] = []
        # (start, fragment, times, moved) per span of ``times`` copies of a
        # fragment, written by ``repeat`` (a caller may record a span it
        # emitted itself as one copy, unmoved); the transpiler lowers each
        # fragment once and checks a span's gates before it trusts it.
        self.repeats: list[tuple[int, tuple[Gate, ...], int, tuple[int, int] | None]] = []

    # -- allocation ---------------------------------------------------------

    def allocate(self) -> int:
        if self._free:
            q = heapq.heappop(self._free)
            self._free_set.discard(q)
        else:
            q = self.num_qubits
            self.num_qubits += 1
        self.alloc_events.append((len(self.gates), q))
        return q

    def allocate_register(self, size: int) -> list[int]:
        return [self.allocate() for _ in range(size)]

    def deallocate(self, qubit: int) -> None:
        if qubit >= self.num_qubits or qubit in self._free_set:
            raise UsageError(f"qubit {qubit} is not currently allocated")
        self.dealloc_events.append((len(self.gates), qubit))
        heapq.heappush(self._free, qubit)
        self._free_set.add(qubit)

    @property
    def free_pool(self) -> frozenset[int]:
        return frozenset(self._free_set)

    # -- gate emission ------------------------------------------------------

    def _emit(self, kind, target, params=(), controls=(), control_state=()):
        gate = Gate(kind, target, tuple(map(float, params)) if params else (),
                    tuple(controls), tuple(map(int, control_state)) if control_state else ())
        if controls or not 0 <= target < self.num_qubits or target in self._free_set:
            self._check_live(gate.qubits)
        self.gates.append(gate)
        return gate

    def _check_live(self, qubits) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise UsageError(f"gate references out-of-range qubit {q}")
            if q in self._free_set:
                raise UsageError(f"gate references deallocated qubit {q}")

    def x(self, q): self._emit(_X, q)
    def h(self, q): self._emit(_H, q)
    def s(self, q): self._emit(_S, q)
    def sdg(self, q): self._emit(_SDG, q)
    def t(self, q): self._emit(_T, q)
    def tdg(self, q): self._emit(_TDG, q)
    def ry(self, theta, q): self._emit(_RY, q, (theta,))
    def u3(self, theta, phi, lam, q): self._emit(_U3, q, (theta, phi, lam))

    def phase(self, lam, q):
        """diag(1, e^{i lam}) — exactly U3(0, 0, lam)."""
        self._emit(_U3, q, (0.0, 0.0, lam))

    def cx(self, ctrl, target):
        self._emit(_X, target, controls=(ctrl,), control_state=(1,))

    def mcx(self, controls, target, control_state=None):
        """Atomic multi-controlled X; lowered by the transpiler."""
        controls = tuple(controls)
        if control_state is None:
            control_state = (1,) * len(controls)
        self._emit(_X, target, controls=controls, control_state=tuple(control_state))

    def mcz(self, qubits, control_state=None):
        """Phase -1 on the basis state matching ``control_state`` across ``qubits``."""
        qubits = tuple(qubits)
        if len(qubits) < 2:
            raise UsageError("mcz needs at least 2 qubits")
        if control_state is None:
            control_state = (1,) * len(qubits)
        control_state = tuple(int(s) for s in control_state)
        if len(control_state) != len(qubits):
            raise UsageError("control_state length mismatch")
        # Normalize: keep a state-1 qubit as the target when one exists,
        # otherwise conjugate the last qubit with X.
        try:
            k = control_state.index(1)
        except ValueError:
            k = -1
        if k < 0:
            tgt = qubits[-1]
            rest = qubits[:-1]
            rest_state = control_state[:-1]
            self.x(tgt)
            self._emit(_MCZ, tgt, controls=rest, control_state=rest_state)
            self.x(tgt)
            return
        tgt = qubits[k]
        rest = qubits[:k] + qubits[k + 1:]
        rest_state = control_state[:k] + control_state[k + 1:]
        self._emit(_MCZ, tgt, controls=rest, control_state=rest_state)

    # -- fragments ----------------------------------------------------------

    def extend(self, gates) -> None:
        """Append a gate fragment.  Wires the fragment used that are free now
        (ancillae it allocated and released itself) are claimed for the replay
        and released after it."""
        gates = tuple(gates)
        self._append(gates, _wires(gates))

    def repeat(self, gates, times: int, moved: tuple[int, int] | None = None) -> None:
        """Append ``times`` copies of a gate fragment, each as ``extend``
        appends it, with wire ``old`` moved to ``new`` when ``moved`` is
        ``(old, new)``; ``new`` must be a wire the fragment does not use.
        Records the span in ``repeats``."""
        fragment = tuple(gates)
        if times < 1:
            raise UsageError("repeat needs at least one copy")
        wires = _wires(fragment)
        copy = fragment
        if moved is not None:
            old, new = moved
            if new in wires:
                raise UsageError(f"wire {new} is already used by the fragment")
            copy = tuple(rewired(fragment, old, new))
            if old in wires:
                wires = wires - {old} | {new}
        start = len(self.gates)
        for _ in range(times):
            self._append(copy, wires)
        self.repeats.append((start, fragment, times, moved))

    def _append(self, gates: tuple, wires: set) -> None:
        reserved = sorted(wires & self._free_set)
        self._check_live(wires - self._free_set)
        if reserved:
            self._free_set.difference_update(reserved)
            self._free = [q for q in self._free if q in self._free_set]
            heapq.heapify(self._free)
            self.alloc_events.extend((len(self.gates), q) for q in reserved)
        self.gates.extend(gates)
        for q in reversed(reserved):
            self.deallocate(q)

    def within(self, compute, action):
        """Emit ``compute()``, then ``action(result)``, then the adjoint of
        what ``compute`` emitted; finally free every qubit allocated since
        the call began that is still allocated, newest first."""
        start, allocs = len(self.gates), len(self.alloc_events)
        result = compute()
        fragment = self.gates[start:]
        action(result)
        self.extend(adjoint(fragment))
        for _, q in reversed(self.alloc_events[allocs:]):
            if q not in self._free_set:
                self.deallocate(q)


def _wires(gates) -> set[int]:
    """Every wire ``gates`` use, as target or control."""
    return {g.target for g in gates}.union(*[g.controls for g in gates])


def rewired(gates, old: int, new: int) -> list[Gate]:
    """``gates`` with wire ``old`` replaced by ``new``, as target or control;
    ``new`` must be a wire ``gates`` do not use."""
    return [_derive(Gate, (g.kind, new if g.target == old else g.target, g.params,
                           tuple(new if q == old else q for q in g.controls), g.control_state))
            if g.target == old or old in g.controls else g for g in gates]


def adjoint(gates) -> list[Gate]:
    """The inverse of a gate sequence: reversed, every gate replaced by its
    adjoint."""
    return [g.adjoint() for g in reversed(gates)]


def invert(circuit: Circuit) -> Circuit:
    """Reversed circuit with every gate replaced by its adjoint."""
    out = Circuit(circuit.num_qubits)
    out.gates = adjoint(circuit.gates)
    return out


# -- text serialization -----------------------------------------------------
#
# Line format (whitespace separated, one gate per line):
#
#   GATE <kind> <params|-> <target> <controls|-> <control_state|->
#
# The target is one integer.  Lists are comma-joined with no spaces; "-"
# stands for an empty list.  The first line is "QUBITS <n>".  Params are printed with repr-level precision.

def to_text(circuit: Circuit) -> str:
    lines = [f"QUBITS {circuit.num_qubits}"]
    for g in circuit.gates:
        params = ",".join(f"{p!r}" for p in g.params) or "-"
        controls = ",".join(str(c) for c in g.controls) or "-"
        state = ",".join(str(s) for s in g.control_state) or "-"
        lines.append(f"GATE {g.kind.value} {params} {g.target} {controls} {state}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("QUBITS "):
        raise UsageError("missing QUBITS header")
    try:
        num_qubits = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise UsageError(f"malformed QUBITS header: {lines[0]!r}") from None
    if num_qubits < 0:
        raise UsageError(f"negative qubit count {num_qubits}")
    circ = Circuit(num_qubits)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 6 or parts[0] != "GATE":
            raise UsageError(f"malformed gate line: {ln!r}")
        _, kind, params, target, controls, state = parts
        try:
            fields = (
                GateKind(kind),
                int(target),
                tuple(float(p) for p in params.split(",")) if params != "-" else (),
                tuple(int(c) for c in controls.split(",")) if controls != "-" else (),
                tuple(int(s) for s in state.split(",")) if state != "-" else (),
            )
        except ValueError:
            raise UsageError(f"malformed gate line: {ln!r}") from None
        gate = Gate(*fields)
        if set(gate.control_state) - {0, 1} or not all(map(math.isfinite, gate.params)):
            raise UsageError(f"malformed gate line: {ln!r}")
        circ._check_live(gate.qubits)
        circ.gates.append(gate)
    return circ
