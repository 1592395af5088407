import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qwb
from qwb.circuit import (Circuit, Gate, GateKind, UsageError, from_text, invert, rewired,
                         to_text)
from qwb.sim import SparseState, apply, dense_unitary

from helpers import random_circuit, random_sparse_dict


def test_allocate_fresh_pool():
    c = Circuit()
    assert c.allocate() == 0
    assert c.allocate() == 1


def test_allocate_recycles_lowest_index():
    c = Circuit()
    q0, q1, q2 = c.allocate(), c.allocate(), c.allocate()
    c.deallocate(q1)
    assert c.allocate() == q1
    c.deallocate(q0)
    c.deallocate(q2)
    assert c.allocate() == q0


def test_deallocate_unallocated_is_error():
    c = Circuit(2)
    c.deallocate(1)
    with pytest.raises(UsageError):
        c.deallocate(1)


def test_deallocate_refuses_wires_outside_the_circuit():
    # A wire outside 0..num_qubits-1 never enters the free pool, so the
    # next allocation still grows the circuit.
    c = Circuit(2)
    for q in (-1, 2, 5):
        with pytest.raises(UsageError, match=f"qubit {q} is not currently allocated"):
            c.deallocate(q)
    assert c.free_pool == frozenset() and c.dealloc_events == []
    assert c.allocate() == 2


def test_gate_on_freed_qubit_is_error():
    c = Circuit()
    q = c.allocate()
    c.deallocate(q)
    with pytest.raises(UsageError):
        c.x(q)


def test_invert_simple_sequence():
    c = Circuit(2)
    c.h(0)
    c.cx(0, 1)
    inv = invert(c)
    assert [g.kind for g in inv.gates] == [GateKind.X, GateKind.H]
    assert inv.gates[0].controls == (0,)


def test_invert_negates_ry():
    c = Circuit(1)
    c.ry(0.73, 0)
    assert invert(c).gates[0].params == (-0.73,)


def test_invert_twice_is_gate_for_gate_equal():
    rng = np.random.default_rng(0)
    c = random_circuit(rng, 4, 30)
    assert invert(invert(c)).gates == c.gates


def test_invert_is_adjoint_dense():
    rng = np.random.default_rng(1)
    c = random_circuit(rng, 4, 25)
    u = dense_unitary(c)
    v = dense_unitary(invert(c))
    assert np.max(np.abs(v - u.conj().T)) < 1e-9


def test_circuit_then_inverse_is_identity_on_random_states():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = random_circuit(rng, 5, 20)
        c2 = Circuit(5)
        c2.extend(c.gates)
        c2.extend(invert(c).gates)
        st = SparseState.from_dict(5, random_sparse_dict(rng, 5, 8))
        out = apply(st, c2)
        diff = dict(st.amplitudes)
        for k, v in out.amplitudes.items():
            diff[k] = diff.get(k, 0) - v
        err = math.sqrt(sum(abs(v) ** 2 for v in diff.values()))
        assert err <= 1e-10


def test_gate_validation():
    with pytest.raises(UsageError):
        Gate(GateKind.RY, 0, params=())
    with pytest.raises(UsageError):
        Gate(GateKind.X, 0, controls=(0,), control_state=(1,))
    with pytest.raises(UsageError):
        Gate(GateKind.T, 1, controls=(0,), control_state=(1,))
    with pytest.raises(UsageError):
        Gate(GateKind.RY, 1, params=(0.7,), controls=(0,), control_state=(1,))
    with pytest.raises(UsageError):
        Gate(GateKind.H, 1, controls=(1,), control_state=(1,))
    assert Gate(GateKind.H, 1, controls=(0,), control_state=(0,)).display_name() == "MCH"
    c = Circuit(1)
    with pytest.raises(UsageError):
        c.cx(0, 1)


def test_control_states_and_params_outside_the_gate_domain_are_refused():
    # A control state of 2 never fired in the simulator but fired on |1> once
    # transpiled, 0.7 was truncated to 0, and a NaN angle was written out as
    # text that from_text refused.
    for state in ([2], [0.7], [-1]):
        c = Circuit(2)
        c.x(0)
        with pytest.raises(UsageError, match=r"control states must be 0 or 1, got \("):
            c.mcx([0], 1, state)
        with pytest.raises(UsageError, match="control states must be 0 or 1"):
            c.mcz([0, 1], state + [1])
        assert len(c.gates) == 1
    for emit in (lambda c: c.ry(math.nan, 0), lambda c: c.u3(0.1, math.inf, 0.2, 0),
                 lambda c: c.phase(-math.inf, 0)):
        with pytest.raises(UsageError, match="params must be finite"):
            emit(Circuit(1))
    with pytest.raises(UsageError, match="RY params must be finite, got \\(nan,\\)"):
        from_text("QUBITS 1\nGATE RY nan 0 - -")
    with pytest.raises(UsageError, match="control states must be 0 or 1, got \\(2,\\)"):
        from_text("QUBITS 2\nGATE X - 1 0 2")
    # Entries equal to 0 or 1 are kept as the ints they equal.
    c = Circuit(2)
    c.mcx([0], 1, [True])
    c.mcx([0], 1, [1.0])
    c.mcz([0, 1], [np.int64(0), 1])
    assert [g.control_state for g in c.gates] == [(1,), (1,), (0,)]
    assert from_text(to_text(c)).gates == c.gates


def _first_violation(kind, target, params, controls, state):
    """The message of the first rule a gate's fields break, or None."""
    want = {GateKind.RY: 1, GateKind.U3: 3}.get(kind, 0)
    if len(controls) != len(state):
        return "controls and control_state lengths differ"
    if controls and kind not in (GateKind.X, GateKind.H, GateKind.MCZ):
        return f"{kind.value} takes no controls"
    if not set(state) <= {0, 1}:
        return f"control states must be 0 or 1, got {state}"
    if len(params) != want:
        return f"{kind.value} expects {want} params, got {len(params)}"
    if not all(map(math.isfinite, params)):
        return f"{kind.value} params must be finite, got {params}"
    if target in controls or len(set(controls)) != len(controls):
        return "target and controls must be disjoint and unique"
    return None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_gate_raises_exactly_when_invalid_with_the_first_rule_broken(data):
    kind = data.draw(st.sampled_from(list(GateKind)))
    target = data.draw(st.integers(0, 4))
    param = st.floats(-7, 7) | st.sampled_from([math.nan, math.inf, -math.inf])
    params = tuple(data.draw(st.lists(param, max_size=4)))
    controls = tuple(data.draw(st.lists(st.integers(0, 4), max_size=3)))
    bit = st.integers(0, 1) | st.sampled_from([-1, 2, 0.7])
    state = tuple(data.draw(st.lists(bit, min_size=len(controls), max_size=len(controls))
                            | st.lists(bit, max_size=3)))
    fields = (kind, target, params, controls, state)
    expected = _first_violation(*fields)
    if expected is not None:
        with pytest.raises(UsageError) as err:
            Gate(*fields)
        assert str(err.value) == expected
        return
    g = Gate(*fields)
    assert tuple(g) == fields and g.qubits == (target,) + controls
    assert g == Gate(*fields) and hash(g) == hash(Gate(*fields))
    with pytest.raises(AttributeError):
        g.target = target + 1
    with pytest.raises(AttributeError):
        g.extra = 1
    # _replace builds through the same checks.
    with pytest.raises(UsageError):
        g._replace(controls=controls + (target,), control_state=state + (1,))


@st.composite
def valid_gates(draw):
    """A gate that passes ``Gate``'s checks, on wires 0..5."""
    kind = draw(st.sampled_from(list(GateKind)))
    size = 4 if kind in (GateKind.X, GateKind.H, GateKind.MCZ) else 1
    wires = draw(st.lists(st.integers(0, 5), min_size=1, max_size=size, unique=True))
    want = {GateKind.RY: 1, GateKind.U3: 3}.get(kind, 0)
    params = draw(st.lists(st.floats(-7, 7), min_size=want, max_size=want))
    state = draw(st.lists(st.integers(0, 1), min_size=len(wires) - 1, max_size=len(wires) - 1))
    return Gate(kind, wires[0], tuple(params), tuple(wires[1:]), tuple(state))


@settings(max_examples=300, deadline=None)
@given(st.lists(valid_gates(), max_size=6), st.integers(0, 5), st.integers(0, 7))
def test_property_derived_gates_pass_the_checks_they_skip(gates, old, new):
    # Adjoints and rewired copies are built without Gate's checks: each must
    # be the gate its fields build, and the adjoint must be an involution.
    assume(all(new not in g.qubits for g in gates))     # rewired's contract
    moved = rewired(gates, old, new)
    for g, r in zip(gates, moved):
        for derived in (g.adjoint(), r):
            assert type(derived) is Gate and derived == Gate(*derived)
            assert all(type(f) is tuple for f in derived[2:])
        assert g.adjoint().adjoint() == g
        assert r.qubits == tuple(new if q == old else q for q in g.qubits)
        assert r.params == g.params and r.control_state == g.control_state
    assert len(moved) == len(gates)


@pytest.mark.parametrize("emit", [
    lambda c, q: c.x(q), lambda c, q: c.h(q), lambda c, q: c.t(q),
    lambda c, q: c.ry(0.3, q), lambda c, q: c.cx(q, 0), lambda c, q: c.cx(0, q),
], ids=["x", "h", "t", "ry", "cx-control", "cx-target"])
def test_emitting_on_a_dead_wire_raises_and_appends_nothing(emit):
    c = Circuit(3)
    c.deallocate(1)
    for q, message in ((3, "gate references out-of-range qubit 3"),
                       (-1, "gate references out-of-range qubit -1"),
                       (1, "gate references deallocated qubit 1")):
        with pytest.raises(UsageError) as err:
            emit(c, q)
        assert str(err.value) == message
    assert c.gates == []


def test_extend_rejects_an_out_of_range_wire():
    for bad in (5, -1):
        c = Circuit(2)
        with pytest.raises(UsageError) as err:
            c.extend([Gate(GateKind.H, 0), Gate(GateKind.X, bad, (), (1,), (1,))])
        assert str(err.value) == f"gate references out-of-range qubit {bad}"
        assert c.gates == []


def test_rejected_extend_leaves_the_pool_and_events_unchanged():
    # Wire 2 is free, so a valid fragment would claim it for the replay.
    for bad in (5, -1):
        c = Circuit(3)
        c.x(0)
        c.deallocate(2)
        before = (c.free_pool, list(c.alloc_events), list(c.dealloc_events), list(c.gates))
        with pytest.raises(UsageError, match="out-of-range"):
            c.extend([Gate(GateKind.H, 2), Gate(GateKind.X, bad)])
        assert (c.free_pool, c.alloc_events, c.dealloc_events, c.gates) == before
        assert c.allocate() == 2


def test_repeat_appends_moved_copies_and_records_the_span():
    c = Circuit(3)
    c.h(0)
    fragment = [Gate(GateKind.X, 1, (), (0,), (1,)), Gate(GateKind.T, 0)]
    c.repeat(fragment, 2, (0, 2))
    moved = [Gate(GateKind.X, 1, (), (2,), (1,)), Gate(GateKind.T, 2)]
    assert c.gates == [Gate(GateKind.H, 0)] + moved * 2
    assert c.repeats == [(1, tuple(fragment), 2, (0, 2))]
    c.repeat(fragment, 1)
    assert c.gates[5:] == fragment
    assert c.repeats[1] == (5, tuple(fragment), 1, None)


def test_repeat_claims_free_wires_per_copy_as_extend_does():
    a, b = Circuit(3), Circuit(3)
    for c in (a, b):
        c.deallocate(2)
    fragment = [Gate(GateKind.X, 2, (), (0,), (1,)), Gate(GateKind.X, 2, (), (0,), (1,))]
    a.repeat(fragment, 3)
    for _ in range(3):
        b.extend(fragment)
    assert (a.gates, a.alloc_events, a.dealloc_events) == (b.gates, b.alloc_events,
                                                          b.dealloc_events)
    assert a.free_pool == b.free_pool == {2}


def test_rejected_repeat_appends_and_records_nothing():
    fragment = [Gate(GateKind.X, 1, (), (0,), (1,))]
    for times, moved in ((0, None), (2, (0, 1)), (1, (0, 5))):
        c = Circuit(3)
        with pytest.raises(UsageError):
            c.repeat(fragment, times, moved)
        assert (c.gates, c.repeats, c.alloc_events) == ([], [], [])


@pytest.mark.parametrize("kind", [GateKind.S, GateKind.SDG, GateKind.T,
                                  GateKind.TDG, GateKind.RY, GateKind.U3])
def test_only_x_and_mcz_take_controls(kind):
    # H takes controls too; test_h_takes_controls_like_x_and_mcz covers it.
    params = (0.5,) * {GateKind.RY: 1, GateKind.U3: 3}.get(kind, 0)
    with pytest.raises(UsageError, match=f"^{kind.value} takes no controls$"):
        Gate(kind, 1, params, controls=(0,), control_state=(0,))
    c = Circuit(3)
    with pytest.raises(UsageError):
        c._emit(kind, 2, params, (0, 1), (1, 1))
    assert c.gates == []
    c._emit(GateKind.X, 2, (), (0, 1), (1, 0))
    c._emit(GateKind.MCZ, 2, (), (0, 1), (0, 1))
    assert [g.display_name() for g in c.gates] == ["MCX", "MCZ"]


def test_h_takes_controls_like_x_and_mcz():
    c = Circuit(3)
    c._emit(GateKind.X, 2, (), (0, 1), (1, 0))
    c._emit(GateKind.H, 2, (), (0, 1), (1, 0))
    c.ch(1, 0)
    c._emit(GateKind.MCZ, 2, (), (0, 1), (0, 1))
    assert [g.display_name() for g in c.gates] == ["MCX", "MCH", "CH", "MCZ"]
    assert c.gates[2] == Gate(GateKind.H, 0, (), (1,), (1,))


def test_within_whose_action_emits_nothing_emits_nothing():
    # compute followed by its adjoint is the identity, so the call leaves the
    # gates, the pool, the allocation events and the recorded repeats as they
    # were: the wires the compute allocated, one recycled and one new, are
    # free again, and the span it recorded is gone with its gates.
    c = Circuit(3)
    c.h(0)
    c.deallocate(c.allocate())
    before = (list(c.gates), c.num_qubits, c.free_pool, list(c.alloc_events),
              list(c.dealloc_events), list(c.repeats))

    def compute():
        a, b = c.allocate(), c.allocate()
        c.mcx([0, 1], a)
        c.within(lambda: c.cx(a, b) or b, c.t)
        c.repeat((Gate(GateKind.H, 1),), 2)
        return a

    c.within(compute, lambda _: None)
    assert (c.gates, c.num_qubits, c.free_pool, c.alloc_events, c.dealloc_events,
            c.repeats) == before
    # With an action the same call emits all three parts.  A debug run checks
    # every freed wire for |0>, so an event left from the dropped compute
    # (wire 3 freed while it holds q0 AND q1) would fail it.
    c.within(compute, lambda a: c.cx(a, 2))
    assert (len(c.gates), c.free_pool) == (14, {3, 4})
    assert c.repeats == [(5, (Gate(GateKind.H, 1),), 2, None)]
    apply(SparseState.from_dict(5, {0b000: 0.6, 0b011: 0.8}), c, debug=True)


def test_package_exports_resolve():
    for name in qwb.__all__:
        assert getattr(qwb, name) is not None, name


def test_mcz_requires_two_qubits():
    c = Circuit(3)
    with pytest.raises(UsageError):
        c.mcz([0])


def test_serialization_round_trip():
    rng = np.random.default_rng(4)
    c = random_circuit(rng, 4, 30)
    text = to_text(c)
    back = from_text(text)
    assert back.num_qubits == c.num_qubits
    assert back.gates == c.gates
    assert to_text(back) == text


def test_controlled_h_with_an_open_control_round_trips_through_text():
    c = Circuit(4)
    c._emit(GateKind.H, 3, (), (0, 2), (1, 0))
    c.ch(1, 0)
    text = to_text(c)
    assert text == "QUBITS 4\nGATE H - 3 0,2 1,0\nGATE H - 0 1 1\n"
    back = from_text(text)
    assert back.gates == c.gates and to_text(back) == text


def test_serialization_rejects_garbage():
    for text in ("GATE X - 0 - -", "QUBITS 2\nnot a gate line at all", "QUBITS x", "QUBITS ",
                 "QUBITS 2\nGATE FOO - 0 - -", "QUBITS 2\nGATE X a 0 - -",
                 "QUBITS 2\nGATE X - a - -", "QUBITS 2\nGATE X - 0 a 1"):
        with pytest.raises(UsageError):
            from_text(text)


def test_from_text_header_splits_on_any_whitespace():
    # Gate lines split on any whitespace, and so does the header.
    text = "GATE H - 0 - -\nGATE X - 1 0 1\n"
    tabbed, spaced = from_text("QUBITS\t2\n" + text), from_text("QUBITS 2\n" + text)
    assert (tabbed.num_qubits, tabbed.gates) == (spaced.num_qubits, spaced.gates)
    for header in ("QUBITS", "QUBITS 2 junk", "QUBITS\t2\tjunk", "QUBITS2", "qubits 2"):
        with pytest.raises(UsageError):
            from_text(header + "\n" + text)


@pytest.mark.parametrize("line", ["GATE X - 5 - -", "GATE X - 0 2 1", "GATE X - -1 - -"])
def test_from_text_rejects_qubits_off_the_register(line):
    with pytest.raises(UsageError):
        from_text("QUBITS 2\n" + line)


@pytest.mark.parametrize("text", ["QUBITS 2\nGATE X - 0,1 - -", "QUBITS 2\nGATE SWAP - 0 - -",
                                  "QUBITS 2\nGATE X - 0 1 2", "QUBITS -1",
                                  "QUBITS 2\nGATE FOO - 0 - -", "QUBITS 2\nGATE X a 0 - -",
                                  "QUBITS 2\nGATE X - a - -", "QUBITS x",
                                  "QUBITS 2\nGATE SWAP - 0,1 - -",
                                  "QUBITS 2\nGATE XXPLUSYY 1.0,1.5707963267948966 0,1 - -",
                                  "QUBITS 2\nGATE BARRIER - - - -",
                                  "QUBITS 3\nGATE T - 2 0,1 1,1", "QUBITS 2\nGATE RY 0.7 1 0 1",
                                  "QUBITS 2\nGATE U3 1.0,2.0,3.0 1 0 0",
                                  "QUBITS 1\nGATE U3 nan,0.0,0.0 0 - -", "QUBITS 1\nGATE RY inf 0 - -",
                                  "QUBITS 2 junk"])
def test_from_text_rejects_malformed_gates(text):
    with pytest.raises(UsageError):
        from_text(text)


def test_no_gate_references_free_pool_structurally():
    # Re-walk an oracle-heavy circuit and re-check every gate against the
    # pool state reconstructed from the allocation/deallocation history.
    from qwb.sudoku import FIG1_BOARD, parse_board, restrict_board, tree_for_board

    board = restrict_board(parse_board(FIG1_BOARD), 2)
    tree, _ = tree_for_board(board)
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    tree.quantum_step(circ)
    dealloc_at = {}
    for pos, q in circ.dealloc_events:
        dealloc_at.setdefault(pos, []).append(q)
    alloc_at = {}
    for pos, q in circ.alloc_events:
        alloc_at.setdefault(pos, []).append(q)
    free: set[int] = set()
    for pos, gate in enumerate(circ.gates):
        # At one position a wire can be released and immediately re-claimed
        # (fragment mirrors); releases never follow a same-position claim.
        free.update(dealloc_at.get(pos, ()))
        free.difference_update(alloc_at.get(pos, ()))
        assert all(q not in free for q in gate.qubits), (pos, gate)
