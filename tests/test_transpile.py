import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwb.circuit import Circuit, Gate, GateKind, UsageError, adjoint, rewired, to_text
from qwb.sim import dense_unitary, gate_matrix
from qwb.sudoku import FIG1_BOARD, parse_board, restrict_board, tree_for_board
from qwb.transpile import ResourceMetrics, _Lowerer, _network, _relabel, metrics, transpile

from helpers import copied_accept, equal_up_to_global_phase, every_check, random_circuit
from reference import clocked_metrics, lowered_gate_by_gate


def _only_basis(circ):
    for g in circ.gates:
        if g.kind is GateKind.U3 and not g.controls:
            continue
        if g.kind is GateKind.X and len(g.controls) == 1 and g.control_state == (1,):
            continue
        raise AssertionError(f"non-basis gate {g}")


def test_transpile_h_is_single_u3():
    c = Circuit(1)
    c.h(0)
    t = transpile(c)
    assert len(t.gates) == 1
    g = t.gates[0]
    assert g.kind is GateKind.U3
    assert g.params == pytest.approx((math.pi / 2, 0.0, math.pi))


def _assert_fusion_maximal(circ):
    """No wire carries two U3 gates without a CX on it in between, and no
    U3 is a global phase times the identity."""
    last_u3 = {}
    for pos, g in enumerate(circ.gates):
        for q in g.qubits:
            if g.kind is GateKind.U3:
                assert last_u3.get(q) is None, f"U3 at {last_u3[q]} and {pos} on wire {q}"
                last_u3[q] = pos
            else:
                last_u3[q] = None
        if g.kind is GateKind.U3:
            m = np.array(gate_matrix(g)).reshape(2, 2)
            assert not np.allclose(m, m[0, 0] * np.eye(2), atol=1e-10), f"identity U3 at {pos}"


def test_round_trip_random_circuits():
    rng = np.random.default_rng(20)
    for _ in range(20):
        c = random_circuit(rng, 5, 25)
        t = transpile(c)
        _only_basis(t)
        _assert_fusion_maximal(t)
        assert equal_up_to_global_phase(dense_unitary(c), dense_unitary(t), 1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4), num_gates=st.integers(1, 15))
def test_property_repeated_gates_lower_under_any_pending_state(seed, n, num_gates):
    # Every fragment gate recurs under different pending matrices: after
    # random single-qubit gates, inside the fragment's adjoint and after it.
    rng = np.random.default_rng(seed)
    fragment = random_circuit(rng, n, num_gates).gates
    c = Circuit(n)
    c.extend(fragment)
    for _ in range(int(rng.integers(1, 2 * n + 1))):
        c.u3(*rng.uniform(-3, 3, 3), int(rng.integers(n)))
    c.extend(adjoint(fragment))
    c.extend(fragment)
    other = Circuit(n)
    other.extend(adjoint(fragment) + random_circuit(rng, n, num_gates).gates)
    alone = to_text(transpile(other))
    t = transpile(c)
    _only_basis(t)
    _assert_fusion_maximal(t)
    assert equal_up_to_global_phase(dense_unitary(c), dense_unitary(t), 1e-9)
    assert to_text(t) == to_text(lowered_gate_by_gate(c))
    # Nothing carries over from one call to the next.
    assert to_text(transpile(other)) == alone


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4), num_gates=st.integers(1, 12),
       times=st.integers(1, 4), move=st.booleans(), stale=st.booleans(),
       again=st.sampled_from([None, "unmoved", "moved"]))
def test_property_recorded_repeats_transpile_as_their_flat_copy(seed, n, num_gates, times,
                                                                  move, stale, again):
    # The fragment lies on wires 0..n-1; wire n is the one a move may
    # target.  Random gates on every wire, before and after, leave pending
    # matrices at each copy's entry and on its way out.
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n + 1, int(rng.integers(0, 8)))
    fragment = tuple(random_circuit(rng, n, num_gates).gates)
    moved = (int(rng.integers(n)), n) if move else None
    start = len(c.gates)
    c.repeat(fragment, times, moved)
    c.extend(random_circuit(rng, n + 1, int(rng.integers(0, 8))).gates)
    assert c.repeats == [(start, tuple(fragment), times, moved)]
    if stale:
        # A gate inside the recorded span replaced: the span is lowered
        # as part of one copy of the whole circuit.
        at = start + int(rng.integers(len(fragment) * times))
        params = tuple(rng.uniform(-3, 3, 3).tolist())
        c.gates[at] = Gate(GateKind.U3, c.gates[at].target, params)
    if again:
        # The same fragment tuple recorded again shares its template, now
        # unmoved or with another wire moved.
        others = [q for q in range(n) if moved is None or q != moved[0]]
        again_moved = (others[int(rng.integers(len(others)))], n) if again == "moved" else None
        c.repeat(fragment, int(rng.integers(1, 4)), again_moved)
        c.extend(random_circuit(rng, n + 1, int(rng.integers(0, 4))).gates)
        assert c.repeats[-1][1] is c.repeats[0][1]
    assert to_text(transpile(c)) == to_text(lowered_gate_by_gate(c))


@pytest.mark.parametrize("precision", [3, 5])
def test_transpile_lowers_the_recorded_step_once_per_call(monkeypatch, precision):
    # A silent fall-back to lowering the 2^p - 1 steps one by one fails
    # here: templates are built for the recorded step once and for the
    # gates outside the recorded spans, and again on the next call.
    circ = _fig1_qpe(3, False, precision)
    assert len(circ.repeats) == precision
    start, step = circ.repeats[0][:2]
    last, _, times, _ = circ.repeats[-1]
    end = last + len(step) * times
    want = circ.gates[:start] + list(step) + circ.gates[end:]
    assert len(want) < len(circ.gates) // 3
    templated = []
    template = _Lowerer._template
    monkeypatch.setattr(_Lowerer, "_template",
                        lambda self, fragment: templated.extend(fragment) or template(self, fragment))
    for _ in range(2):
        templated.clear()
        transpile(circ)
        assert templated == want
    assert to_text(transpile(circ)) == to_text(lowered_gate_by_gate(circ))


def test_each_move_of_the_step_rebuilds_only_the_runs_on_the_moved_wire():
    # Ancilla 0's step moved onto ancillae 1..4: each move is the template
    # with every gate and slot renamed, and every run with no gate on
    # ancilla 0 is the template's own list.
    circ = _fig1_qpe(3, False, 5)
    template = _Lowerer()._template(circ.repeats[0][1])
    items, left = template
    reused = 0
    for *_, (old, new) in circ.repeats[1:]:
        moved_items, moved_left = _relabel(template, old, new)
        assert len(moved_items) == len(items)
        for item, was in zip(moved_items, items):
            if was.__class__ is tuple:
                assert item == (new if was[0] == old else was[0], was[1])
                continue
            assert item == rewired(was, old, new)
            assert (item is was) == all(old not in g.qubits for g in was)
            reused += item is was
        assert moved_left == [(new if q == old else q, mats) for q, mats in left]
    assert reused > 0


def test_fusion_cancels_adjacent_inverses():
    c = Circuit(1)
    c.h(0)
    c.h(0)
    assert transpile(c).gates == []
    c2 = Circuit(2)
    c2.s(0)
    c2.t(0)
    c2.h(1)
    t = transpile(c2)
    assert metrics(t).u3_count == 2      # S,T fused into one U3; H another


def test_mcx_lowering_counts():
    # An open control is conjugated with X, so it costs no extra CX.
    for k, state, want in ((1, None, 1), (2, None, 6), (3, None, 14), (4, None, 30),
                           (1, (0,), 1), (2, (1, 0), 6), (3, (0, 0, 1), 14)):
        c = Circuit(k + 1)
        c.mcx(list(range(k)), k, state)
        t = transpile(c)
        assert metrics(t).cx_count == want
        assert equal_up_to_global_phase(dense_unitary(c), dense_unitary(t), 1e-9)


def test_mcz_lowering_matches():
    rng = np.random.default_rng(21)
    for w in (2, 3, 4):
        state = [int(b) for b in rng.integers(0, 2, w)]
        c = Circuit(w)
        c.mcz(list(range(w)), state)
        t = transpile(c)
        _only_basis(t)
        assert equal_up_to_global_phase(dense_unitary(c), dense_unitary(t), 1e-9)


def _on_wire(m, q, n):
    """The 2x2 ``m`` on wire ``q`` of ``n`` (wire 0 the low bit of an index)."""
    return np.kron(np.kron(np.eye(2 ** (n - 1 - q)), m), np.eye(2 ** q))


def _cx_matrix(ctrl, target, n):
    u = np.zeros((2 ** n, 2 ** n))
    for j in range(2 ** n):
        u[j ^ (1 << target) if j >> ctrl & 1 else j, j] = 1
    return u


def _network_product(gate, n):
    """The operator of ``gate``'s lowering network, multiplied out op by op:
    a ``(wire, matrix)`` op is its 2x2 on that wire, a ``(target, ctrl)`` op
    a CX."""
    u = np.eye(2 ** n, dtype=complex)
    for q, m in _network(gate):
        op = _cx_matrix(m, q, n) if isinstance(m, int) else _on_wire(
            np.array(m).reshape(2, 2), q, n)
        u = op @ u
    return u


def _gate_definition(gate, n):
    """``gate`` from its definition: its base 2x2 on the target where every
    control holds its state, the identity elsewhere."""
    base = {GateKind.X: [[0, 1], [1, 0]], GateKind.H: np.array([[1, 1], [1, -1]]) / math.sqrt(2),
            GateKind.MCZ: [[1, 0], [0, -1]]}[gate.kind]
    match = np.ones(1)
    for q in range(n - 1, -1, -1):      # kron order: wire n - 1 first
        held = dict(zip(gate.controls, gate.control_state)).get(q)
        match = np.kron(match, np.ones(2) if held is None else np.eye(2)[held])
    on = np.diag(match)
    return on @ _on_wire(np.array(base, dtype=complex), gate.target, n) + np.eye(2 ** n) - on


@pytest.mark.parametrize("kind, wires", [(GateKind.X, w) for w in (2, 3, 4)]
                         + [(GateKind.MCZ, w) for w in (2, 3, 4)]
                         + [(GateKind.H, w) for w in (2, 3, 4)])
def test_each_lowering_network_multiplies_out_to_its_gate(kind, wires):
    # Checks ``_network`` itself, which ``lowered_gate_by_gate`` reuses: the
    # target sits between the controls, and every control state is tried.
    target = wires // 2
    controls = tuple(q for q in reversed(range(wires)) if q != target)
    for state in itertools.product((0, 1), repeat=len(controls)):
        gate = Gate(kind, target, (), controls, state)
        want = _gate_definition(gate, wires)
        assert equal_up_to_global_phase(_network_product(gate, wires), want, 1e-12), state


def test_controlled_h_lowers_like_its_single_cx_sequence():
    # One control: the S·H·T, CX, T†·H·S† sequence the gate replaced, and
    # the same output once transpiled.  More controls cost the MCX's CX.
    c = Circuit(3)
    c.ch(0, 2)
    seq = Circuit(3)
    seq.s(2)
    seq.h(2)
    seq.t(2)
    seq.cx(0, 2)
    seq.tdg(2)
    seq.h(2)
    seq.sdg(2)
    assert to_text(transpile(c)) == to_text(transpile(seq))
    for state, want in (((1, 1), 6), ((0, 1), 6), ((1, 0, 1), 14)):
        c = Circuit(len(state) + 1)
        c.extend([Gate(GateKind.H, len(state), (), tuple(range(len(state))), state)])
        t = transpile(c)
        _only_basis(t)
        assert metrics(t).cx_count == want
        assert equal_up_to_global_phase(dense_unitary(c), dense_unitary(t), 1e-9)


def test_metrics_depth_parallel_vs_chained():
    c = Circuit(4)
    c.cx(0, 1)
    c.cx(2, 3)
    assert metrics(c).depth == 1
    c2 = Circuit(3)
    c2.cx(0, 1)
    c2.cx(1, 2)
    assert metrics(c2).depth == 2


def test_metrics_counts_u3_cx_and_depth():
    c = Circuit(2)
    c.u3(1, 2, 3, 0)
    c.u3(3, 2, 1, 1)
    c.cx(0, 1)
    m = metrics(c)
    assert m == ResourceMetrics(qubit_count=2, u3_count=2, cx_count=1, depth=2)


def test_metrics_rejects_untranspiled():
    for emit in (lambda c: c.h(0), lambda c: c.mcz((0, 1)), lambda c: c.mcx([0, 1], 2),
                 lambda c: c.mcx([0], 1, (0,)), lambda c: c.ch(0, 1)):
        c = Circuit(3)
        emit(c)
        with pytest.raises(UsageError):
            metrics(c)


@st.composite
def basis_circuits(draw):
    """A random {U3, CX} circuit on 3..6 wires."""
    n = draw(st.integers(3, 6))
    c = Circuit(n)
    angle = st.floats(-7, 7)
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.booleans()):
            c.cx(*draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        else:
            c.u3(draw(angle), draw(angle), draw(angle), draw(st.integers(0, n - 1)))
    return c


@settings(max_examples=200, deadline=None)
@given(basis_circuits(), st.sampled_from(["MCX", "open CX", "H"]), st.data())
def test_property_metrics_equal_a_plain_clock_loop(c, bad, data):
    m = metrics(c)
    assert (m.qubit_count, m.u3_count, m.cx_count, m.depth) == clocked_metrics(c)
    # Any gate outside {U3, CX}, anywhere in the circuit, is refused.
    emit = {"MCX": lambda: c.mcx([0, 1], 2), "open CX": lambda: c.mcx([0], 1, (0,)),
            "H": lambda: c.h(0)}[bad]
    emit()
    at = data.draw(st.integers(0, len(c.gates) - 1))
    c.gates.insert(at, c.gates.pop())
    with pytest.raises(UsageError, match="untranspiled gate kind"):
        metrics(c)


@pytest.mark.parametrize("subspace", [False, True], ids=["plain", "subspace"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_transpiled_fig1_stays_on_the_input_wires(k, subspace):
    # transpile hands back its lowered gates without replaying them; a
    # replay into a fresh circuit of the same width must accept every gate
    # and claim no wire.
    board = restrict_board(parse_board(FIG1_BOARD), k)
    tree, _ = tree_for_board(board, subspace_optimization=subspace)
    c = tree.new_circuit()
    tree.init_node(c, ())
    tree.estimate_phase(c, 3)
    t = transpile(c)
    assert t.num_qubits == c.num_qubits
    assert (t.alloc_events, t.dealloc_events, t.repeats) == ([], [], [])
    replay = Circuit(c.num_qubits)
    for g in t.gates:
        replay.extend([g])
    assert replay.gates == t.gates and replay.num_qubits == t.num_qubits
    assert (replay.alloc_events, replay.dealloc_events) == ([], [])


# Gate count and SHA-256 of every output gate's kind, target and controls.
FIG1_QPE_GATE_ORDER = {
    1: (1884, "89ac8ee0f71cbd8b33e0f20cf694c9af53105eedf89ccd8d46ab968fe5abf082"),
    2: (4041, "8852777e9e1df110842a7b11dd549a25dc6d0ded0a332c9bb8289f7273f830fd"),
}

# The same pin with the accept result copied into an ancilla (``copied_accept``).
COPIED_ACCEPT_QPE_GATE_ORDER = {
    1: (1919, "93f774922508f5ee296d52c3a09166d40c76b5dfc0f906435074b51e32e8164b"),
    2: (4076, "f1d96cf5fa26b9258ed8d98f0661b5cb05ccab2f19ef4fb1e3d8330f73c97888"),
}


# The same pin with the accept result copied and every reject check kept
# (``copied_accept``, ``every_check``).
EVERY_CHECK_QPE_GATE_ORDER = {
    1: (2752, "9f930dc389ae49185303aabb46daa7b8f7c15f3473843c672e69730ee2201dc0"),
    2: (5431, "a9007ef7667a7af1319a0a05d1ee051b21afa1807f2fa4f4d7f07b517dfd46c6"),
}


def _gate_order(circ):
    gates = transpile(circ).gates
    text = "\n".join(f"{g.kind.value} {g.target} {','.join(map(str, g.controls))}"
                     for g in gates)
    return len(gates), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("k", sorted(FIG1_QPE_GATE_ORDER))
def test_transpiled_fig1_qpe_gate_order_and_wires_are_pinned(monkeypatch, k):
    # The bench rows pin only counts; this pins every output gate's kind,
    # target and controls, in order, for the precision-3 QPE circuit, the
    # circuit pinned while the accept oracle copied h[0], and the one pinned
    # before each diffuser held only its own parents' checks.
    assert _gate_order(_fig1_qpe(k, False)) == FIG1_QPE_GATE_ORDER[k]
    copied_accept(monkeypatch)
    assert _gate_order(_fig1_qpe(k, False)) == COPIED_ACCEPT_QPE_GATE_ORDER[k]
    every_check(monkeypatch)
    assert _gate_order(_fig1_qpe(k, False)) == EVERY_CHECK_QPE_GATE_ORDER[k]


def _fig1_qpe(k, subspace_opt, precision=3):
    tree, _ = tree_for_board(restrict_board(parse_board(FIG1_BOARD), k),
                             subspace_optimization=subspace_opt)
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    tree.estimate_phase(circ, precision)
    return circ


# SHA-256 of the serialized output per (k, subspace_opt).
FIG1_QPE_TEXT_DIGESTS = {
    (1, False): "e2e4d10f83da06766506a8f7b6c7786f4d29a0f0d6d228ad90153a5b02eae462",
    (3, False): "5e945fde82c821ea6ebfea00f22376c13ca26f820a5954bdfdf0864313aa8863",
    (5, False): "c2c33caea02692c7581c9777dac1cd835d369c142360acb0d294a4fbcc3638fe",
    (9, False): "0504814b848292b69cf58c40c324d88c6535088c18760b498d986d41332447d2",
    (1, True): "d3ffbc05559c6ea8d90ffe60712d7152581bd53f7025c28aecd6238e2600c4bc",
    (3, True): "fb0ae5f475ccda80f60b1c7f45ba08cb0565815c74acf450525ffae87b65b765",
    (5, True): "2e86021f261634a40c8aa68b90663d33ac0666268454da82d4c1e968edc5ac6d",
    (9, True): "a7a89da9802d8f25db667eaf0ab28a85a8f1a8322f58831d56e7296bc054c665",
}

# The same SHA-256 with the accept result copied into an ancilla
# (``copied_accept``).
COPIED_ACCEPT_QPE_TEXT_DIGESTS = {
    (1, False): "1d08a738a36ecb8090ece250d9ba92d956091ff4b742422fcf7b78728641ded9",
    (3, False): "7acf2ef1f9a119e1651d1a84dc0bc2fe12fbb64149e236c7046da754151a179b",
    (5, False): "791fc0ec2f83694d31dc8ebe9a67059ddf199926ad41931d846f9692bcc90287",
    (9, False): "0ec396bb58cff1484a2eb8feb9abc1af57e25247c1d474698320ff5ba0f203a3",
    (1, True): "0f01f12b2227e2cdca4664ab4eca641dfb82b85dd38d45654c9536ff796f26a9",
    (3, True): "caa3189a5da5d444dce2db704f6eb77c83b9f97d09c58995825ca05e58519061",
    (5, True): "0b773bf27699effc465c6f40b0a7239bbc049d852a20e3f82c0b9b98aaf5849d",
    (9, True): "94300f7e60f192f226c6b31f43ee75bef7fa396bb2c6808707d9957358864440",
}


# The same SHA-256 with the accept result copied and every reject check kept
# (``copied_accept``, ``every_check``).
EVERY_CHECK_QPE_TEXT_DIGESTS = {
    (1, False): "a728bad45e035167c7430f803657e361df7015d7dc248afd2e351eedf0a10ee9",
    (3, False): "008faec5a66e26dd60c8a23e243c32a926c1ca0c0e0765cf017ed680a5a63169",
    (5, False): "2d9c5c788ee7f68edcd223eac82b957186686afb6d8d63bec8b79032f5cd4155",
    (9, False): "ae8e614b10e5def0cc6a64baf873ee56d35506ce5ed0392c204a802f122a7fa8",
    (1, True): "97a29668b86ab98d83b50ed52fb41ed24aa4053b00fcda33dc6c7d287d455d80",
    (3, True): "879abec60219be30fea8e9a7aa5c70e2e9e9b80adca33348ad52b964fb384c81",
    (5, True): "d762d2aad012d32772ec1a636a74db3be6a3994853c0eed97e80cc4754b17ab9",
    (9, True): "613a0781ff6585d4c507815cc2db132635d858217f65398328016cf69003498e",
}


def _text_digest(k, subspace_opt):
    text = to_text(transpile(_fig1_qpe(k, subspace_opt)))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("k, subspace_opt", list(FIG1_QPE_TEXT_DIGESTS))
def test_transpiled_fig1_qpe_text_is_pinned(monkeypatch, k, subspace_opt):
    # The whole serialized output, U3 parameters included, for the
    # precision-3 QPE circuit, the one pinned while the accept oracle copied
    # h[0], and the one pinned before each diffuser held only its own
    # parents' checks.
    assert _text_digest(k, subspace_opt) == FIG1_QPE_TEXT_DIGESTS[k, subspace_opt]
    copied_accept(monkeypatch)
    assert _text_digest(k, subspace_opt) == COPIED_ACCEPT_QPE_TEXT_DIGESTS[k, subspace_opt]
    every_check(monkeypatch)
    assert _text_digest(k, subspace_opt) == EVERY_CHECK_QPE_TEXT_DIGESTS[k, subspace_opt]
