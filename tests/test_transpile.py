import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwb.circuit import Circuit, Gate, GateKind, UsageError, adjoint, to_text
from qwb.sim import dense_unitary, gate_matrix
from qwb.sudoku import FIG1_BOARD, parse_board, restrict_board, tree_for_board
from qwb.transpile import ResourceMetrics, _Lowerer, metrics, transpile

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
       times=st.integers(1, 4), move=st.booleans(), stale=st.booleans())
def test_property_recorded_repeats_transpile_as_their_flat_copy(seed, n, num_gates, times,
                                                                  move, stale):
    # The fragment lies on wires 0..n-1; wire n is the one a move may
    # target.  Random gates on every wire, before and after, leave pending
    # matrices at each copy's entry and on its way out.
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n + 1, int(rng.integers(0, 8)))
    fragment = random_circuit(rng, n, num_gates).gates
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
                 lambda c: c.mcx([0], 1, (0,))):
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
    1: (2450, "b2178b857c23027cdc083ae2354a2cd6487be6cff16a76a6d2d2d8899d447e1b"),
    2: (4041, "8852777e9e1df110842a7b11dd549a25dc6d0ded0a332c9bb8289f7273f830fd"),
}

# The same pin with the accept result copied into an ancilla (``copied_accept``).
COPIED_ACCEPT_QPE_GATE_ORDER = {
    1: (2485, "04e6b1601f1aab53b8c37dd0748aa417b6b14de15120cd94b66e4bac13f1f167"),
    2: (4076, "f1d96cf5fa26b9258ed8d98f0661b5cb05ccab2f19ef4fb1e3d8330f73c97888"),
}


def _gate_order(circ):
    gates = transpile(circ).gates
    text = "\n".join(f"{g.kind.value} {g.target} {','.join(map(str, g.controls))}"
                     for g in gates)
    return len(gates), hashlib.sha256(text.encode()).hexdigest()


# ``count`` and ``digest`` are the same pin with the accept result copied
# and every reject check kept (``copied_accept``, ``every_check``).
@pytest.mark.parametrize("k, count, digest", [
    (1, 2752, "9f930dc389ae49185303aabb46daa7b8f7c15f3473843c672e69730ee2201dc0"),
    (2, 5431, "a9007ef7667a7af1319a0a05d1ee051b21afa1807f2fa4f4d7f07b517dfd46c6"),
])
def test_transpiled_fig1_qpe_gate_order_and_wires_are_pinned(monkeypatch, k, count, digest):
    # The bench rows pin only counts; this pins every output gate's kind,
    # target and controls, in order, for the precision-3 QPE circuit, the
    # circuit pinned while the accept oracle copied h[0], and the one pinned
    # before each diffuser held only its own parents' checks.
    assert _gate_order(_fig1_qpe(k, False)) == FIG1_QPE_GATE_ORDER[k]
    copied_accept(monkeypatch)
    assert _gate_order(_fig1_qpe(k, False)) == COPIED_ACCEPT_QPE_GATE_ORDER[k]
    every_check(monkeypatch)
    assert _gate_order(_fig1_qpe(k, False)) == (count, digest)


def _fig1_qpe(k, subspace_opt, precision=3):
    tree, _ = tree_for_board(restrict_board(parse_board(FIG1_BOARD), k),
                             subspace_optimization=subspace_opt)
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    tree.estimate_phase(circ, precision)
    return circ


# SHA-256 of the serialized output per (k, subspace_opt).
FIG1_QPE_TEXT_DIGESTS = {
    (1, False): "f965ae4106cb0f5ff6afee88795a467a3aeb008197614e84190fd1e10cd629b6",
    (3, False): "5e945fde82c821ea6ebfea00f22376c13ca26f820a5954bdfdf0864313aa8863",
    (5, False): "213621c0d3093239e7429e5563747e2311bb38ae8c29979be9a7ddfa187bb361",
    (9, False): "d563ad759e94b34262656d17b898de24eea7de8d713c490429201f89e760afc9",
    (1, True): "57585498aaedc6a4ce8383e45927e76958e2ae59e4797a0533ea9299051f78a0",
    (3, True): "fb0ae5f475ccda80f60b1c7f45ba08cb0565815c74acf450525ffae87b65b765",
    (5, True): "b82e25547e57b94a00d77da7a9ba3eb687f21b1538e676bcccf6083bb3e2b2b6",
    (9, True): "4ba4dcf15fbd3828feb6608d22521802005ae4681cff7a69fb306454cd29220f",
}

# The same SHA-256 with the accept result copied into an ancilla
# (``copied_accept``).
COPIED_ACCEPT_QPE_TEXT_DIGESTS = {
    (1, False): "015d05058fab6f941ee9b8f6519291921d9bec279cbdbbebe89e3ae8412763d7",
    (3, False): "7acf2ef1f9a119e1651d1a84dc0bc2fe12fbb64149e236c7046da754151a179b",
    (5, False): "129559801cfa414617fc6fdcc44a150ab2c7337035633ce7981ec25d3676b2e6",
    (9, False): "c4ebfd2d2cbfbe6320bb44255ad24da6c8d742724469777d1616b7d96f98da96",
    (1, True): "4668fd449cbaa81fbb63d7c7920ae55563df59fb0754e800d2e6998eca0e49d8",
    (3, True): "caa3189a5da5d444dce2db704f6eb77c83b9f97d09c58995825ca05e58519061",
    (5, True): "cefcecf8be2e308393098fcc63a14e4216185e07c4ef32a839daa55e8ca091e2",
    (9, True): "e0f9c1dca1d759f86ab8e3b38174b26ea73fd9db6e96195254532dbcfa9fbac0",
}


def _text_digest(k, subspace_opt):
    text = to_text(transpile(_fig1_qpe(k, subspace_opt)))
    return hashlib.sha256(text.encode()).hexdigest()


# ``digest`` is the same SHA-256 with the accept result copied and every
# reject check kept (``copied_accept``, ``every_check``).
@pytest.mark.parametrize("k, subspace_opt, digest", [
    (1, False, "a728bad45e035167c7430f803657e361df7015d7dc248afd2e351eedf0a10ee9"),
    (3, False, "58eeb6e9173d5d71cf0918858b549ca5cdb8bd50da42a76548b17f336131ca65"),
    (5, False, "5541dfe6934bcca8b90e4b517159e97eeb32f6b2a52261ff08e43e221167324c"),
    (9, False, "ec48bcde43e8a1f75cb1c5467d65a053ddb3b6aa7c2d86cc2b36a2fd89c8620e"),
    (1, True, "97a29668b86ab98d83b50ed52fb41ed24aa4053b00fcda33dc6c7d287d455d80"),
    (3, True, "86a8c65dfc969382e8ed40c57d0f6b2c3b24bdef4b125a1b9cc8b3705eabdf55"),
    (5, True, "194bc2de2517fc14f8cf13948dae73971f8e0bc48dbcb9869c76dc99c92f3c7c"),
    (9, True, "afc6ef80dc53589ae66586ed982df18bf80d40ff9d43896bb33d67faf4e67d2b"),
])
def test_transpiled_fig1_qpe_text_is_pinned(monkeypatch, k, subspace_opt, digest):
    # The whole serialized output, U3 parameters included, for the
    # precision-3 QPE circuit, the one pinned while the accept oracle copied
    # h[0], and the one pinned before each diffuser held only its own
    # parents' checks.
    assert _text_digest(k, subspace_opt) == FIG1_QPE_TEXT_DIGESTS[k, subspace_opt]
    copied_accept(monkeypatch)
    assert _text_digest(k, subspace_opt) == COPIED_ACCEPT_QPE_TEXT_DIGESTS[k, subspace_opt]
    every_check(monkeypatch)
    assert _text_digest(k, subspace_opt) == digest
