import itertools
import math

import numpy as np
import pytest

from qwb.circuit import Circuit, UsageError, adjoint, invert
from qwb.sim import SparseState, apply, dense_unitary
from qwb.synthesis import (TruthTable, and_ladder, cq_in_set, fredkin, qq_equal,
                           rmcx, synth_truth_table, xx_plus_yy)
from qwb.transpile import metrics, transpile

from helpers import xxyy_matrix


def cx_count(circ):
    return metrics(transpile(circ)).cx_count


def depth_of(circ):
    return metrics(transpile(circ)).depth


# -- mcx ----------------------------------------------------------------------

def mcx_permutation(k, control_state, dim_qubits):
    """Analytic MCX permutation matrix: controls 0..k-1, target k."""
    dim = 2 ** dim_qubits
    m = np.zeros((dim, dim))
    for col in range(dim):
        hit = all(((col >> q) & 1) == s for q, s in enumerate(control_state))
        m[col ^ (1 << k) if hit else col, col] = 1
    return m


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_mcx_gray_matches_analytic_permutation(k):
    for control_state in itertools.product((0, 1), repeat=k):
        c = Circuit(k + 1)
        c.mcx(list(range(k)), k, control_state)
        u = dense_unitary(c)
        assert np.allclose(u, mcx_permutation(k, control_state, k + 1), atol=1e-9)


def test_mcx_gray_pt_counts():
    c = Circuit(4)
    rmcx(c, [0, 1, 2], 3)
    assert cx_count(c) == 6
    c = Circuit(4)
    c.mcx([0, 1, 2], 3)
    assert cx_count(c) == 14
    c = Circuit(3)
    rmcx(c, [0, 1], 2)
    assert cx_count(c) == 3


def test_mcx_gray_pt_is_mcx_up_to_diagonal_phases():
    for k in (2, 3):
        c = Circuit(k + 1)
        rmcx(c, list(range(k)), k)
        u = np.abs(dense_unitary(c))
        assert np.allclose(u, mcx_permutation(k, (1,) * k, k + 1), atol=1e-9)


def test_gray_pt_followed_by_inverse_is_identity():
    for k in (2, 3):
        c = Circuit(k + 1)
        rmcx(c, list(range(k)), k)
        c.extend(invert(c).gates)
        assert np.allclose(dense_unitary(c), np.eye(2 ** (k + 1)), atol=1e-9)


def test_mcx_balauca_correctness_and_ancilla_return():
    for k in (4, 6, 8):
        c = Circuit(k + 1)
        c.within(lambda: and_ladder(c, list(range(k)), (1,) * k),
                 lambda layer: c.mcx(layer, k))
        assert c.free_pool == frozenset(range(k + 1, c.num_qubits))
        if c.num_qubits <= 12:
            u = dense_unitary(c)
            block = [i for i in range(2 ** c.num_qubits) if i < 2 ** (k + 1)]
            got = u[np.ix_(block, block)]
            assert np.allclose(got, mcx_permutation(k, (1,) * k, k + 1), atol=1e-9)


def test_balauca_depth_sublinear():
    depths = {}
    for k in (4, 8):
        c = Circuit(k + 1)
        c.within(lambda: and_ladder(c, list(range(k)), (1,) * k),
                 lambda layer: c.mcx(layer, k))
        depths[k] = depth_of(c)
    assert depths[8] < 2 * depths[4]


def test_mcx_needs_controls():
    with pytest.raises(UsageError):
        rmcx(Circuit(2), [], 0)


@pytest.mark.parametrize("k", [1, 4])
def test_rmcx_at_one_and_four_controls_is_the_exact_gate(k):
    # One control, and 4 or more (9x9 boards' qq_equal), carry no relative
    # phase: the same unitary as Circuit.mcx at every control state.
    for control_state in itertools.product((0, 1), repeat=k):
        c = Circuit(k + 1)
        rmcx(c, list(range(k)), k, control_state)
        ref = Circuit(k + 1)
        ref.mcx(list(range(k)), k, control_state)
        assert np.allclose(dense_unitary(c), dense_unitary(ref), atol=1e-12)


# -- mcz ----------------------------------------------------------------------

def test_mcz_two_qubits_is_cz():
    c = Circuit(2)
    c.mcz([0, 1])
    assert np.allclose(dense_unitary(c), np.diag([1, 1, 1, -1]), atol=1e-12)


def test_mcz_zero_polarity_entry():
    c = Circuit(2)
    c.mcz([0, 1], [0, 1])   # flips the |q0=0, q1=1| state
    assert np.allclose(dense_unitary(c), np.diag([1, 1, -1, 1]), atol=1e-12)


def test_mcz_symmetric_under_reordering():
    a = Circuit(3)
    a.mcz([0, 1, 2], [1, 0, 1])
    b = Circuit(3)
    b.mcz([2, 0, 1], [1, 1, 0])
    assert np.allclose(dense_unitary(a), dense_unitary(b), atol=1e-12)


def test_mcz_extra_control_is_one_more_qubit():
    base = Circuit(3)
    base.mcz([0, 1, 2], [1, 0, 1])
    ext = Circuit(4)
    ext.mcz([0, 1, 2, 3], [1, 0, 1, 1])
    # Qubit 3 is the high bit: |0><0| (x) I + |1><1| (x) U.
    controlled = np.block([[np.eye(8), np.zeros((8, 8))],
                           [np.zeros((8, 8)), dense_unitary(base)]])
    assert np.allclose(dense_unitary(ext), controlled, atol=1e-12)


# -- truth tables -------------------------------------------------------------

FIG_TABLE = TruthTable(2, 1, (1, 0, 1, 1))   # inputs 00,01,10,11 -> 1,0,1,1


def table_outputs(circ, n_in, out_qubit):
    outs = []
    for x in range(2 ** n_in):
        st = SparseState.basis_state(circ.num_qubits, x)
        res = apply(st, circ)
        outs.append(int(round(res.probability(out_qubit, 1))))
    return outs


def test_truth_table_example():
    c = Circuit(3)
    synth_truth_table(c, FIG_TABLE, [0, 1], [2])
    assert table_outputs(c, 2, 2) == [1, 0, 1, 1]


def test_truth_table_exact_has_no_garbage_phase():
    c = Circuit(3)
    synth_truth_table(c, FIG_TABLE, [0, 1], [2])
    u = dense_unitary(c)
    for x, fx in enumerate(FIG_TABLE.rows):
        assert u[x | (fx << 2), x] == pytest.approx(1.0, abs=1e-9)


def test_truth_table_pt_unit_modulus_and_cancellation():
    rng = np.random.default_rng(30)
    for _ in range(5):
        rows = tuple(int(v) for v in rng.integers(0, 2, 8))
        tt = TruthTable(3, 1, rows)
        c = Circuit(4)
        synth_truth_table(c, tt, [0, 1, 2], [3], phase_tolerant=True)
        u = dense_unitary(c)
        for x, fx in enumerate(rows):
            assert abs(u[x | (fx << 3), x]) == pytest.approx(1.0, abs=1e-9)
        c.extend(invert(c).gates)
        assert np.allclose(dense_unitary(c), np.eye(16), atol=1e-9)


def test_truth_table_controlled_zero_control_keeps_output_zero():
    c = Circuit(4)
    synth_truth_table(c, FIG_TABLE, [0, 1], [3], ctrl=2)
    u = dense_unitary(c)
    for x in range(4):
        assert u[x, x] == pytest.approx(1.0, abs=1e-9)     # ctrl=0 block
        on = x | 0b0100
        assert abs(u[on | (FIG_TABLE.rows[x] << 3), on]) == pytest.approx(1.0, abs=1e-9)


def test_truth_table_constant_zero_emits_nothing():
    c = Circuit(3)
    synth_truth_table(c, TruthTable(2, 1, (0, 0, 0, 0)), [0, 1], [2])
    assert c.gates == []


def test_truth_table_partial_is_error():
    with pytest.raises(UsageError):
        TruthTable(2, 1, (1, 0, 1))


def test_controlled_synthesis_overhead_factor():
    rng = np.random.default_rng(31)
    for _ in range(5):
        rows = tuple(int(v) for v in rng.integers(0, 2, 8))
        if len(set(rows)) == 1:
            continue
        tt = TruthTable(3, 1, rows)
        plain = Circuit(4)
        synth_truth_table(plain, tt, [0, 1, 2], [3])
        ctl = Circuit(5)
        synth_truth_table(ctl, tt, [0, 1, 2], [4], ctrl=3)
        assert cx_count(ctl) <= 2.2 * cx_count(plain)


# -- XX+YY, controlled H, Fredkin ---------------------------------------------

def test_xxyy_phi_zero_is_identity_outside_11():
    c = Circuit(2)
    xx_plus_yy(c, 0.0, 0, 1)
    u = dense_unitary(c)
    for col in (0, 1, 2):
        want = np.zeros(4)
        want[col] = 1
        assert np.allclose(u[:, col], want, atol=1e-12)


def test_xxyy_phi_pi_swaps_one_hot_states():
    c = Circuit(2)
    xx_plus_yy(c, math.pi, 0, 1)
    u = dense_unitary(c)
    assert abs(u[2, 1]) == pytest.approx(1.0)
    assert abs(u[1, 2]) == pytest.approx(1.0)


def test_controlled_xxyy_state_equivalence_outside_11():
    phi = 0.8311
    want = xxyy_matrix(phi, controlled=True)
    c = Circuit(3)
    xx_plus_yy(c, phi, 0, 1, ctrl_qubits=[2])
    got = dense_unitary(c)
    for col in range(8):
        if (col & 3) == 3:
            continue
        overlap = abs(np.vdot(want[:, col], got[:, col]))
        assert overlap == pytest.approx(1.0, abs=1e-9)
    # exact (not only up to phase) wherever the q0 bit is clear
    for col in range(8):
        if col & 1:
            continue
        assert np.allclose(got[:, col], want[:, col], atol=1e-9)


def test_controlled_xxyy_multi_control():
    phi = 1.21
    c = Circuit(4)
    xx_plus_yy(c, phi, 0, 1, ctrl_qubits=[2, 3], ctrl_state=(0, 0))
    u = dense_unitary(c)
    cv, sv = math.cos(phi / 2), math.sin(phi / 2)
    # active when both controls are |0>: exact on the q0=0 column, state
    # equivalence (sign garbage allowed) on the q0=1 column
    assert np.allclose(u[:, 0b0010][[1, 2]], [-sv, cv], atol=1e-9)
    assert np.allclose(np.abs(u[:, 0b0001][[1, 2]]), [cv, sv], atol=1e-9)
    # inactive when a control is set
    col = 0b0101
    want = np.zeros(16)
    want[col] = 1
    assert np.allclose(np.abs(u[:, col]), want, atol=1e-9)


def test_controlled_h_blocks_and_count():
    c = Circuit(2)
    c.ch(0, 1)
    u = dense_unitary(c)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(u[np.ix_([0, 2], [0, 2])], np.eye(2), atol=1e-12)
    assert np.allclose(u[np.ix_([1, 3], [1, 3])], h, atol=1e-12)
    assert cx_count(c) == 1


def test_fredkin_counts_and_action():
    c = Circuit(3)
    fredkin(c, 0, 1, ctrl=2)
    assert cx_count(c) == 8
    u = dense_unitary(c)
    assert np.allclose(u[:4, :4], np.eye(4), atol=1e-12)          # ctrl=|0>
    assert abs(u[0b110, 0b101]) == pytest.approx(1.0)             # ctrl=|1>: swap
    c2 = Circuit(2)
    fredkin(c2, 0, 1)
    assert cx_count(c2) == 3


# -- comparators ---------------------------------------------------------------

def run_basis(circ, idx):
    return apply(SparseState.basis_state(circ.num_qubits, idx), circ)


def test_qq_equal_basic():
    for a, b, want in ((5, 5, 1), (5, 3, 0)):
        c = Circuit(7)
        qq_equal(c, [0, 1, 2], [3, 4, 5], 6)
        st = run_basis(c, a | (b << 3))
        assert st.probability(6, 1) == pytest.approx(want)
        # operands restored
        assert st.amplitude(a | (b << 3) | (want << 6)) == pytest.approx(1.0)


def test_qq_equal_controlled_zero_control():
    c = Circuit(8)
    qq_equal(c, [0, 1, 2], [3, 4, 5], 7, ctrl=6)
    st = run_basis(c, 5 | (5 << 3))   # ctrl = 0
    assert st.probability(7, 1) == pytest.approx(0.0)
    st = run_basis(c, 5 | (5 << 3) | (1 << 6))
    assert st.probability(7, 1) == pytest.approx(1.0)


def test_qq_equal_width_mismatch():
    with pytest.raises(UsageError):
        qq_equal(Circuit(5), [0, 1], [2, 3, 4], 4)


@pytest.mark.parametrize("phase_tolerant", [False, True])
def test_qq_equal_refuses_empty_registers_without_ctrl(phase_tolerant):
    # With nothing to compare and no ctrl there is no control for the MCX;
    # Circuit.mcx would emit a bare X.
    c = Circuit(1)
    with pytest.raises(UsageError):
        qq_equal(c, [], [], 0, phase_tolerant=phase_tolerant)
    assert c.gates == []


@pytest.mark.parametrize("width", [1, 2, 4])
def test_qq_equal_phase_tolerant_controlled_is_exact_on_basis_inputs(width):
    # The reject oracle's form: rmcx takes width + 1 controls (2, 3 and 5).
    a, b = list(range(width)), list(range(width, 2 * width))
    ctrl, result = 2 * width, 2 * width + 1
    c = Circuit(2 * width + 2)
    qq_equal(c, a, b, result, ctrl=ctrl, phase_tolerant=True)
    u = dense_unitary(c)
    for x, y, on in itertools.product(range(2 ** width), range(2 ** width), (0, 1)):
        idx = x | (y << width) | (on << ctrl)
        want = int(on and x == y)
        assert abs(u[idx | (want << result), idx]) == pytest.approx(1.0, abs=1e-9)
    c.extend(adjoint(c.gates))
    assert np.allclose(dense_unitary(c), np.eye(2 ** c.num_qubits), atol=1e-9)


def test_cq_in_set_superposition_example():
    c = Circuit(3)
    c.h(1)              # (|0> + |2>)/sqrt(2) on the 2-bit register {q0,q1}
    cq_in_set(c, [0, 1], {1, 2, 3}, 2)
    st = apply(SparseState.zero(3), c)
    r = 1 / math.sqrt(2)
    assert st.amplitude(0b000) == pytest.approx(r, abs=1e-9)       # 0 -> False
    assert abs(st.amplitude(0b110)) == pytest.approx(r, abs=1e-9)  # 2 -> True


def test_cq_in_set_empty_and_range():
    c = Circuit(3)
    cq_in_set(c, [0, 1], set(), 2)
    assert c.gates == []
    with pytest.raises(UsageError):
        cq_in_set(Circuit(3), [0, 1], {4}, 2)


def test_cq_in_set_controlled_counts_16_vs_10():
    exact = Circuit(4)
    cq_in_set(exact, [0, 1], {1, 2, 3}, 3, ctrl=2)
    pt = Circuit(4)
    cq_in_set(pt, [0, 1], {1, 2, 3}, 3, ctrl=2, phase_tolerant=True)
    assert cx_count(exact) == 16
    assert cx_count(pt) == 10


def test_cq_in_set_pt_controlled_correct():
    c = Circuit(4)
    cq_in_set(c, [0, 1], {1, 2}, 3, ctrl=2, phase_tolerant=True)
    for x in range(4):
        for ctl in (0, 1):
            idx = x | (ctl << 2)
            st = run_basis(c, idx)
            want = 1 if (ctl and x in (1, 2)) else 0
            assert st.probability(3, 1) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("emit", [
    lambda c: rmcx(c, [0, 1, 2], 3, [0]),
    lambda c: and_ladder(c, [0, 1, 2], [0]),
    lambda c: and_ladder(c, [0, 1, 2], [0, 1, 1, 0]),
    lambda c: xx_plus_yy(c, 0.3, 0, 1, [2, 3], [0]),
    lambda c: xx_plus_yy(c, 0.3, 0, 1, [2], [1, 0]),
], ids=["gray_pt", "balauca_logdepth", "balauca_logdepth-long", "xx_plus_yy",
        "xx_plus_yy-long"])
def test_folded_open_controls_refuse_a_control_state_of_another_length(emit):
    # A short state was once padded with 1s: gray_pt emitted 20 gates and
    # the controlled XX+YY 25 for these calls.
    c = Circuit(5)
    with pytest.raises(UsageError, match="^controls and control_state lengths differ$"):
        emit(c)
    assert c.gates == []


@pytest.mark.parametrize("state", [(2, 1, 1), (1, 0.7, 1), (1, 1, -1)])
def test_folded_open_controls_refuse_what_gate_refuses(state):
    # The relative-phase MCX, the AND ladder and the controlled XX+YY fold
    # open controls before any gate is built; they refuse the same control
    # states as Gate, with its message, and emit nothing.
    with pytest.raises(UsageError) as want:
        Circuit(4).mcx([0, 1, 2], 3, state)
    emitters = [lambda c: rmcx(c, [0, 1, 2], 3, state),
                lambda c: and_ladder(c, [0, 1, 2], state),
                lambda c: xx_plus_yy(c, 0.3, 3, 4, [0, 1, 2], state)]
    for emit in emitters:
        c = Circuit(5)
        with pytest.raises(UsageError) as err:
            emit(c)
        assert str(err.value) == str(want.value)
        assert c.gates == []
