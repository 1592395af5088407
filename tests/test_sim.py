import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwb import sim
from qwb.circuit import Circuit, Gate, GateKind, UsageError, from_text, invert, to_text
from qwb.sim import (PRUNE_EPSILON, ResourceLimitError, SparseState, apply,
                     dense_unitary, dump_state, gate_matrix, load_state, sample)
from qwb.synthesis import xx_plus_yy

from helpers import definitional_unitary, random_circuit, random_sparse_dict, xxyy_matrix


def test_x_on_zero():
    c = Circuit(1)
    c.x(0)
    st = apply(SparseState.zero(1), c)
    assert st.amplitude(1) == pytest.approx(1)
    assert st.amplitude(0) == 0


def test_bell_pair():
    c = Circuit(2)
    c.h(0)
    c.cx(0, 1)
    st = apply(SparseState.zero(2), c)
    r = 1 / math.sqrt(2)
    assert st.amplitude(0b00) == pytest.approx(r)
    assert st.amplitude(0b11) == pytest.approx(r)
    assert st.support() == 2


def test_dense_unitary_x():
    c = Circuit(1)
    c.x(0)
    assert np.allclose(dense_unitary(c), [[0, 1], [1, 0]])


def test_dense_unitary_xxyy_matches_displayed_matrix():
    phi = 1.234
    c = Circuit(2)
    xx_plus_yy(c, phi, 0, 1)
    assert np.allclose(dense_unitary(c), xxyy_matrix(phi), atol=1e-12)


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_matrix_is_the_row_major_one_gate_unitary(kind):
    rng = np.random.default_rng(9)
    for _ in range(5):
        params = tuple(rng.uniform(-7, 7, {GateKind.RY: 1, GateKind.U3: 3}.get(kind, 0)))
        c = Circuit(1)
        c.gates.append(Gate(kind, 0, params))
        m = gate_matrix(c.gates[0])
        assert len(m) == 4 and all(type(z) is complex for z in m)
        m = np.array(m).reshape(2, 2)
        assert np.max(np.abs(m - dense_unitary(c))) < 1e-12
        assert np.max(np.abs(m - definitional_unitary(c))) < 1e-12


def test_random_circuits_match_definitional_unitary():
    rng = np.random.default_rng(10)
    for _ in range(15):
        c = random_circuit(rng, 4, 20)
        assert np.max(np.abs(dense_unitary(c) - definitional_unitary(c))) < 1e-9


def test_apply_on_random_states_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = random_circuit(rng, 4, 15)
        amps = random_sparse_dict(rng, 4, 6)
        vec = np.zeros(16, dtype=complex)
        for k, v in amps.items():
            vec[k] = v
        want = definitional_unitary(c) @ vec
        got = apply(SparseState.from_dict(4, amps), c)
        out = np.zeros(16, dtype=complex)
        out[got.keys] = got.amps
        assert np.max(np.abs(out - want)) < 1e-9


def _vector(amplitudes, n):
    vec = np.zeros(2 ** n, dtype=complex)
    for k, v in amplitudes.items():
        vec[k] = v
    return vec


random_circuits = given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
                        num_gates=st.integers(1, 25))


@settings(max_examples=60, deadline=None)
@random_circuits
def test_property_apply_matches_definitional_unitary(seed, n, num_gates):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, num_gates)
    amps = random_sparse_dict(rng, n, int(rng.integers(1, 2 ** n + 1)))
    got = apply(SparseState.from_dict(n, amps), c)
    want = definitional_unitary(c) @ _vector(amps, n)
    assert np.max(np.abs(_vector(got.amplitudes, n) - want)) < 1e-9


@settings(max_examples=60, deadline=None)
@random_circuits
def test_property_circuit_then_invert_is_identity(seed, n, num_gates):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, num_gates)
    amps = random_sparse_dict(rng, n, int(rng.integers(1, 2 ** n + 1)))
    back = apply(apply(SparseState.from_dict(n, amps), c), invert(c))
    assert np.max(np.abs(_vector(back.amplitudes, n) - _vector(amps, n))) < 1e-9


@settings(max_examples=60, deadline=None)
@random_circuits
def test_property_text_round_trip_is_exact(seed, n, num_gates):
    c = random_circuit(np.random.default_rng(seed), n, num_gates)
    back = from_text(to_text(c))
    assert back.num_qubits == c.num_qubits
    assert back.gates == c.gates


def _chained(state, circuit, **kwargs):
    """``apply`` one gate at a time, each gate its own circuit."""
    for gate in circuit.gates:
        one = Circuit(circuit.num_qubits)
        one.gates.append(gate)
        state = apply(state, one, **kwargs)
    return state


def _assert_same_sorted_pruned(got, want, eps):
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(got.amps, want.amps)
    assert np.all(np.diff(got.keys) > 0)
    assert np.all(np.abs(got.amps) >= eps) and np.all(got.amps != 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       num_gates=st.integers(1, 25), eps=st.sampled_from([0.0, PRUNE_EPSILON]))
def test_property_one_pass_equals_chained_single_gate_applies(seed, n, num_gates, eps):
    # Random gates with compute/uncompute pairs on fresh ancillae in between,
    # so the one-pass run also checks every deallocated wire.
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, num_gates)

    def compute():
        anc = c.allocate()
        c.mcx([int(q) for q in rng.permutation(n)[:2]], anc,
              [int(b) for b in rng.integers(0, 2, 2)])
        return anc

    for _ in range(2):
        c.within(compute, c.t)
        c.extend(random_circuit(rng, n, num_gates).gates)
    assert c.dealloc_events
    amps = random_sparse_dict(rng, n, int(rng.integers(1, 2 ** n + 1)))
    state = SparseState.from_dict(c.num_qubits, amps)
    got = apply(state, c, prune_epsilon=eps, debug=True)
    _assert_same_sorted_pruned(got, _chained(state, c, prune_epsilon=eps), eps)


def _run_outcome(state, circuit, **kwargs):
    """What ``apply`` returns, as bytes, or the error it raises."""
    try:
        out = apply(state, circuit, **kwargs)
    except (UsageError, ResourceLimitError) as err:
        return type(err), str(err)
    return out.num_qubits, out.keys.tobytes(), out.amps.tobytes(), out.max_support_seen


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       num_gates=st.integers(1, 25), eps=st.sampled_from([0.0, PRUNE_EPSILON]),
       debug=st.booleans(), cap=st.one_of(st.none(), st.integers(1, 24)))
def test_property_one_program_runs_like_its_circuit(seed, n, num_gates, eps, debug, cap):
    # One compiled program on several states, against compiling on every
    # call: the same keys and amplitude bytes, or the same error.  A dirty
    # ancilla, freed without uncomputing, sometimes fails the debug check.
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, num_gates)
    anc = c.allocate()
    c.mcx([0, 1], anc, [int(b) for b in rng.integers(0, 2, 2)])
    if rng.integers(2):
        c.mcx([0, 1], anc, [1, 1])
    c.deallocate(anc)
    c.extend(random_circuit(rng, n, num_gates).gates)
    program = sim.compile(c)
    assert program.gates == tuple(c.gates) and program.num_qubits == c.num_qubits
    for _ in range(3):
        amps = random_sparse_dict(rng, n, int(rng.integers(1, 2 ** n + 1)))
        state = SparseState.from_dict(c.num_qubits + int(rng.integers(2)), amps)
        kwargs = dict(debug=debug, prune_epsilon=eps, max_support=cap)
        assert _run_outcome(state, program, **kwargs) == _run_outcome(state, c, **kwargs)


def test_program_outside_a_narrower_state_raises_before_any_gate_runs():
    # The H on a one-key state would pass max_support=1 if it ran first.
    wide = Circuit(4)
    wide.h(0)
    wide.x(3)
    stray = Circuit(2)
    stray.h(0)
    stray.gates.append(Gate(GateKind.X, 5))
    for circuit, narrow, match in ((wide, 2, "circuit uses 4 qubits"),
                                   (stray, 5, "X on \\(5,\\) is outside the 5-qubit state")):
        program = sim.compile(circuit)
        with pytest.raises(UsageError, match=match):
            apply(SparseState.zero(narrow), program, max_support=1)
        with pytest.raises(UsageError, match=match):
            apply(SparseState.zero(narrow), circuit, max_support=1)
        out = apply(SparseState.zero(6), program)
        assert out.support() == 2 and out.num_qubits == 6
    negative = Circuit(2)
    negative.gates.append(Gate(GateKind.H, -1))
    with pytest.raises(UsageError, match="outside every state"):
        sim.compile(negative)


def test_permutations_on_many_keys_equal_chained_applies_and_the_map():
    # X, CX and MCX only: the keys move but never meet, and only the final
    # sort restores their order.
    rng = np.random.default_rng(21)
    n = 12
    c = Circuit(n)
    for _ in range(300):
        qs = [int(q) for q in rng.permutation(n)]
        w = int(rng.integers(0, 4))
        if w == 0:
            c.x(qs[0])
        else:
            c.mcx(qs[1:w + 1], qs[0], [int(b) for b in rng.integers(0, 2, w)])
    amps = random_sparse_dict(rng, n, 1500)
    state = SparseState.from_dict(n, amps)
    got = apply(state, c)
    _assert_same_sorted_pruned(got, _chained(state, c), PRUNE_EPSILON)
    moved = {}
    for key, amp in amps.items():
        for g in c.gates:
            if all((key >> q) & 1 == v for q, v in zip(g.controls, g.control_state)):
                key ^= 1 << g.target
        moved[key] = amp
    assert got.amplitudes == moved


def test_norm_preserved_over_many_gates():
    rng = np.random.default_rng(12)
    c = random_circuit(rng, 6, 10_000)
    st = apply(SparseState.zero(6), c)
    assert abs(st.norm() - 1.0) <= 1e-9


def test_controls_with_polarity():
    c = Circuit(2)
    c.mcx([0], 1, [0])   # activate on |0>
    st = apply(SparseState.zero(2), c)
    assert st.amplitude(0b10) == pytest.approx(1)


def test_gate_out_of_range_is_error():
    c = Circuit(3)
    c.x(2)
    with pytest.raises(UsageError):
        apply(SparseState.zero(2), c)


def test_gate_outside_state_is_error():
    c = Circuit(2)
    c.gates.append(Gate(GateKind.X, 5))
    with pytest.raises(UsageError):
        apply(SparseState.zero(2), c)


def test_sample_deterministic_and_sums_to_shots():
    c = Circuit(2)
    c.h(0)
    c.cx(0, 1)
    st = apply(SparseState.zero(2), c)
    a = sample(st, [0, 1], 10_000, seed=7)
    b = sample(st, [0, 1], 10_000, seed=7)
    assert a == b
    assert sum(a.counts.values()) == a.shots == 10_000
    # Binomial 3-sigma window around 5000 per outcome.
    for outcome in ("00", "11"):
        assert abs(a.counts[outcome] - 5000) <= 3 * math.sqrt(10_000 * 0.25)


def test_sample_single_outcome():
    c = Circuit(1)
    c.x(0)
    st = apply(SparseState.zero(1), c)
    assert sample(st, [0], 100, seed=0).counts == {"1": 100}


def test_sample_requires_qubits_and_shots():
    st = SparseState.zero(1)
    with pytest.raises(UsageError):
        sample(st, [], 10, seed=0)
    with pytest.raises(UsageError):
        sample(st, [0], 0, seed=0)


def test_marginal_sampling():
    c = Circuit(2)
    c.h(0)
    c.x(1)
    st = apply(SparseState.zero(2), c)
    counts = sample(st, [1], 50, seed=3)
    assert counts.counts == {"1": 50}


def test_amplitude_queries():
    st = SparseState.zero(2)
    assert st.amplitude(0) == pytest.approx(1)
    assert st.amplitude(1) == 0


def test_dense_unitary_qubit_cap():
    with pytest.raises(UsageError):
        dense_unitary(Circuit(13))


def test_support_cap_raises_resource_error():
    c = Circuit(8)
    for q in range(8):
        c.h(q)
    with pytest.raises(ResourceLimitError) as err:
        apply(SparseState.zero(8), c, max_support=100)
    assert err.value.qubit_count == 8


def test_dump_and_load_round_trip():
    rng = np.random.default_rng(13)
    st = SparseState.from_dict(3, random_sparse_dict(rng, 3, 5))
    text = dump_state(st)
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    back = load_state(text, 3)
    for k, v in st.amplitudes.items():
        assert back.amplitude(k) == pytest.approx(v)


def test_state_beyond_62_qubits_is_a_resource_error():
    with pytest.raises(ResourceLimitError):
        load_state("1" + "0" * 69 + " 1 0", 70)
    with pytest.raises(ResourceLimitError):
        SparseState.from_dict(63, {0: 1.0})
    with pytest.raises(ResourceLimitError):
        SparseState.basis_state(63, 0)


@pytest.mark.parametrize("text", [
    "00 1 0\n00 1 0\n111 5 0\n",     # duplicate state, wrong width
    "00 1 0\n10 0.6 0\n00 0.8 0\n",  # duplicate state
    "001 1 0\n",                     # wrong width
    "0a 1 0\n",                      # not a bit string
    "00 1 0\n11 1 0\n",              # norm sqrt(2)
    "",                              # norm 0
    "00 1\n",                        # two fields
    "01 1 0 7\n",                    # four fields
    "00 a 0\n",                      # non-numeric real part
    "00 1 b\n",                      # non-numeric imaginary part
    "00 nan 0\n",                    # norm not a number
])
def test_load_state_rejects_malformed_dumps(text):
    with pytest.raises(UsageError):
        load_state(text, 2)


def test_pruning_drops_tiny_amplitudes():
    st = SparseState.from_dict(2, {0: 1.0, 3: 1e-14})
    out = apply(st, Circuit(2))
    assert out.support() == 1


def test_dealloc_debug_assertion():
    c = Circuit(1)
    q = c.allocate()
    c.x(q)
    c.deallocate(q)
    with pytest.raises(UsageError):
        apply(SparseState.zero(c.num_qubits), c, debug=True)


def test_max_support_seen_tracked():
    c = Circuit(3)
    for q in range(3):
        c.h(q)
    st = apply(SparseState.zero(3), c)
    assert st.max_support_seen == 8
