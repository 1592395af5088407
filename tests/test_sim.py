import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwb import sim, walk
from qwb.circuit import Circuit, Gate, GateKind, UsageError, from_text, invert, to_text
from qwb.sim import (PRUNE_EPSILON, ResourceLimitError, SparseState, apply,
                     dense_unitary, dump_state, gate_matrix, load_state, run_columns,
                     sample)
from qwb.sudoku import FIG1_BOARD, parse_board, restrict_board, tree_for_board
from qwb.synthesis import xx_plus_yy
from qwb.transpile import transpile

from helpers import (definitional_unitary, equal_up_to_global_phase, every_check,
                     random_circuit, random_sparse_dict, xxyy_matrix)


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


def _controlled_h_circuit():
    """H on wire 3 under controls 0 (|1>), 2 (|0>) and 4 (|0>); wire 4 is
    freed after it, so ``debug`` checks that it is back at |0>."""
    c = Circuit(5)
    c.extend([Gate(GateKind.H, 3, (), (0, 2, 4), (1, 0, 0))])
    c.deallocate(4)
    return c


@pytest.mark.parametrize("keys", [
    [0b0000, 0b1000, 0b0101, 0b1111],           # bit 0 clear or bit 2 set
    [0b0001, 0b1000, 0b1011, 0b0101, 0b0011],   # 0b1001 absent, 0b0011 and 0b1011 both there
    [0b0001, 0b1001, 0b0011],
], ids=["no-key-matches", "some-keys-match", "every-key-matches"])
@pytest.mark.parametrize("kwargs", [{}, {"debug": True}, {"prune_epsilon": 0.0}],
                         ids=["default", "debug", "unpruned"])
def test_controlled_h_mixes_only_the_keys_its_controls_match(keys, kwargs):
    c = _controlled_h_circuit()
    rng = np.random.default_rng(len(keys))
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    state = SparseState.from_dict(5, dict(zip(keys, amps / np.linalg.norm(amps))))
    got = apply(state, c, **kwargs)
    want = definitional_unitary(c) @ _vector(state.amplitudes, 5)
    assert np.max(np.abs(_vector(got.amplitudes, 5) - want)) < 1e-12
    if keys[0] == 0:    # no key matches: the gate is skipped, every amplitude kept
        assert got.keys.tolist() == sorted(keys)
        assert got.amps.tolist() == state.amps.tolist()
    else:
        assert got.support() == len(np.flatnonzero(np.abs(want) > 1e-12))


def test_controlled_h_columns_split_under_a_support_cap_match_the_definition():
    c = Circuit(4)
    c.ry(0.4, 0)
    c.h(1)
    c.extend([Gate(GateKind.H, 3, (), (0, 1), (0, 1))])
    c.ch(3, 2)
    # The cap is the largest support of any one state's run.
    cap = max(apply(SparseState.basis_state(4, key), c).max_support_seen for key in range(16))
    labels, rows, amps, runs = run_columns(sim.compile(c), np.arange(16), max_support=cap)
    assert len(runs) > 1 and max(largest for _, largest in runs) <= cap
    got = np.zeros((16, 16), dtype=complex)
    got[rows, labels] = amps
    assert np.max(np.abs(got - definitional_unitary(c))) < 1e-12
    assert np.max(np.abs(dense_unitary(c) - definitional_unitary(c))) < 1e-12


@st.composite
def controlled_h_circuits(draw):
    """A random circuit on at most 5 wires of X, CX, MCX, H, controlled H
    (1 to 3 controls, any states), MCZ, T and RY."""
    n = draw(st.integers(1, 5))
    c = Circuit(n)
    kinds = ["x", "h", "t", "ry"] + (["cx", "mcx", "ch", "mcz"] if n > 1 else [])
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(kinds))
        size = {"cx": 2, "mcx": (2, 4), "ch": (2, 4), "mcz": (2, 4)}.get(kind, 1)
        if isinstance(size, tuple):
            size = draw(st.integers(size[0], min(size[1], n)))
        wires = draw(st.permutations(range(n)))[:size]
        state = tuple(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
        if kind == "x":
            c.x(wires[0])
        elif kind == "h":
            c.h(wires[0])
        elif kind == "t":
            c.t(wires[0])
        elif kind == "ry":
            c.ry(draw(st.floats(-7, 7)), wires[0])
        elif kind == "cx":
            c.cx(wires[1], wires[0])
        elif kind == "mcx":
            c.mcx(wires[1:], wires[0], state[1:])
        elif kind == "ch":
            c.extend([Gate(GateKind.H, wires[0], (), tuple(wires[1:]), state[1:])])
        else:
            c.mcz(wires, state)
    return c


@settings(max_examples=100, deadline=None)
@given(controlled_h_circuits())
def test_property_controlled_h_circuits_equal_their_gate_product(c):
    want = definitional_unitary(c)
    assert np.max(np.abs(dense_unitary(c) - want)) < 1e-10
    assert equal_up_to_global_phase(dense_unitary(transpile(c)), want, 1e-9)


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
    assert sum(a.values()) == 10_000
    # Binomial 3-sigma window around 5000 per outcome.
    for outcome in (0b00, 0b11):
        assert abs(a[outcome] - 5000) <= 3 * math.sqrt(10_000 * 0.25)


def test_sample_single_outcome():
    c = Circuit(1)
    c.x(0)
    st = apply(SparseState.zero(1), c)
    assert sample(st, [0], 100, seed=0) == {1: 100}


def test_sample_requires_qubits_and_shots():
    st = SparseState.zero(1)
    with pytest.raises(UsageError):
        sample(st, [], 10, seed=0)
    with pytest.raises(UsageError):
        sample(st, [0], 0, seed=0)
    with pytest.raises(UsageError):
        sample(st, [0], 2 ** 63, seed=0)


def test_sample_and_probability_refuse_wires_outside_the_state():
    st = SparseState.basis_state(3, 0b101)
    for wire in (5, 70, -1, 3):
        with pytest.raises(UsageError, match=f"wire {wire} is outside the 3-qubit state"):
            sample(st, [wire], 10, 1)
        with pytest.raises(UsageError):
            sample(st, [0, wire], 10, 1)
        with pytest.raises(UsageError):
            st.probability(wire)
    with pytest.raises(UsageError):
        st.probability(7)
    assert sample(st, [2, 1], 10, 1) == {0b01: 10}
    assert (st.probability(0), st.probability(1), st.probability(2)) == (1.0, 0.0, 1.0)


def test_marginal_sampling():
    c = Circuit(2)
    c.h(0)
    c.x(1)
    st = apply(SparseState.zero(2), c)
    counts = sample(st, [1], 50, seed=3)
    assert counts == {1: 50}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 10),
       shots=st.integers(1, 10 ** 6), data=st.data())
def test_property_sample_tallies_each_outcome_in_key_order(seed, n, shots, data):
    # Few measured wires under many keys: each outcome sums many amplitudes.
    rng = np.random.default_rng(seed)
    keys = np.array(sorted(data.draw(st.sets(st.integers(0, 2 ** n - 1), min_size=1,
                                             max_size=64))), dtype=np.int64)
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    wires = data.draw(st.permutations(range(n)))
    measured = wires[:data.draw(st.integers(1, n))]

    probs = {}
    for key, weight in zip(keys.tolist(), (np.abs(amps) ** 2).tolist()):
        outcome = sum((key >> q & 1) << i for i, q in enumerate(measured))
        probs[outcome] = probs.get(outcome, 0.0) + weight
    outcomes = sorted(probs)
    p = np.array([probs[v] for v in outcomes])
    draws = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    want = {v: int(count) for v, count in zip(outcomes, draws) if count}

    got = sample(SparseState(n, keys, amps), measured, shots, seed)
    assert got == want


def test_amplitude_queries():
    st = SparseState.zero(2)
    assert st.amplitude(0) == pytest.approx(1)
    assert st.amplitude(1) == 0


def test_dense_unitary_qubit_cap():
    with pytest.raises(UsageError):
        dense_unitary(Circuit(13))


def test_dense_unitary_of_no_qubits_is_one():
    assert np.array_equal(dense_unitary(Circuit(0)), [[1]])


def _columns(labels, rows, amps, count):
    """Each label's (rows, amplitudes) in ``run_columns`` output."""
    cuts = np.searchsorted(labels, np.arange(count + 1))
    return [(rows[lo:hi], amps[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def _assert_same_columns(got, want):
    # Bit for bit: a state's amplitudes do not depend on what runs beside it.
    assert len(got) == len(want)
    for (rows, amps), (want_rows, want_amps) in zip(got, want):
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(amps, want_amps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       num_gates=st.integers(1, 25), count=st.integers(1, 20), data=st.data())
def test_property_run_columns_equals_one_apply_per_key(seed, n, num_gates, count, data):
    # Keys may repeat: each label still gets its own column.
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, num_gates)
    program = sim.compile(c)
    keys = rng.integers(0, 2 ** n, size=count).tolist()
    labels, rows, amps, runs = run_columns(program, keys)
    assert runs == [(count, runs[0][1])] and np.all(np.diff(labels) >= 0)
    singles = [apply(SparseState.basis_state(c.num_qubits, key), program) for key in keys]
    want = [(out.keys, out.amps) for out in singles]
    _assert_same_columns(_columns(labels, rows, amps, count), want)

    # A cap of the largest single-state support: the state that reaches it
    # fits only alone, so the whole run is split, and the columns do not
    # change.
    cap = max(out.max_support_seen for out in singles)
    capped = run_columns(program, keys, max_support=cap)
    assert sum(size for size, _ in capped[3]) == count
    assert (len(capped[3]) > 1) == (count > 1)
    assert all(support <= cap for _, support in capped[3])
    _assert_same_columns(_columns(*capped[:3], count), want)

    batched = run_columns(program, keys, batch=data.draw(st.integers(1, count + 1)))
    assert sum(size for size, _ in batched[3]) == count
    _assert_same_columns(_columns(*batched[:3], count), want)


def test_run_columns_splits_down_to_single_states_under_a_tight_cap():
    # Every state spreads over all 8 rows, so no two fit under a cap of 8.
    c = Circuit(3)
    for q in range(3):
        c.h(q)
    program, keys = sim.compile(c), [0, 5, 5, 7, 2]
    labels, rows, amps, runs = run_columns(program, keys, max_support=8)
    assert runs == [(1, 8)] * len(keys)
    want = _columns(*run_columns(program, keys)[:3], len(keys))
    _assert_same_columns(_columns(labels, rows, amps, len(keys)), want)


def test_run_columns_batches_within_the_key():
    # 60 wires leave 2 label bits: 8 keys run as two batches of 4, with the
    # columns of one unbatched run.
    c = Circuit(60)
    c.h(0)
    c.cx(0, 59)
    keys = [0, 1, 2, 3, 1 << 59, 5, 6, 7]
    labels, rows, amps, runs = run_columns(sim.compile(c), keys)
    assert [size for size, _ in runs] == [4, 4]
    want = [(out.keys, out.amps) for out in
            (apply(SparseState.basis_state(60, key), c) for key in keys)]
    _assert_same_columns(_columns(labels, rows, amps, len(keys)), want)


def test_run_columns_label_overflow_raises_before_any_run(monkeypatch):
    # 62 wires leave no label bit, so each state runs alone; a program wider
    # than the key raises before any run, however few its states.
    c = Circuit(62)
    c.h(61)
    assert [size for size, _ in run_columns(sim.compile(c), [0, 1])[3]] == [1, 1]
    monkeypatch.setattr(sim, "apply", lambda *a, **k: pytest.fail("ran"))
    for keys in ([0], list(range(8))):
        with pytest.raises(ResourceLimitError,
                           match="63 wires exceed the 62-bit sparse key"):
            run_columns(sim.compile(Circuit(63)), keys)


@pytest.mark.parametrize("key", [4, 8, -1, 1 << 62])
def test_run_columns_refuses_a_key_off_the_program_before_any_run(monkeypatch, key):
    # A key's bits above the program's wires would overlap its label: on two
    # wires, 8 once came back labelled 2 and -1 labelled -1.
    c = Circuit(2)
    c.h(0)
    monkeypatch.setattr(sim, "apply", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(UsageError, match=f"^basis state {key} is outside the program's 2 wires$"):
        run_columns(sim.compile(c), [0, 3, key])


def test_run_columns_of_no_keys_is_empty():
    labels, rows, amps, runs = run_columns(sim.compile(Circuit(2)), [])
    assert (labels.tolist(), rows.tolist(), amps.tolist(), runs) == ([], [], [], [])


# SHA-256 of the walk step's node order and W per (k, subspace_opt).
FIG1_STEP_DIGESTS = {
    (1, False): "c2e3402ba4608b1a216d832f02a6e3e449a92e3593bdac2011d29a2fd28c8fdc",
    (1, True): "c2e3402ba4608b1a216d832f02a6e3e449a92e3593bdac2011d29a2fd28c8fdc",
    (2, False): "85f3e5f2729d8ffd2b0afafa7c45eb7fd8aaddf79e72c4cc49edd4e715faf0dd",
    (2, True): "85f3e5f2729d8ffd2b0afafa7c45eb7fd8aaddf79e72c4cc49edd4e715faf0dd",
    (3, False): "65a88be65ca01ba285f06afde81bac7b4127edc5f7b2acea57977126a4c659a3",
    (3, True): "2b64df7377d6890e9bc00a7917ce68c5c52cf45cd9f0b7c9cfe3fe344a187c2f",
    (4, False): "d2997c9375e57da62bf3cf08dbdcefa662292c70b8258573a2442ce5bc6b963f",
    (4, True): "9bb425a88b54ded167dddd0be2c9b5dba2374b6d2f724630dc562fc19508adf6",
    (5, False): "06e1aa8c48aee0aee5e7ea2ee4270180cccdeee287d1fdae4fabc03af23c099d",
    (5, True): "35f6e04761dedebadbcf5ff9f8537ab39599ed849a82f84b169789525ea55798",
}

# The same SHA-256 with every reject check kept (``every_check``).
FIG1_EVERY_CHECK_STEP_DIGESTS = {
    (1, False): "75adf44012219967564364085420a24f28263da1d0017f89ea1126d43db13b20",
    (1, True): "d8feee5c297d7f976ab68fff6fdd8892ff09f6f9e77c6431a6da2e416c90f446",
    (2, False): "44f3c9a873dce2d55e352fa4f446ceba0dceed7e3c2ed182698759ed2b254a0a",
    (2, True): "8e33a44724bbbcc433da0623454dfc832fe691dac3c4955ca405b749e46fe377",
    (3, False): "d5d986852407c858c15cfb3c2d9ffdef176043fb00cf77dfcefdcb4e2a49a400",
    (3, True): "4b67ae20e7cf9afb556e9dc7804ec961dd5b2d02dd448a08404bcf4d22a34c88",
    (4, False): "de2ea562b1079b295c5b1ff5f082987b6063003a925aa8e658bcb6d0ba7ba47f",
    (4, True): "6f06ac445a2599fb86a5921e8689e3debfefa9627665e1608ce34557ebbd0d05",
    (5, False): "a2e4efbd954ac5eac7e88a6a5d645ecd4bec9f5cb8838773aebbe3b1f0c0953b",
    (5, True): "cf57be0fbf560450f89f2348beac103cbb6caa39ee41da683aaeec341464c665",
}


@pytest.mark.parametrize("k, subspace_opt", sorted(FIG1_STEP_DIGESTS))
def test_fig1_step_matrix_bytes_are_pinned(monkeypatch, k, subspace_opt):
    # The walk step's node order and W, built from ``run_columns``, byte for
    # byte; ``test_fig1_step_matrix_is_the_definitional_walk_step`` checks
    # these W against the operator's definition.  With every check kept,
    # the step is the one pinned before the per-diffuser filter, and W moves
    # only by rounding: the filter is the whole difference.
    tree, _ = tree_for_board(restrict_board(parse_board(FIG1_BOARD), k),
                             subspace_optimization=subspace_opt)
    reach, w, _ = walk._step_matrix(tree, None)
    assert (hashlib.sha256(reach.nodes.tobytes() + w.tobytes()).hexdigest()
            == FIG1_STEP_DIGESTS[k, subspace_opt])
    every_check(monkeypatch)
    reach_all, w_all, _ = walk._step_matrix(tree, None)
    assert (hashlib.sha256(reach_all.nodes.tobytes() + w_all.tobytes()).hexdigest()
            == FIG1_EVERY_CHECK_STEP_DIGESTS[k, subspace_opt])
    assert np.array_equal(reach.nodes, reach_all.nodes)
    assert np.abs(w - w_all).max() <= 1e-13


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


@pytest.mark.parametrize("amplitudes, bad", [
    ({8: 1.0, -1: 0.5}, -1), ({4: 1.0}, 4), ({0: 0.6, 2 ** 70: 0.8}, 2 ** 70),
])
def test_from_dict_refuses_basis_indices_off_the_register(amplitudes, bad):
    # Keys -1 and 8 on 2 qubits once built a state of norm 1.118.
    with pytest.raises(UsageError, match=rf"basis index {bad} out of range 0\.\.3$"):
        SparseState.from_dict(2, amplitudes)
    with pytest.raises(UsageError, match="out of range"):
        SparseState.basis_state(2, bad)
    assert SparseState.from_dict(2, {3: 0.6, 0: 0.8}).norm() == pytest.approx(1.0)


@pytest.mark.parametrize("amplitudes", [{}, {0: 1.0}])
def test_from_dict_refuses_a_negative_qubit_count(amplitudes):
    # -1 once built a state, or raised numpy's "negative shift count".
    with pytest.raises(UsageError, match=r"^qubit count must be >= 0, got -1$"):
        SparseState.from_dict(-1, amplitudes)


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
