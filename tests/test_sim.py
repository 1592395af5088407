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

from helpers import (definitional_unitary, every_check, random_circuit, random_sparse_dict,
                     xxyy_matrix)


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
    (1, False): "f5f970905c4a63b4fbeb22dc3c5e287a7edafce6edf9f0808abca92d9d04c520",
    (1, True): "f5f970905c4a63b4fbeb22dc3c5e287a7edafce6edf9f0808abca92d9d04c520",
    (2, False): "8c30397371479819b413778835ebad62f864fa2479dbcf4478e3a59b7fdac96f",
    (2, True): "8c30397371479819b413778835ebad62f864fa2479dbcf4478e3a59b7fdac96f",
    (3, False): "c2d6e0dd8189e00a743f243491499b017f25072fe4304a88d08cf187b636f0f8",
    (3, True): "dba3fde6ecaf6738d11b9796beca6942c3818609f4a8342c8b0a792e11931c09",
    (4, False): "65e83696af2310e92b05fd5de51fdd8834a6f7e8d3ba7408ea243c0bc257ca51",
    (4, True): "8a74bfb649cb5a03f93d1302e0bfddb3f116337c244d613ed4ff19adf895ad29",
    (5, False): "169166df7d334fe23318e0d254a9a3bc0b45c2aa81788aeb4c3e52502be4a2e4",
    (5, True): "8d8dcdaa6c936125e1d8cc08708bb87939fdbd13aa28759e6d7221ff2bde21ad",
}


# ``digest`` is the same SHA-256 with every reject check kept (``every_check``).
@pytest.mark.parametrize("k, subspace_opt, digest", [
    (1, False, "1397254aed9253f3b0ae8fd4eb56c0dee17756d1d02e349adf2ccb1542bd3f65"),
    (1, True, "39753beb1e0222dbcd5b9b66a3e7120ac3a962fa3a3f3bbd05a76bab51efc9b9"),
    (2, False, "0924e8f35dee1a7debeeb911130cc930a28b82be27e9e85f977d5d0577fcce37"),
    (2, True, "9205d4cbd904201174a4cff54973f499bb1a4542e2ab266cad6c7f919754c503"),
    (3, False, "653f7691d97e50be5f332b8849a1461c8196cd271be109d62b456ff4399dd565"),
    (3, True, "9dd1cd46145619a19f9a38de5c39aa61a0eabd70c05c97e3cb423fc0dd4ad234"),
    (4, False, "6a13ab98cab8a94d3106aef02f8ca758d2d92c6b8fee1d58a93c889961ba49a1"),
    (4, True, "87507fb2b005c059c8fb2e9b9893fcea0022aecd034cefd2b369038454e2f552"),
    (5, False, "e2b4b8b51ecbda3d644fcdf492dc111b91ea1912427c5f244663666cdcb08bf3"),
    (5, True, "e38d37746a5f08182612f707aa3e9d397a773c2e1e75241f2442449bd5947769"),
])
def test_fig1_step_matrix_bytes_are_pinned(monkeypatch, k, subspace_opt, digest):
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
    assert hashlib.sha256(reach_all.nodes.tobytes() + w_all.tobytes()).hexdigest() == digest
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
