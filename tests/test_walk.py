import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qwb import sim, walk
from qwb.circuit import Circuit, Gate, GateKind, UsageError, to_text
from qwb.sim import ResourceLimitError, SparseState, apply, dense_unitary, sample
from qwb.sudoku import (FIG1_BOARD, SudokuBoard, classical_solve, parse_board,
                        restrict_board, tree_for_board)
from qwb.transpile import metrics, transpile
from qwb.walk import (BacktrackingTree, _inverse_qft, WalkConfig, classically_accepted,
                      decode_tree_state, demo_tree, detect_marked,
                      detection_precision, find_solution, oracle_from_paths,
                      qpe_state, to_dot, trivial_oracle)

from helpers import copied_accept, phi_state
from reference import (algorithmic_indices, all_paths, reachable_walk_step,
                       reference_diffuser)


def _tree_state(tree, path):
    circ = tree.new_circuit()
    tree.init_node(circ, path)
    return apply(SparseState.zero(circ.num_qubits), circ, debug=True)


def _random_tree_superposition(tree, rng, num_qubits=None):
    paths = all_paths(tree.effective_depth, tree.deg)
    amps = rng.normal(size=len(paths)) + 1j * rng.normal(size=len(paths))
    amps /= np.linalg.norm(amps)
    nq = num_qubits if num_qubits is not None else tree.num_tree_qubits
    return SparseState.from_dict(nq, {tree.node_index(p): complex(a)
                                      for p, a in zip(paths, amps)})


# -- encoding -----------------------------------------------------------------

def test_init_node_displayed_example():
    # depth-4 binary, path [0,1]: branch_qa = [0,0,1,0], h = |2> = 00100.
    tree = BacktrackingTree(4, 1, trivial_oracle, trivial_oracle)
    st = _tree_state(tree, (0, 1))
    idx = (1 << tree.h[2]) | (1 << tree.branch_reg(2)[0])
    assert st.amplitude(idx) == pytest.approx(1.0)


@pytest.mark.parametrize("branch_bits", [0, -1])
def test_tree_refuses_fewer_than_one_branch_bit(branch_bits):
    # Zero bits gave deg 1, and detection then divided by deg - 1 = 0.
    with pytest.raises(UsageError, match="branch_bits must be >= 1"):
        BacktrackingTree(2, branch_bits, trivial_oracle, trivial_oracle)


def test_init_root_one_hot_at_depth():
    tree = BacktrackingTree(3, 1, trivial_oracle, trivial_oracle)
    st = _tree_state(tree, ())
    assert st.amplitude(1 << tree.h[3]) == pytest.approx(1.0)


def test_init_then_decode_round_trip():
    tree = BacktrackingTree(4, 2, trivial_oracle, trivial_oracle)
    for path in ((), (3,), (1, 2), (0, 1, 3, 2)):
        decoded = decode_tree_state(tree, _tree_state(tree, path))
        assert decoded.nodes == {path: pytest.approx(1.0)}
        assert not decoded.non_algorithmic


def test_init_node_path_too_long():
    tree = BacktrackingTree(2, 1, trivial_oracle, trivial_oracle)
    with pytest.raises(UsageError):
        tree.init_node(tree.new_circuit(), (0, 1, 1))


@st.composite
def _tree_and_paths(draw):
    # A (sub)tree of random shape, a path below its root, and an absolute
    # path that is invalid: a label off the register or one entry too many.
    depth = draw(st.integers(1, 5))
    bits = draw(st.integers(1, 2))
    deg = 2 ** bits
    labels = st.integers(0, deg - 1)
    root = tuple(draw(st.lists(labels, max_size=depth)))
    path = tuple(draw(st.lists(labels, max_size=depth - len(root))))
    if draw(st.booleans()):
        bad = tuple(draw(st.lists(labels, min_size=depth + 1, max_size=depth + 1)))
    else:
        bad = list(draw(st.lists(labels, min_size=1, max_size=depth)))
        bad[draw(st.integers(0, len(bad) - 1))] = draw(
            st.one_of(st.integers(deg, deg + 5), st.integers(-3, -1)))
        bad = tuple(bad)
    return depth, bits, root, path, bad


def test_decode_index_reads_the_lifted_height_register():
    lifted = demo_tree(3)._lifted(True)
    assert lifted.decode_index(lifted.node_index((1, 0))) == (1, 0)


@settings(max_examples=150, deadline=None)
@given(_tree_and_paths())
# Degree 4: labels 5, 6 and 7 would wrap onto 1, 2 and 3 without the check.
@example((2, 2, (), (), (5,)))
@example((2, 2, (), (), (6,)))
@example((2, 2, (), (), (7,)))
def test_path_encoder_round_trip_and_validation(case):
    depth, bits, root, path, bad = case
    tree = BacktrackingTree(depth, bits, trivial_oracle, trivial_oracle,
                            root_path=root)
    idx = tree.node_index(path)
    sub = BacktrackingTree(depth, bits, trivial_oracle, trivial_oracle).subtree(root)
    for t in (tree, tree._lifted(True), sub, sub._lifted(False)):
        assert t.decode_index(t.node_index(path)) == root + path
    circ = tree.new_circuit()
    tree.init_node(circ, path)
    targets = [g.target for g in circ.gates]
    assert all(g.kind is GateKind.X and not g.controls for g in circ.gates)
    assert sorted(targets) == [q for q in range(tree.num_tree_qubits) if idx >> q & 1]

    full = BacktrackingTree(depth, bits, trivial_oracle, trivial_oracle)
    with pytest.raises(UsageError):
        full.node_index(bad)
    with pytest.raises(UsageError):
        oracle_from_paths([bad])(full, full.new_circuit())
    with pytest.raises(UsageError):
        BacktrackingTree(depth, bits, trivial_oracle, trivial_oracle, root_path=bad)
    with pytest.raises(UsageError):
        full.subtree(bad)


# -- psi_prep -----------------------------------------------------------------

def test_psi_prep_three_term_example():
    # |[0,0,0,1]>|3> -> (|x> + |y0> + |y1>)/sqrt(3), all coefficients positive.
    tree = BacktrackingTree(4, 1, trivial_oracle, trivial_oracle)
    circ = tree.new_circuit()
    tree.init_node(circ, (1,))
    tree.psi_prep(circ, even=False)
    decoded = decode_tree_state(tree, apply(SparseState.zero(circ.num_qubits), circ, debug=True))
    r = 1 / math.sqrt(3)
    assert set(decoded.nodes) == {(1,), (1, 0), (1, 1)}
    for amp in decoded.nodes.values():
        assert amp == pytest.approx(r, abs=1e-10)


def test_psi_prep_root_weight():
    # Root of a depth-3 binary tree: child amplitude sqrt(3) x the parent's.
    tree = demo_tree(3)
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    tree.psi_prep(circ, even=False)
    decoded = decode_tree_state(tree, apply(SparseState.zero(circ.num_qubits), circ, debug=True))
    ratio = decoded.nodes[(0,)].real / decoded.nodes[()].real
    assert ratio == pytest.approx(math.sqrt(3), abs=1e-10)


def test_psi_prep_inverse_round_trip():
    rng = np.random.default_rng(40)
    tree = BacktrackingTree(3, 1, trivial_oracle, trivial_oracle)
    circ = tree.new_circuit()
    # psi_prep keeps the height register one-hot, so an MCZ on two height
    # wires is the identity in between; with an empty action ``within``
    # would emit nothing at all.
    circ.within(lambda: tree.psi_prep(circ, even=True),
                lambda _: circ.mcz((tree.h[0], tree.h[1])))
    assert circ.gates
    st = _random_tree_superposition(tree, rng)
    out = apply(st, circ, debug=True)
    for k, v in st.amplitudes.items():
        assert out.amplitude(k) == pytest.approx(v, abs=1e-10)


# -- diffuser semantics (dense oracle) ------------------------------------------

ACCEPT3 = (1, 1, 1)
REJECT3 = (0,)


def _demo_predicates():
    return (lambda p: p == ACCEPT3), (lambda p: p == REJECT3)


@pytest.mark.parametrize("even", [False, True])
@pytest.mark.parametrize("subspace_opt", [False, True])
def test_diffuser_matches_reference_depth3(even, subspace_opt):
    tree = demo_tree(3, subspace_optimization=subspace_opt)
    accept, reject = _demo_predicates()
    circ = tree.new_circuit()
    tree.qstep_diffuser(circ, even=even)
    u = dense_unitary(circ)
    ref = reference_diffuser(tree, accept, reject, even)
    alg = algorithmic_indices(tree)
    assert np.max(np.abs(u[np.ix_(alg, alg)] - ref[np.ix_(alg, alg)])) <= 1e-8


@pytest.mark.parametrize("even", [False, True])
def test_diffuser_matches_reference_deg4(even):
    tree = BacktrackingTree(2, 2, oracle_from_paths([(3, 2)]),
                            oracle_from_paths([(1,)]))
    circ = tree.new_circuit()
    tree.qstep_diffuser(circ, even=even)
    u = dense_unitary(circ)
    ref = reference_diffuser(tree, lambda p: p == (3, 2), lambda p: p == (1,), even)
    alg = algorithmic_indices(tree)
    assert np.max(np.abs(u[np.ix_(alg, alg)] - ref[np.ix_(alg, alg)])) <= 1e-8


def test_marked_node_subspace_is_identity():
    # depth-2 tree with one accepted leaf: D_x = I on the marked node's block.
    tree = BacktrackingTree(2, 1, oracle_from_paths([(1, 1)]), trivial_oracle)
    circ = tree.new_circuit()
    tree.qstep_diffuser(circ, even=True)   # even heights: covers height-0 leaves
    u = dense_unitary(circ)
    idx = tree.node_index((1, 1))
    col = np.zeros(u.shape[0])
    col[idx] = 1
    assert np.allclose(u[:, idx], col, atol=1e-9)


def test_rejected_leaf_sign_exact():
    # The odd-parity diffuser multiplies the rejected node state by -1 exactly.
    tree = demo_tree(3)
    circ = tree.new_circuit()
    tree.init_node(circ, REJECT3)           # height 2 node [0]
    tree.qstep_diffuser(circ, even=True)    # even heights: covers height 2
    st = apply(SparseState.zero(circ.num_qubits), circ, debug=True)
    assert st.amplitude(tree.node_index(REJECT3)) == pytest.approx(-1.0, abs=1e-10)


def test_diffuser_involution():
    tree = demo_tree(3)
    rng = np.random.default_rng(41)
    circ = tree.new_circuit()
    tree.qstep_diffuser(circ, even=False)
    tree.qstep_diffuser(circ, even=False)
    st = _random_tree_superposition(tree, rng, num_qubits=circ.num_qubits)
    out = apply(st, circ, debug=True)
    for k, v in st.amplitudes.items():
        assert out.amplitude(k) == pytest.approx(v, abs=1e-9)


def test_non_algorithmic_child_slot_states_invariant_under_psi_prep():
    # A parent-height state whose child branch slot is dirty must be left
    # exactly in place by the preparation (the branch-gated shift skips it).
    tree = demo_tree(3)
    circ = tree.new_circuit()
    tree.psi_prep(circ, even=False)
    u = dense_unitary(circ)
    for j in (1, 3):                        # odd (parent) heights
        idx = (1 << tree.h[j]) | (1 << tree.branch_reg(j - 1)[0])
        col = np.zeros(u.shape[0])
        col[idx] = 1
        assert np.allclose(u[:, idx], col, atol=1e-9)


def test_non_algorithmic_child_slot_states_diagonal_under_diffuser():
    # ... and the full diffuser at most flips their sign.
    tree = demo_tree(3)
    circ = tree.new_circuit()
    tree.qstep_diffuser(circ, even=False)
    u = dense_unitary(circ)
    for j in (1, 3):
        idx = (1 << tree.h[j]) | (1 << tree.branch_reg(j - 1)[0])
        col = np.zeros(u.shape[0])
        col[idx] = 1
        assert np.allclose(np.abs(u[:, idx]), col, atol=1e-9)
        assert abs(u[idx, idx].imag) < 1e-9


def test_non_algorithmic_states_never_reach_algorithmic_ones():
    # Dirty basis inputs may reflect within their own dirt sector but have
    # zero overlap with any algorithmic node state afterwards.
    tree = demo_tree(3)
    alg = set(algorithmic_indices(tree))
    for even in (False, True):
        circ = tree.new_circuit()
        tree.qstep_diffuser(circ, even=even)
        u = dense_unitary(circ)
        for j in (1, 2):
            for dirt in range(1, 2 ** j):
                idx = 1 << tree.h[j]
                for i in range(j):
                    if (dirt >> i) & 1:
                        idx |= 1 << tree.branch_reg(i)[0]
                overlap = sum(abs(u[a, idx]) for a in alg)
                assert overlap <= 1e-9


def test_walk_confinement_from_root():
    tree = demo_tree(3)
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    for _ in range(3):
        tree.quantum_step(circ)
    st = apply(SparseState.zero(circ.num_qubits), circ, debug=True)
    decoded = decode_tree_state(tree, st)
    assert decoded.non_algorithmic_mass() <= 1e-9
    assert abs(st.norm() - 1.0) <= 1e-9


def test_quantum_step_unitary_on_random_states():
    tree = demo_tree(3)
    rng = np.random.default_rng(42)
    circ = tree.new_circuit()
    tree.quantum_step(circ)
    for _ in range(5):
        st = _random_tree_superposition(tree, rng, num_qubits=circ.num_qubits)
        out = apply(st, circ, debug=True)
        assert abs(out.norm() - 1.0) <= 1e-9


def test_controlled_step_with_zero_control_is_identity():
    tree = demo_tree(3)
    rng = np.random.default_rng(43)
    circ = tree.new_circuit()
    ctrl = circ.allocate()
    tree.quantum_step(circ, ctrl=(ctrl,))
    for _ in range(50):
        st = _random_tree_superposition(tree, rng, num_qubits=circ.num_qubits)
        out = apply(st, circ, debug=True)
        fid = abs(sum(np.conj(complex(v)) * out.amplitude(k)
                      for k, v in st.amplitudes.items()))
        assert fid >= 1.0 - 1e-9


def test_eigenvector_witness_fixed_by_step():
    tree = demo_tree(3)
    circ = tree.new_circuit()
    tree.quantum_step(circ)
    phi = phi_state(tree, ACCEPT3, num_qubits=circ.num_qubits)
    out = apply(phi, circ, debug=True)
    fid = abs(sum(np.conj(complex(v)) * out.amplitude(k)
                  for k, v in phi.amplitudes.items()))
    assert fid >= 1.0 - 1e-8


def test_controlled_diffuser_cx_budget():
    # Abstract claim: 6n + 14 CX for a single controlled diffuser of a binary
    # tree (trivial oracles, subspace optimization).  Our R_B-parity variant
    # meets the bound for every depth, with equality at even depths.
    for n in range(3, 11):
        tree = BacktrackingTree(n, 1, trivial_oracle, trivial_oracle,
                                subspace_optimization=True)
        circ = tree.new_circuit()
        ctrl = circ.allocate()
        tree.qstep_diffuser(circ, even=(n % 2 == 1), ctrl=(ctrl,))
        assert metrics(transpile(circ)).cx_count <= 6 * n + 14


def test_subspace_optimization_increment_emits_no_gates():
    # With subspace optimization and trivial oracles, nothing but the root-fix
    # CX sits between the two phase gates: the height increment is free.
    n = 4
    tree = BacktrackingTree(n, 1, trivial_oracle, trivial_oracle,
                            subspace_optimization=True)
    circ = tree.new_circuit()
    tree.qstep_diffuser(circ, even=True)
    mcz_pos = [i for i, g in enumerate(circ.gates) if g.kind is GateKind.MCZ]
    assert len(mcz_pos) == 2
    between = circ.gates[mcz_pos[0] + 1:mcz_pos[1]]
    root_fix = 1 if n % 2 == 1 else 0
    assert len(between) == root_fix


def test_estimate_phase_structure():
    # p = 3: exactly 3 ancillae and controlled-power blocks of 1, 2 and 4
    # literal step repetitions, plus the ancilla Hadamards and inverse QFT
    # (3 H + 3 five-gate controlled phases).
    tree = demo_tree(3)
    base = tree.new_circuit()
    ctrl = base.allocate()
    tree.quantum_step(base, ctrl=(ctrl,))
    gates_per_step = len(base.gates)

    circ = tree.new_circuit()
    anc = tree.estimate_phase(circ, 3)
    assert len(anc) == 3
    assert len(circ.gates) == 3 + 7 * gates_per_step + (3 + 3 * 5)
    with pytest.raises(UsageError):
        tree.estimate_phase(tree.new_circuit(), 0)


def _literal_phase_estimation(tree, precision):
    """Phase estimation written out: 2^k separately built controlled steps on
    ancilla k."""
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    anc = circ.allocate_register(precision)
    for a in anc:
        circ.h(a)
    for k, a in enumerate(anc):
        for _ in range(2 ** k):
            tree.quantum_step(circ, ctrl=(a,))
    _inverse_qft(circ, anc)
    return circ


@pytest.mark.parametrize("subspace_opt", [False, True])
@pytest.mark.parametrize("instance", ["fig1_k2", "demo3"])
def test_estimate_phase_replays_built_steps(instance, subspace_opt, monkeypatch):
    if instance == "demo3":
        tree = demo_tree(3, subspace_opt)
    else:
        board = restrict_board(parse_board(FIG1_BOARD), 2)
        tree, _ = tree_for_board(board, subspace_optimization=subspace_opt)
    want = to_text(_literal_phase_estimation(tree, 3))

    built = []
    step = BacktrackingTree.quantum_step
    monkeypatch.setattr(BacktrackingTree, "quantum_step",
                        lambda self, circ, ctrl=(): built.append(ctrl) or step(self, circ, ctrl))
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    tree.estimate_phase(circ, 3)
    assert len(built) == 1
    assert to_text(circ) == want
    # every release of a workspace qubit, replayed copies included, finds |0>
    apply(SparseState.zero(circ.num_qubits), circ, debug=True)


def _rewired_extend_phase_estimation(tree, precision):
    """Phase estimation as built by rewiring ancilla 0's step gate by gate
    onto ancilla k and appending the copy with ``extend``, 2^k times."""
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    anc = circ.allocate_register(precision)
    for a in anc:
        circ.h(a)
    start = len(circ.gates)
    tree.quantum_step(circ, ctrl=(anc[0],))
    first = circ.gates[start:]
    for k, a in enumerate(anc[1:], 1):
        step = [Gate(g.kind, a if g.target == anc[0] else g.target, g.params,
                     tuple(a if q == anc[0] else q for q in g.controls), g.control_state)
                for g in first]
        for _ in range(2 ** k):
            circ.extend(step)
    _inverse_qft(circ, anc)
    return circ


def test_estimate_phase_builds_the_rewired_extend_circuit():
    tree, _ = tree_for_board(restrict_board(parse_board(FIG1_BOARD), 3))
    want = _rewired_extend_phase_estimation(tree, 3)
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    anc = tree.estimate_phase(circ, 3)
    assert to_text(circ) == to_text(want)
    assert circ.alloc_events == want.alloc_events
    assert circ.dealloc_events == want.dealloc_events
    # Ancilla 0's step is recorded as one copy of itself, the others as
    # moved copies of the same fragment.
    step = circ.repeats[0][1]
    assert circ.repeats == [(circ.repeats[0][0], step, 1, None),
                            (circ.repeats[1][0], step, 2, (anc[0], anc[1])),
                            (circ.repeats[2][0], step, 4, (anc[0], anc[2]))]


def test_estimate_phase_refuses_before_any_copy(monkeypatch):
    tree, _ = tree_for_board(restrict_board(parse_board(FIG1_BOARD), 3))
    circ = tree.new_circuit()
    tree.init_node(circ, ())

    def refuse(*args, **kwargs):
        raise AssertionError("a copy was appended")

    monkeypatch.setattr(Circuit, "repeat", refuse)
    monkeypatch.setattr(walk, "MAX_QPE_GATES", 1000)
    with pytest.raises(ResourceLimitError, match="more than 1000"):
        tree.estimate_phase(circ, 3)
    assert circ.repeats == []


def test_walk_config_validation():
    with pytest.raises(UsageError):
        WalkConfig(precision_bits=0)
    with pytest.raises(UsageError):
        WalkConfig(delta=1.5)


def test_estimate_phase_eigenvector_gives_all_zero():
    tree = demo_tree(3)
    circ = tree.new_circuit()
    anc = tree.estimate_phase(circ, 3)
    phi = phi_state(tree, ACCEPT3, num_qubits=circ.num_qubits)
    out = apply(phi, circ, debug=True)
    counts = sample(out, anc, 200, seed=5)
    assert counts == {0: 200}


# -- phase estimation through the step matrix ------------------------------------

def _qpe_instances():
    for k in range(1, 5):
        for subspace_opt in (False, True):
            yield f"fig1_k{k}_so{int(subspace_opt)}", ("fig1", k, subspace_opt)
    for depth in (2, 3, 4):
        yield f"demo{depth}", ("demo", depth, False)


def _qpe_tree(spec):
    kind, size, subspace_opt = spec
    if kind == "demo":
        return demo_tree(size, subspace_opt)
    board = restrict_board(parse_board(FIG1_BOARD), size)
    return tree_for_board(board, subspace_optimization=subspace_opt)[0]


@pytest.mark.parametrize("subtree", [False, True])
@pytest.mark.parametrize("spec", [s for _, s in _qpe_instances()],
                         ids=[name for name, _ in _qpe_instances()])
def test_qpe_state_matches_gate_level_phase_estimation(spec, subtree):
    tree = _qpe_tree(spec)
    if subtree:
        tree = tree.subtree((1,) if spec[0] == "demo" else (0,))
    for precision in (1, 2, 3):
        circ = tree.new_circuit()
        tree.init_node(circ, ())
        anc = tree.estimate_phase(circ, precision)
        want = apply(SparseState.zero(circ.num_qubits), circ, debug=True)
        got, got_anc, _ = qpe_state(tree, precision)
        assert got_anc == anc
        assert np.array_equal(got.keys, want.keys), precision
        assert np.abs(got.amps - want.amps).max() <= 1e-10, precision


def test_qpe_state_rejects_a_step_that_leaves_workspace_set(monkeypatch):
    step = BacktrackingTree.quantum_step

    def dirty_step(self, circ, ctrl=()):
        step(self, circ, ctrl)
        circ.x(circ.allocate())

    monkeypatch.setattr(BacktrackingTree, "quantum_step", dirty_step)
    with pytest.raises(UsageError, match="workspace"):
        qpe_state(demo_tree(3), 2)


def test_qpe_state_rejects_a_non_unitary_step(monkeypatch):
    # A simulation that loses norm (here 1% per run) breaks W's unitarity.
    def lossy_apply(state, circuit, **kwargs):
        out = apply(state, circuit, **kwargs)
        out.amps *= 0.99
        return out

    monkeypatch.setattr(walk, "apply", lossy_apply)
    monkeypatch.setattr(sim, "apply", lossy_apply)
    with pytest.raises(UsageError, match="not unitary"):
        qpe_state(demo_tree(3), 2)


def test_qpe_state_caps_the_reachable_node_count():
    tree = demo_tree(3)
    reach, w, _ = walk._step_matrix(tree, None)
    nodes = reach.nodes
    assert w.shape == (len(nodes), len(nodes))
    with pytest.raises(ResourceLimitError):
        qpe_state(tree, 1, max_support=len(nodes) - 1)


@pytest.mark.parametrize("max_support", [None, 200])
def test_qpe_state_compiles_each_step_gate_once(max_support, monkeypatch):
    # FIG1 at k = 3 reaches its 21 nodes in one step run: the root with the
    # nodes its oracles predict, each level's oracles compiled and run once
    # apart from the step.  Under a cap too small to seed, the root runs
    # alone first and the other 20 follow in batches sized from its support
    # per node, none of which passes the cap (a level-by-level search made 8
    # runs, one of them past the cap).
    tree = _qpe_tree(("fig1", 3, False))
    step = tree.new_circuit()
    tree.quantum_step(step)
    compiled, runs, raised = [], [], []
    compile_gate, run = sim._compile, walk.apply

    def spy_compile(gate):
        compiled.append(gate)
        return compile_gate(gate)

    def spy_run(state, program, **kwargs):
        runs.append(program)
        try:
            return run(state, program, **kwargs)
        except ResourceLimitError:
            raised.append(program)
            raise

    monkeypatch.setattr(sim, "_compile", spy_compile)
    monkeypatch.setattr(walk, "apply", spy_run)
    monkeypatch.setattr(sim, "apply", spy_run)
    qpe_state(tree, 2, max_support)
    step_runs = [program for program in runs if program.gates == tuple(step.gates)]
    oracles = list({id(program): program for program in runs
                    if program.gates != tuple(step.gates)}.values())
    # The inverse QFT is read out without gates.
    assert compiled == step.gates + [gate for program in oracles for gate in program.gates]
    assert all(program is step_runs[0] for program in step_runs)
    assert len(oracles) == 4
    assert (len(step_runs), len(raised)) == ((1, 0) if max_support is None else (5, 0))


@pytest.mark.parametrize("subspace_opt", [False, True])
def test_root_step_matrix_runs_the_predicted_reach_with_the_root(subspace_opt, monkeypatch):
    # Under the CLI's default cap, the root's first step run also holds every
    # node its oracles predict: its W takes one batch at FIG1 k = 1..5 (1..6
    # with the subspace optimization), where one batch per level takes 2, 3,
    # 3, 4, 4 (and 5).  Past that the cap does not admit the predicted nodes
    # at every workspace pattern, so the root runs alone and every other node
    # follows in the second batch (one per level takes 5, 5, 6, 6 at k = 6..9).
    calls, real = [], walk.run_columns

    def spy(program, keys, *args):
        if program.gates == tuple(step.gates):
            calls.append(len(keys))
        return real(program, keys, *args)

    monkeypatch.setattr(walk, "run_columns", spy)
    counts, first = [], []
    for k in range(1, 10):
        tree = _qpe_tree(("fig1", k, subspace_opt))
        step = tree.new_circuit()
        tree.quantum_step(step)
        calls.clear()
        reach, _, _ = walk._step_matrix(tree, 2_000_000, step=step)
        counts.append(len(calls))
        first.append(calls[0])
        assert sum(calls) == len(reach.nodes)
    seeded = 5 + subspace_opt
    assert counts == [1] * seeded + [2] * (9 - seeded)
    assert first == [9, 13, 21, 37, 45, 53][:seeded] + [1] * (9 - seeded)


def test_predicted_reach_stops_past_the_support_cap(monkeypatch):
    # Every one of the 2^21 - 1 nodes of a depth-20 binary tree with trivial
    # oracles is reached (44 step wires).  The prediction runs its oracles on
    # no more node states than the cap and a level's children, and refuses
    # the reach before any step run.
    tree = BacktrackingTree(20, 1, trivial_oracle, trivial_oracle)
    step = tree.new_circuit()
    tree.quantum_step(step)
    assert step.num_qubits == 44
    predicted, stepped, real = [], [], walk.run_columns

    def spy(program, keys, *args):
        (stepped if program.gates == tuple(step.gates) else predicted).extend(keys)
        return real(program, keys, *args)

    monkeypatch.setattr(walk, "run_columns", spy)
    with pytest.raises(ResourceLimitError, match="walk step reaches more than 1000 node states"):
        walk._step_matrix(tree, 1000, step=step)
    assert 0 < len(predicted) <= 1000 + tree.deg
    assert len(set(predicted)) == len(predicted)
    assert stepped == []


@pytest.mark.parametrize("subspace_opt", [False, True])
def test_fig1_step_frees_only_clean_wires_from_every_predicted_node(subspace_opt):
    # The reject OR's ladder stays computed until the diffuser undoes it, and
    # an empty reject drops its lift: a debug run checks every wire the step
    # frees for |0>, from each node W is on.  Each node runs under its own
    # label wires, as in ``run_columns``, so no two nodes' amplitudes meet.
    for k in range(1, 7):
        tree = _qpe_tree(("fig1", k, subspace_opt))
        step = tree.new_circuit()
        tree.quantum_step(step)
        nodes = [tree.node_index(())] + walk._predicted_reach(tree, None)
        keys = np.arange(len(nodes), dtype=np.int64) << step.num_qubits | nodes
        state = SparseState(step.num_qubits + (len(nodes) - 1).bit_length(), keys,
                            np.full(len(nodes), len(nodes) ** -0.5, complex))
        out = apply(state, step, debug=True)
        assert np.sum(np.abs(out.amps) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_a_root_that_reaches_no_node_runs_once_under_a_tight_cap():
    # The root its own oracles accept is W's only node.  Under a cap below
    # 2^(step wires - tree wires) it ran alone, then the empty rest of its
    # nodes, and raised ValueError.
    tree = BacktrackingTree(2, 1, oracle_from_paths([()]), oracle_from_paths([(0,)]))
    reach, w, _ = walk._step_matrix(tree, 4)
    assert reach.nodes.tolist() == [tree.node_index(())]
    assert abs(w[0, 0]) == pytest.approx(1.0)


@functools.cache
def _grids():
    """The 288 complete valid 4x4 grids."""
    return classical_solve(parse_board("....\n" * 4))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_step_matrix_runs_its_parents_reach_and_refuses_a_missed_node(data):
    # A subtree's run given its parent's whole reach (a sibling subtree's
    # nodes mixed in) finds the W its own prediction gives, and runs no node
    # state outside the subtree.  A reach one reached node short, or a
    # prediction one node short, raises.
    grid = data.draw(st.sampled_from(_grids()))
    blanks = data.draw(st.sets(st.integers(0, 15), min_size=2, max_size=4))
    cells = [[None if 4 * r + c in blanks else v for c, v in enumerate(row)]
             for r, row in enumerate(grid.cells)]
    tree, _ = tree_for_board(SudokuBoard(2, tuple(map(tuple, cells))),
                             subspace_optimization=data.draw(st.booleans()))
    parent, _, _ = walk._step_matrix(tree, None)
    paths = [tree.decode_index(key) for key in parent.nodes.tolist()]
    root = data.draw(st.sampled_from(
        [p for p in paths if 1 <= len(p) <= min(2, tree.max_depth - 1)]))
    sub = tree.subtree(root)
    want, w, _ = walk._step_matrix(sub, None)
    run, ran = walk.run_columns, []

    def spy(program, keys, *args):
        ran.extend(keys)
        return run(program, keys, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "run_columns", spy)
        got, got_w, _ = walk._step_matrix(sub, None, parent)
    assert got.nodes.tobytes() == want.nodes.tobytes()
    assert got_w.tobytes() == w.tobytes()
    assert all(sub.decode_index(key) is not None for key in ran)

    if len(want.nodes) > 1:
        dropped = data.draw(st.sampled_from(want.nodes[1:].tolist()))
        short = walk.Reach(parent.nodes[parent.nodes != dropped], parent.per_node)
        with pytest.raises(UsageError, match="did not predict"):
            walk._step_matrix(sub, None, short)

    predict = walk._predicted_reach
    missing = data.draw(st.integers(0, len(parent.nodes) - 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_predicted_reach",
                      lambda *args: [key for i, key in enumerate(predict(*args)) if i != missing])
        with pytest.raises(UsageError, match="did not predict"):
            walk._step_matrix(tree, None)


def _peers(cell):
    """The cells sharing a row, a column or a 2x2 box with ``cell`` on a 4x4
    board."""
    r, c = cell
    return {(i, j) for i in range(4) for j in range(4) if (i, j) != cell
            and (i == r or j == c or (i // 2, j // 2) == (r // 2, c // 2))}


def _predicates(board):
    """Classical accept and reject on absolute paths.  Accept: every blank
    assigned plus the extra level.  Reject: an assigned cell holds the value
    of a peer's given or of an earlier assignment."""
    empties = board.empty_cells()
    givens = {(r, c): v for r, row in enumerate(board.cells)
              for c, v in enumerate(row) if v is not None}

    def accept(path):
        return len(path) == len(empties) + 1

    def reject(path):
        filled = dict(givens)
        for cell, label in zip(empties, path):
            if any(filled.get(p) == label for p in _peers(cell)):
                return True
            filled[cell] = label
        return False

    return accept, reject


def _assert_step_matrix_is_the_definitional_step(board, subspace_opt, root):
    tree, _ = tree_for_board(board, subspace_optimization=subspace_opt)
    sub = tree.subtree(root)
    reach, w, _ = walk._step_matrix(sub, None)
    keys, want = reachable_walk_step(sub, *_predicates(board))
    assert sorted(reach.nodes.tolist()) == sorted(keys.tolist())
    # W's nodes are breadth first from the root over the definitional W,
    # each level sorted, though no search in ``_step_matrix`` produces them.
    bfs, seen, level = [], {0}, [0]
    while level:
        bfs += sorted(keys[level].tolist())
        level = sorted(set(np.flatnonzero(np.abs(want[:, level]).max(axis=1) > 1e-12)) - seen)
        seen.update(level)
    assert bfs == reach.nodes.tolist()
    position = {key: i for i, key in enumerate(keys.tolist())}
    order = [position[key] for key in reach.nodes.tolist()]
    assert np.abs(want[np.ix_(order, order)] - w).max() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_predicted_reach_is_the_step_matrix_reach(data):
    # Random puzzles, at the root or at any node it reaches short of a leaf:
    # the reach the oracles predict is the nodes the step run reaches and the
    # definitional walk's reachable nodes (a rejected root reaches only
    # itself).
    grid = data.draw(st.sampled_from(_grids()))
    blanks = data.draw(st.sets(st.integers(0, 15), min_size=2, max_size=5))
    board = SudokuBoard(2, tuple(tuple(None if 4 * r + c in blanks else v
                                       for c, v in enumerate(row))
                                 for r, row in enumerate(grid.cells)))
    tree, _ = tree_for_board(board, subspace_optimization=data.draw(st.booleans()))
    paths = [tree.decode_index(key) for key in walk._predicted_reach(tree, None)]
    root = data.draw(st.sampled_from([()] + [p for p in paths if len(p) < tree.max_depth]))
    sub = tree.subtree(root)
    predicted = [sub.node_index(())] + walk._predicted_reach(sub, None)
    reach, _, _ = walk._step_matrix(sub, None)
    keys, _ = reachable_walk_step(sub, *_predicates(board))
    assert sorted(predicted) == sorted(reach.nodes.tolist()) == sorted(keys.tolist())


@pytest.mark.parametrize("subspace_opt", [False, True])
@pytest.mark.parametrize("k", range(1, 10))
def test_fig1_step_matrix_is_the_definitional_walk_step(k, subspace_opt):
    board = restrict_board(parse_board(FIG1_BOARD), k)
    for root in ((), (1,), (3,)):
        _assert_step_matrix_is_the_definitional_step(board, subspace_opt, root)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_step_matrix_is_the_definitional_walk_step(data):
    # Random puzzles, at the root or at a subtree the search could run: a
    # reached child or grandchild (a rejected one reaches only itself).
    grid = data.draw(st.sampled_from(_grids()))
    blanks = data.draw(st.sets(st.integers(0, 15), min_size=2, max_size=5))
    board = SudokuBoard(2, tuple(tuple(None if 4 * r + c in blanks else v
                                       for c, v in enumerate(row))
                                 for r, row in enumerate(grid.cells)))
    subspace_opt = data.draw(st.booleans())
    tree, _ = tree_for_board(board, subspace_optimization=subspace_opt)
    paths = [tree.decode_index(key) for key in walk._step_matrix(tree, None)[0].nodes.tolist()]
    root = data.draw(st.sampled_from([p for p in paths if len(p) <= 2]))
    _assert_step_matrix_is_the_definitional_step(board, subspace_opt, root)


def _assert_w_as_with_copied_accept(board, subspace_opt, root):
    # The accept phase is diagonal, so phasing on h[0] itself or on a copy
    # of it gives W bit for bit.
    tree, _ = tree_for_board(board, subspace_optimization=subspace_opt)
    reach, w, _ = walk._step_matrix(tree.subtree(root), None)
    with pytest.MonkeyPatch.context() as patch:
        copied_accept(patch)
        copied, _ = tree_for_board(board, subspace_optimization=subspace_opt)
        copied_reach, copied_w, _ = walk._step_matrix(copied.subtree(root), None)
    assert copied.accept_builder is not tree.accept_builder
    assert reach.nodes.tobytes() == copied_reach.nodes.tobytes()
    assert w.tobytes() == copied_w.tobytes()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_step_matrix_is_unchanged_from_the_copied_accept(data):
    # Random puzzles, at the root or at a reached child.
    grid = data.draw(st.sampled_from(_grids()))
    blanks = data.draw(st.sets(st.integers(0, 15), min_size=2, max_size=5))
    board = SudokuBoard(2, tuple(tuple(None if 4 * r + c in blanks else v
                                       for c, v in enumerate(row))
                                 for r, row in enumerate(grid.cells)))
    subspace_opt = data.draw(st.booleans())
    tree, _ = tree_for_board(board, subspace_optimization=subspace_opt)
    paths = [tree.decode_index(key) for key in walk._step_matrix(tree, None)[0].nodes.tolist()]
    root = data.draw(st.sampled_from([p for p in paths if len(p) <= 1]))
    _assert_w_as_with_copied_accept(board, subspace_opt, root)


@pytest.mark.parametrize("subspace_opt", [False, True])
@pytest.mark.parametrize("k", [8, 9])
def test_fig1_k8_and_full_board_step_matrix_is_unchanged_from_the_copied_accept(
        k, subspace_opt):
    _assert_w_as_with_copied_accept(restrict_board(parse_board(FIG1_BOARD), k),
                                    subspace_opt, ())


@pytest.mark.parametrize("subspace_opt", [False, True])
@pytest.mark.parametrize("k", [3, 4, 5, 7])
def test_step_matrix_bytes_do_not_depend_on_the_support_cap(k, subspace_opt):
    # The cap changes how the nodes are batched into step runs, never W's bits.
    tree, _ = tree_for_board(restrict_board(parse_board(FIG1_BOARD), k),
                             subspace_optimization=subspace_opt)
    free, w, _ = walk._step_matrix(tree, None)
    capped, capped_w, _ = walk._step_matrix(tree, 300)
    assert free.nodes.tobytes() == capped.nodes.tobytes()
    assert w.tobytes() == capped_w.tobytes()


def test_seeded_solve_runs_each_subtree_step_once(monkeypatch):
    # FIG1 at k = 3: the root's run holds its whole predicted reach and runs
    # its step once; each of the 3 subtree runs already holds its nodes from
    # its parent's run and runs once, so 4 step runs where a level-by-level
    # search makes 10.  The prediction's oracle runs are not step runs.
    tree = _qpe_tree(("fig1", 3, False))
    real, real_step, steps, step_runs = walk.apply, BacktrackingTree.quantum_step, [], []

    def spy_step(self, circ, ctrl=()):
        real_step(self, circ, ctrl)
        steps.append(tuple(circ.gates))

    def spy(state, program, **kwargs):
        if isinstance(program, sim.Program) and program.gates in steps:
            step_runs.append(program)
        return real(state, program, **kwargs)

    monkeypatch.setattr(BacktrackingTree, "quantum_step", spy_step)
    monkeypatch.setattr(walk, "apply", spy)
    monkeypatch.setattr(sim, "apply", spy)
    stats = walk.SearchStats()
    path = find_solution(tree, WalkConfig(precision_bits=3, shots=10 ** 6), seed=1,
                         stats=stats)
    assert path == (1, 3, 3, 2)
    assert (stats.qpe_runs, len(step_runs)) == (4, 4)


def test_detection_and_search_never_build_gate_level_phase_estimation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_phase called")

    monkeypatch.setattr(BacktrackingTree, "estimate_phase", refuse)
    assert detect_marked(demo_tree(3), WalkConfig(), seed=2).marked
    assert find_solution(demo_tree(3), WalkConfig(shots=4000), seed=0) == ACCEPT3


# -- detection / search --------------------------------------------------------

def test_detection_precision_formula():
    tree = demo_tree(3)
    # T = 15 nodes, n = 3: sqrt(45) ~ 6.7 -> 3 bits.
    assert detection_precision(tree, WalkConfig()) == 3


def test_detect_marked_on_demo_tree():
    result = detect_marked(demo_tree(3), WalkConfig(), seed=2)
    assert result.marked
    unmarked = BacktrackingTree(3, 1, trivial_oracle, oracle_from_paths([REJECT3]))
    result = detect_marked(unmarked, WalkConfig(), seed=2)
    assert not result.marked


def test_detect_repetition_arithmetic():
    cfg = WalkConfig(delta=0.5, gamma_const=1.0)
    result = detect_marked(demo_tree(3), cfg, seed=0)
    assert result.repetitions == 1


def test_find_solution_demo_tree():
    path = find_solution(demo_tree(3), WalkConfig(shots=4000), seed=0)
    assert path == ACCEPT3


def test_find_solution_none_when_unmarked():
    tree = BacktrackingTree(3, 1, trivial_oracle, oracle_from_paths([REJECT3]))
    assert find_solution(tree, WalkConfig(shots=2000), seed=0) is None


def test_find_solution_from_subtree():
    tree = demo_tree(3).subtree((1,))
    path = find_solution(tree, WalkConfig(shots=4000), seed=1)
    assert path == ACCEPT3


def test_classically_accepted():
    tree = demo_tree(3)
    assert classically_accepted(tree, ACCEPT3)
    assert not classically_accepted(tree, ())


def test_subtree_diffuser_matches_reference():
    tree = demo_tree(3).subtree((1,))
    accept, reject = _demo_predicates()
    for even in (False, True):
        circ = tree.new_circuit()
        tree.qstep_diffuser(circ, even=even)
        u = dense_unitary(circ)
        ref = reference_diffuser(tree, accept, reject, even)
        alg = algorithmic_indices(tree)
        assert np.max(np.abs(u[np.ix_(alg, alg)] - ref[np.ix_(alg, alg)])) <= 1e-8


def test_sparsity_bound_during_qpe():
    # Final support obeys the node-count x ancilla-pattern bound; transient
    # support may exceed it while compiled two-gate identities (for example
    # the controlled-H internals) are half-applied, by a small constant.
    for depth in (3, 4, 5):
        tree = demo_tree(depth)
        circ = tree.new_circuit()
        tree.init_node(circ, ())
        anc = tree.estimate_phase(circ, 2)
        st = apply(SparseState.zero(circ.num_qubits), circ, debug=True)
        nodes = 2 ** (depth + 1) - 1
        bound = nodes * 2 ** len(anc)
        assert st.support() <= bound
        assert st.max_support_seen <= 4 * bound


# -- decoding / DOT -------------------------------------------------------------

def test_decode_root_only():
    tree = demo_tree(3)
    decoded = decode_tree_state(tree, _tree_state(tree, ()))
    assert decoded.nodes == {(): pytest.approx(1.0)}


def test_decode_separates_non_algorithmic():
    tree = demo_tree(3)
    idx = (1 << tree.h[2]) | (1 << tree.branch_reg(0)[0])   # dirt below height
    st = SparseState.from_dict(tree.num_tree_qubits, {idx: 1.0})
    decoded = decode_tree_state(tree, st)
    assert not decoded.nodes
    assert decoded.non_algorithmic_mass() == pytest.approx(1.0)


def test_dot_output_colors_and_edges():
    tree = demo_tree(3)
    circ = tree.new_circuit()
    tree.init_node(circ, ())
    tree.qstep_diffuser(circ, even=False)
    decoded = decode_tree_state(tree, apply(SparseState.zero(circ.num_qubits), circ, debug=True))
    dot = to_dot(decoded)
    assert dot.startswith("digraph")
    assert "palegreen" in dot and "plum" in dot
    assert '"[]" -> "[0]"' in dot
