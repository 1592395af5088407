import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qwb import sudoku
from qwb.circuit import GateKind, UsageError
from qwb.sim import SparseState, apply
from qwb.sudoku import (FIG1_BOARD, ParseError, SudokuBoard, board_with_path,
                        branch_bits_for, check_plan, classical_solve,
                        format_board, parse_board, peers, restrict_board,
                        tree_for_board, violates)
SOLVED_TEXT = "1234\n3412\n2143\n4321\n"

UNSOLVABLE_TEXT = ".214\n34.2\n2143\n4321\n"


# -- parsing ------------------------------------------------------------------

def test_parse_fig1_board():
    board = parse_board(FIG1_BOARD)
    assert board.size == 4 and board.block_size == 2
    assert board.empty_cells() == [(0, 1), (0, 3), (1, 1), (1, 3), (2, 0),
                                   (2, 2), (3, 1), (3, 2), (3, 3)]
    assert board.value((0, 0)) == 0      # 0-based internally
    assert board.value((3, 0)) == 3


def test_parse_solved_board():
    board = parse_board(SOLVED_TEXT)
    assert board.is_complete()
    assert board.empty_cells() == []


def test_parse_duplicate_in_row_is_error():
    with pytest.raises(ParseError) as err:
        parse_board("11..\n....\n....\n....\n")
    assert "row 0" in str(err.value)


def test_parse_bad_symbol_and_shape():
    with pytest.raises(ParseError):
        parse_board("12x4\n3412\n2143\n4321\n")
    with pytest.raises(ParseError):
        parse_board("123\n341\n214\n")
    with pytest.raises(ParseError):
        parse_board("1254\n3412\n2143\n4321\n")


def test_parse_whitespace_separated_9x9():
    # Spaces, tabs or both between symbols.
    for row in (". . . . . . . . .", ".\t.\t.\t.\t.\t.\t.\t.\t.", ". \t.\t . .  .\t\t. . . ."):
        board = parse_board("\n".join([row] * 9))
        assert board.size == 9 and board.block_size == 3
        assert branch_bits_for(board) == 4


def test_format_round_trip():
    board = parse_board(FIG1_BOARD)
    assert format_board(parse_board(format_board(board))) == format_board(board)


@st.composite
def _blanked_boards(draw):
    # A fixed solved grid (the standard shifted pattern), its digits
    # relabelled by a random permutation, with random cells blanked.
    block = draw(st.sampled_from([2, 3]))
    size = block * block
    relabel = draw(st.permutations(range(size)))
    blank = draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size))
    cells = tuple(
        tuple(None if blank[r * size + c]
              else relabel[(block * (r % block) + r // block + c) % size]
              for c in range(size))
        for r in range(size))
    return SudokuBoard(block, cells)


@settings(max_examples=60, deadline=None)
@given(_blanked_boards())
def test_parse_format_round_trip_property(board):
    assert parse_board(format_board(board)) == board


# -- classical solver -----------------------------------------------------------

def test_classical_solve_fig1():
    sols = classical_solve(parse_board(FIG1_BOARD))
    texts = [format_board(s) for s in sols]
    # Depth-first order finds the published solution first; the instance
    # admits one further completion.
    assert texts[0] == SOLVED_TEXT
    assert len(texts) == 2


def test_classical_solve_solved_board_is_itself():
    board = parse_board(SOLVED_TEXT)
    assert classical_solve(board) == [board]


def test_classical_solve_unsolvable():
    assert classical_solve(parse_board(UNSOLVABLE_TEXT)) == []


def test_restricted_instances_unique():
    board = parse_board(FIG1_BOARD)
    for k in (1, 2, 3):
        assert len(classical_solve(restrict_board(board, k))) == 1


# -- check plan ------------------------------------------------------------------

def test_single_empty_cell_has_seven_cq_edges():
    # Every one of the seven peers holds a given, so each is one
    # cell-vs-given constraint; with one empty cell there is no qq pair.
    board = restrict_board(parse_board(FIG1_BOARD), 1)
    plan = check_plan(board)
    (cell,) = board.empty_cells()
    cell_peers = peers(board.size, board.block_size, cell)
    assert len(cell_peers) == 7
    assert all(board.value(p) is not None for p in cell_peers)
    assert set(plan.cq_batches) == {0}
    assert not plan.qq_pairs


def test_check_plan_batches_deduplicate():
    # Seven peers, but their givens hold only the three values the empty
    # cell may not take.
    board = restrict_board(parse_board(FIG1_BOARD), 1)
    plan = check_plan(board)
    (cell,) = board.empty_cells()
    cell_peers = peers(board.size, board.block_size, cell)
    assert len(cell_peers) == 7
    givens = {board.value(p) for p in cell_peers}
    assert plan.cq_batches == {0: frozenset(givens)}
    assert len(givens) == 3
    assert not plan.qq_pairs


def test_two_empty_cells_same_row_one_qq_pair():
    board = restrict_board(parse_board(FIG1_BOARD), 2)   # a=(0,1), b=(0,3)
    plan = check_plan(board)
    assert plan.qq_pairs == frozenset({(0, 1)})
    # Each batch holds the givens among its cell's peers.
    for a, cell in enumerate(board.empty_cells()):
        assert plan.cq_batches[a] == {
            board.value(p) for p in peers(board.size, board.block_size, cell)
            if board.value(p) is not None}


def test_check_plan_qq_pair_indices():
    board = restrict_board(parse_board(FIG1_BOARD), 3)
    plan = check_plan(board)
    # a=(0,1) and b=(0,3) share the row; a and c=(1,1) share column and block.
    assert plan.qq_pairs == frozenset({(0, 1), (0, 2)})


def test_check_plan_9x9_forbids_spare_codes():
    rows = ["1 . . . . . . . ."] + [". . . . . . . . ."] * 8
    board = parse_board("\n".join(rows))
    plan = check_plan(board)
    assert set(plan.cq_batches) == set(range(80))
    for a, batch in plan.cq_batches.items():
        assert {9, 10, 11, 12, 13, 14, 15} <= set(batch)
    # Only the peers of (0, 0) also forbid its given value 1.
    assert sum(0 in batch for batch in plan.cq_batches.values()) == 20


def test_solved_board_has_empty_plan():
    plan = check_plan(parse_board(SOLVED_TEXT))
    assert plan.cq_batches == {} and plan.qq_pairs == frozenset()


# -- oracles ----------------------------------------------------------------------

def _oracle_value(tree, builder, path):
    circ = tree.new_circuit()
    tree.init_node(circ, path)
    res = builder(tree, circ)
    st = apply(SparseState.zero(circ.num_qubits), circ)
    p1 = st.probability(res, 1)
    assert p1 in (pytest.approx(0.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))
    return p1 > 0.5


def _classical_reject(board, path):
    """True iff the most recent assignment violates a constraint against
    givens or earlier assignments (the dummy level never rejects)."""
    empties = board.empty_cells()
    if not path or len(path) > len(empties):
        return False
    partial = board
    for cell, v in zip(empties, path[:-1]):
        partial = SudokuBoard(partial.block_size, tuple(
            tuple(v if (r, c) == cell else partial.cells[r][c]
                  for c in range(partial.size)) for r in range(partial.size)))
    cell = empties[len(path) - 1]
    value = path[-1]
    if value >= board.size:
        return True
    return violates(partial, cell, value)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reject_oracle_matches_classical_predicate_exhaustively(k):
    board = restrict_board(parse_board(FIG1_BOARD), k)
    tree, plan = tree_for_board(board)
    builder = tree.reject_builder
    deg = tree.deg
    for length in range(0, k + 1):
        for path in itertools.product(range(deg), repeat=length):
            assert _oracle_value(tree, builder, path) == \
                _classical_reject(board, path), path


def test_accept_oracle_height_zero():
    board = restrict_board(parse_board(FIG1_BOARD), 1)
    tree, _ = tree_for_board(board)
    assert not _oracle_value(tree, tree.accept_builder, ())
    assert not _oracle_value(tree, tree.accept_builder, (1,))
    assert _oracle_value(tree, tree.accept_builder, (1, 0))   # height 0


def test_accept_oracle_is_the_height_zero_wire():
    # The diffuser only reads the accept result, so h[0] itself is the
    # result: no ancilla, no gate.
    tree, _ = tree_for_board(restrict_board(parse_board(FIG1_BOARD), 3))
    circ = tree.new_circuit()
    assert tree.accept_builder(tree, circ) == tree.h[0]
    assert (circ.num_qubits, circ.gates, circ.alloc_events) == (tree.num_tree_qubits, [], [])


def test_accept_and_reject_never_both_true():
    board = restrict_board(parse_board(FIG1_BOARD), 2)
    tree, _ = tree_for_board(board)
    for length in range(0, tree.max_depth + 1):
        for path in itertools.product(range(tree.deg), repeat=length):
            both = (_oracle_value(tree, tree.accept_builder, path)
                    and _oracle_value(tree, tree.reject_builder, path))
            assert not both, path


def test_reject_ignores_unassigned_fields():
    # Toggling branch entries below the height never changes the verdict.
    board = restrict_board(parse_board(FIG1_BOARD), 2)
    tree, _ = tree_for_board(board)
    builder = tree.reject_builder
    for path in itertools.product(range(tree.deg), repeat=1):
        base = _oracle_value(tree, builder, path)
        height = tree.max_depth - len(path)
        for i in range(height):
            for dirt in range(1, tree.deg):
                circ = tree.new_circuit()
                tree.init_node(circ, path)
                for j, q in enumerate(tree.branch_reg(i)):
                    if (dirt >> j) & 1:
                        circ.x(q)
                res = builder(tree, circ)
                st = apply(SparseState.zero(circ.num_qubits), circ)
                assert (st.probability(res, 1) > 0.5) == base, (path, i, dirt)


def test_uncomputation_hygiene_and_pool_reuse():
    board = restrict_board(parse_board(FIG1_BOARD), 3)
    tree, plan = tree_for_board(board)
    # Five comparisons: the reject oracle ORs them with an MCX on the last
    # layer of an and_ladder, which stays computed until the within below
    # undoes it.
    assert len(plan.cq_batches) + len(plan.qq_pairs) >= 4
    circ = tree.new_circuit()
    tree.init_node(circ, (1, 0))

    def run_pair():
        # A phase on the reject result is diagonal, so the pair is emitted
        # (an empty action would make ``within`` emit nothing).
        circ.within(lambda: tree.reject_builder(tree, circ), circ.t)
        return circ.free_pool, circ.num_qubits

    pool1, qubits1 = run_pair()
    pool2, qubits2 = run_pair()
    # a compute/uncompute pair returns every wire it allocated to the pool,
    # and a second invocation recycles the same wires without growing the
    # circuit
    assert qubits1 > tree.num_tree_qubits
    assert pool1 == frozenset(range(tree.num_tree_qubits, qubits1))
    assert (pool2, qubits2) == (pool1, qubits1)
    # nested: the reject pair runs inside an accept pair
    circ.within(lambda: tree.accept_builder(tree, circ),
                lambda acc: circ.within(lambda: tree.reject_builder(tree, circ),
                                        lambda rej: circ.mcz((acc, rej))))
    assert circ.free_pool == frozenset(range(tree.num_tree_qubits, circ.num_qubits))
    # every workspace qubit measures |0> at each release and afterwards
    st = apply(SparseState.zero(circ.num_qubits), circ, debug=True)
    for q in range(tree.num_tree_qubits, circ.num_qubits):
        assert st.probability(q, 1) == pytest.approx(0.0, abs=1e-12)


def test_sibling_leaves_never_trigger_contract_violation():
    # Depth k+1 keeps accept (height 0) and reject disjoint even under a
    # solution's siblings: exhaustively re-checked at k=1.
    board = restrict_board(parse_board(FIG1_BOARD), 1)
    tree, _ = tree_for_board(board)
    for leaf in itertools.product(range(tree.deg), repeat=2):
        acc = _oracle_value(tree, tree.accept_builder, leaf)
        rej = _oracle_value(tree, tree.reject_builder, leaf)
        assert acc and not rej


@pytest.mark.parametrize("root", [(), (1,), (3,), (1, 3, 3)])
def test_each_diffuser_checks_only_its_own_parents(monkeypatch, root):
    # A check on path entry a fires on the nodes of length a + 1.  The
    # diffuser holding the subtree root gets the checks on its parents, the
    # nodes an even distance d below the root, the other one those at odd d;
    # checks above the root (d < 0) go to neither.
    board = parse_board(FIG1_BOARD)
    tree, plan = tree_for_board(board)
    sub = tree.subtree(root)
    entry = {tree.level(a)[1]: a for a in range(tree.max_depth)}
    made = []
    cq, qq = sudoku.cq_in_set, sudoku.qq_equal
    monkeypatch.setattr(sudoku, "cq_in_set", lambda circ, reg, *rest, **kw: (
        made.append((entry[reg],)) or cq(circ, reg, *rest, **kw)))
    monkeypatch.setattr(sudoku, "qq_equal", lambda circ, reg_a, reg_b, *rest, **kw: (
        made.append((entry[reg_a], entry[reg_b])) or qq(circ, reg_a, reg_b, *rest, **kw)))
    checks = [(a,) for a in plan.cq_batches] + sorted(plan.qq_pairs)
    distance = {check: check[-1] + 1 - len(root) for check in checks}
    n = sub.effective_depth
    for parity, even in ((0, n % 2 == 0), (1, n % 2 == 1)):
        made.clear()
        sub.qstep_diffuser(sub.new_circuit(), even=even)
        want = [c for c in checks if distance[c] >= 0 and distance[c] % 2 == parity]
        assert sorted(made) == sorted(want), (root, parity)


def test_fig1_step_wires_are_pinned():
    # Tree wires, the lift's temporaries and each diffuser's own comparisons.
    board = parse_board(FIG1_BOARD)
    wires = []
    for k in range(1, 10):
        tree, _ = tree_for_board(restrict_board(board, k))
        circ = tree.new_circuit()
        tree.quantum_step(circ)
        wires.append(circ.num_qubits)
    assert wires == [12, 16, 20, 28, 31, 38, 43, 50, 61]


def test_a_diffuser_with_no_reject_check_has_no_lift_and_no_reject_phase():
    # At FIG1 k = 1 no check fires on the even diffuser's parents: the reject
    # builder returns None with no gate and no wire, and that diffuser holds
    # the accept phase's MCZ alone, with no Fredkin lift, so its only
    # workspace wire is the oddity.  The odd diffuser keeps both.
    tree, _ = tree_for_board(restrict_board(parse_board(FIG1_BOARD), 1))
    circ = tree.new_circuit()
    assert tree.reject_builder(tree._lifted(True), circ) is None
    assert (circ.gates, circ.num_qubits, circ.alloc_events) == ([], tree.num_tree_qubits, [])
    for even, mczs in ((True, 1), (False, 2)):
        circ = tree.new_circuit()
        tree.qstep_diffuser(circ, even=even)
        assert sum(g.kind is GateKind.MCZ for g in circ.gates) == mczs
        wires = {q for g in circ.gates for q in g.qubits}
        assert (max(wires) == tree.num_tree_qubits) == even


def test_board_with_path_fills_cells():
    board = restrict_board(parse_board(FIG1_BOARD), 2)
    solved = board_with_path(board, (1, 3, 0))
    assert solved.value((0, 1)) == 1
    assert solved.value((0, 3)) == 3
