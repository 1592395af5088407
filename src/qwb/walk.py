"""Quantum walk over a backtracking tree: node encoding, state preparation,
the diffusers, phase estimation, marked-node detection, and solution search.

Node encoding
-------------

A tree of ``max_depth`` N with ``deg = 2**branch_bits`` children per node
lives on:

  * ``h``: N+1 qubits (circuit wires 0..N), one-hot height register.  A leaf
    has height 0, the root height N.
  * ``branch_qa``: N registers of ``branch_bits`` qubits following ``h``;
    entry i stores the branch taken when stepping down to height i, so the
    register holds the reversed path.  The node with path [0, 1] in a binary
    depth-4 tree is |branch_qa> = |[0,0,1,0]>, |h> = |00100>.

The tree owns this layout: ``level(a)`` names path entry a's height qubit
and register, and the validating ``path_bits`` lists a node state's (wire,
bit) pairs for ``init_node``, ``node_index`` and ``oracle_from_paths``.

Heights are root-relative, so a subtree re-uses the encoding unchanged: the
effective root of a subtree with ``root_path`` of length L sits at height
N - L, and everything above it stays classical.

Basis states whose branch entries below the height index are nonzero are
non-algorithmic; the walk never populates them when started from a node
state, and the diffusers never map them onto algorithmic states.

Oracle builders receive ``(tree, circuit)``, allocate whatever they need via
``circuit.allocate``, emit gates, and return the result qubit.  The diffuser
runs each builder as the compute step of ``Circuit.within``, which applies
the phase, emits the builder's adjoint and returns every allocated qubit to
the pool, so builders never uncompute.  The reject builder receives the
lifted tree (``_lifted``), whose height register is relabeled one level up.

Phase estimation has two forms.  ``estimate_phase`` emits the circuit: the
step controlled on the first ancilla is built once, every other ancilla's
step is the same gates with the control wire moved onto it (only the
reflection phases carry the control), and the powers are replayed with
``Circuit.extend``; ``bench`` and the transpiler measure it.  ``qpe_state``
simulates the same circuit from the root without building it: it builds and
compiles the uncontrolled step once and runs that one program on the nodes
it reaches, a level of new nodes per run (split into batches under a support
cap), to get the step as a small unitary matrix W; it forms the pre-QFT
state sum_a |a> W^a |root> / sqrt(2^p) and runs only the inverse QFT gate by
gate.  Detection and search use ``qpe_state``.  The search hands each
child's run the node states its parent's run reached below the child (a
``Reach``); they run with the child's root in one first batch, so a
subtree's W usually takes a single step run.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Gate, UsageError, adjoint
from .sim import (ResourceLimitError, SparseState, apply, compile as compile_circuit,
                  sample)
from .synthesis import controlled_h, fredkin, xx_plus_yy

# Gate-level phase estimation (``estimate_phase``) refuses to build a circuit
# larger than this; the 2^p - 1 replayed steps grow it exponentially.
MAX_QPE_GATES = 4_000_000

# Detection reports a marked node when at least this fraction of its votes
# read the all-zero phase.
ACCEPT_THRESHOLD = 3.0 / 8.0


@dataclass(frozen=True)
class WalkConfig:
    """Detection / search parameters.

    ``beta_const`` and ``gamma_const`` are the universal constants of the
    detection procedure (left open in the source material; surfaced here).
    """

    precision_bits: int = 3
    shots: int = 10000
    delta: float = 0.25
    beta_const: float = 1.0
    gamma_const: float = 4.0

    def __post_init__(self):
        if self.precision_bits < 1:
            raise UsageError("precision_bits must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise UsageError("delta must lie in (0, 1)")
        if self.shots < 1:
            raise UsageError("shots must be >= 1")
        if not all(math.isfinite(c) and c > 0.0
                   for c in (self.beta_const, self.gamma_const)):
            raise UsageError("beta and gamma must be positive and finite")


@dataclass
class DetectionResult:
    marked: bool
    accept_number: int
    repetitions: int
    precision_bits: int


NodePath = tuple[int, ...]


def trivial_oracle(tree, circ) -> int:
    """Constant-false predicate: a fresh |0> result qubit, zero gates."""
    return circ.allocate()


def oracle_from_paths(paths):
    """Exact node-set predicate: fires on the listed paths (height gated).

    Examines only the height bit and the branch entries at or above it, so
    it is insensitive to non-algorithmic dirt below the height index (which
    also makes it legal under subspace optimization).
    """
    paths = [tuple(p) for p in paths]

    def builder(tree, circ):
        res = circ.allocate()
        for p in paths:
            wires, bits = zip(*tree.path_bits(p))
            circ.mcx(wires, res, bits)
        return res

    return builder


class BacktrackingTree:
    """Walk registers, oracle builders and circuit emitters for one tree."""

    def __init__(self, max_depth: int, branch_bits: int, accept_builder,
                 reject_builder, subspace_optimization: bool = False,
                 root_path: NodePath = ()):
        if max_depth < 1:
            raise UsageError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.branch_bits = branch_bits
        self.deg = 2 ** branch_bits
        self.accept_builder = accept_builder
        self.reject_builder = reject_builder
        self.subspace_optimization = subspace_optimization
        self.root_path = tuple(root_path)
        self.h = list(range(max_depth + 1))
        base = max_depth + 1
        self._branch = [tuple(base + i * branch_bits + j for j in range(branch_bits))
                        for i in range(max_depth)]
        self.num_tree_qubits = base + max_depth * branch_bits
        self.path_bits(self.root_path)      # validates the root path

    # -- registers ----------------------------------------------------------

    def branch_reg(self, i: int) -> tuple[int, ...]:
        return self._branch[i]

    def branch_qubits(self) -> list[int]:
        return [q for reg in self._branch for q in reg]

    @property
    def effective_depth(self) -> int:
        return self.max_depth - len(self.root_path)

    def new_circuit(self) -> Circuit:
        return Circuit(self.num_tree_qubits)

    def subtree(self, new_root: NodePath) -> "BacktrackingTree":
        return BacktrackingTree(self.max_depth, self.branch_bits,
                                self.accept_builder, self.reject_builder,
                                self.subspace_optimization, tuple(new_root))

    def level(self, a: int) -> tuple[int, tuple[int, ...]]:
        """Height qubit and branch register of path entry ``a``: where the
        node ``a + 1`` steps below the full tree's root puts its last label."""
        i = self.max_depth - 1 - a
        return self.h[i], self._branch[i]

    # -- node states --------------------------------------------------------

    def path_bits(self, path: NodePath) -> list[tuple[int, int]]:
        """(wire, bit) pairs of the node state for an absolute ``path``: its
        height qubit set, then every bit of each filled branch register."""
        path = tuple(path)
        if len(path) > self.max_depth:
            raise UsageError(f"path {path} longer than maximum depth {self.max_depth}")
        out = [(self.h[self.max_depth - len(path)], 1)]
        for a, label in enumerate(path):
            if not 0 <= label < self.deg:
                raise UsageError(f"branch label {label} out of range 0..{self.deg - 1}")
            out += [(q, (label >> j) & 1) for j, q in enumerate(self.level(a)[1])]
        return out

    def init_node(self, circ: Circuit, path: NodePath) -> None:
        """X gates preparing the node state for ``path`` (relative to this
        tree's root) on fresh registers."""
        for q, bit in self.path_bits(self.root_path + tuple(path)):
            if bit:
                circ.x(q)

    def node_index(self, path: NodePath) -> int:
        """Basis index of a node state (workspace qubits zero) for ``path``
        relative to this tree's root."""
        return sum(bit << q for q, bit in self.path_bits(self.root_path + tuple(path)))

    def decode_index(self, idx: int) -> NodePath | None:
        """Absolute path of the node whose state is basis index ``idx`` (tree
        registers only, workspace zero), or None if ``idx`` is not an
        algorithmic node of this (sub)tree."""
        heights = [j for j, q in enumerate(self.h) if idx >> q & 1]
        if (idx >> self.num_tree_qubits or len(heights) != 1
                or heights[0] > self.effective_depth):
            return None
        labels = [sum((idx >> q & 1) << j for j, q in enumerate(self.level(a)[1]))
                  for a in range(self.max_depth)]
        length = self.max_depth - heights[0]
        if any(labels[length:]):
            return None
        path = tuple(labels[:length])
        if path[:len(self.root_path)] != self.root_path:
            return None
        return path

    # -- walk emitters ------------------------------------------------------

    def psi_prep(self, circ: Circuit, even: bool) -> None:
        """Child-superposition preparation for parents of the given parity."""
        n = self.effective_depth
        ev = int(even)
        phi = 2.0 * math.atan(math.sqrt(self.deg))
        root_phi = 2.0 * math.atan(math.sqrt(n * self.deg))

        def pair(angle, i):
            # Shift amplitude from height i+1 toward height i (positive
            # weight), gated on the child's branch entry being zero so
            # non-algorithmic states stay put; then fan the fresh child
            # branch entry into the uniform superposition.
            reg = self.branch_reg(i)
            xx_plus_yy(circ, -angle, self.h[i], self.h[i + 1],
                       ctrl_qubits=reg, ctrl_state=(0,) * len(reg))
            for q in reg:
                controlled_h(circ, self.h[i], q)

        if n % 2 != ev and n >= 1:
            pair(root_phi, n - 1)
        for i in range(ev, n - 1, 2):
            pair(phi, i)

    def qstep_diffuser(self, circ: Circuit, even: bool, ctrl=()) -> None:
        """One diffuser: reflections about the child superpositions over all
        parent subspaces of the selected height parity (identity on marked
        nodes, minus identity on rejected ones)."""
        n = self.effective_depth
        ev = int(even)
        ctrl = tuple(ctrl)

        def unprep():
            start = len(circ.gates)
            self.psi_prep(circ, even)
            circ.gates[start:] = adjoint(circ.gates[start:])

        def phase(first, second):
            circ.mcz((first, second) + ctrl, (1, 0) + (1,) * len(ctrl))

        def lift():
            if not self.subspace_optimization:
                temp = circ.allocate_register(self.branch_bits)
                for i in range(ev, n, 2):
                    for j, q in enumerate(self.branch_reg(i)):
                        fredkin(circ, temp[j], q, ctrl=self.h[i])
            return self._lifted()

        def reflection(_):
            oddity = circ.allocate()
            for i in range(1 - ev, n + 1, 2):
                circ.cx(self.h[i], oddity)
            # Phase the non-accepted parents.
            circ.within(lambda: self.accept_builder(self, circ),
                        lambda acc: phase(oddity, acc))
            # The height increment would read the root as a leaf; when the
            # root has child parity, flipping its oddity masks it from the
            # reject phase.
            root_fix = (n % 2) == ev
            if root_fix:
                circ.cx(self.h[n], oddity)
            # Phase the children of rejected parents, evaluated on the lift.
            circ.within(lift, lambda lifted: circ.within(
                lambda: lifted.reject_builder(lifted, circ),
                lambda rej: phase(rej, oddity)))
            if root_fix:
                circ.cx(self.h[n], oddity)
            for i in range(1 - ev, n + 1, 2):
                circ.cx(self.h[i], oddity)
            circ.deallocate(oddity)

        circ.within(unprep, reflection)

    def _lifted(self) -> "BacktrackingTree":
        """This tree with height j read from wire ``h[j - 1]`` and height 0
        from the root's wire: the lift's one-hot increment, with no gates."""
        n = self.effective_depth
        lifted = copy.copy(self)
        lifted.h = [self.h[n]] + self.h[:n] + self.h[n + 1:]
        return lifted

    def quantum_step(self, circ: Circuit, ctrl=()) -> None:
        """One walk step: the even-distance diffuser, then the odd one."""
        n = self.effective_depth
        self.qstep_diffuser(circ, even=(n % 2 == 0), ctrl=ctrl)
        self.qstep_diffuser(circ, even=(n % 2 == 1), ctrl=ctrl)

    def estimate_phase(self, circ: Circuit, precision_bits: int) -> list[int]:
        """Standard phase estimation on the walk step; returns the ancilla
        register.  The all-zero outcome witnesses an eigenvalue-1 component.
        The step controlled on ancilla 0 is built once; ancilla k's step is
        the same gates with the control wire moved to ancilla k (only the
        reflection phases carry it), replayed 2^k times.  Raises
        ``ResourceLimitError`` before replaying if the circuit would pass
        ``MAX_QPE_GATES``."""
        if precision_bits < 1:
            raise UsageError("precision_bits must be >= 1")
        anc = circ.allocate_register(precision_bits)
        for a in anc:
            circ.h(a)
        start = len(circ.gates)
        self.quantum_step(circ, ctrl=(anc[0],))
        first = circ.gates[start:]
        total = start + len(first) * (2 ** precision_bits - 1)
        if total > MAX_QPE_GATES:
            raise ResourceLimitError(
                f"phase estimation at precision {precision_bits} needs "
                f"about {total} gates, more than {MAX_QPE_GATES}")
        for k, a in enumerate(anc[1:], 1):
            step = [_rewired(g, anc[0], a) if anc[0] in g.qubits else g for g in first]
            for _ in range(2 ** k):
                circ.extend(step)
        _inverse_qft(circ, anc)
        return anc


def _rewired(gate: Gate, old: int, new: int) -> Gate:
    """``gate`` with wire ``old`` replaced by ``new``, as target or control."""
    return Gate(gate.kind, new if gate.target == old else gate.target, gate.params,
                tuple(new if q == old else q for q in gate.controls), gate.control_state)


def _cphase(circ, theta, a, b):
    circ.phase(theta / 2, a)
    circ.phase(theta / 2, b)
    circ.cx(a, b)
    circ.phase(-theta / 2, b)
    circ.cx(a, b)


def _inverse_qft(circ, qubits):
    # No terminal swap layer: only the all-zero outcome is consumed, which is
    # ordering-independent.
    for j in range(len(qubits)):
        for i in range(j):
            _cphase(circ, -math.pi / 2 ** (j - i), qubits[i], qubits[j])
        circ.h(qubits[j])


def _run_halving(program, num_qubits, keys, max_support):
    """``apply`` of a compiled program on the uniform sum of the basis states
    ``keys``, returned as a list of (batch length, result): a run that passes
    ``max_support`` is split in halves and rerun, and only a single key's run
    raises."""
    try:
        return [(len(keys), apply(SparseState(num_qubits, keys,
                                              np.ones(len(keys), complex)),
                                  program, max_support=max_support))]
    except ResourceLimitError:
        if len(keys) == 1:
            raise
        half = len(keys) // 2
        return (_run_halving(program, num_qubits, keys[:half], max_support)
                + _run_halving(program, num_qubits, keys[half:], max_support))


class Reach(NamedTuple):
    """What one ``_step_matrix`` call found: the node states it reached
    (basis indices, in W's order) and the largest support per node of its
    step runs.  The part below a child's root is the child run's hint."""

    nodes: np.ndarray
    per_node: float

    def below(self, tree: BacktrackingTree) -> "Reach":
        """The reached node states inside ``tree``'s (sub)tree."""
        return Reach(np.array([key for key in self.nodes.tolist()
                               if tree.decode_index(key) is not None], dtype=np.int64),
                     self.per_node)


def _step_matrix(tree: BacktrackingTree, max_support, hint: Reach | None = None):
    """The walk step W as a dense matrix on the node states it reaches from
    the tree's root; returns (their ``Reach``, W, largest support seen).

    The uncontrolled step is compiled once and run on many nodes at once,
    each tagged by a column label on wires above the step's.  Nodes are
    numbered breadth first from the root, each level's new nodes in sorted
    order, and a level's nodes that have no column yet run together.  A
    ``hint`` (a parent run's reach below this root) runs with the root in
    the first batch; hinted nodes never reached are dropped, so a wrong or
    partial hint costs runs but leaves W and its node order unchanged.
    Under ``max_support`` a batch is sized from the previous runs' largest
    support per node (the hint's at first), so few runs pass the cap and
    are split again (``_run_halving``).
    """
    step = tree.new_circuit()
    tree.quantum_step(step)
    program = compile_circuit(step)
    width = step.num_qubits
    root = tree.node_index(())
    # A hint only saves runs: keep what fits in the labels beside the root.
    room = (1 << max(0, 62 - width)) - 1
    hinted = [] if hint is None else [key for key in hint.nodes.tolist() if key != root][:room]
    columns = {}             # run but not yet on a level -> (reached, amplitudes)
    index = {root: 0}        # node basis index -> its row and column of W
    rows, cols, amps = [], [], []
    frontier, seen, peak = [root], 0, 0.0
    per_node = 1.0 if hint is None else hint.per_node
    while frontier:
        lacking = [key for key in frontier if key not in columns] + hinted
        hinted = []
        if lacking:
            label_bits = max(1, (len(lacking) - 1).bit_length())
            if width + label_bits > 62:
                raise ResourceLimitError(
                    f"walk step on {width} wires plus {label_bits} label bits "
                    f"exceeds the 62-bit sparse key", qubit_count=width + label_bits)
            keys = np.array([(j << width) | key for j, key in enumerate(lacking)],
                            dtype=np.int64)
            batch = (len(keys) if max_support is None
                     else max(1, int(max_support // per_node)))
            runs = [run for lo in range(0, len(keys), batch)
                    for run in _run_halving(program, width + label_bits,
                                            keys[lo:lo + batch], max_support)]
            per_node = max(out.max_support_seen / size for size, out in runs)
            peak = max(peak, per_node)
            seen = max([seen] + [out.max_support_seen for _, out in runs])
            out_keys = np.concatenate([out.keys for _, out in runs])
            out_amps = np.concatenate([out.amps for _, out in runs])
            bounds = np.searchsorted(out_keys >> width, np.arange(len(lacking) + 1)).tolist()
            out_keys &= (1 << width) - 1
            for key, lo, hi in zip(lacking, bounds, bounds[1:]):
                columns[key] = out_keys[lo:hi], out_amps[lo:hi]
        reached_by, amps_by = zip(*(columns.pop(key) for key in frontier))
        reached = np.concatenate(reached_by)
        if np.any(reached >> tree.num_tree_qubits):
            raise UsageError("walk step leaves a workspace qubit set")
        cols.append(np.repeat([index[key] for key in frontier], list(map(len, reached_by))))
        amps += amps_by
        frontier = [key for key in np.unique(reached).tolist() if key not in index]
        for key in frontier:
            index[key] = len(index)
        if max_support is not None and len(index) > max_support:
            raise ResourceLimitError(
                f"walk step reaches more than {max_support} node states")
        rows += [index[key] for key in reached.tolist()]
    nodes = np.array(list(index), dtype=np.int64)
    w = np.zeros((len(nodes), len(nodes)), dtype=complex)
    w[rows, np.concatenate(cols)] = np.concatenate(amps)
    err = np.abs(w.conj().T @ w - np.eye(len(nodes))).max()
    if err > 1e-10:
        raise UsageError(f"walk step is not unitary on its {len(nodes)} reachable "
                         f"node states (max |W^H W - I| = {err:.1e})")
    return Reach(nodes, peak), w, seen


def qpe_state(tree: BacktrackingTree, precision_bits: int, max_support=None,
              hint: Reach | None = None) -> tuple[SparseState, list[int], Reach]:
    """The final state of ``estimate_phase`` from the tree's root, on the tree
    wires and the ancillae (ancilla k on wire ``num_tree_qubits + k``), the
    ancilla wires, and the ``Reach`` of the step run.

    Only the reflection phases take the phase-estimation control, so the
    controlled step is |0><0| (x) I + |1><1| (x) W.  The state before the
    inverse QFT is therefore sum_a |a> W^a |root> / sqrt(2^p), formed from W
    on the reachable nodes (``_step_matrix``, which runs the ``hint``'s nodes
    with the root); the inverse QFT then runs gate by gate as in the
    circuit.  ``max_support`` caps the reachable node count, the pre-QFT
    state's 2^p x nodes amplitudes and the support of every simulated run.
    """
    if precision_bits < 1:
        raise UsageError("precision_bits must be >= 1")
    reach, w, seen = _step_matrix(tree, max_support, hint)
    nodes = reach.nodes
    size = 2 ** precision_bits
    if max_support is not None and size * len(nodes) > max_support:
        raise ResourceLimitError(
            f"phase estimation at precision {precision_bits} over {len(nodes)} "
            f"node states needs up to {size * len(nodes)} amplitudes, "
            f"more than {max_support}")
    powers = np.zeros((size, len(nodes)), dtype=complex)
    powers[0, 0] = 1.0
    for a in range(1, size):
        powers[a] = w @ powers[a - 1]
    n = tree.num_tree_qubits
    keys = ((np.arange(size, dtype=np.int64)[:, None] << n) | nodes).ravel()
    order = np.argsort(keys)
    pre = SparseState(n + precision_bits, keys[order],
                      powers.ravel()[order] / math.sqrt(size), seen)
    qft = Circuit(n + precision_bits)
    anc = list(range(n, n + precision_bits))
    _inverse_qft(qft, anc)
    return apply(pre, qft, max_support=max_support), anc, reach


# ---------------------------------------------------------------------------
# detection and search


def tree_size_bound(tree: BacktrackingTree) -> int:
    """Full-tree node count (deg^(n+1)-1)/(deg-1) for the effective depth."""
    n, d = tree.effective_depth, tree.deg
    return (d ** (n + 1) - 1) // (d - 1)


def detection_precision(tree: BacktrackingTree, config: WalkConfig) -> int:
    """Precision bits so the phase grid resolves beta/sqrt(T n)."""
    n = tree.effective_depth
    t = tree_size_bound(tree)
    return max(1, math.ceil(math.log2(math.sqrt(t * n) / config.beta_const)))


def detect_marked(tree: BacktrackingTree, config: WalkConfig, seed=0,
                  max_support=None) -> DetectionResult:
    """Vote over K = ceil(gamma ln(1/delta)) phase estimations from the root.

    The estimations are independent and identically distributed, so they are
    drawn as K seeded shots from one simulated outcome distribution.
    """
    reps = max(1, math.ceil(config.gamma_const * math.log(1.0 / config.delta)))
    precision = detection_precision(tree, config)
    state, anc, _ = qpe_state(tree, precision, max_support)
    counts = sample(state, anc, reps, seed)
    accept_number = counts.counts.get("0" * len(anc), 0)
    return DetectionResult(
        marked=accept_number >= ACCEPT_THRESHOLD * reps,
        accept_number=accept_number,
        repetitions=reps,
        precision_bits=precision,
    )


def classically_accepted(tree: BacktrackingTree, path: NodePath = ()) -> bool:
    """Evaluate the accept oracle on a single node state via simulation."""
    circ = tree.new_circuit()
    tree.init_node(circ, path)
    res = tree.accept_builder(tree, circ)
    state = apply(SparseState.zero(circ.num_qubits), circ)
    return state.probability(res, 1) > 0.5


@dataclass
class SearchStats:
    qpe_runs: int = 0
    max_support: int = 0
    explored: list[NodePath] = field(default_factory=list)


def find_solution(tree: BacktrackingTree, config: WalkConfig, seed=None,
                  max_support=None, stats: SearchStats | None = None) -> NodePath | None:
    """Recursive search: phase-estimate from the current root, decode the
    tree-register outcomes that co-occur with the all-zero ancilla register,
    keep the ones extending the root path by one label, and recurse into the
    most frequent label first (ties to the smaller label).  Each level
    rebuilds registers and re-runs phase estimation; a child's step run
    starts from the node states its parent's run reached below the child
    (``Reach.below``), so it finds the same W in fewer runs.  Returns the
    absolute path of an accepted node, or None."""
    rng = np.random.default_rng(seed)
    return _search(tree, config, rng, max_support, stats)


def _search(tree, config, rng, max_support, stats, hint=None):
    if classically_accepted(tree, ()):
        return tree.root_path
    if tree.effective_depth == 0:
        return None

    state, anc, reach = qpe_state(tree, config.precision_bits, max_support, hint)
    if stats is not None:
        stats.qpe_runs += 1
        stats.max_support = max(stats.max_support, state.max_support_seen)

    # Tree wires are 0..num_tree_qubits-1 in order, so an outcome shifted
    # past the ancillae is the tree part of the basis index.
    measured = list(anc) + tree.h + tree.branch_qubits()
    counts = sample(state, measured, config.shots, rng.integers(2 ** 63))

    p = len(anc)
    labels: Counter[int] = Counter()
    for outcome, count in counts.counts.items():
        value = int(outcome, 2)
        if value & ((1 << p) - 1):
            continue
        path = tree.decode_index(value >> p)
        if path is None:
            continue
        if len(path) == len(tree.root_path) + 1 and path[:-1] == tree.root_path:
            labels[path[-1]] += count

    for label, _ in sorted(labels.items(), key=lambda kv: (-kv[1], kv[0])):
        child = tree.root_path + (label,)
        if stats is not None:
            stats.explored.append(child)
        sub = tree.subtree(child)
        found = _search(sub, config, rng, max_support, stats, reach.below(sub))
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# decoding and visualization


@dataclass
class DecodedState:
    nodes: dict[NodePath, complex]
    non_algorithmic: dict[int, complex]

    def non_algorithmic_mass(self) -> float:
        return sum(abs(a) ** 2 for a in self.non_algorithmic.values())


def decode_tree_state(tree: BacktrackingTree, state: SparseState,
                      amp_epsilon: float = 1e-11) -> DecodedState:
    """Group amplitudes by decoded node identity; everything that is not an
    algorithmic node state (with clean workspace) goes to the separate
    non-algorithmic bucket."""
    nodes: dict[NodePath, complex] = {}
    other: dict[int, complex] = {}
    for idx, amp in zip(state.keys, state.amps):
        idx = int(idx)
        amp = complex(amp)
        if abs(amp) < amp_epsilon:
            continue
        path = tree.decode_index(idx)
        if path is None:
            other[idx] = amp
        else:
            nodes[path] = nodes.get(path, 0.0) + amp
    return DecodedState(nodes, other)


def to_dot(decoded: DecodedState) -> str:
    """DOT graph of the decoded support: green fill for positive real part,
    purple for negative; edges between present parent/child pairs."""
    lines = ["digraph walk {", "  node [style=filled];",
             f"  // non-algorithmic mass: {decoded.non_algorithmic_mass():.3e}"]
    for path, amp in sorted(decoded.nodes.items()):
        color = "palegreen" if amp.real >= 0 else "plum"
        label = "[" + ",".join(str(x) for x in path) + "]"
        lines.append(f'  "{label}" [fillcolor={color}, '
                     f'label="{label}\\n{amp.real:+.3f}{amp.imag:+.3f}i"];')
    present = set(decoded.nodes)
    for path in sorted(present):
        if path and path[:-1] in present:
            parent = "[" + ",".join(str(x) for x in path[:-1]) + "]"
            child = "[" + ",".join(str(x) for x in path) + "]"
            lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def demo_tree(depth: int = 3, subspace_optimization: bool = False) -> BacktrackingTree:
    """Binary demo tree: accept marks the all-ones path, reject cuts the
    subtree under [0]."""
    return BacktrackingTree(
        depth, 1,
        accept_builder=oracle_from_paths([(1,) * depth]),
        reject_builder=oracle_from_paths([(0,)]),
        subspace_optimization=subspace_optimization,
    )
