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
runs each builder as the compute step of ``Circuit.within``, whose action, a
diagonal phase controlled on the result, never writes it; ``within`` then
emits the builder's adjoint and returns every allocated qubit to the pool.
So builders never uncompute: they leave all their work computed, ancillae
and relative phases included, and may return a wire they only read
(Sudoku's accept returns ``h[0]``).  The reject builder receives the
lifted tree (``_lifted``), whose height register is relabeled one level up
and whose ``parents`` are the diffuser's own parent heights: a builder may
leave out every check whose path entry does not ``fire`` there, since the
diffuser masks its phase (R_A is the direct sum of D_x over x in A).  A
reject builder left with no check may return None, with no gate and no
wire: the diffuser then emits no reject phase, and ``within`` no lift.  Both
builders also run outside any diffuser, on the plain node states of one
level, to predict the walk's reach (``_predicted_reach``); the reject
builder then gets a copy of the tree whose ``parents`` are that level's
height alone.  There each must return the node's own accept or reject bit,
None reading as "not rejected": the predicted reach is W's node set, so a
missed node raises and an extra one costs a column.

Phase estimation has two forms.  ``estimate_phase`` emits the circuit: the
step controlled on the first ancilla is built once, every other ancilla's
step is the same gates with the control wire moved onto it (only the
reflection phases carry the control), and the powers are appended with
``Circuit.repeat``, which records each span so that the transpiler lowers
the step once; ``bench`` and the transpiler measure it.  ``qpe_state``
simulates the same circuit from the root without building it: it builds and
compiles the uncontrolled step once and gets its columns on the nodes it
reaches from ``sim.run_columns`` as a small unitary matrix W; it forms the
pre-QFT state sum_a |a> W^a |root> / sqrt(2^p) as a dense table and applies
the circuit's inverse QFT to it, with no gate simulated.  Detection and
search use ``qpe_state``.  A node is reached exactly when its parent is
reached and neither accepted nor rejected, so the root's W is on the nodes
that follow from the oracles, run level by level on node states; they run
with the root in one batch when the support cap admits them, and otherwise
right after the root's own run.  The search hands each child the node
states its parent's W is on (a ``Reach``) instead, and the child's W is on
the ones inside its subtree.  A step run that reaches a node outside them
raises.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, UsageError, adjoint
from .sim import (MAX_SHOTS, PRUNE_EPSILON, ResourceLimitError, SparseState,
                  apply, check_key, compile as compile_circuit, run_columns, sample)
from .synthesis import fredkin, xx_plus_yy

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
        if not 1 <= self.shots <= MAX_SHOTS:
            raise UsageError(f"shots must lie in 1..{MAX_SHOTS}")
        if not all(math.isfinite(c) and c > 0.0
                   for c in (self.beta_const, self.gamma_const)):
            raise UsageError("beta and gamma must be positive and finite")
        if not self.gamma_const * math.log(1.0 / self.delta) <= MAX_SHOTS:
            raise UsageError(f"gamma ln(1/delta) votes, drawn as shots, exceed {MAX_SHOTS}")

    @property
    def repetitions(self) -> int:
        """Votes of ``detect_marked``: K = max(1, ceil(gamma ln(1/delta)))."""
        return max(1, math.ceil(self.gamma_const * math.log(1.0 / self.delta)))


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
        if branch_bits < 1:
            raise UsageError("branch_bits must be >= 1")
        self.max_depth = max_depth
        self.branch_bits = branch_bits
        self.deg = 2 ** branch_bits
        self.accept_builder = accept_builder
        self.reject_builder = reject_builder
        self.subspace_optimization = subspace_optimization
        self.root_path = tuple(root_path)
        self.h = list(range(max_depth + 1))
        # Heights whose checks can change a phase: all of them, unless this
        # is one diffuser's lifted tree (``_lifted``).
        self.parents = range(max_depth + 1)
        base = max_depth + 1
        self._branch = [tuple(base + i * branch_bits + j for j in range(branch_bits))
                        for i in range(max_depth)]
        self.num_tree_qubits = base + max_depth * branch_bits
        self.path_bits(self.root_path)      # validates the root path

    # -- registers ----------------------------------------------------------

    def branch_reg(self, i: int) -> tuple[int, ...]:
        return self._branch[i]

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

    def fires(self, a: int) -> bool:
        """Whether a check gated on path entry ``a``'s height qubit can change
        a phase: its height is one of ``parents``."""
        return self.max_depth - 1 - a in self.parents

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
                circ.ch(self.h[i], q)

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
        lifted = self._lifted(even)

        def unprep():
            start = len(circ.gates)
            self.psi_prep(circ, even)
            circ.gates[start:] = adjoint(circ.gates[start:])

        def phase(first, second):
            circ.mcz((first, second) + ctrl, (1, 0) + (1,) * len(ctrl))

        def reflection(_):
            # The oddity is 1 on this diffuser's parents.
            oddity = circ.allocate()
            for i in lifted.parents:
                circ.cx(self.h[i], oddity)
            # Phase the non-accepted parents.
            circ.within(lambda: self.accept_builder(self, circ),
                        lambda acc: phase(oddity, acc))

            def lift():
                # The height increment would read the root as a leaf; when
                # the root has child parity, flipping its oddity masks it
                # from the reject phase.
                if n % 2 == ev:
                    circ.cx(self.h[n], oddity)
                if not self.subspace_optimization:
                    temp = circ.allocate_register(self.branch_bits)
                    for i in range(ev, n, 2):
                        for j, q in enumerate(self.branch_reg(i)):
                            fredkin(circ, temp[j], q, ctrl=self.h[i])
                return lifted

            def reject_phase(rej):
                if rej is not None:
                    phase(rej, oddity)

            # Phase the children of rejected parents, evaluated on the lift;
            # with no reject check here, ``within`` emits no lift at all.
            circ.within(lift, lambda lifted: circ.within(
                lambda: lifted.reject_builder(lifted, circ), reject_phase))
            for i in lifted.parents:
                circ.cx(self.h[i], oddity)
            circ.deallocate(oddity)

        circ.within(unprep, reflection)

    def _lifted(self, even: bool) -> "BacktrackingTree":
        """This tree with height j read from wire ``h[j - 1]`` and height 0
        from the root's wire: the lift's one-hot increment, with no gates.
        Its ``parents`` are the parity-``even`` diffuser's parent heights, up
        to the effective depth.  The reject phase fires only on states whose
        oddity is 0, which the lift reads at those heights, and no height
        above the root is ever set, so a check gated on any other height
        cannot change the phase (``fires``)."""
        n = self.effective_depth
        lifted = copy.copy(self)
        lifted.h = [self.h[n]] + self.h[:n] + self.h[n + 1:]
        lifted.parents = range(1 - int(even), n + 1, 2)
        return lifted

    def quantum_step(self, circ: Circuit, ctrl=()) -> None:
        """One walk step: the even-distance diffuser, then the odd one."""
        n = self.effective_depth
        self.qstep_diffuser(circ, even=(n % 2 == 0), ctrl=ctrl)
        self.qstep_diffuser(circ, even=(n % 2 == 1), ctrl=ctrl)

    def estimate_phase(self, circ: Circuit, precision_bits: int) -> list[int]:
        """Standard phase estimation on the walk step; returns the ancilla
        register.  The all-zero outcome witnesses an eigenvalue-1 component.
        The step controlled on ancilla 0 is built once and recorded as a
        repeat; ancilla k's step is the same gates with the control wire
        moved to ancilla k (only the reflection phases carry it), repeated
        2^k times.  Raises ``ResourceLimitError`` before repeating if the
        circuit would pass ``MAX_QPE_GATES``, and before allocating any
        ancilla if the 2^p - 1 steps alone would."""
        if precision_bits < 1:
            raise UsageError("precision_bits must be >= 1")
        if precision_bits > MAX_QPE_GATES.bit_length():
            raise ResourceLimitError(
                f"phase estimation at precision {precision_bits} repeats the step "
                f"2^{precision_bits} - 1 times, more than {MAX_QPE_GATES}")
        anc = circ.allocate_register(precision_bits)
        for a in anc:
            circ.h(a)
        start = len(circ.gates)
        self.quantum_step(circ, ctrl=(anc[0],))
        first = tuple(circ.gates[start:])
        total = start + len(first) * (2 ** precision_bits - 1)
        if total > MAX_QPE_GATES:
            raise ResourceLimitError(
                f"phase estimation at precision {precision_bits} needs "
                f"about {total} gates, more than {MAX_QPE_GATES}")
        circ.repeats.append((start, first, 1, None))
        for k, a in enumerate(anc[1:], 1):
            circ.repeat(first, 2 ** k, (anc[0], a))
        _inverse_qft(circ, anc)
        return anc


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


class Reach(NamedTuple):
    """What one ``_step_matrix`` call ran: the node states of W (basis
    indices, in W's order) and the largest support per node of its step
    runs.  A parent's ``Reach`` holds every node its children's W needs."""

    nodes: np.ndarray
    per_node: float


def _step_matrix(tree: BacktrackingTree, max_support, reach: Reach | None = None,
                 step: Circuit | None = None):
    """The walk step W as a dense matrix on the node states it reaches from
    the tree's root; returns (their ``Reach``, W, largest support seen).

    The nodes are the root and the reach its oracles predict
    (``_predicted_reach``), or, given a parent run's ``reach``, that reach's
    nodes inside this (sub)tree.  They are numbered breadth first from the
    root, one step reaching two heights down: by (depth + 1) // 2, then by
    basis index.  The uncontrolled step (``step`` when the caller built it
    already) is compiled once and ``run_columns`` gives every node's column.
    A node the step reaches outside them raises ``UsageError``; one it never
    reaches costs a column.  With no ``reach`` the nodes run with the root
    when ``max_support`` admits them all at 2^(step wires - tree wires)
    amplitudes each, and otherwise right after the root's own run.  A batch
    is sized from the previous run's largest support per node (at first
    ``reach``'s, or that bound), so few runs pass the cap and are split.
    """
    if step is None:
        step = tree.new_circuit()
        tree.quantum_step(step)
    program = compile_circuit(step)
    root = tree.node_index(())
    if reach is None:
        keys = _predicted_reach(tree, max_support)
        per_node = 1 << (program.num_qubits - tree.num_tree_qubits)
    else:
        keys = [key for key in reach.nodes.tolist() if tree.decode_index(key) is not None]
        per_node = reach.per_node
    keys = np.unique(np.array([root] + keys, dtype=np.int64))
    height = sum(j * (keys >> q & 1) for j, q in enumerate(tree.h))
    order = np.argsort((tree.effective_depth - height + 1) // 2, kind="stable")
    nodes, rank = keys[order], np.argsort(order)
    alone = (reach is None and max_support is not None and len(nodes) > 1
             and len(nodes) * per_node > max_support)
    parts, runs = [], []
    for lo, hi in ((0, 1), (1, len(nodes))) if alone else ((0, len(nodes)),):
        batch = None if max_support is None else max(1, int(max_support // per_node))
        labels, rows, amps, done = run_columns(program, nodes[lo:hi], batch, max_support)
        per_node = max(support / size for size, support in done)
        parts.append((labels + lo, rows, amps))
        runs += done
    cols, rows, amps = map(np.concatenate, zip(*parts))
    if np.any(rows >> tree.num_tree_qubits):
        raise UsageError("walk step leaves a workspace qubit set")
    at = np.minimum(np.searchsorted(keys, rows), len(keys) - 1)
    if np.any(keys[at] != rows):
        raise UsageError("walk step reaches a node state its oracles did not predict")
    w = np.zeros((len(nodes), len(nodes)), dtype=complex)
    w[rank[at], cols] = amps
    err = np.abs(w.conj().T @ w - np.eye(len(nodes))).max()
    if err > 1e-10:
        raise UsageError(f"walk step is not unitary on its {len(nodes)} reachable "
                         f"node states (max |W^H W - I| = {err:.1e})")
    return (Reach(nodes, max(support / size for size, support in runs)), w,
            max(support for _, support in runs))


def _predicted_reach(tree: BacktrackingTree, max_support) -> list[int]:
    """The node states other than the root that a walk from the tree's root
    reaches, predicted from the oracles: a node is reached when its parent
    is reached and neither accepted nor rejected.  Level by level, both
    builders run on the level's node states in one ``run_columns`` call; the
    reject builder gets the tree with ``parents`` the level's height alone,
    so it may emit only that level's checks.  These are W's nodes
    (``_step_matrix``).  Raises ``ResourceLimitError`` once the levels hold
    more than ``max_support`` nodes, the root included, so it runs the
    oracles on at most that many and no step runs."""
    nodes, level = [], [()]
    while level:
        if max_support is not None and len(nodes) + len(level) > max_support:
            raise ResourceLimitError(
                f"walk step reaches more than {max_support} node states")
        keys = [tree.node_index(path) for path in level]
        nodes += keys
        height = tree.effective_depth - len(level[0])
        if height == 0:
            break
        circ = tree.new_circuit()
        accepted = tree.accept_builder(tree, circ)
        only = copy.copy(tree)
        only.parents = range(height, height + 1)
        rejected = tree.reject_builder(only, circ)
        labels, rows, amps, _ = run_columns(compile_circuit(circ), keys)
        fired = (rows >> accepted | (0 if rejected is None else rows >> rejected)) & 1
        weight = np.bincount(labels, np.abs(amps) ** 2 * fired, len(level))
        level = [path + (label,) for path, closed in zip(level, weight > 0.5)
                 if not closed for label in range(tree.deg)]
    return nodes[1:]


def qpe_state(tree: BacktrackingTree, precision_bits: int, max_support=None,
              reach: Reach | None = None,
              step: Circuit | None = None) -> tuple[SparseState, list[int], Reach]:
    """The final state of ``estimate_phase`` from the tree's root, on the tree
    wires and the ancillae (ancilla k on wire ``num_tree_qubits + k``), the
    ancilla wires, and the ``Reach`` of the step run.

    Only the reflection phases take the phase-estimation control, so the
    controlled step is |0><0| (x) I + |1><1| (x) W.  The state before the
    inverse QFT is therefore sum_a |a> W^a |root> / sqrt(2^p), a dense
    2^p x nodes table formed from W on the reachable nodes (``_step_matrix``
    on the root and the parent's ``reach`` inside the tree, or else the
    predicted reach; it builds the step unless ``step`` is the tree's step
    already built).  The circuit's inverse QFT runs on the table in place, per
    ancilla the lower ancillae's phases then an unscaled H (the root's 1/2^p
    holds the 1/sqrt(2^p) and every H's 1/sqrt(2)), and amplitudes below
    ``PRUNE_EPSILON`` are dropped once.
    Raises ``ResourceLimitError`` before any step run if the tree wires and
    the ancillae pass the sparse key or the predicted node count passes
    ``max_support``, and after them if a step run's support or the table
    does.
    """
    if precision_bits < 1:
        raise UsageError("precision_bits must be >= 1")
    n = tree.num_tree_qubits
    check_key(n + precision_bits, f"{n} tree wires plus {precision_bits} ancillae")
    reach, w, seen = _step_matrix(tree, max_support, reach, step)
    nodes = reach.nodes
    size = 2 ** precision_bits
    if max_support is not None and size * len(nodes) > max_support:
        raise ResourceLimitError(
            f"phase estimation at precision {precision_bits} over {len(nodes)} "
            f"node states needs up to {size * len(nodes)} amplitudes, "
            f"more than {max_support}")
    powers = np.zeros((size, len(nodes)), dtype=complex)
    powers[0, 0] = 1.0 / size
    for a in range(1, size):
        powers[a] = w @ powers[a - 1]
    for j in range(precision_bits):
        pairs = powers.reshape(-1, 2, 2 ** j, len(nodes))    # [.., bit j, lower bits, node]
        pairs[:, 1] *= np.exp(-1j * math.pi * np.arange(2 ** j) / 2 ** j)[:, None]
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    keys = ((np.arange(size, dtype=np.int64)[:, None] << n) | nodes).ravel()
    amps = powers.ravel()
    keep = np.abs(amps) >= PRUNE_EPSILON
    keys, amps = keys[keep], amps[keep]
    order = np.argsort(keys)
    state = SparseState(n + precision_bits, keys[order], amps[order], max(seen, len(keys)))
    return state, list(range(n, n + precision_bits)), reach


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
    reps = config.repetitions
    precision = detection_precision(tree, config)
    state, anc, _ = qpe_state(tree, precision, max_support)
    accept_number = sample(state, anc, reps, seed).get(0, 0)
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


def find_solution(tree: BacktrackingTree, config: WalkConfig, seed=None,
                  max_support=None, stats: SearchStats | None = None,
                  step: Circuit | None = None) -> NodePath | None:
    """Recursive search: phase-estimate from the current root, decode the
    tree-register outcomes that co-occur with the all-zero ancilla register,
    keep the ones extending the root path by one label, and recurse into the
    most frequent label first (ties to the smaller label).  Each level
    rebuilds registers and re-runs phase estimation; a child's W is on the
    node states its parent's run reached inside the child's subtree (the
    parent's ``Reach``), so it needs no oracle run of its own.
    ``step``, the tree's uncontrolled walk step if the caller built it
    already, serves the root's run.  Returns the absolute path of an
    accepted node, or None."""
    rng = np.random.default_rng(seed)
    return _search(tree, config, rng, max_support, stats, step=step)


def _search(tree, config, rng, max_support, stats, reach=None, step=None):
    if classically_accepted(tree, ()):
        return tree.root_path
    if tree.effective_depth == 0:
        return None

    state, anc, reach = qpe_state(tree, config.precision_bits, max_support, reach, step)
    if stats is not None:
        stats.qpe_runs += 1
        stats.max_support = max(stats.max_support, state.max_support_seen)

    # Tree wires are 0..num_tree_qubits-1, so an outcome shifted past the
    # ancillae is the tree part of the basis index.
    measured = list(anc) + list(range(tree.num_tree_qubits))
    counts = sample(state, measured, config.shots, rng.integers(2 ** 63))

    p = len(anc)
    labels: Counter[int] = Counter()
    for outcome, count in counts.items():
        if outcome & ((1 << p) - 1):
            continue
        path = tree.decode_index(outcome >> p)
        if path is not None and len(path) == len(tree.root_path) + 1:
            labels[path[-1]] += count

    for label, _ in sorted(labels.items(), key=lambda kv: (-kv[1], kv[0])):
        sub = tree.subtree(tree.root_path + (label,))
        found = _search(sub, config, rng, max_support, stats, reach)
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


def decode_tree_state(tree: BacktrackingTree, state: SparseState) -> DecodedState:
    """Group amplitudes of at least 1e-11 by decoded node identity; everything
    that is not an algorithmic node state (with clean workspace) goes to the
    separate non-algorithmic bucket."""
    nodes: dict[NodePath, complex] = {}
    other: dict[int, complex] = {}
    for idx, amp in zip(state.keys, state.amps):
        idx = int(idx)
        amp = complex(amp)
        if abs(amp) < 1e-11:
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
