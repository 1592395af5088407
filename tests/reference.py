"""Independent references: dense walk operators and a plain lowering.

Builds R_A / R_B directly from the diffuser definitions: enumerate the tree
nodes classically, form each child superposition as an explicit vector, and
assemble the block operator with numpy.  No circuit machinery is used, so
this is a genuinely independent oracle for the compiled walk.

``lowered_gate_by_gate`` lowers a circuit into {U3, CX} one gate at a time,
with no template or interning, as the oracle for ``qwb.transpile``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qwb.circuit import Circuit, Gate, GateKind
from qwb.transpile import _is_identity, _network, zyz


def all_paths(depth, deg):
    paths = [()]
    for length in range(1, depth + 1):
        paths.extend(itertools.product(range(deg), repeat=length))
    return paths


def reference_diffuser(tree, accept, reject, even):
    """Dense operator on the tree-register space for one diffuser.

    ``accept``/``reject`` are classical predicates on absolute paths.  The
    operator acts as the identity outside the algorithmic subspace (compare
    on algorithmic rows/columns only).
    """
    n = tree.effective_depth
    deg = tree.deg
    ev = int(even)
    dim = 2 ** tree.num_tree_qubits
    op = np.eye(dim, dtype=complex)

    rel_paths = [p for p in all_paths(n, deg)]
    for rel in rel_paths:
        height = n - len(rel)
        # even=True covers even-height parents, even=False odd-height ones.
        if height % 2 == ev:
            continue
        absolute = tree.root_path + rel
        x_idx = tree.node_index(rel)
        if height == 0:
            # Childless member of the parity class: identity if marked,
            # phase flip otherwise.
            if not accept(absolute):
                op[x_idx, x_idx] = -1.0
            continue
        children = [tree.node_index(rel + (w,)) for w in range(deg)]
        if accept(absolute):
            continue
        if reject(absolute):
            for idx in [x_idx] + children:
                op[idx, idx] = -1.0
            continue
        c = math.sqrt(n) if len(rel) == 0 else 1.0
        psi = np.zeros(dim, dtype=complex)
        psi[x_idx] = 1.0
        for idx in children:
            psi[idx] = c
        psi /= np.linalg.norm(psi)
        block = [x_idx] + children
        for a in block:
            for b in block:
                op[a, b] = (1.0 if a == b else 0.0) - 2.0 * psi[a] * np.conj(psi[b])
    return op


def reference_step(tree, accept, reject):
    n = tree.effective_depth
    r_a = reference_diffuser(tree, accept, reject, even=(n % 2 == 0))
    r_b = reference_diffuser(tree, accept, reject, even=(n % 2 == 1))
    return r_b @ r_a


def algorithmic_indices(tree):
    return [tree.node_index(rel)
            for rel in all_paths(tree.effective_depth, tree.deg)]


def reachable_walk_step(tree, accept, reject):
    """The walk step W = R_B R_A on the node states reachable from the
    (sub)tree's root, built from the diffuser definition; returns their basis
    indices and W, in the same order.

    ``accept``/``reject`` are classical predicates on absolute paths.  A node
    is reached when its parent is reached and neither accepted nor rejected.
    R_A acts on the nodes at even distance from the root, R_B on those at odd
    distance: the identity on an accepted node, -1 on a rejected node or a
    non-accepted leaf, and otherwise the reflection about |x> + c sum of its
    children, with c = sqrt(n) at the root and 1 elsewhere.
    """
    n = tree.effective_depth
    paths = [()]
    for rel in paths:       # grows while it is read: breadth first
        absolute = tree.root_path + rel
        if len(rel) < n and not accept(absolute) and not reject(absolute):
            paths += [rel + (w,) for w in range(tree.deg)]
    index = {rel: j for j, rel in enumerate(paths)}

    def diffuser(parity):
        op = np.eye(len(paths), dtype=complex)
        for rel in paths:
            absolute = tree.root_path + rel
            if len(rel) % 2 != parity or accept(absolute):
                continue
            x = index[rel]
            if reject(absolute) or len(rel) == n:
                op[x, x] = -1.0
                continue
            block = [x] + [index[rel + (w,)] for w in range(tree.deg)]
            psi = np.array([1.0] + [math.sqrt(n) if not rel else 1.0] * tree.deg)
            psi /= np.linalg.norm(psi)
            op[np.ix_(block, block)] -= 2.0 * np.outer(psi, psi)
        return op

    keys = np.array([tree.node_index(rel) for rel in paths], dtype=np.int64)
    return keys, diffuser(1) @ diffuser(0)


def lowered_gate_by_gate(circuit):
    """``circuit`` in {U3, CX}, lowered one gate at a time and ignoring
    ``circuit.repeats``.  Each op of a gate's network multiplies a 2x2 into
    its wire's pending matrix on the left or, as a CX, flushes its target,
    then its control; the end flushes the rest in ascending wire order.  A
    flush drops a global phase times the identity and otherwise emits one
    U3."""
    pending, out = {}, []

    def flush(q):
        m = pending.pop(q, None)
        if m is not None and not _is_identity(m):
            out.append(Gate(GateKind.U3, q, zyz(m)[1:]))

    for gate in circuit.gates:
        for q, m in _network(gate):
            if isinstance(m, int):
                flush(q)
                flush(m)
                out.append(Gate(GateKind.X, q, (), (m,), (1,)))
            elif q in pending:
                (a, b, c, d), (e, f, g, h) = m, pending[q]
                pending[q] = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            else:
                pending[q] = m
    for q in sorted(pending):
        flush(q)
    lowered = Circuit(circuit.num_qubits)
    lowered.extend(out)
    return lowered
