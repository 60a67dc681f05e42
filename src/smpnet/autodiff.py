"""Minimal reverse-mode tape over numpy arrays.

Operations append their result node to a tape in execution order, which is a
valid topological order, so the backward sweep is a single reversed pass.
Gradient accumulation follows that fixed order, making backward runs
bit-reproducible regardless of how callers schedule independent tapes.

Nodes whose ancestors contain no differentiable leaf (geometry and basis
constants) carry no vector-Jacobian hooks and are not kept on the tape, so
the backward sweep never spends work on them. A forward whose parameters
enter as constants therefore records nothing: each intermediate is freed as
soon as its consumer has run.

Two operations are fused. ``dense`` is a whole dense layer (product, bias,
optional SiLU) in one node. ``pair_aggregate`` reduces per-pair gated
messages to per-edge sums block by block, so no array with one row per
two-hop pair and one column per message channel outlives a block, in the
forward or in its vector-Jacobian product.
"""
from __future__ import annotations

import math

import numpy as np

# Pairs per block of ``Tape.pair_aggregate``: a block ends at the first
# segment boundary at or after each multiple of it. On a 66k-pair carbon
# cluster batch (2 gates, 64 channels) the op's forward and vjp times were
# flat within 10% from 512 to 2048 pairs and slower at 256 and from 4096 up.
PAIR_BLOCK = 1024


def scatter_rows(index: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """Sum row i of ``values`` into row ``index[i]`` of a zero (rows, ...) array.

    One ``np.bincount`` over flat (row, column) keys. It adds its weights in
    input order, as ``np.add.at`` does, so each output entry is the same
    left-to-right sum. Indices must lie in [0, rows).
    """
    width = math.prod(values.shape[1:])
    keys = (index[:, None] * width + np.arange(width)).ravel()
    flat = np.bincount(keys, weights=values.reshape(-1), minlength=rows * width)
    return flat.reshape((rows,) + values.shape[1:])


class Node:
    """One tape entry: a value plus vector-Jacobian hooks into its parents.

    Each hook is (parent, vjp, fresh): ``fresh`` marks vjps that return a
    newly allocated array, which the sweep may then own without copying.
    """

    __slots__ = ("value", "grad", "parents", "needs_grad")

    def __init__(self, value: np.ndarray, parents=(), needs_grad: bool = False):
        self.value = value
        self.grad = None
        self.parents = parents
        self.needs_grad = needs_grad


class Tape:
    """Records nodes in execution order; replays them in reverse."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _record(self, value: np.ndarray, hooks=()) -> Node:
        hooks = tuple(h for h in hooks if h[0].needs_grad)
        node = Node(value, hooks, needs_grad=bool(hooks))
        if hooks:
            self.nodes.append(node)
        return node

    def leaf(self, value: np.ndarray, grad: np.ndarray = None) -> Node:
        """A differentiable input (a parameter) whose gradient is added into ``grad``.

        ``grad`` becomes the leaf's ``.grad`` buffer; without one the tape
        allocates zeros. ``backward`` adds into the buffer and never resets it,
        so it holds the sum over every sweep since the caller last zeroed it.
        """
        value = np.asarray(value, dtype=np.float64)
        node = Node(value, needs_grad=True)
        node.grad = np.zeros_like(value) if grad is None else grad
        self.nodes.append(node)
        return node

    def constant(self, value: np.ndarray) -> Node:
        """A non-differentiable input (geometry and basis values)."""
        return Node(np.asarray(value, dtype=np.float64))

    def backward(self, output: Node, upstream: np.ndarray):
        """Add d(output)/d(leaf) * upstream into every leaf's .grad buffer.

        Only interior cotangents start from nothing; each leaf contribution
        is added with ``+=`` into the buffer as it stands, in the fixed
        reversed tape order. An interior node's cotangent is freed as soon as
        its vjps have run, so only the cotangents still awaiting their node
        are alive at once.
        """
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != output.value.shape:
            raise ValueError(
                f"upstream gradient shape {upstream.shape} does not match "
                f"output shape {output.value.shape}"
            )
        for node in self.nodes:
            if node.parents:
                node.grad = None
        if output.parents:
            output.grad = upstream.copy()
        elif output.needs_grad:
            output.grad += upstream
        for node in reversed(self.nodes):
            if node.grad is None or not node.parents:
                continue
            for parent, vjp, fresh in node.parents:
                contribution = vjp(node.grad)
                if parent.grad is None:
                    parent.grad = contribution if fresh else contribution.copy()
                else:
                    parent.grad += contribution
            node.grad = None

    # --- operations ------------------------------------------------------

    def dense(self, x: Node, w: Node, b: Node = None, silu: bool = False) -> Node:
        """``x @ w``, plus the bias row ``b`` if given, then SiLU if ``silu``.

        The bias is added in place and the sigmoid built in one buffer; the vjp
        turns the node's own cotangent, in place, into the pre-activation's.
        Products keep the operand order of separate affine and SiLU ops, so
        values and gradients are bitwise theirs.
        """
        value = pre = x.value @ w.value
        if b is not None:
            pre += b.value
        if silu:
            # exp(-pre) overflows to inf below pre = -709: sigmoid's right limit 0.
            sig = np.negative(pre)
            with np.errstate(over="ignore"):
                np.exp(sig, out=sig)
            sig += 1.0
            value = pre * np.divide(1.0, sig, out=sig)

        def vjp_all(g, xv=x.value, wv=w.value):
            if silu:
                slope = np.subtract(1.0, sig)
                slope *= pre
                slope += 1.0
                slope *= sig
                g *= slope
            return [g @ wv.T if x.needs_grad else None,
                    xv.T @ g if w.needs_grad else None,
                    None if b is None else g.sum(axis=0)]

        return self._record(value, _joint_hooks([x, w] if b is None else [x, w, b], vjp_all))

    def stacked_matmul(self, a: Node, bs: list[Node]) -> list[Node]:
        """``dense(a, b)`` for every b of ``bs`` through one product.

        ``a`` is multiplied once by the column-stacked ``[b0 | b1 | ...]``, and
        node i holds the column view of ``b_i`` with the hooks of
        ``dense(a, b_i)``. One wide product reads ``a`` once where separate
        narrow ones read it once each. On OpenBLAS, column views 8 or 16 wide
        (the shipped bottleneck width is 8) were bitwise the separate
        products; views 1 to 4 wide can round differently in the last bit.
        """
        if not bs:
            return []
        value = a.value @ np.concatenate([b.value for b in bs], axis=1)
        nodes = []
        offset = 0
        for b in bs:
            width = b.value.shape[1]
            nodes.append(self._record(value[:, offset:offset + width], (
                (a, lambda g, bv=b.value: g @ bv.T, True),
                (b, lambda g, av=a.value: av.T @ g, True),
            )))
            offset += width
        return nodes

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ValueError(f"add needs equal shapes, got {a.value.shape} and {b.value.shape}")
        return self._record(a.value + b.value, (
            (a, lambda g: g, False),
            (b, lambda g: g, False),
        ))

    def mul(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ValueError(f"mul needs equal shapes, got {a.value.shape} and {b.value.shape}")
        return self._record(a.value * b.value, (
            (a, lambda g, bv=b.value: g * bv, True),
            (b, lambda g, av=a.value: g * av, True),
        ))

    def concat(self, parts: list[Node]) -> Node:
        value = np.concatenate([p.value for p in parts], axis=1)
        hooks = []
        offset = 0
        for part in parts:
            width = part.value.shape[1]
            hooks.append((part, lambda g, o=offset, w=width: g[:, o:o + w], False))
            offset += width
        return self._record(value, hooks)

    def gather(self, x: Node, index: np.ndarray) -> Node:
        """Select rows; repeated indices accumulate gradient additively."""
        index = np.asarray(index, dtype=np.int64)

        def vjp(g, rows=x.value.shape[0], idx=index):
            return scatter_rows(idx, g, rows)

        return self._record(x.value[index], ((x, vjp, True),))

    def segment_sum(self, x: Node, segment_ids: np.ndarray, num_segments: int) -> Node:
        """Sum rows of x into num_segments buckets (empty buckets stay zero)."""
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        value = scatter_rows(segment_ids, x.value, num_segments)
        return self._record(value, ((x, lambda g, idx=segment_ids: g[idx], True),))

    def reshape(self, x: Node, shape: tuple) -> Node:
        return self._record(
            x.value.reshape(shape),
            ((x, lambda g, s=x.value.shape: g.reshape(s), False),),
        )

    def pair_aggregate(self, base: Node, gates: list[tuple[Node, Node, Node, Node]],
                       pair_edge: np.ndarray, pair_neighbor: np.ndarray,
                       n_edges: int) -> Node:
        """Gated neighbor messages summed per edge, without pair-wide temporaries.

        ``out[k] = sum over pairs p of edge k of
        base[j] + sum over gates of (a[p] @ up + b) * proj[j]``, with
        ``j = pair_neighbor[p]`` and one ``(a, up, b, proj)`` tuple per gate.
        ``base`` and ``proj`` have one row per edge, ``a`` one row per pair.

        ``pair_edge`` must be sorted (``build_two_hop_index`` and
        ``merge_features`` produce it so). The pairs are then walked in blocks
        of whole edges, each reduced by one ``scatter_rows`` over edge-local
        keys. Each pair's term is built in the order of the unfused
        gather/dense/mul/add composition and each edge sums its pairs in pair
        order, so the value is bitwise that composition's. The vjp walks the
        pairs sorted by neighbor edge instead, recomputing each block's gates
        from ``a``.
        """
        pair_edge = np.asarray(pair_edge, dtype=np.int64)
        pair_neighbor = np.asarray(pair_neighbor, dtype=np.int64)
        if np.any(pair_edge[1:] < pair_edge[:-1]):
            raise ValueError("pair_aggregate needs pair_edge sorted")
        value = np.empty((n_edges, base.value.shape[1]))
        for p0, p1, k0, k1 in _segment_blocks(pair_edge, n_edges):
            j = pair_neighbor[p0:p1]
            term = base.value[j]
            for a, up, b, proj in gates:
                gate = a.value[p0:p1] @ up.value
                gate += b.value
                gate *= proj.value[j]
                term += gate
            value[k0:k1] = scatter_rows(pair_edge[p0:p1] - k0, term, k1 - k0)

        def vjp_all(g):
            order = np.argsort(pair_neighbor, kind="stable")
            sorted_j = pair_neighbor[order]
            d_base = np.empty_like(base.value)
            d_gates = [(np.empty_like(a.value), np.zeros_like(up.value),
                        np.zeros_like(b.value), np.empty_like(proj.value))
                       for a, up, b, proj in gates]
            for p0, p1, j0, j1 in _segment_blocks(sorted_j, base.value.shape[0]):
                idx = order[p0:p1]
                j = sorted_j[p0:p1]
                local = j - j0
                g_pair = g[pair_edge[idx]]
                d_base[j0:j1] = scatter_rows(local, g_pair, j1 - j0)
                for (a, up, b, proj), (d_a, d_up, d_b, d_proj) in zip(gates, d_gates):
                    a_block = a.value[idx]
                    gate = a_block @ up.value
                    gate += b.value
                    gate *= g_pair
                    d_proj[j0:j1] = scatter_rows(local, gate, j1 - j0)
                    d_gate = g_pair * proj.value[j]
                    d_a[idx] = d_gate @ up.value.T
                    d_up += a_block.T @ d_gate
                    d_b += d_gate.sum(axis=0)
            return [d_base] + [d for ds in d_gates for d in ds]

        parents = [base] + [node for gate in gates for node in gate]
        return self._record(value, _joint_hooks(parents, vjp_all))


def _segment_blocks(sorted_ids: np.ndarray, n_segments: int):
    """Cut rows sorted by segment id into blocks of whole segments.

    Returns (row start, row end, first segment, end segment) per block; the
    blocks cover every segment, empty ones included. A block ends at the
    first segment boundary at or after each multiple of ``PAIR_BLOCK`` rows.
    A one-row block joins its neighbor: numpy multiplies a single row through
    gemv, which rounds differently from the gemm a longer block uses.
    """
    offsets = np.searchsorted(sorted_ids, np.arange(n_segments + 1))
    targets = np.arange(0, sorted_ids.size, PAIR_BLOCK)
    cuts = np.unique(np.concatenate((
        [0], np.searchsorted(offsets, targets), [n_segments])))
    single = np.flatnonzero(np.diff(offsets[cuts]) == 1)
    if cuts.size > 2:
        cuts = np.delete(cuts, np.maximum(single, 1))
    return [(offsets[s], offsets[e], s, e) for s, e in zip(cuts[:-1], cuts[1:])]


def _joint_hooks(parents: list[Node], vjp_all) -> list:
    """Hooks for an op whose vjp yields all parents' gradients in one pass.

    The first hook the sweep calls runs ``vjp_all`` and parks the gradients of
    the parents that need one (the rest may be None); each hook takes its own.
    """
    live = [i for i, parent in enumerate(parents) if parent.needs_grad]
    pending: dict[int, np.ndarray] = {}

    def hook(i):
        def vjp(g):
            if not pending:
                grads = vjp_all(g)
                pending.update((k, grads[k]) for k in live)
            return pending.pop(i)
        return vjp

    return [(parents[i], hook(i), True) for i in live]
