"""Minimal reverse-mode tape over numpy arrays.

Operations append their result node to a tape in execution order, which is a
valid topological order, so the backward sweep is a single reversed pass.
Gradient accumulation follows that fixed order, making backward runs
bit-reproducible regardless of how callers schedule independent tapes.

Every recorded node has one vector-Jacobian product (vjp), which maps the
node's cotangent to one cotangent per parent, in the order of its parents.
The sweep ignores the entries of parents that need no gradient; they may be
None. Every other array a vjp returns belongs to the parent that receives it:
no other parent receives it and no node's value shares its memory. The sweep
therefore keeps it as that parent's cotangent without a copy, and the
parent's own vjp may overwrite it in place. An op that hands one array to two
parents copies it for one of them.

The tape lists only the nodes its sweep visits. A leaf (a parameter) is not
listed: the vjps of its consumers reach its gradient buffer. Nodes whose
ancestors contain no differentiable leaf (geometry and basis constants) have
no vjp and are not kept either, so the sweep never spends work on them. A
forward whose parameters enter as constants therefore records nothing: each
intermediate is freed as soon as its consumer has run.

Three operations are fused. ``dense`` is a whole dense layer (product, bias
row or addend, optional SiLU, optional residual add) in one node, which keeps
only the SiLU slope for its vjp. ``blocked_matmul`` multiplies a constant that
its caller builds one block of rows at a time by several weights at once, and
``pair_aggregate`` reduces per-pair gated messages to per-edge sums in fixed
blocks of pairs. So no array with one row per two-hop pair and one column per
basis entry or message channel outlives a block, in the forward or in its
vector-Jacobian product.

A tape built on a ``Workspace`` writes its forward values (dense outputs and
SiLU slopes, mul, gather_add, blocked_matmul and pair_aggregate outputs)
into the workspace's buffers with ``out=``, so successive training steps
reuse one set of buffers instead of allocating them afresh. A forward's
values are therefore valid only until the next forward on the same workspace.
A value that no vjp reads and that one op consumes right away takes no slot:
it is written into the workspace's one transient buffer. Those values are
the ``gather_add`` output and the ``dense`` and ``mul`` outputs their caller
marks ``transient=True``. One buffer serves them all because of one
invariant, which the callers keep: a transient is dead before the next one
is written, that is, its consumer runs before the next transient op.
Without a workspace a transient is a fresh array. Cotangents are not pooled:
they are allocated by the vjps and freed by the sweep. No vjp refers to its
tape, so dropping the last reference to a tape frees it at once, without
waiting for the cyclic garbage collector.
"""
from __future__ import annotations

import math

import numpy as np

# Pairs per block of ``Tape.pair_aggregate``. On the 66k-pair clusters-eval
# batch (2 gates, 64 channels; 2 vCPUs, OpenBLAS with 2 threads) the op's
# forward took 56-58 ms and its vjp 135-142 ms at 256, 512 and 1024 pairs, and
# 67 and 154 ms at 2048 (medians of 15 interleaved runs).
PAIR_BLOCK = 1024


def add_rows(out: np.ndarray, index: np.ndarray, values: np.ndarray):
    """Add row i of ``values`` into row ``index[i]`` of ``out``, in input order.

    One ``np.add.at`` over flat (row, column) keys of C-contiguous ``out``;
    indices must lie in [0, len(out)).
    """
    width = math.prod(out.shape[1:])
    keys = (index[:, None] * width + np.arange(width)).ravel()
    np.add.at(out.reshape(-1), keys, values.reshape(-1))


def scatter_rows(index: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """Sum row i of ``values`` into row ``index[i]`` of a zero (rows, ...) array."""
    out = np.zeros((rows,) + values.shape[1:])
    add_rows(out, index, values)
    return out


class Node:
    """One tape entry: a value, its parent nodes and the vjp into them.

    ``vjp(grad)`` returns one cotangent per node of ``parents``, each owned
    by the parent that receives it (see the module docstring).
    """

    __slots__ = ("value", "grad", "parents", "vjp", "needs_grad")

    def __init__(self, value: np.ndarray, parents: tuple = (), vjp=None,
                 needs_grad: bool = False):
        self.value = value
        self.grad = None
        self.parents = parents
        self.vjp = vjp
        self.needs_grad = needs_grad


class Workspace:
    """Buffers for the forward values of successive tapes, handed out in call order.

    Every ``Tape`` built on the workspace rewinds it to slot 0, and each
    value the tape computes takes the next slot. Slot i keeps a flat buffer
    of the largest size it has been asked for and returns a view of its
    leading entries, so a forward that repeats the previous forward's calls
    writes over the previous forward's values rather than allocating. A
    slot that grows replaces its buffer; the old one is freed once no
    earlier forward's node still refers to it.

    ``transient`` hands out views of one more buffer, ``transient_buffer``,
    which grows like a slot; each request overwrites the previous one's value.
    """

    def __init__(self):
        self.slots: list[np.ndarray] = []
        self.used = 0
        self.transient_buffer = np.empty(0)

    def empty(self, shape: tuple) -> np.ndarray:
        """The next slot as an uninitialised float64 array of ``shape``."""
        size = math.prod(shape)
        if self.used == len(self.slots):
            self.slots.append(np.empty(size))
        elif self.slots[self.used].size < size:
            self.slots[self.used] = np.empty(size)
        view = self.slots[self.used][:size].reshape(shape)
        self.used += 1
        return view

    def transient(self, shape: tuple) -> np.ndarray:
        """The transient buffer as an uninitialised float64 array of ``shape``."""
        size = math.prod(shape)
        if self.transient_buffer.size < size:
            self.transient_buffer = np.empty(size)
        return self.transient_buffer[:size].reshape(shape)


class Tape:
    """Records nodes in execution order; replays them in reverse.

    With a ``workspace`` the forward values are written into its slots and
    its transient buffer, and they stay valid only until the next tape on
    that workspace computes its own; without one every value is a fresh
    array.
    """

    def __init__(self, workspace: Workspace = None):
        self.nodes: list[Node] = []
        if workspace is None:
            self._empty = self._transient = np.empty
        else:
            workspace.used = 0
            self._empty, self._transient = workspace.empty, workspace.transient

    def _record(self, value: np.ndarray, parents, vjp) -> Node:
        """A node of ``value``, kept on the tape only if a parent needs a gradient."""
        if not any(parent.needs_grad for parent in parents):
            return Node(value)
        node = Node(value, tuple(parents), vjp, needs_grad=True)
        self.nodes.append(node)
        return node

    def leaf(self, value: np.ndarray, grad: np.ndarray) -> Node:
        """A differentiable input (a parameter) whose gradient is added into ``grad``.

        ``grad`` becomes the leaf's ``.grad`` buffer. ``backward`` adds into it
        and never resets it, so it holds the sum over every sweep since the
        caller last zeroed it.
        """
        value = np.asarray(value, dtype=np.float64)
        node = Node(value, needs_grad=True)
        node.grad = grad
        return node

    def constant(self, value: np.ndarray) -> Node:
        """A non-differentiable input (geometry and basis values)."""
        return Node(np.asarray(value, dtype=np.float64))

    def backward(self, output: Node, upstream: np.ndarray):
        """Add d(output)/d(leaf) * upstream into every leaf's .grad buffer.

        Only interior cotangents start from nothing; each leaf contribution
        is added with ``+=`` into the buffer as it stands, in the fixed
        reversed tape order. An interior node's cotangent is freed as soon as
        its vjp has run, so only the cotangents still awaiting their node are
        alive at once.
        """
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != output.value.shape:
            raise ValueError(
                f"upstream gradient shape {upstream.shape} does not match "
                f"output shape {output.value.shape}"
            )
        for node in self.nodes:
            node.grad = None
        if output.parents:
            output.grad = upstream.copy()
        elif output.needs_grad:
            output.grad += upstream
        for node in reversed(self.nodes):
            if node.grad is None:
                continue
            for parent, contribution in zip(node.parents, node.vjp(node.grad)):
                if not parent.needs_grad:
                    continue
                if parent.grad is None:
                    parent.grad = contribution
                else:
                    parent.grad += contribution
            node.grad = None

    # --- operations ------------------------------------------------------

    def dense(self, x: Node, w: Node, b: Node = None, silu: bool = False,
              residual: Node = None, transient: bool = False) -> Node:
        """``x @ w``, plus ``b`` if given, then SiLU if ``silu``, then plus
        ``residual`` (of the output's shape) if given. With ``transient`` the
        value is a transient (see the module docstring).

        ``b`` is a bias row (one dimension), whose cotangent is the
        pre-activation's summed over rows, or an addend of the output's shape,
        whose cotangent is the pre-activation's itself.

        The value is built in one buffer, ``b``, SiLU and residual applied in
        place; the sigmoid lives only during the call. A recorded node keeps
        only what its vjp reads: with SiLU, the slope, computed in one more
        buffer with the ops of the derivative; a node no gradient flows
        through computes no slope. The vjp hands ``residual`` the cotangent
        (a copy, if SiLU or an addend follows), then turns it in place into
        the pre-activation's. Products keep the operand order of separate
        affine, SiLU and add ops, and an IEEE sum does not depend on its
        operand order, so values and gradients are bitwise theirs. A
        one-column ``w`` is a row-wise sum instead, as BLAS rounds a
        one-column product differently as the row count changes.
        """
        parents = tuple(node for node in (x, w, b, residual) if node is not None)
        addend = b is not None and b.value.ndim > 1
        recorded = any(parent.needs_grad for parent in parents)
        shape = (x.value.shape[0], w.value.shape[1])
        for name, node in (("addend", b if addend else None), ("residual", residual)):
            if node is not None and node.value.shape != shape:
                raise ValueError(f"{name} shape {node.value.shape} does not match "
                                 f"dense output shape {shape}")
        out = (self._transient if transient else self._empty)(shape)
        if shape[1] == 1:
            value = np.sum(x.value * w.value[:, 0], axis=1, keepdims=True, out=out)
        else:
            value = np.matmul(x.value, w.value, out=out)
        if b is not None:
            value += b.value
        slope = None
        if silu:
            # exp(-pre) overflows to inf below pre = -709: sigmoid's right limit 0.
            sig = np.negative(value)
            with np.errstate(over="ignore"):
                np.exp(sig, out=sig)
            sig += 1.0
            np.divide(1.0, sig, out=sig)
            if recorded:
                slope = np.subtract(1.0, sig, out=self._empty(shape))
                slope *= value
                slope += 1.0
                slope *= sig
            value *= sig
        if residual is not None:
            value += residual.value

        def vjp(g, xv=x.value, wv=w.value):
            d_residual = (g.copy() if silu or addend else g,) if residual is not None else ()
            if silu:
                g *= slope
            grads = (g @ wv.T if x.needs_grad else None, xv.T @ g if w.needs_grad else None)
            return grads + ((g if addend else g.sum(axis=0),) if b is not None else ()) + d_residual

        return self._record(value, parents, vjp)

    def blocked_matmul(self, rows, n_rows: int, bs: list[Node]) -> list[Node]:
        """``dense(A, b)`` for every b of ``bs``, with A built one block of rows at a time.

        A is a constant (n_rows, k) array that is never held whole:
        ``rows(start, stop)`` returns its rows start:stop. Each block of
        ``_pair_blocks(n_rows)`` is built once and multiplied by the
        column-stacked ``[b0 | b1 | ...]`` into its rows of one stacked node;
        node i of the result is the view of ``b_i``'s columns, whose vjp puts
        its cotangent into those columns of a zero array. The stacked node's
        vjp builds each block once more and multiplies its transpose by the
        block's rows of the stacked cotangent, so every weight's gradient is
        summed block by block from one product per block. On OpenBLAS a row
        block of the product was bitwise the whole product, and column views
        8 or 16 wide (the shipped bottleneck width is 8) bitwise the separate
        products; views 1 to 4 wide can round differently in the last bit.
        """
        if not bs:
            return []
        stacked = np.concatenate([b.value for b in bs], axis=1)
        blocks = _pair_blocks(n_rows)
        value = self._empty((n_rows, stacked.shape[1]))
        for start, stop in blocks:
            np.matmul(rows(start, stop), stacked, out=value[start:stop])
        ends = np.cumsum([b.value.shape[1] for b in bs])

        def vjp(g):
            d_stacked = np.zeros(stacked.shape)
            for start, stop in blocks:
                d_stacked += rows(start, stop).T @ g[start:stop]
            # Column blocks of one array: no two parents share an element.
            return np.split(d_stacked, ends[:-1], axis=1)

        product = self._record(value, bs, vjp)
        return [self._columns(product, end - b.value.shape[1], end)
                for b, end in zip(bs, ends)]

    def _columns(self, x: Node, start: int, stop: int) -> Node:
        """The view of columns start:stop of ``x``."""
        def vjp(g):
            full = np.zeros(x.value.shape)
            full[:, start:stop] = g
            return (full,)

        return self._record(x.value[:, start:stop], (x,), vjp)

    def mul(self, a: Node, b: Node, transient: bool = False) -> Node:
        """``a * b``; with ``transient`` the value is a transient."""
        if a.value.shape != b.value.shape:
            raise ValueError(f"mul needs equal shapes, got {a.value.shape} and {b.value.shape}")
        out = (self._transient if transient else self._empty)(a.value.shape)
        value = np.multiply(a.value, b.value, out=out)
        return self._record(value, (a, b), lambda g: (
            g * b.value if a.needs_grad else None, g * a.value if b.needs_grad else None))

    def gather_add(self, a: Node, a_index: np.ndarray, b: Node, b_index: np.ndarray) -> Node:
        """``a[a_index] + b[b_index]``, a transient; repeated indices accumulate
        gradient additively.

        The embedding block joins its sender and receiver rows with it. Indices
        must lie in [0, rows), as for ``scatter_rows``. The rows of ``a`` are
        taken with ``mode="clip"``, which writes straight into the output (the
        default mode would stage them in a temporary first), and those of
        ``b`` are added to them, so the value is bitwise the sum of the two
        gathers. Each parent's cotangent is the cotangent summed into its
        rows by ``scatter_rows``, which owns its result.
        """
        a_index = np.asarray(a_index, dtype=np.int64)
        b_index = np.asarray(b_index, dtype=np.int64)
        shape = a_index.shape + a.value.shape[1:]
        if b_index.shape + b.value.shape[1:] != shape:
            raise ValueError(f"gather_add needs equal shapes, got {shape} and "
                             f"{b_index.shape + b.value.shape[1:]}")
        value = np.take(a.value, a_index, axis=0, mode="clip", out=self._transient(shape))
        value += b.value[b_index]
        a_rows, b_rows = a.value.shape[0], b.value.shape[0]
        return self._record(value, (a, b), lambda g: (
            scatter_rows(a_index, g, a_rows) if a.needs_grad else None,
            scatter_rows(b_index, g, b_rows) if b.needs_grad else None))

    def segment_sum(self, x: Node, segment_ids: np.ndarray, num_segments: int) -> Node:
        """Sum rows of x into num_segments buckets (empty buckets stay zero)."""
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        value = scatter_rows(segment_ids, x.value, num_segments)
        return self._record(value, (x,), lambda g: (g[segment_ids],))

    def pair_aggregate(self, base: Node, gates: list[tuple[Node, Node, Node, Node]],
                       pair_edge: np.ndarray, pair_neighbor: np.ndarray,
                       n_edges: int) -> Node:
        """Gated neighbor messages summed per edge, without pair-wide temporaries.

        ``out[k] = sum over pairs p of edge k of
        base[j] + sum over gates of (a[p] @ up + b) * proj[j]``, with
        ``j = pair_neighbor[p]`` and one ``(a, up, b, proj)`` tuple per gate.
        ``base`` and ``proj`` have one row per edge, ``a`` one row per pair;
        the pairs may come in any order.

        The value and the vjp walk the same blocks of ``PAIR_BLOCK`` pairs,
        the vjp recomputing each block's gates from ``a``. Each pair's term is
        built as in the unfused gather/dense/mul/add/segment_sum composition
        and ``add_rows`` adds each block's rows in pair order, so the value and
        the gradients of ``base``, ``a`` and ``proj`` are bitwise that
        composition's; those of ``up`` and ``b`` are summed block by block.
        """
        pair_edge = np.asarray(pair_edge, dtype=np.int64)
        pair_neighbor = np.asarray(pair_neighbor, dtype=np.int64)
        blocks = _pair_blocks(pair_edge.size)
        value = self._empty((n_edges, base.value.shape[1]))
        value.fill(0.0)
        for p0, p1 in blocks:
            j = pair_neighbor[p0:p1]
            term = base.value[j]
            for a, up, b, proj in gates:
                gate = a.value[p0:p1] @ up.value
                gate += b.value
                gate *= proj.value[j]
                term += gate
            add_rows(value, pair_edge[p0:p1], term)

        def vjp(g):
            d_base = np.zeros(base.value.shape)
            d_gates = [(np.empty_like(a.value), np.zeros_like(up.value),
                        np.zeros_like(b.value), np.zeros(proj.value.shape))
                       for a, up, b, proj in gates]
            for p0, p1 in blocks:
                j = pair_neighbor[p0:p1]
                g_pair = g[pair_edge[p0:p1]]
                add_rows(d_base, j, g_pair)
                for (a, up, b, proj), (d_a, d_up, d_b, d_proj) in zip(gates, d_gates):
                    a_block = a.value[p0:p1]
                    gate = a_block @ up.value
                    gate += b.value
                    gate *= g_pair
                    add_rows(d_proj, j, gate)
                    d_gate = g_pair * proj.value[j]
                    d_a[p0:p1] = d_gate @ up.value.T
                    d_up += a_block.T @ d_gate
                    d_b += d_gate.sum(axis=0)
            return [d_base] + [d for ds in d_gates for d in ds]

        parents = [base] + [node for gate in gates for node in gate]
        return self._record(value, parents, vjp)


def _pair_blocks(n_pairs: int) -> list[tuple[int, int]]:
    """(start, end) of consecutive blocks of ``max(PAIR_BLOCK, 2)`` pairs.

    A one-pair tail joins the block before it: numpy multiplies a single row
    through gemv, which rounds differently from the gemm a longer block uses.
    """
    size = max(PAIR_BLOCK, 2)
    ends = [*range(size, n_pairs - 1, size), n_pairs]
    return list(zip([0] + ends[:-1], ends))
