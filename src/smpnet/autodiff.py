"""Minimal reverse-mode tape over numpy arrays.

Operations append their result node to a tape in execution order, which is a
valid topological order, so the backward sweep is a single reversed pass.
Gradient accumulation follows that fixed order, making backward runs
bit-reproducible regardless of how callers schedule independent tapes.

Nodes whose ancestors contain no differentiable leaf (geometry and basis
constants) carry no vector-Jacobian hooks at all, so the backward sweep
never spends work on them.
"""
from __future__ import annotations

import math

import numpy as np


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
        self.nodes.append(node)
        return node

    def leaf(self, value: np.ndarray) -> Node:
        """A differentiable input (parameters); gradients settle here."""
        node = Node(np.asarray(value, dtype=np.float64), needs_grad=True)
        self.nodes.append(node)
        return node

    def constant(self, value: np.ndarray) -> Node:
        """A non-differentiable input (geometry and basis values)."""
        return Node(np.asarray(value, dtype=np.float64))

    def backward(self, output: Node, upstream: np.ndarray):
        """Accumulate d(output)/d(leaf) * upstream into every node's .grad."""
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != output.value.shape:
            raise ValueError(
                f"upstream gradient shape {upstream.shape} does not match "
                f"output shape {output.value.shape}"
            )
        for node in self.nodes:
            node.grad = None
        output.grad = upstream.copy()
        for node in reversed(self.nodes):
            if node.grad is None:
                continue
            for parent, vjp, fresh in node.parents:
                contribution = vjp(node.grad)
                if parent.grad is None:
                    parent.grad = contribution if fresh else contribution.copy()
                else:
                    parent.grad += contribution

    # --- operations ------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        return self._record(a.value @ b.value, (
            (a, lambda g, bv=b.value: g @ bv.T, True),
            (b, lambda g, av=a.value: av.T @ g, True),
        ))

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        """x @ w + bias row in one node."""
        return self._record(x.value @ w.value + b.value, (
            (x, lambda g, wv=w.value: g @ wv.T, True),
            (w, lambda g, xv=x.value: xv.T @ g, True),
            (b, lambda g: g.sum(axis=0), True),
        ))

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

    def silu(self, x: Node) -> Node:
        # exp overflow for very negative inputs lands on the correct
        # saturated limit (sigmoid -> 0), so the warning is suppressed.
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x.value))
        value = x.value * sig

        def vjp(g, s=sig, xv=x.value):
            return g * (s * (1.0 + xv * (1.0 - s)))

        return self._record(value, ((x, vjp, True),))

    def reshape(self, x: Node, shape: tuple) -> Node:
        return self._record(
            x.value.reshape(shape),
            ((x, lambda g, s=x.value.shape: g.reshape(s), False),),
        )
