import gc
import weakref

import numpy as np
import pytest

import smpnet.autodiff as autodiff
from smpnet.autodiff import Tape, Workspace, add_rows, scatter_rows

from smpnet.network import (backward, begin_forward, embedding_block, featurize_graph,
                            forward_features, init_params, merge_features)

from conftest import add, gather, per_block_matmul, random_graph, unfused_pair_aggregate


def numeric_grad(build, values, h=1e-6):
    """Central finite differences through an arbitrary tape program."""
    grads = []
    for target_index in range(len(values)):
        grad = np.zeros_like(values[target_index])
        it = np.nditer(values[target_index], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = values[target_index][idx]
            values[target_index][idx] = orig + h
            plus = build(values)
            values[target_index][idx] = orig - h
            minus = build(values)
            values[target_index][idx] = orig
            grad[idx] = (plus - minus) / (2 * h)
        grads.append(grad)
    return grads


def new_leaf(tape, value):
    """A leaf whose gradient buffer is its own array of zeros."""
    return tape.leaf(value, np.zeros_like(value))


def run_program(program, values):
    tape = Tape()
    leaves = [new_leaf(tape, v) for v in values]
    out = program(tape, leaves)
    return tape, leaves, out


def check_program(program, values):
    def scalar(vals):
        _, _, out = run_program(program, vals)
        return float(out.value.sum())

    tape, leaves, out = run_program(program, values)
    tape.backward(out, np.ones_like(out.value))
    numeric = numeric_grad(program_scalar_wrapper := scalar, values)
    for leaf, expected in zip(leaves, numeric):
        assert np.allclose(leaf.grad, expected, atol=1e-6), (leaf.grad, expected)


def test_affine_silu_chain():
    rng = np.random.default_rng(0)
    values = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)]
    check_program(lambda t, l: t.dense(l[0], l[1], l[2], silu=True), values)


@pytest.mark.parametrize("bias, residual", [("row", False), (None, False), ("row", True),
                                            (None, True), ("addend", False),
                                            ("addend", True)],
                         ids=["bias", "no_bias", "bias-residual", "no_bias-residual",
                              "addend", "addend-residual"])
@pytest.mark.parametrize("silu", [True, False], ids=["silu", "linear"])
@pytest.mark.parametrize("shape", [(1, 3, 4), (7, 5, 2), (300, 64, 256)])
def test_dense_matches_affine_and_silu_formulas(shape, silu, bias, residual):
    # The value and every gradient are bitwise those of the numpy expressions
    # of a separate affine, SiLU and residual add; the residual's gradient is
    # the cotangent itself, a bias row's the pre-activation's cotangent summed
    # over rows and an addend's that cotangent itself. Row 0 is scaled so that
    # some pre-activations lie below -700, where exp(-y) overflows to inf.
    rows, inner, width = shape
    rng = np.random.default_rng(11)
    x = rng.normal(size=(rows, inner))
    x[0] *= 1e4
    w = rng.normal(size=(inner, width))
    b = rng.normal(size=width if bias == "row" else (rows, width))
    g = rng.normal(size=(rows, width))
    r = rng.normal(size=(rows, width))

    y = x @ w + b if bias else x @ w
    assert np.any(y < -700)
    d_y = g
    expected = y
    if silu:
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-y))
        expected = y * s
        d_y = g * (s * (1.0 + y * (1.0 - s)))
    if residual:
        expected = expected + r

    tape = Tape()
    leaves = [new_leaf(tape, v) for v in ((x, w, b) if bias else (x, w))]
    r_leaf = new_leaf(tape, r) if residual else None
    out = tape.dense(*leaves, silu=silu, residual=r_leaf)
    tape.backward(out, g)
    assert np.array_equal(out.value, expected)
    assert np.array_equal(leaves[0].grad, d_y @ w.T)
    assert np.array_equal(leaves[1].grad, x.T @ d_y)
    if bias:
        assert np.array_equal(leaves[2].grad, d_y.sum(0) if bias == "row" else d_y)
    if residual:
        assert np.array_equal(r_leaf.grad, g)


def join(tape, nodes):
    """One (rows, 5) node that every column of every node feeds: the sum of
    ``nodes[i] @ c_i`` over fixed constant matrices, each product the
    addend of the next dense layer."""
    out = None
    for i, node in enumerate(nodes):
        mix = np.cos(np.arange(5 * node.value.shape[1]) + i).reshape(-1, 5)
        out = tape.dense(node, tape.constant(mix), out)
    return out


def test_mul_add():
    rng = np.random.default_rng(1)
    values = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
    rows = np.arange(3)

    def program(t, l):
        return join(t, [t.mul(l[0], l[1]), t.gather_add(l[0], rows, l[2], rows)])

    check_program(program, values)


def counted_rows(a):
    """``rows(start, stop)`` of the column-major ``a``, and the list of the
    blocks it was asked for."""
    calls = []

    def rows(start, stop):
        calls.append((start, stop))
        return np.asfortranarray(a[start:stop])

    return rows, calls


@pytest.mark.parametrize("widths", [(8,), (8, 8, 8)], ids=["one", "three"])
def test_stacked_matmul_matches_per_block_matmul(widths):
    # Three blocks of rows. The product is bitwise that of the materialized
    # rows and one matmul per weight, at the shipped bottleneck width (8;
    # OpenBLAS rounds narrower ones differently). Weight gradients are summed
    # block by block, so they match the oracle's to rounding; each pass
    # builds each block of rows once, for all the weights.
    rng = np.random.default_rng(2)
    n_rows = 2 * autodiff.PAIR_BLOCK + 300
    a = rng.normal(size=(n_rows, 40))
    values = [rng.normal(size=(40, w)) for w in widths]
    runs = []
    for op in (Tape.blocked_matmul, per_block_matmul):
        rows, calls = counted_rows(a)
        views = []

        def program(t, l):
            views[:] = op(t, rows, n_rows, l)
            return join(t, views)

        tape, leaves, out = run_program(program, values)
        forward_calls = list(calls)
        tape.backward(out, np.cos(np.arange(out.value.size)).reshape(out.value.shape))
        runs.append((np.hstack([view.value for view in views]),
                     [leaf.grad for leaf in leaves], forward_calls, calls))
    (value, grads, forward_calls, calls), (expected, expected_grads, _, _) = runs
    assert np.array_equal(value, expected)
    for grad, expected_grad in zip(grads, expected_grads):
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-12, atol=1e-12)
    assert forward_calls == autodiff._pair_blocks(n_rows)
    assert calls == 2 * forward_calls


def test_stacked_matmul_gradients_match_finite_differences(monkeypatch):
    # Blocks of two rows: five rows are blocks (0, 2) and (2, 5).
    monkeypatch.setattr(autodiff, "PAIR_BLOCK", 2)
    rng = np.random.default_rng(3)
    for n_rows in (0, 1, 5):
        rows, _ = counted_rows(rng.normal(size=(n_rows, 4)))
        values = [rng.normal(size=(4, 2)), rng.normal(size=(4, 3))]
        check_program(lambda t, l: join(t, t.blocked_matmul(rows, n_rows, l)), values)


def test_blocked_matmul_views_take_their_columns_of_one_node():
    # One stacked node holds the product; each weight's node is a view of
    # its columns, and the views' cotangents reach the stacked node's vjp.
    rng = np.random.default_rng(4)
    rows, _ = counted_rows(rng.normal(size=(6, 4)))
    tape = Tape()
    leaves = [new_leaf(tape, rng.normal(size=(4, w))) for w in (2, 3)]
    views = tape.blocked_matmul(rows, 6, leaves)
    stacked = tape.nodes[0]
    assert tape.nodes == [stacked] + views
    assert all(view.parents == (stacked,) for view in views)
    assert np.shares_memory(views[0].value, stacked.value)
    assert np.array_equal(np.hstack([view.value for view in views]), stacked.value)
    assert Tape().blocked_matmul(rows, 6, []) == []


def test_gather_accumulates_repeats():
    rng = np.random.default_rng(2)
    values = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2))]
    idx = np.array([0, 1, 1, 2, 1])
    other = np.array([3, 3, 0, 3, 1])

    def program(t, l):
        return t.gather_add(l[0], idx, l[1], other)

    tape, leaves, out = run_program(program, values)
    tape.backward(out, np.ones_like(out.value))
    for leaf, index in zip(leaves, (idx, other)):
        expected = np.zeros(leaf.value.shape)
        np.add.at(expected, index, np.ones((5, 2)))
        assert np.array_equal(leaf.grad, expected)


@pytest.mark.parametrize("rows", [(6, 6), (6, 2), (1, 9)])
def test_gather_add_matches_gather_gather_add(rows):
    # The fused op's value and both gradients are bitwise those of two
    # gathers and an add, with repeated and unused rows on either side;
    # values spanning many magnitudes make any other summation order visible.
    rng = np.random.default_rng(8)
    values = [rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 9, size=(n, 3))
              for n in rows]
    index = [rng.integers(0, n, size=40) for n in rows]
    upstream = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-8, 9, size=(40, 3))
    runs = []
    for program in (lambda t, l: t.gather_add(l[0], index[0], l[1], index[1]),
                    lambda t, l: add(t, gather(t, l[0], index[0]), gather(t, l[1], index[1]))):
        tape, leaves, out = run_program(program, values)
        tape.backward(out, upstream.copy())
        runs.append((out.value, [leaf.grad for leaf in leaves]))
    (value, grads), (expected, expected_grads) = runs
    assert np.array_equal(value, expected)
    for grad, expected_grad in zip(grads, expected_grads):
        assert np.array_equal(grad, expected_grad)


def test_gather_add_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    values = [rng.normal(size=(4, 3)), rng.normal(size=(2, 3))]
    a_index, b_index = np.array([0, 3, 3, 1, 0]), np.array([1, 1, 0, 1, 1])
    check_program(lambda t, l: t.gather_add(l[0], a_index, l[1], b_index), values)


def test_gather_add_shape_mismatch_rejected():
    tape = Tape()
    a, b = new_leaf(tape, np.ones((4, 3))), new_leaf(tape, np.ones((2, 2)))
    with pytest.raises(ValueError, match="equal shapes"):
        tape.gather_add(a, np.arange(4), a, np.arange(3))
    with pytest.raises(ValueError, match="equal shapes"):
        tape.gather_add(a, np.arange(2), b, np.arange(2))


def test_segment_sum_and_empty_segments():
    tape = Tape()
    x = new_leaf(tape, np.arange(8.0).reshape(4, 2))
    out = tape.segment_sum(x, np.array([0, 0, 3, 3]), 5)
    assert np.array_equal(out.value[1], [0.0, 0.0])
    assert np.array_equal(out.value[0], [2.0, 4.0])
    tape.backward(out, np.ones_like(out.value))
    assert np.array_equal(x.grad, np.ones((4, 2)))


def add_at_reference(index, values, rows):
    out = np.zeros((rows,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


@pytest.mark.parametrize("shape", [(40, 3), (40,), (40, 2, 3), (0, 4)],
                         ids=["rows", "1-D", "3-D", "empty"])
def test_scatter_rows_matches_add_at_bitwise(shape):
    # Values spanning many magnitudes make every summation order visible.
    rng = np.random.default_rng(4)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    index = rng.integers(0, 5, size=shape[0])
    result = scatter_rows(index, values, 7)
    assert result.shape == (7,) + shape[1:]
    assert np.array_equal(result, add_at_reference(index, values, 7))


@pytest.mark.parametrize("shape", [(40,), (40, 2, 3), (0, 4)], ids=["1-D", "3-D", "empty"])
def test_add_rows_accumulates_onto_contents_in_input_order(shape):
    # The reference adds one row at a time, in input order, onto the
    # existing contents; values spanning many magnitudes make any other
    # order visible.
    rng = np.random.default_rng(5)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    index = rng.integers(0, 5, size=shape[0])
    out = rng.normal(size=(7,) + shape[1:]) * 1e-3
    expected = out.copy()
    for row, value in zip(index, values):
        expected[row] += value
    add_rows(out, index, values)
    assert np.array_equal(out, expected)


def test_gather_gradient_through_dense_addend_matches_add_at():
    # A linear dense layer hands its addend the cotangent itself, as the
    # embedding block's gathered element rows receive theirs.
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 3))
    idx = rng.integers(0, 6, size=50)
    tape = Tape()
    leaf = new_leaf(tape, x)
    other = new_leaf(tape, rng.normal(size=(50, 2)))
    rows = new_leaf(tape, rng.normal(size=(4, 3)))
    row_idx = rng.integers(0, 4, size=50)
    out = tape.dense(other, tape.constant(rng.normal(size=(2, 3))),
                     tape.gather_add(leaf, idx, rows, row_idx))
    upstream = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-8, 9, size=(50, 3))
    tape.backward(out, upstream)
    assert np.array_equal(leaf.grad, add_at_reference(idx, upstream, 6))
    assert np.array_equal(rows.grad, add_at_reference(row_idx, upstream, 4))


def test_constants_receive_no_gradient_work():
    tape = Tape()
    const = tape.constant(np.ones((2, 2)))
    leaf = new_leaf(tape, np.full((2, 2), 3.0))
    out = tape.mul(const, leaf)
    tape.backward(out, np.ones((2, 2)))
    assert const.grad is None
    assert np.array_equal(leaf.grad, np.ones((2, 2)))


def test_reused_node_accumulates_from_both_consumers():
    rng = np.random.default_rng(3)
    values = [rng.normal(size=(3, 3))]

    def program(t, l):
        shared = t.dense(l[0], t.constant(np.eye(3)), silu=True)
        rows = np.arange(3)
        return t.gather_add(t.mul(shared, shared), rows, shared, rows)

    check_program(program, values)


def test_dense_residual_shape_mismatch_rejected():
    tape = Tape()
    x = new_leaf(tape, np.ones((3, 2)))
    with pytest.raises(ValueError, match="residual shape"):
        tape.dense(x, tape.constant(np.ones((2, 4))), residual=new_leaf(tape, np.ones(4)))
    # A 2-D b is an addend, which must have the output's shape too.
    with pytest.raises(ValueError, match="addend shape"):
        tape.dense(x, tape.constant(np.ones((2, 4))), new_leaf(tape, np.ones((1, 4))))


def test_backward_shape_mismatch_rejected():
    tape = Tape()
    leaf = new_leaf(tape, np.ones((2, 2)))
    out = tape.dense(leaf, tape.constant(np.eye(2)), silu=True)
    with pytest.raises(ValueError, match="shape"):
        tape.backward(out, np.ones(3))


def test_backward_is_repeatable():
    # A second sweep adds the same gradient into the leaf's buffer; from a
    # zeroed buffer it gives the first sweep's gradient again, bit for bit.
    tape = Tape()
    leaf = new_leaf(tape, np.array([[1.0, 2.0]]))
    out = tape.dense(leaf, tape.constant(np.eye(2)), silu=True)
    tape.backward(out, np.ones((1, 2)))
    first = leaf.grad.copy()
    tape.backward(out, np.ones((1, 2)))
    assert np.array_equal(leaf.grad, 2.0 * first)
    leaf.grad[...] = 0.0
    tape.backward(out, np.ones((1, 2)))
    assert np.array_equal(leaf.grad, first)


def test_leaf_adds_into_given_buffer():
    buffer = np.full((2, 2), 0.5)
    tape = Tape()
    leaf = tape.leaf(np.ones((2, 2)), buffer)
    assert leaf.grad is buffer
    tape.backward(tape.gather_add(leaf, np.arange(2), leaf, np.arange(2)), np.ones((2, 2)))
    assert np.array_equal(buffer, np.full((2, 2), 2.5))
    tape.backward(leaf, np.ones((2, 2)))
    assert leaf.grad is buffer and np.array_equal(buffer, np.full((2, 2), 3.5))
    # A dense layer whose input is also its residual: leaf @ I + leaf.
    tape.backward(tape.dense(leaf, tape.constant(np.eye(2)), residual=leaf), np.ones((2, 2)))
    assert leaf.grad is buffer and np.array_equal(buffer, np.full((2, 2), 5.5))


def retained_backward(tape, output, upstream):
    """The reverse sweep that keeps every node's cotangent until it ends and
    copies each first contribution, so it relies on no vjp handing its parent
    an array of its own; leaf buffers are added into, as ``Tape.backward``
    does."""
    for node in tape.nodes:
        node.grad = None
    output.grad = upstream.copy()
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        for parent, contribution in zip(node.parents, node.vjp(node.grad.copy())):
            if not parent.needs_grad:
                continue
            if parent.grad is None:
                parent.grad = contribution.copy()
            else:
                parent.grad += contribution


def test_backward_frees_interior_cotangents(tiny_cfg):
    # A whole network forward (gathers, stacked products, the fused pair op,
    # reused nodes): after the sweep only leaves hold a cotangent, and theirs
    # are bitwise those of the sweep that keeps every cotangent. Each forward
    # gets its own params, so each sweep adds into its own buffers.
    params = init_params(tiny_cfg, seed=61)
    rng = np.random.default_rng(67)
    merged = merge_features([featurize_graph(random_graph(rng, n_atoms=n), tiny_cfg)
                             for n in (4, 5, 6)])
    upstream = rng.normal(size=(3, 1))
    swept, retained = (forward_features(merged, params.clone(), tiny_cfg) for _ in range(2))
    swept.tape.backward(swept.prediction, upstream)
    retained_backward(retained.tape, retained.prediction, upstream)
    assert swept.tape.nodes and all(node.grad is None for node in swept.tape.nodes)
    for name, leaf in swept.leaves.items():
        assert np.array_equal(leaf.grad, retained.leaves[name].grad), name
    assert np.any(swept.params.flat_grads)


def check_vjp_ownership(tape, rng):
    """Every recorded vjp returns one entry per parent, and each array it
    hands a parent that needs a gradient has that parent's shape and shares
    memory with no other returned array and with no node's value."""
    values = [node.value for node in tape.nodes]
    for node in tape.nodes:
        grads = node.vjp(rng.normal(size=node.value.shape))
        assert len(grads) == len(node.parents)
        owned = [(parent, grad) for parent, grad in zip(node.parents, grads)
                 if parent.needs_grad]
        for i, (parent, grad) in enumerate(owned):
            assert grad.shape == parent.value.shape
            assert not any(np.shares_memory(grad, other) for _, other in owned[i + 1:])
            assert not any(np.shares_memory(grad, value) for value in values)


def test_vjps_hand_each_parent_its_own_array(tiny_cfg):
    rng = np.random.default_rng(73)
    tape = Tape()
    x = new_leaf(tape, rng.normal(size=(4, 3)))
    y = new_leaf(tape, rng.normal(size=(4, 2)))
    w = new_leaf(tape, rng.normal(size=(3, 3)))
    v = new_leaf(tape, rng.normal(size=(2, 3)))
    doubled = tape.gather_add(x, np.arange(4), x, np.arange(4))
    # A dense layer whose input is also its residual is the analogue of add(x, x).
    tape.dense(x, w, silu=True, residual=x)
    tape.dense(x, w, residual=x)
    # Addends: a constant, one that other ops also read, and one that is also
    # the layer's residual.
    tape.dense(x, w, tape.constant(np.ones((4, 3))))
    tape.dense(y, v, doubled, silu=True)
    tape.dense(y, v, doubled, residual=doubled)
    tape.mul(doubled, doubled)
    assert len(tape.nodes) == 7
    check_vjp_ownership(tape, rng)

    merged = merge_features([featurize_graph(random_graph(rng, n_atoms=n), tiny_cfg)
                             for n in (4, 5, 6)])
    cache = forward_features(merged, init_params(tiny_cfg, seed=79), tiny_cfg)
    check_vjp_ownership(cache.tape, rng)


# --- fused pair aggregation ------------------------------------------------------

def pair_layout(rng, counts, shuffle=False):
    """``counts[k]`` pairs on edge k, in edge order or shuffled; random neighbors."""
    counts = np.asarray(counts, dtype=np.int64)
    pair_edge = np.repeat(np.arange(counts.size), counts)
    if shuffle:
        pair_edge = rng.permutation(pair_edge)
    pair_neighbor = rng.integers(0, counts.size, size=pair_edge.size)
    return pair_edge, pair_neighbor


def pair_values(rng, n_edges, n_pairs, n_gates, width=5, rank=3):
    values = [rng.normal(size=(n_edges, width))]
    for _ in range(n_gates):
        values += [rng.normal(size=(n_pairs, rank)), rng.normal(size=(rank, width)),
                   rng.normal(size=width), rng.normal(size=(n_edges, width))]
    return values


def pair_program(op, pair_edge, pair_neighbor, n_edges):
    def program(tape, leaves):
        gates = [tuple(leaves[i:i + 4]) for i in range(1, len(leaves), 4)]
        return op(tape, leaves[0], gates, pair_edge, pair_neighbor, n_edges)
    return program


def fused(tape, base, gates, pair_edge, pair_neighbor, n_edges):
    return tape.pair_aggregate(base, gates, pair_edge, pair_neighbor, n_edges)


def layout_counts(rng, layout):
    block = autodiff.PAIR_BLOCK
    if layout == "no pairs":
        return np.zeros(7, dtype=np.int64)
    if layout == "edges without pairs":
        return rng.integers(0, 3, size=12) * rng.integers(0, 2, size=12)
    if layout == "under one block":
        return rng.integers(1, 9, size=block // 16)
    # Several blocks, each edge shared by a few, one edge longer than a block
    # and empty edges at both ends and right after the long edge.
    counts = rng.integers(0, 30, size=(7 * block) // 15)
    counts[[0, -1, 41]] = 0
    counts[40] = block + 3
    return counts


def check_against_unfused(rng, counts, n_gates, shuffle=False):
    """The value and the gradients of base, a and proj are bitwise those of
    the unfused composition. So are those of up and b when the pairs fit in
    one block; over several blocks they are summed block by block, so they
    agree to 1e-12."""
    pair_edge, pair_neighbor = pair_layout(rng, counts, shuffle)
    values = pair_values(rng, len(counts), pair_edge.size, n_gates)
    upstream = rng.normal(size=values[0].shape)
    runs = []
    for op in (fused, unfused_pair_aggregate):
        tape, leaves, out = run_program(
            pair_program(op, pair_edge, pair_neighbor, len(counts)), values)
        tape.backward(out, upstream)
        runs.append((out.value, [leaf.grad for leaf in leaves]))
    (value, grads), (expected_value, expected_grads) = runs
    assert np.array_equal(value, expected_value)
    one_block = pair_edge.size <= autodiff.PAIR_BLOCK
    # Leaves are base, then (a, up, b, proj) per gate.
    for i, (grad, expected) in enumerate(zip(grads, expected_grads)):
        if one_block or i % 4 in (0, 1):
            assert np.array_equal(grad, expected), i
        else:
            scale = np.max(np.abs(expected), initial=1.0)
            np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-12 * scale)


LAYOUTS = ["no pairs", "edges without pairs", "under one block", "several blocks"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n_gates", [0, 1, 2])
def test_pair_aggregate_matches_unfused_composition(layout, n_gates):
    rng = np.random.default_rng(17 + n_gates)
    counts = layout_counts(rng, layout)
    if layout == "several blocks":
        assert counts.sum() > 3 * autodiff.PAIR_BLOCK
    check_against_unfused(rng, counts, n_gates)


@pytest.mark.parametrize("layout", LAYOUTS[1:])
def test_pair_aggregate_shuffled_pairs_match_unfused(layout):
    # pair_edge need not be sorted: each edge still adds its pairs in pair order.
    rng = np.random.default_rng(19)
    check_against_unfused(rng, layout_counts(rng, layout), 2, shuffle=True)


@pytest.mark.parametrize("block", [1, 4, 7])
def test_pair_aggregate_small_blocks_match_unfused(monkeypatch, block):
    # Blocks of one or four pairs put a boundary at nearly every edge. The
    # 120 pairs leave a one-pair tail after blocks of 7, which must join the
    # block before it.
    monkeypatch.setattr(autodiff, "PAIR_BLOCK", block)
    rng = np.random.default_rng(23)
    check_against_unfused(rng, rng.integers(0, 9, size=40), 2)


@pytest.mark.parametrize("n_gates", [0, 1, 2])
def test_pair_aggregate_gradients_match_finite_differences(monkeypatch, n_gates):
    monkeypatch.setattr(autodiff, "PAIR_BLOCK", 3)
    rng = np.random.default_rng(29)
    pair_edge, pair_neighbor = pair_layout(rng, [2, 0, 3, 1, 2])
    values = pair_values(rng, 5, pair_edge.size, n_gates, width=3, rank=2)
    check_program(pair_program(fused, pair_edge, pair_neighbor, 5), values)


def test_constant_inputs_record_no_nodes():
    tape = Tape()
    base = tape.constant(np.ones((2, 3)))
    gate = (tape.constant(np.ones((2, 1))), tape.constant(np.ones((1, 3))),
            tape.constant(np.zeros(3)), tape.constant(np.ones((2, 3))))
    out = tape.pair_aggregate(base, [gate], np.array([0, 1]), np.array([1, 0]), 2)
    tape.dense(tape.mul(out, out), tape.constant(np.eye(3)), silu=True)
    assert tape.nodes == []
    assert np.array_equal(out.value, np.full((2, 3), 2.0))


def small_batch(cfg, seed):
    rng = np.random.default_rng(seed)
    return merge_features([featurize_graph(random_graph(rng, n_atoms=n), cfg)
                           for n in (4, 6)])


def test_workspace_reuses_forward_values(tiny_cfg):
    # Consecutive taped forwards on one workspace write their dense values
    # into the same memory; a forward without gradients leaves it untouched.
    params = init_params(tiny_cfg, seed=101)
    features = small_batch(tiny_cfg, 103)
    workspace = Workspace()
    first = embedding_block(begin_forward(features, params, tiny_cfg, workspace=workspace))
    second = embedding_block(begin_forward(features, params, tiny_cfg, workspace=workspace))
    assert np.shares_memory(first.value, second.value)
    slots, used, kept = list(workspace.slots), workspace.used, second.value.copy()
    forward_features(features, params, tiny_cfg, grad=False, workspace=workspace)
    assert workspace.used == used
    assert len(workspace.slots) == len(slots)
    assert all(now is before for now, before in zip(workspace.slots, slots))
    assert np.array_equal(second.value, kept)


def test_workspace_slot_grows_to_the_largest_request():
    # Each tape rewinds the workspace, so its first value takes slot 0 again.
    workspace = Workspace()
    small = workspace.empty((2, 3))
    Tape(workspace)
    large = workspace.empty((4, 5))
    assert workspace.slots[0].size == 20 and not np.shares_memory(small, large)
    Tape(workspace)
    again = workspace.empty((3, 2))
    assert again.shape == (3, 2) and np.shares_memory(again, large)


def test_workspace_transient_grows_to_the_largest_request():
    # Every request views the leading entries of one buffer, which grows like
    # a slot and takes no slot.
    workspace = Workspace()
    small = workspace.transient((2, 3))
    large = workspace.transient((4, 5))
    assert workspace.transient_buffer.size == 20 and not np.shares_memory(small, large)
    again = workspace.transient((3, 2))
    assert again.shape == (3, 2) and np.shares_memory(again, large)
    assert workspace.slots == []


def test_dropped_tape_is_freed_without_the_cycle_collector(tiny_cfg):
    # No vjp may refer to its tape: a tape -> node -> vjp -> tape cycle would
    # keep every step's tape (and its values) alive until the cyclic garbage
    # collector happens to run.
    params = init_params(tiny_cfg, seed=107)
    features = small_batch(tiny_cfg, 109)
    workspace = Workspace()
    gc.disable()
    try:
        cache = forward_features(features, params, tiny_cfg, workspace=workspace)
        backward(cache, 1.0, accumulate=False)
        tape = weakref.ref(cache.tape)
        del cache
        assert tape() is None
    finally:
        gc.enable()
