import numpy as np
import pytest

import smpnet.autodiff as autodiff
from smpnet.autodiff import Tape, scatter_rows

from smpnet.network import featurize_graph, forward_features, init_params, merge_features

from conftest import per_block_matmul, random_graph, unfused_pair_aggregate


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


def run_program(program, values):
    tape = Tape()
    leaves = [tape.leaf(v) for v in values]
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


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
@pytest.mark.parametrize("silu", [True, False], ids=["silu", "linear"])
@pytest.mark.parametrize("shape", [(1, 3, 4), (7, 5, 2), (300, 64, 256)])
def test_dense_matches_affine_and_silu_formulas(shape, silu, bias):
    # The value and every gradient are bitwise those of the numpy expressions
    # of a separate affine and SiLU. Row 0 is scaled so that some
    # pre-activations lie below -700, where exp(-y) overflows to inf.
    rows, inner, width = shape
    rng = np.random.default_rng(11)
    x = rng.normal(size=(rows, inner))
    x[0] *= 1e4
    w = rng.normal(size=(inner, width))
    b = rng.normal(size=width)
    g = rng.normal(size=(rows, width))

    y = x @ w + b if bias else x @ w
    assert np.any(y < -700)
    d_y = g
    expected = y
    if silu:
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-y))
        expected = y * s
        d_y = g * (s * (1.0 + y * (1.0 - s)))

    tape = Tape()
    leaves = [tape.leaf(v) for v in ((x, w, b) if bias else (x, w))]
    out = tape.dense(*leaves, silu=silu)
    tape.backward(out, g)
    assert np.array_equal(out.value, expected)
    assert np.array_equal(leaves[0].grad, d_y @ w.T)
    assert np.array_equal(leaves[1].grad, x.T @ d_y)
    if bias:
        assert np.array_equal(leaves[2].grad, d_y.sum(0))


def test_mul_add_concat():
    rng = np.random.default_rng(1)
    values = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]

    def program(t, l):
        return t.concat([t.mul(l[0], l[1]), t.add(l[0], l[2])])

    check_program(program, values)


@pytest.mark.parametrize("widths", [(8,), (8, 8, 8)], ids=["one", "three"])
def test_stacked_matmul_matches_per_block_matmul(widths):
    # Both inputs differentiable: the product and every gradient must be
    # bitwise those of one matmul per weight. Widths are the shipped
    # bottleneck width; OpenBLAS rounds narrower ones differently.
    rng = np.random.default_rng(2)
    values = [rng.normal(size=(300, 40))] + [rng.normal(size=(40, w)) for w in widths]
    runs = []
    for op in (Tape.stacked_matmul, per_block_matmul):
        tape, leaves, out = run_program(lambda t, l: t.concat(op(t, l[0], l[1:])), values)
        tape.backward(out, np.cos(np.arange(out.value.size)).reshape(out.value.shape))
        runs.append((out.value, [leaf.grad for leaf in leaves]))
    (value, grads), (expected, expected_grads) = runs
    assert np.array_equal(value, expected)
    assert all(np.array_equal(g, e) for g, e in zip(grads, expected_grads))


def test_stacked_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    values = [rng.normal(size=(5, 4)), rng.normal(size=(4, 2)), rng.normal(size=(4, 3))]
    check_program(lambda t, l: t.concat(t.stacked_matmul(l[0], l[1:])), values)


def test_gather_accumulates_repeats():
    rng = np.random.default_rng(2)
    values = [rng.normal(size=(3, 2))]
    idx = np.array([0, 1, 1, 2, 1])

    def program(t, l):
        return t.gather(l[0], idx)

    tape, leaves, out = run_program(program, values)
    tape.backward(out, np.ones_like(out.value))
    expected = np.zeros((3, 2))
    np.add.at(expected, idx, np.ones((5, 2)))
    assert np.array_equal(leaves[0].grad, expected)


def test_segment_sum_and_empty_segments():
    tape = Tape()
    x = tape.leaf(np.arange(8.0).reshape(4, 2))
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


def test_gather_gradient_from_concat_slice_matches_add_at():
    # concat hands each part a non-contiguous column slice of its gradient.
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 3))
    idx = rng.integers(0, 6, size=50)
    tape = Tape()
    leaf = tape.leaf(x)
    other = tape.leaf(rng.normal(size=(50, 2)))
    out = tape.concat([tape.gather(leaf, idx), other])
    upstream = rng.normal(size=(50, 5)) * 10.0 ** rng.integers(-8, 9, size=(50, 5))
    tape.backward(out, upstream)
    assert np.array_equal(leaf.grad, add_at_reference(idx, upstream[:, :3], 6))


def test_constants_receive_no_gradient_work():
    tape = Tape()
    const = tape.constant(np.ones((2, 2)))
    leaf = tape.leaf(np.full((2, 2), 3.0))
    out = tape.mul(const, leaf)
    tape.backward(out, np.ones((2, 2)))
    assert const.grad is None
    assert np.array_equal(leaf.grad, np.ones((2, 2)))


def test_reused_node_accumulates_from_both_consumers():
    rng = np.random.default_rng(3)
    values = [rng.normal(size=(3, 3))]

    def program(t, l):
        shared = t.dense(l[0], t.constant(np.eye(3)), silu=True)
        return t.add(t.mul(shared, shared), shared)

    check_program(program, values)


def test_backward_shape_mismatch_rejected():
    tape = Tape()
    leaf = tape.leaf(np.ones((2, 2)))
    out = tape.dense(leaf, tape.constant(np.eye(2)), silu=True)
    with pytest.raises(ValueError, match="shape"):
        tape.backward(out, np.ones(3))


def test_backward_is_repeatable():
    # A second sweep adds the same gradient into the leaf's buffer; from a
    # zeroed buffer it gives the first sweep's gradient again, bit for bit.
    tape = Tape()
    leaf = tape.leaf(np.array([[1.0, 2.0]]))
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
    tape.backward(tape.add(leaf, leaf), np.ones((2, 2)))
    assert np.array_equal(buffer, np.full((2, 2), 2.5))
    tape.backward(leaf, np.ones((2, 2)))
    assert leaf.grad is buffer and np.array_equal(buffer, np.full((2, 2), 3.5))


def retained_backward(tape, output, upstream):
    """The reverse sweep that keeps every node's cotangent until it ends;
    leaf buffers are added into, as ``Tape.backward`` does."""
    for node in tape.nodes:
        if node.parents:
            node.grad = None
    output.grad = upstream.copy()
    for node in reversed(tape.nodes):
        if node.grad is None or not node.parents:
            continue
        for parent, vjp, fresh in node.parents:
            contribution = vjp(node.grad)
            if parent.grad is None:
                parent.grad = contribution if fresh else contribution.copy()
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
    upstream = rng.normal(size=3)
    swept, retained = (forward_features(merged, params.clone(), tiny_cfg) for _ in range(2))
    swept.context.tape.backward(swept.prediction, upstream)
    retained_backward(retained.context.tape, retained.prediction, upstream)
    interior = [node for node in swept.context.tape.nodes if node.parents]
    assert interior and all(node.grad is None for node in interior)
    for name, leaf in swept.context.leaves.items():
        assert np.array_equal(leaf.grad, retained.context.leaves[name].grad), name
    assert np.any(swept.params.flat_grads)


# --- fused pair aggregation ------------------------------------------------------

def pair_layout(rng, counts):
    """Sorted pair_edge with ``counts[k]`` pairs on edge k; random neighbors."""
    counts = np.asarray(counts, dtype=np.int64)
    pair_edge = np.repeat(np.arange(counts.size), counts)
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


def check_against_unfused(rng, counts, n_gates):
    """Value bitwise equal to the unfused composition; gradients to 1e-12."""
    pair_edge, pair_neighbor = pair_layout(rng, counts)
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
    for grad, expected in zip(grads, expected_grads):
        scale = np.max(np.abs(expected), initial=1.0)
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("layout", ["no pairs", "edges without pairs", "under one block",
                                    "several blocks"])
@pytest.mark.parametrize("n_gates", [0, 1, 2])
def test_pair_aggregate_matches_unfused_composition(layout, n_gates):
    rng = np.random.default_rng(17 + n_gates)
    counts = layout_counts(rng, layout)
    if layout == "several blocks":
        assert counts.sum() > 3 * autodiff.PAIR_BLOCK
    check_against_unfused(rng, counts, n_gates)


@pytest.mark.parametrize("block", [1, 4])
def test_pair_aggregate_small_blocks_match_unfused(monkeypatch, block):
    # Blocks of one or four pairs put a boundary at nearly every edge.
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


def test_pair_aggregate_rejects_unsorted_pair_edge():
    tape = Tape()
    base = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ValueError, match="sorted"):
        tape.pair_aggregate(base, [], np.array([0, 2, 1]), np.array([1, 0, 2]), 3)


def test_constant_inputs_record_no_nodes():
    tape = Tape()
    base = tape.constant(np.ones((2, 3)))
    gate = (tape.constant(np.ones((2, 1))), tape.constant(np.ones((1, 3))),
            tape.constant(np.zeros(3)), tape.constant(np.ones((2, 3))))
    out = tape.pair_aggregate(base, [gate], np.array([0, 1]), np.array([1, 0]), 2)
    tape.dense(tape.mul(out, out), tape.constant(np.eye(3)), silu=True)
    assert tape.nodes == []
    assert np.array_equal(out.value, np.full((2, 3), 2.0))
