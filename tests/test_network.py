import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smpnet.network as network
from smpnet.geometry import random_rotation, rigid_transform
from smpnet.ingest import FULL, NO_ANGLE_TORSION, NO_TORSION, Graph3D, IngestError, RunConfig
from smpnet.basis import tables_for
from smpnet.network import (FORMAT_MAGIC, ModelIOError, NetworkError, backward,
                            begin_forward, embedding_block, export_filters,
                            featurize_graph, forward, forward_features,
                            init_params, interaction_block, load_model,
                            merge_features, output_block, pair_basis_rows, save_model)

from smpnet.autodiff import Tape
from smpnet.train import ablation_config, predict, split_dataset, synthetic_torsion_task

from conftest import (per_block_matmul, random_graph, unfused_dense,
                      unfused_pair_aggregate)


def copied(grads):
    """``backward`` returns views into ``flat_grads``, which the next call
    overwrites; a result that must outlive it is copied."""
    return {name: grad.copy() for name, grad in grads.items()}


def pair_basis(feats, kind, cfg):
    """Every row of a pair basis, rebuilt from the factors in ``feats``."""
    return pair_basis_rows(feats, kind, tables_for(cfg))(0, feats.n_pairs)


def two_atom_graph():
    return Graph3D(np.array([1, 2]), np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), id="pair")


# --- parameters -----------------------------------------------------------------

def test_init_params_deterministic(tiny_cfg):
    a = init_params(tiny_cfg, seed=123)
    b = init_params(tiny_cfg, seed=123)
    assert all(np.array_equal(a.values[k], b.values[k]) for k in a.names())


def test_init_params_seed_sensitivity(tiny_cfg):
    a = init_params(tiny_cfg, seed=1)
    b = init_params(tiny_cfg, seed=2)
    assert any(not np.array_equal(a.values[k], b.values[k]) for k in a.names())


def test_negative_and_large_seeds_key_their_own_streams(tiny_cfg):
    # A Philox key given as a list holding an int at or above 2^63 is read as
    # float64: -1 and -2 then round to 2^64 and wrap to seed 0's key.
    seeds = (-1, -2, 0, 2**63 + 1, 2**63 + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drawn = [init_params(tiny_cfg, seed).flat_values for seed in seeds]
        splits = [split_dataset(100, 0.1, seed)[1] for seed in seeds]
    for i in range(len(seeds)):
        for j in range(i):
            assert not np.array_equal(drawn[i], drawn[j]), (seeds[i], seeds[j])
            assert not np.array_equal(splits[i], splits[j]), (seeds[i], seeds[j])
    # Seeds below 2^63 keep the key they always had.
    for seed in (0, 3, 12345, 2**63 - 1):
        old = np.random.Philox(key=[seed, (101 << 32) + 7]).random_raw(4)
        assert np.array_equal(network.philox_generator(seed, 101, 7).bit_generator.random_raw(4),
                              old)



@pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3), np.int32(-1), np.uint64(2**63 + 1)],
                         ids=repr)
def test_numpy_integer_seeds_draw_the_int_streams(tiny_cfg, seed):
    assert np.array_equal(init_params(tiny_cfg, seed).flat_values,
                          init_params(tiny_cfg, int(seed)).flat_values)
    assert np.array_equal(network.philox_generator(seed, 101, 7).random(8),
                          network.philox_generator(int(seed), 101, 7).random(8))


@pytest.mark.parametrize("seed", [2.5, 2.0, np.float64(2.0), "2", None], ids=repr)
def test_non_integral_seeds_raise(tiny_cfg, seed):
    # A float must not be truncated to the stream of a neighboring seed.
    with pytest.raises(NetworkError, match="seed must be an integer"):
        network.philox_generator(seed)
    with pytest.raises(NetworkError, match="seed must be an integer"):
        init_params(tiny_cfg, seed)

def test_atom_table_row_width_follows_embed_size(tiny_cfg):
    cfg = tiny_cfg.replace(embed_size=256)
    params = init_params(cfg, seed=0)
    assert params.values["atom_embed"].shape == (cfg.max_z + 1, 256)


def test_biases_zero_and_weights_bounded(tiny_cfg):
    params = init_params(tiny_cfg, seed=9)
    for name, value in params.values.items():
        if name.endswith(".b"):
            assert np.all(value == 0.0)
        else:
            fan_in = tiny_cfg.embed_size if name == "atom_embed" else value.shape[0]
            assert np.max(np.abs(value)) <= 1.0 / np.sqrt(fan_in)


def test_shape_audit_fails_fast(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    bad = {k: v.copy() for k, v in params.values.items()}
    bad["atom_embed"] = bad["atom_embed"][:, :-1]
    from smpnet.network import ModelParams
    with pytest.raises(NetworkError, match="shape"):
        ModelParams(tiny_cfg, bad)
    del bad["atom_embed"]
    with pytest.raises(NetworkError, match="missing"):
        ModelParams(tiny_cfg, bad)


def test_grad_buffers_mirror_shapes(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    for name in params.names():
        assert params.grads[name].shape == params.values[name].shape
        assert np.all(params.grads[name] == 0.0)


# --- blocks ---------------------------------------------------------------------

def test_embedding_block_row_count(tiny_cfg):
    params = init_params(tiny_cfg, seed=3)
    feats = featurize_graph(two_atom_graph(), tiny_cfg)
    ctx = begin_forward(feats, params, tiny_cfg)
    messages = embedding_block(ctx)
    assert messages.value.shape == (2, tiny_cfg.embed_size)


def test_embedding_block_matches_concat_formula(tiny_cfg):
    # silu([h_s | h_r | e] @ W + b) per edge, built whole in numpy, and its
    # gradients: each row block of W and atom_embed get their own terms.
    params = init_params(tiny_cfg, seed=5)
    rng = np.random.default_rng(7)
    feats = featurize_graph(random_graph(rng, n_atoms=6, max_z=tiny_cfg.max_z), tiny_cfg)
    assert np.unique(feats.atomic_numbers).size > 1
    v = params.values
    h = v["atom_embed"][feats.atomic_numbers]
    e = feats.edge_rbf @ v["input.rbf.down"] @ v["input.rbf.up"] + v["input.rbf.b"]
    joined = np.hstack([h[feats.edge_sender], h[feats.edge_receiver], e])
    pre = joined @ v["input.merge.w"] + v["input.merge.b"]
    sig = 1.0 / (1.0 + np.exp(-pre))
    upstream = rng.normal(size=pre.shape)
    d_pre = upstream * sig * (1.0 + pre * (1.0 - sig))
    d_h = d_pre @ v["input.merge.w"].T
    d_atoms = np.zeros_like(v["atom_embed"])
    np.add.at(d_atoms, feats.atomic_numbers[feats.edge_sender], d_h[:, :tiny_cfg.embed_size])
    np.add.at(d_atoms, feats.atomic_numbers[feats.edge_receiver],
              d_h[:, tiny_cfg.embed_size:2 * tiny_cfg.embed_size])

    ctx = begin_forward(feats, params, tiny_cfg)
    messages = embedding_block(ctx)
    np.testing.assert_allclose(messages.value, pre * sig, rtol=1e-12, atol=1e-15)
    ctx.tape.backward(messages, upstream)
    for name, expected in (("input.merge.w", joined.T @ d_pre), ("input.merge.b", d_pre.sum(0)),
                           ("atom_embed", d_atoms)):
        np.testing.assert_allclose(params.grads[name], expected, rtol=1e-12, atol=1e-15)


def test_blocks_compose_and_count_layers(tiny_cfg):
    params = init_params(tiny_cfg, seed=3)
    rng = np.random.default_rng(0)
    feats = featurize_graph(random_graph(rng, n_atoms=4), tiny_cfg)
    ctx = begin_forward(feats, params, tiny_cfg)
    messages = embedding_block(ctx)
    for block in range(tiny_cfg.num_interaction_blocks):
        messages = interaction_block(ctx, messages, block)
        assert messages.value.shape == (feats.n_edges, tiny_cfg.embed_size)
    prediction = output_block(ctx, messages)
    assert prediction.value.shape == (1, 1)


def test_one_tape_node_per_dense_layer(tiny_cfg, monkeypatch):
    # The product, the bias and the SiLU of a dense layer share one node.
    recorded = {True: [], False: []}
    dense = network._dense

    def counting_dense(ctx, name, x, activation=False, **kwargs):
        before = len(ctx.tape.nodes)
        out = dense(ctx, name, x, activation, **kwargs)
        recorded[activation].append(len(ctx.tape.nodes) - before)
        return out

    monkeypatch.setattr(network, "_dense", counting_dense)
    feats = featurize_graph(random_graph(np.random.default_rng(0), n_atoms=4), tiny_cfg)
    forward_features(feats, init_params(tiny_cfg, seed=3), tiny_cfg)
    assert recorded[True] and recorded[False]
    assert set(recorded[True]) == set(recorded[False]) == {1}


def test_no_pairs_aggregate_is_transform_branch_only(tiny_cfg):
    # A 2-atom graph has edges but no two-hop pairs: the update must equal
    # the transform branch alone.
    params = init_params(tiny_cfg, seed=5)
    feats = featurize_graph(two_atom_graph(), tiny_cfg)
    assert feats.n_pairs == 0
    ctx = begin_forward(feats, params, tiny_cfg)
    messages = embedding_block(ctx)
    updated = interaction_block(ctx, messages, 0)

    tape = ctx.tape
    branch = messages
    for j in range(tiny_cfg.num_message_layers):
        name = f"inter0.msg{j}"
        branch = tape.dense(branch, ctx.leaves[name + ".w"], ctx.leaves[name + ".b"],
                            silu=True)
    up_bias = ctx.leaves["inter0.up.b"]
    expected = branch.value + up_bias.value
    for r in range(tiny_cfg.num_residual_blocks):
        inner = expected
        for half in ("a", "b"):
            name = f"inter0.res{r}.{half}"
            pre = inner @ ctx.leaves[name + ".w"].value + ctx.leaves[name + ".b"].value
            inner = pre / (1.0 + np.exp(-pre))
        expected = expected + inner
    assert np.allclose(updated.value, expected, atol=1e-12)


def _silu(x):
    return x / (1.0 + np.exp(-x))


def reference_interaction(feats, values, messages, block, cfg):
    """The pair-level formula in plain numpy: gather messages to pairs,
    project them there, gate with the pair encodings, sum per edge."""
    prefix = f"inter{block}."

    def dense(name, x):
        return x @ values[prefix + name + ".w"] + values[prefix + name + ".b"]

    def bottleneck(name, x):
        return ((x @ values[prefix + name + ".down"]) @ values[prefix + name + ".up"]
                + values[prefix + name + ".b"])

    neighbor = messages[feats.pair_neighbor]
    term = bottleneck("rbf", feats.edge_rbf[feats.pair_neighbor]) * dense("proj_rbf", neighbor)
    if cfg.ablation_mode in (FULL, NO_TORSION):
        sbf = pair_basis(feats, "sbf", cfg)
        term = term + bottleneck("sbf", sbf) * dense("proj_sbf", neighbor)
    if cfg.ablation_mode == FULL:
        tbf = pair_basis(feats, "tbf", cfg)
        term = term + bottleneck("tbf", tbf) * dense("proj_tbf", neighbor)
    aggregated = np.zeros((feats.n_edges, term.shape[1]))
    np.add.at(aggregated, feats.pair_edge, term)
    branch = messages
    for j in range(cfg.num_message_layers):
        branch = _silu(dense(f"msg{j}", branch))
    updated = branch + dense("up", aggregated)
    for r in range(cfg.num_residual_blocks):
        inner = _silu(dense(f"res{r}.b", _silu(dense(f"res{r}.a", updated))))
        updated = updated + inner
    return updated


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_interaction_block_matches_pair_level_reference(tiny_cfg, mode):
    cfg = tiny_cfg.replace(ablation_mode=mode)
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(11)
    # Non-zero biases, so a bias applied on the wrong side of the gather shows.
    for value in params.values.values():
        value[...] = rng.normal(scale=0.5, size=value.shape)
    feats = featurize_graph(random_graph(rng, n_atoms=6), cfg)
    assert feats.n_pairs > 2 * feats.n_edges
    ctx = begin_forward(feats, params, cfg)
    messages = embedding_block(ctx)
    updated = interaction_block(ctx, messages, 1)
    expected = reference_interaction(feats, params.values, messages.value, 1, cfg)
    np.testing.assert_allclose(updated.value, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("layers, residuals", [(0, 0), (0, 2), (2, 0), (1, 1)],
                         ids=["msg0-res0", "msg0-res2", "msg2-res0", "msg1-res1"])
def test_message_and_residual_depths_match_reference_and_unfused_adds(
        tiny_cfg, layers, residuals, monkeypatch):
    # Each residual add rides on the dense layer that computes its other
    # operand: the up-projection takes the message layers' output (the old
    # message when there are none). The block must equal the pair-level
    # reference, and the network's predictions and gradients must be bitwise
    # those of separate dense and add nodes.
    cfg = tiny_cfg.replace(num_message_layers=layers, num_residual_blocks=residuals)
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(11)
    for value in params.values.values():
        value[...] = rng.normal(scale=0.5, size=value.shape)
    feats = featurize_graph(random_graph(rng, n_atoms=6), cfg)
    ctx = begin_forward(feats, params, cfg)
    messages = embedding_block(ctx)
    updated = interaction_block(ctx, messages, 1)
    expected = reference_interaction(feats, params.values, messages.value, 1, cfg)
    np.testing.assert_allclose(updated.value, expected, rtol=1e-12, atol=1e-12)

    feats = batch_features(cfg, 31)
    upstream = rng.normal(size=feats.n_graphs)
    runs = []
    for dense in (Tape.dense, unfused_dense):
        monkeypatch.setattr(Tape, "dense", dense)
        cache = forward_features(feats, params, cfg)
        runs.append((cache.predictions, copied(backward(cache, upstream, accumulate=False))))
    (fused, grads), (expected, expected_grads) = runs
    assert np.array_equal(fused, expected)
    for name, grad in grads.items():
        assert np.array_equal(grad, expected_grads[name]), name


def batch_features(cfg, seed):
    rng = np.random.default_rng(seed)
    return merge_features([featurize_graph(random_graph(rng, n_atoms=n), cfg)
                           for n in (6, 2, 5)])


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_fused_aggregation_matches_unfused_network(tiny_cfg, mode, monkeypatch):
    cfg = tiny_cfg.replace(ablation_mode=mode)
    params = init_params(cfg, seed=13)
    rng = np.random.default_rng(19)
    for value in params.values.values():
        value[...] = rng.normal(scale=0.5, size=value.shape)
    feats = batch_features(cfg, 31)
    upstream = rng.normal(size=feats.n_graphs)
    runs = []
    for aggregate in (Tape.pair_aggregate, unfused_pair_aggregate):
        monkeypatch.setattr(Tape, "pair_aggregate", aggregate)
        cache = forward_features(feats, params, cfg)
        runs.append((cache.predictions, copied(backward(cache, upstream, accumulate=False))))
    (fused, grads), (expected, expected_grads) = runs
    assert np.array_equal(fused, expected)
    for name, grad in grads.items():
        scale = np.max(np.abs(expected_grads[name]), initial=1.0)
        np.testing.assert_allclose(grad, expected_grads[name], rtol=1e-12, atol=1e-12 * scale)


def gate_cfg(mode, blocks):
    # Full-size bases and the shipped bottleneck width (8): the products run
    # through the same BLAS kernels as in training and evaluation.
    return RunConfig(ablation_mode=mode, num_interaction_blocks=blocks, embed_size=16,
                     output_embed_size=8, max_z=6)


def gate_batch(cfg, with_pairs=True):
    rng = np.random.default_rng(43)
    graphs = [random_graph(rng, n_atoms=n) for n in ((7, 2, 9) if with_pairs else (2, 1))]
    return merge_features([featurize_graph(g, cfg) for g in graphs])


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_gate_inputs_are_each_blocks_down_projection(mode):
    cfg = gate_cfg(mode, blocks=3)
    params = init_params(cfg, seed=47)
    feats = gate_batch(cfg)
    ctx = begin_forward(feats, params, cfg)
    kinds = {FULL: ["sbf", "tbf"], NO_TORSION: ["sbf"], NO_ANGLE_TORSION: []}[mode]
    assert list(ctx.gate_inputs) == kinds
    for kind, inputs in ctx.gate_inputs.items():
        feature = pair_basis(feats, kind, cfg)
        assert len(inputs) == cfg.num_interaction_blocks
        for block, node in enumerate(inputs):
            assert np.array_equal(node.value,
                                  feature @ params.values[f"inter{block}.{kind}.down"])


@pytest.mark.parametrize("with_pairs", [True, False], ids=["pairs", "no-pairs"])
@pytest.mark.parametrize("blocks", [0, 1, 3])
@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_stacked_gate_projection_matches_per_block_matmul(mode, blocks, with_pairs,
                                                          monkeypatch):
    cfg = gate_cfg(mode, blocks)
    params = init_params(cfg, seed=53)
    feats = gate_batch(cfg, with_pairs)
    assert (feats.n_pairs > 0) == with_pairs
    upstream = np.random.default_rng(59).normal(size=feats.n_graphs)
    runs = []
    for stacked in (Tape.blocked_matmul, per_block_matmul):
        monkeypatch.setattr(Tape, "blocked_matmul", stacked)
        cache = forward_features(feats, params, cfg)
        runs.append((cache.predictions, copied(backward(cache, upstream, accumulate=False))))
    (predictions, grads), (expected, expected_grads) = runs
    assert np.array_equal(predictions, expected)
    for name, grad in grads.items():
        assert np.array_equal(grad, expected_grads[name]), name
    if not with_pairs:
        assert all(not np.any(grad) for name, grad in grads.items()
                   if name.endswith(("sbf.down", "tbf.down")))


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_tape_free_forward_matches_taped_forward(tiny_cfg, mode):
    cfg = tiny_cfg.replace(ablation_mode=mode)
    params = init_params(cfg, seed=37)
    feats = batch_features(cfg, 41)
    taped = forward_features(feats, params, cfg)
    free = forward_features(feats, params, cfg, grad=False)
    assert len(taped.tape.nodes) > 0
    assert free.tape.nodes == []
    assert np.array_equal(free.predictions, taped.predictions)


@pytest.mark.parametrize("mode", [FULL, NO_ANGLE_TORSION])
def test_tape_lists_only_the_nodes_its_sweep_visits(tiny_cfg, mode):
    # Leaves are reached through their consumers' vjps, so none is listed.
    cfg = tiny_cfg.replace(ablation_mode=mode)
    ctx = forward_features(batch_features(cfg, 43), init_params(cfg, seed=47), cfg)
    leaves = {id(leaf) for leaf in ctx.leaves.values()}
    assert ctx.tape.nodes
    assert all(node.parents and node.vjp for node in ctx.tape.nodes)
    assert not any(id(node) in leaves for node in ctx.tape.nodes)


@pytest.mark.parametrize("cfg, nodes", [(RunConfig(), 64), (ablation_config(), 32)],
                         ids=["default", "ablation"])
def test_tape_nodes_per_forward(cfg, nodes):
    # One node per dense layer (residual adds included), gather_add, mul,
    # stacked product and its per-block views, pair aggregate and segment
    # sum; the counts do not depend on the graph. A change that moves them
    # records the old and new counts: with one per-edge concat of gathered
    # atom rows in the embedding block they were 65 and 33, and with two
    # gathers and an add in place of the one gather_add, 66 and 34.
    chain = synthetic_torsion_task(64, seed=0)[0]
    ctx = forward_features(featurize_graph(chain, cfg), init_params(cfg, seed=0), cfg)
    assert len(ctx.tape.nodes) == nodes


@pytest.mark.parametrize("change", [dict(n_shbf=4), dict(num_interaction_blocks=2),
                                    dict(cutoff_c=3.0), dict(embed_size=32)],
                         ids=["n_shbf", "blocks", "cutoff", "embed_size"])
def test_forward_rejects_a_config_of_another_architecture(change):
    # The mode and the training fields may differ from params.cfg; the
    # parameter shapes and the cutoff may not, in a forward or a filter export.
    cfg = ablation_config()
    params = init_params(cfg, seed=0)
    chains = synthetic_torsion_task(64, seed=0)[:3]
    assert predict(params, chains, cfg.replace(ablation_mode=NO_TORSION, init_lr=0.5)).shape == (3,)
    other = cfg.replace(**change)
    with pytest.raises(NetworkError, match="does not match the parameters"):
        predict(params, chains, other)
    with pytest.raises(NetworkError, match="does not match the parameters"):
        export_filters(params, other, [1.0], [0.5], [0.0])


def test_predictions_view_the_prediction_column(tiny_cfg):
    # backward sweeps the (n_graphs, 1) column from a (n_graphs,) upstream;
    # one of another length fails the tape's shape check, and a second
    # sweep adds to the first.
    params = init_params(tiny_cfg, seed=53)
    ctx = forward_features(batch_features(tiny_cfg, 59), params, tiny_cfg)
    assert ctx.predictions.shape == (3,)
    assert ctx.prediction.value.shape == (3, 1)
    assert np.shares_memory(ctx.predictions, ctx.prediction.value)
    for wrong in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="upstream gradient shape"):
            backward(ctx, wrong)
    upstream = np.array([0.5, -1.0, 2.0])
    first = copied(backward(ctx, upstream, accumulate=False))
    assert any(np.any(grad) for grad in first.values())
    backward(ctx, upstream)
    for name, grad in first.items():
        assert np.allclose(params.grads[name], 2.0 * grad, rtol=1e-12, atol=0), name


def test_default_config_smoke():
    from smpnet.ingest import RunConfig
    cfg = RunConfig()  # full-size architecture, defaults throughout
    params = init_params(cfg, seed=0)
    water = Graph3D(np.array([8, 1, 1]),
      np.array([[0.0, 0.0, 0.0], [0.96, 0.0, 0.0], [-0.24, 0.93, 0.0]]), id="w")
    value, _ = forward(water, params, cfg)
    assert np.isfinite(value)


def test_single_atom_graph_prediction_finite(tiny_cfg):
    params = init_params(tiny_cfg, seed=1)
    g = Graph3D(np.array([1]), np.zeros((1, 3)), id="atom")
    value, _ = forward(g, params, tiny_cfg)
    assert np.isfinite(value)


def test_zero_interaction_blocks_still_runs(tiny_cfg):
    cfg = tiny_cfg.replace(num_interaction_blocks=0)
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    value, _ = forward(random_graph(rng, n_atoms=3), params, cfg)
    assert np.isfinite(value)


def test_max_z_enforced(tiny_cfg):
    params = init_params(tiny_cfg, seed=1)
    g = Graph3D(np.array([80]), np.zeros((1, 3)), id="heavy")
    with pytest.raises(IngestError, match="max_z"):
        forward(g, params, tiny_cfg)


# --- merging ------------------------------------------------------------------------

def layout_parts(cfg):
    """Featurized parts with many pairs, none (a bond, a lone atom) and one.

    Pairs come two by two from featurization, so the one-pair part keeps the
    first pair of a three-atom chain; its harmonics are one column, which is
    C- and F-contiguous at once.
    """
    rng = np.random.default_rng(53)
    many = featurize_graph(random_graph(rng, n_atoms=6, box=1.5), cfg)
    chain = featurize_graph(Graph3D(np.array([1, 6, 1]), np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.5, 0.9, 0.0]]), id="chain"), cfg)
    one_pair = dataclasses.replace(
        chain, pair_edge=chain.pair_edge[:1], pair_neighbor=chain.pair_neighbor[:1],
        **{name: np.ascontiguousarray(getattr(chain, name)[..., :1])
           for name in ("pair_theta", "pair_phi", "pair_harmonics")})
    lone = featurize_graph(Graph3D(np.array([6]), np.zeros((1, 3)), id="atom"), cfg)
    parts = [many, featurize_graph(two_atom_graph(), cfg), one_pair, lone, many]
    assert [part.n_pairs for part in parts] == [many.n_pairs, 0, 1, 0, many.n_pairs]
    return parts


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_merge_layout_matches_an_explicit_oracle(mode):
    cfg = RunConfig(ablation_mode=mode)
    parts = layout_parts(cfg)
    merged = merge_features(parts)
    atoms = edges = graphs = 0
    shifted = {name: [] for name in ("graph_ids", "edge_sender", "edge_receiver",
                                      "pair_edge", "pair_neighbor")}
    for part in parts:
        shifted["graph_ids"].append(part.graph_ids + graphs)
        shifted["edge_sender"].append(part.edge_sender + atoms)
        shifted["edge_receiver"].append(part.edge_receiver + atoms)
        shifted["pair_edge"].append(part.pair_edge + edges)
        shifted["pair_neighbor"].append(part.pair_neighbor + edges)
        atoms += part.n_atoms
        edges += part.n_edges
        graphs += part.n_graphs
    assert (merged.n_atoms, merged.n_edges, merged.n_graphs) == (atoms, edges, graphs)
    for name, chunks in shifted.items():
        value = getattr(merged, name)
        assert value.dtype == np.int64
        assert np.array_equal(value, np.concatenate(chunks))
    # The factor fields run along their last axis, which stays contiguous.
    axes = {"atomic_numbers": 0, "edge_distance": 0, "edge_rbf": 0, "edge_radial": -1,
            "pair_theta": 0, "pair_phi": 0, "pair_harmonics": -1}
    for name, axis in axes.items():
        value = getattr(merged, name)
        assert np.array_equal(value, np.concatenate([getattr(p, name) for p in parts],
                                                    axis=axis))
        assert value.flags.c_contiguous
    assert not merged.edge_rbf.flags.f_contiguous
    # Every mode's features carry both pair bases.
    for kind in ("sbf", "tbf"):
        rows = pair_basis(merged, kind, cfg)
        assert np.array_equal(rows, np.concatenate([pair_basis(p, kind, cfg) for p in parts]))
        assert rows.flags.f_contiguous and not rows.flags.c_contiguous
    assert all(merge_features([part]) is part for part in parts)


MODES = (FULL, NO_TORSION, NO_ANGLE_TORSION)


def mode_graphs():
    """Random graphs, a lone atom and a bond: a graph with edges but no pairs."""
    rng = np.random.default_rng(61)
    graphs = [random_graph(rng, n_atoms=n, box=1.5) for n in (6, 4, 8)]
    return graphs + [Graph3D(np.array([6]), np.zeros((1, 3)), id="atom"), two_atom_graph()]


def assert_same_features(found, expected):
    for spec in dataclasses.fields(network.GraphFeatures):
        value, reference = getattr(found, spec.name), getattr(expected, spec.name)
        assert type(value) is type(reference), spec.name
        assert np.array_equal(value, reference), spec.name
        if isinstance(value, np.ndarray):
            assert value.dtype == reference.dtype, spec.name


def test_every_mode_featurizes_alike(tiny_cfg):
    graphs = mode_graphs()
    full = [featurize_graph(g, tiny_cfg) for g in graphs]
    assert [part.n_pairs > 0 for part in full] == [True, True, True, False, False]
    assert [part.n_edges > 0 for part in full] == [True, True, True, False, True]
    for mode in MODES[1:]:
        for graph, expected in zip(graphs, full):
            assert_same_features(featurize_graph(graph, tiny_cfg.replace(ablation_mode=mode)),
                                 expected)


def test_parts_of_different_modes_merge_as_full(tiny_cfg):
    # Features built under any modes are one layout, so a batch may mix them.
    graphs = mode_graphs()
    full = merge_features([featurize_graph(g, tiny_cfg) for g in graphs])
    for shift in range(len(MODES)):
        mixed = merge_features([
            featurize_graph(g, tiny_cfg.replace(ablation_mode=MODES[(i + shift) % len(MODES)]))
            for i, g in enumerate(graphs)])
        assert_same_features(mixed, full)


# --- whole-model properties -------------------------------------------------------

@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_rigid_motion_invariance(tiny_cfg, mode):
    cfg = tiny_cfg.replace(ablation_mode=mode)
    params = init_params(cfg, seed=11)
    rng = np.random.default_rng(17)
    g = random_graph(rng, n_atoms=5)
    reference, _ = forward(g, params, cfg)
    for _ in range(20):
        moved = rigid_transform(g, random_rotation(rng), rng.uniform(-5, 5, size=3))
        value, _ = forward(moved, params, cfg)
        assert abs(value - reference) < 1e-9


def test_initial_messages_invariant_under_rigid_motion(tiny_cfg):
    params = init_params(tiny_cfg, seed=12)
    rng = np.random.default_rng(18)
    g = random_graph(rng, n_atoms=5)
    moved = rigid_transform(g, random_rotation(rng), rng.uniform(-4, 4, size=3))

    def initial(graph):
        ctx = begin_forward(featurize_graph(graph, tiny_cfg), params, tiny_cfg)
        return embedding_block(ctx).value

    assert np.max(np.abs(initial(g) - initial(moved))) < 1e-9


def test_permutation_invariance(tiny_cfg):
    params = init_params(tiny_cfg, seed=13)
    rng = np.random.default_rng(19)
    g = random_graph(rng, n_atoms=6)
    reference, _ = forward(g, params, tiny_cfg)
    for _ in range(5):
        perm = rng.permutation(g.n_atoms)
        permuted = Graph3D(g.atomic_numbers[perm], g.positions[perm], id="perm")
        value, _ = forward(permuted, params, tiny_cfg)
        assert abs(value - reference) < 1e-12


def test_permuted_labels_permute_initial_messages(tiny_cfg):
    params = init_params(tiny_cfg, seed=23)
    rng = np.random.default_rng(29)
    g = random_graph(rng, n_atoms=5)
    perm = rng.permutation(g.n_atoms)
    permuted = Graph3D(g.atomic_numbers[perm], g.positions[perm], id="perm")

    def initial_messages(graph):
        feats = featurize_graph(graph, tiny_cfg)
        ctx = begin_forward(feats, params, tiny_cfg)
        messages = embedding_block(ctx)
        keys = [(int(feats.edge_sender[i]), int(feats.edge_receiver[i]))
                for i in range(feats.n_edges)]
        return dict(zip(keys, messages.value))

    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    original = initial_messages(g)
    relabeled = initial_messages(permuted)
    for (s, r), row in original.items():
        assert np.allclose(relabeled[(inv[s], inv[r])], row, atol=1e-12)


def test_disjoint_duplicate_doubles_prediction(tiny_cfg):
    params = init_params(tiny_cfg, seed=31)
    rng = np.random.default_rng(37)
    g = random_graph(rng, n_atoms=4)
    single, _ = forward(g, params, tiny_cfg)
    feats = featurize_graph(g, tiny_cfg)
    merged = merge_features([feats, feats])
    cache = forward_features(merged, params, tiny_cfg)
    assert np.allclose(cache.predictions, [single, single], atol=1e-12)
    assert abs(float(cache.predictions.sum()) - 2.0 * single) < 1e-12


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_prediction_independent_of_batch_mates(tiny_cfg, mode):
    cfg = tiny_cfg.replace(ablation_mode=mode)
    params = init_params(cfg, seed=33)
    rng = np.random.default_rng(39)
    parts = [featurize_graph(random_graph(rng, n_atoms=n), cfg) for n in (3, 6, 1, 5)]
    alone = [forward_features(part, params, cfg).predictions[0] for part in parts]
    batched = forward_features(merge_features(parts), params, cfg).predictions
    np.testing.assert_allclose(batched, alone, rtol=1e-12, atol=0)


def test_determinism_across_runs(tiny_cfg):
    params = init_params(tiny_cfg, seed=41)
    rng = np.random.default_rng(43)
    g = random_graph(rng, n_atoms=5)
    values = {forward(g, params, tiny_cfg)[0] for _ in range(5)}
    assert len(values) == 1


def test_mode_nesting_zero_torsion_weights(tiny_cfg):
    # Zeroing the torsion encoder makes FULL equal the torsion-free network
    # exactly, because the torsion term enters the aggregate additively.
    params = init_params(tiny_cfg, seed=47)
    for i in range(tiny_cfg.num_interaction_blocks):
        for suffix in ("tbf.down", "tbf.up", "tbf.b"):
            params.values[f"inter{i}.{suffix}"][...] = 0.0
    rng = np.random.default_rng(53)
    for _ in range(5):
        g = random_graph(rng, n_atoms=5)
        full_value, _ = forward(g, params, tiny_cfg.replace(ablation_mode=FULL))
        bare_value, _ = forward(g, params, tiny_cfg.replace(ablation_mode=NO_TORSION))
        assert full_value == bare_value


def test_full_vs_no_torsion_differ_only_through_torsion_encoder(tiny_cfg):
    # On a chain every sender has one usable neighbor, so all torsions are 0
    # and the modes differ exactly by the torsion term's response at phi = 0.
    chain = Graph3D(np.array([1, 1, 1, 1]),
                    np.array([[0.0, 0, 0], [1.0, 0, 0], [1.6, 0.8, 0], [1.6, 1.9, 0]]),
                    id="chain")
    cfg = tiny_cfg.replace(cutoff_c=1.2)
    params = init_params(cfg, seed=59)
    from smpnet.geometry import build_radius_graph, two_hop_geometry
    hops = two_hop_geometry(chain, build_radius_graph(chain, cfg.cutoff_c))
    assert hops.n_pairs > 0
    assert np.all(np.bincount(hops.pair_edge)[hops.pair_edge] == 1)
    assert np.all(hops.phi == 0.0)
    full_value, _ = forward(chain, params, cfg.replace(ablation_mode=FULL))
    bare_value, _ = forward(chain, params, cfg.replace(ablation_mode=NO_TORSION))
    assert full_value != bare_value
    for i in range(cfg.num_interaction_blocks):
        for suffix in ("tbf.down", "tbf.up", "tbf.b"):
            params.values[f"inter{i}.{suffix}"][...] = 0.0
    assert (forward(chain, params, cfg.replace(ablation_mode=FULL))[0]
            == forward(chain, params, cfg.replace(ablation_mode=NO_TORSION))[0])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_parameters_reported_with_stage(tiny_cfg):
    params = init_params(tiny_cfg, seed=61)
    params.values["inter1.up.w"][...] = np.inf
    rng = np.random.default_rng(67)
    g = random_graph(rng, n_atoms=4)
    with pytest.raises(NetworkError, match="interaction block 1"):
        forward(g, params, tiny_cfg)


# --- gradients ---------------------------------------------------------------------

def test_backward_linearity(tiny_cfg):
    params = init_params(tiny_cfg, seed=71)
    rng = np.random.default_rng(73)
    g = random_graph(rng, n_atoms=4)
    _, cache = forward(g, params, tiny_cfg)
    zero = copied(backward(cache, 0.0, accumulate=False))
    assert all(np.all(v == 0.0) for v in zero.values())
    one = copied(backward(cache, 1.0, accumulate=False))
    two = copied(backward(cache, 2.0, accumulate=False))
    for name in one:
        assert np.allclose(2.0 * one[name], two[name], rtol=1e-12, atol=0)


def test_backward_accumulates_into_buffers(tiny_cfg):
    params = init_params(tiny_cfg, seed=79)
    rng = np.random.default_rng(83)
    g = random_graph(rng, n_atoms=4)
    _, cache = forward(g, params, tiny_cfg)
    params.zero_grads()
    first = copied(backward(cache, 1.0))
    backward(cache, 1.0)
    for name in first:
        assert np.allclose(params.grads[name], 2.0 * first[name], rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_backward_writes_into_flat_grads(tiny_cfg, mode, monkeypatch):
    # One gradient store: the returned arrays are views into flat_grads,
    # bitwise the gradients of a sweep whose parameter leaves own their
    # buffers, and a stale buffer is cleared, so encoders the mode never uses
    # read exactly 0. The row blocks of input.merge.w are leaves whose buffers
    # are row views of their parameter leaf's, whichever buffer that has.
    cfg = tiny_cfg.replace(ablation_mode=mode)
    params = init_params(cfg, seed=101)
    feats = batch_features(cfg, 103)
    upstream = np.random.default_rng(107).normal(size=feats.n_graphs)
    params.flat_grads[...] = 7.0
    grads = backward(forward_features(feats, params, cfg), upstream, accumulate=False)
    assert list(grads) == params.names()
    assert all(np.shares_memory(grad, params.flat_grads) for grad in grads.values())

    leaf = Tape.leaf
    monkeypatch.setattr(Tape, "leaf", lambda tape, value, grad: leaf(
        tape, value, np.zeros_like(value) if np.shares_memory(grad, params.flat_grads) else grad))
    unbound = forward_features(feats, params, cfg)
    unbound.tape.backward(unbound.prediction, upstream[:, None])
    for name, node in unbound.leaves.items():
        assert not np.shares_memory(node.grad, params.flat_grads)
        assert np.array_equal(grads[name], node.grad), name
    unused = {FULL: (), NO_TORSION: ("tbf",), NO_ANGLE_TORSION: ("sbf", "tbf")}[mode]
    untouched = [name for name in grads
                 if any(f".{kind}." in name or f".proj_{kind}." in name for kind in unused)]
    assert len(untouched) == 5 * len(unused) * cfg.num_interaction_blocks
    assert all(not np.any(grads[name]) for name in untouched)
    assert np.any(params.flat_grads)


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_gradients_match_finite_differences(tiny_cfg, mode):
    cfg = tiny_cfg.replace(ablation_mode=mode, num_interaction_blocks=2)
    params = init_params(cfg, seed=89)
    rng = np.random.default_rng(97)
    g = random_graph(rng, n_atoms=4)
    feats = featurize_graph(g, cfg)
    _, cache = forward(g, params, cfg)
    analytic = backward(cache, 1.0, accumulate=False)

    def value():
        return float(forward_features(feats, params, cfg).predictions[0])

    h = 1e-6
    worst = 0.0
    for name in params.names():
        tensor = params.values[name]
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            plus = value()
            tensor[idx] = orig - h
            minus = value()
            tensor[idx] = orig
            fd = (plus - minus) / (2.0 * h)
            an = analytic[name][idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    assert worst < 1e-5


# --- filter export -------------------------------------------------------------------

def test_export_filters_grid_shape(tiny_cfg):
    params = init_params(tiny_cfg, seed=101)
    phis = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    header, rows = export_filters(params, tiny_cfg, [1.0, 2.0], [0.5], phis)
    assert header[:3] == ["d", "theta", "phi"]
    assert len(header) == 3 + tiny_cfg.output_embed_size
    assert rows.shape == (2 * 1 * 4, 3 + tiny_cfg.output_embed_size)
    # four torsion slices per (d, theta)
    assert sorted(set(rows[:, 2])) == sorted(phis)


def test_export_filters_periodicity_and_zero_weights(tiny_cfg):
    params = init_params(tiny_cfg, seed=103)
    _, rows_a = export_filters(params, tiny_cfg, [1.5], [1.0], [0.7])
    _, rows_b = export_filters(params, tiny_cfg, [1.5], [1.0], [0.7 + 2 * np.pi])
    assert np.allclose(rows_a[:, 3:], rows_b[:, 3:], atol=1e-12)
    for suffix in ("tbf.down", "tbf.up", "tbf.b"):
        params.values[f"inter0.{suffix}"][...] = 0.0
    _, rows_zero = export_filters(params, tiny_cfg, [1.5], [1.0], [0.7])
    assert np.all(rows_zero[:, 3:] == 0.0)


def test_export_filters_channel_subset_and_errors(tiny_cfg):
    params = init_params(tiny_cfg, seed=107)
    header, rows = export_filters(params, tiny_cfg, [1.0], [0.5], [0.0], channels=[2, 0])
    assert header[3:] == ["c2", "c0"]
    assert rows.shape[1] == 5
    with pytest.raises(NetworkError, match="grid"):
        export_filters(params, tiny_cfg, [], [0.5], [0.0])
    with pytest.raises(NetworkError, match="channel"):
        export_filters(params, tiny_cfg, [1.0], [0.5], [0.0], channels=[99])
    with pytest.raises(NetworkError, match="at least one channel"):
        export_filters(params, tiny_cfg, [1.0], [0.5], [0.0], channels=[])


# --- serialization --------------------------------------------------------------------

def test_save_load_round_trip(tiny_cfg, tmp_path):
    params = init_params(tiny_cfg, seed=109)
    path = tmp_path / "model.bin"
    save_model(params, str(path))
    loaded, cfg = load_model(str(path))
    assert cfg == tiny_cfg
    assert all(np.array_equal(loaded.values[k], params.values[k]) for k in params.names())


def test_save_is_byte_deterministic(tiny_cfg, tmp_path):
    params = init_params(tiny_cfg, seed=113)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(params, str(a))
    save_model(params, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_config_mismatch(tiny_cfg, tmp_path):
    params = init_params(tiny_cfg, seed=127)
    path = tmp_path / "model.bin"
    save_model(params, str(path))
    with pytest.raises(ModelIOError, match="cutoff_c"):
        load_model(str(path), expected_cfg=tiny_cfg.replace(cutoff_c=4.0))
    loaded, _ = load_model(str(path), expected_cfg=tiny_cfg)
    assert loaded.flat_values.size == params.flat_values.size


def test_load_rejects_corrupt_files(tiny_cfg, tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
    with pytest.raises(ModelIOError, match="magic"):
        load_model(str(path))
    params = init_params(tiny_cfg, seed=131)
    good = tmp_path / "good.bin"
    save_model(params, str(good))
    data = good.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(data[:-16])
    with pytest.raises(ModelIOError, match="truncated"):
        load_model(str(tmp_path / "trunc.bin"))


def _model_file(path, header: bytes, body: bytes = b"") -> str:
    path.write_bytes(FORMAT_MAGIC + struct.pack("<Q", len(header)) + header + body)
    return str(path)


def test_load_rejects_short_header_length(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(FORMAT_MAGIC + b"\x01\x02\x03")
    with pytest.raises(ModelIOError, match="header length"):
        load_model(str(path))


def test_load_rejects_header_without_config(tmp_path):
    header = json.dumps({"format_version": 1, "tensors": []}).encode()
    with pytest.raises(ModelIOError, match="config"):
        load_model(_model_file(tmp_path / "noconfig.bin", header))


def _with_stored_config(cfg, tmp_path, **config) -> str:
    """A saved model whose header config has ``config`` written over it."""
    good = tmp_path / "good.bin"
    save_model(init_params(cfg, seed=137), str(good))
    data = good.read_bytes()
    start = len(FORMAT_MAGIC) + 8
    (length,) = struct.unpack("<Q", data[len(FORMAT_MAGIC):start])
    header = json.loads(data[start:start + length])
    header["config"].update(config)
    encoded = json.dumps(header).encode()
    return _model_file(tmp_path / "edited.bin", encoded, data[start + length:])


def test_load_rejects_unknown_config_key(tiny_cfg, tmp_path):
    with pytest.raises(ModelIOError, match="frobnicate"):
        load_model(_with_stored_config(tiny_cfg, tmp_path, frobnicate=1))


@pytest.mark.parametrize("key, value", [("ewt_threshold", float("inf")), ("seed", "x"),
                                        ("cutoff_c", 10 ** 400)])
def test_load_rejects_malformed_config_values(tiny_cfg, tmp_path, key, value):
    path = _with_stored_config(tiny_cfg, tmp_path, **{key: value})
    with pytest.raises(ModelIOError, match=key):
        load_model(path)


# Arbitrary bytes rarely parse as JSON, so half of the examples frame a
# random JSON header built from the keys the loader looks up.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["format_version", "config", "tensors", "name", "shape", "cutoff_c"]),
        inner, max_size=3),
    max_leaves=8)
_framed_headers = st.builds(
    lambda header, tail: struct.pack("<Q", len(header)) + header + tail,
    _json_values.map(lambda value: json.dumps(value).encode()), st.binary(max_size=16))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | _framed_headers)
def test_load_model_fuzz_raises_only_model_io_error(tmp_path_factory, tail):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    path.write_bytes(FORMAT_MAGIC + tail)
    with pytest.raises(ModelIOError):
        load_model(str(path))
