import math
import tracemalloc

import numpy as np
import pytest

import smpnet.train as T
from smpnet.autodiff import Tape, Workspace
from smpnet.elements import SYMBOL_TO_Z
from smpnet.geometry import rigid_transform
from smpnet.ingest import FULL, NO_ANGLE_TORSION, NO_TORSION, Graph3D, RunConfig
from smpnet.network import (ModelParams, NetworkError, featurize_graph, forward_features,
                            init_params, merge_features)

from conftest import random_graph
from test_w1_pin import perfbench_workloads, recorded_build


# --- learning-rate schedule -------------------------------------------------------

def test_warmup_start_value():
    cfg = RunConfig(init_lr=1e-3, warmup_factor=0.2, warmup_epochs=3)
    assert T.lr_at(cfg, 0) == pytest.approx(0.2e-3, rel=1e-12)


def test_warmup_is_linear_and_reaches_init():
    cfg = RunConfig(init_lr=1.0, warmup_factor=0.2, warmup_epochs=4, step_size=1000)
    values = [T.lr_at(cfg, e) for e in range(5)]
    assert values == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])


def test_step_decay():
    cfg = RunConfig(init_lr=1e-3, schedule="step", decay_ratio=0.1, step_size=10,
                    warmup_epochs=3)
    assert T.lr_at(cfg, 10) == pytest.approx(1e-4, rel=1e-12)
    assert T.lr_at(cfg, 19) == pytest.approx(1e-4, rel=1e-12)
    assert T.lr_at(cfg, 20) == pytest.approx(1e-5, rel=1e-12)


def test_cosine_reaches_zero_at_t_max():
    cfg = RunConfig(init_lr=1e-3, schedule="cosine", t_max=50, max_epochs=60,
                    warmup_epochs=3)
    assert abs(T.lr_at(cfg, 50)) < 1e-12
    assert T.lr_at(cfg, 25) == pytest.approx(0.5e-3, rel=1e-9)


def test_negative_epoch_rejected():
    with pytest.raises(T.TrainError):
        T.lr_at(RunConfig(), -1)


# --- Adam -------------------------------------------------------------------------

def test_adam_zero_gradient_is_identity(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    before = params.flat_values.copy()
    opt = T.OptimState.for_params(params)
    params.zero_grads()
    T.adam_step(params, opt, lr=1e-3)
    assert np.array_equal(params.flat_values, before)
    assert opt.step == 1


def test_adam_first_step_hand_computed(tiny_cfg):
    # With g = 1 everywhere, the bias-corrected first step moves every entry
    # by lr / (1 + eps) regardless of scale.
    params = init_params(tiny_cfg, seed=1)
    before = params.flat_values.copy()
    opt = T.OptimState.for_params(params)
    params.flat_grads[...] = 1.0
    T.adam_step(params, opt, lr=1e-3)
    delta = before - params.flat_values
    expected = 1e-3 / (1.0 + 1e-8)
    assert np.allclose(delta, expected, rtol=1e-12)


def test_adam_recurrence_two_steps(tiny_cfg):
    params = init_params(tiny_cfg, seed=2)
    opt = T.OptimState.for_params(params)
    start = params.flat_values.copy()
    grads = [0.5, -1.5]
    m = v = 0.0
    reference = start[0]
    for step, g in enumerate(grads, start=1):
        params.flat_grads[...] = g
        T.adam_step(params, opt, lr=1e-2)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        reference -= 1e-2 * (m / (1 - 0.9 ** step)) / (
            math.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    assert params.flat_values[0] == pytest.approx(reference, rel=1e-12)


def check_adam_against_textbook(cfg):
    """Four Adam steps match the textbook expression on whole vectors bitwise,
    and leave the gradient buffer as the caller wrote it."""
    params = init_params(cfg, seed=5)
    opt = T.OptimState.for_params(params)
    rng = np.random.default_rng(7)
    values = params.flat_values.copy()
    m = np.zeros_like(values)
    v = np.zeros_like(values)
    for step in range(1, 5):
        grad = rng.normal(size=values.size) * 10.0 ** rng.integers(-8, 3, size=values.size)
        params.flat_grads[...] = grad
        T.adam_step(params, opt, lr=1e-3 * step)
        assert np.array_equal(params.flat_grads, grad)
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        values -= 1e-3 * step * (m / (1.0 - 0.9 ** step)) / (
            np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)
    assert np.array_equal(params.flat_values, values)
    assert np.array_equal(opt.flat_first, m)
    assert np.array_equal(opt.flat_second, v)
    return opt


def test_adam_matches_textbook_expression_bitwise(tiny_cfg):
    check_adam_against_textbook(tiny_cfg)


def test_adam_chunk_seams_match_textbook_expression_bitwise(tiny_cfg, monkeypatch):
    # Chunks of 7 entries put a seam every 7 entries and leave a ragged tail.
    monkeypatch.setattr(T, "ADAM_CHUNK", 7)
    size = init_params(tiny_cfg, seed=5).flat_values.size
    assert size > 7 and size % 7
    opt = check_adam_against_textbook(tiny_cfg)
    assert [buffer.size for buffer in opt.scratch] == [7, 7]


def test_adam_deterministic(tiny_cfg):
    results = []
    for _ in range(2):
        params = init_params(tiny_cfg, seed=3)
        opt = T.OptimState.for_params(params)
        params.flat_grads[...] = 0.25
        T.adam_step(params, opt, lr=5e-3)
        results.append(params.flat_values.copy())
    assert np.array_equal(results[0], results[1])


def test_adam_shape_mismatch_rejected(tiny_cfg):
    params = init_params(tiny_cfg, seed=4)
    other = init_params(tiny_cfg.replace(embed_size=10), seed=4)
    opt = T.OptimState.for_params(other)
    with pytest.raises(T.TrainError):
        T.adam_step(params, opt, lr=1e-3)


# --- metrics ----------------------------------------------------------------------

def make_dataset(rng, n, cfg):
    return [random_graph(rng, n_atoms=4, max_z=cfg.max_z) for _ in range(n)]


def test_evaluate_perfect_predictions(tiny_cfg):
    # Force predictions equal to targets by using the model's own outputs as
    # the dataset targets.
    params = init_params(tiny_cfg, seed=5)
    rng = np.random.default_rng(0)
    graphs = make_dataset(rng, 6, tiny_cfg)
    preds = T.predict(params, graphs, tiny_cfg)
    if float(np.std(preds)) == 0.0:
        pytest.skip("degenerate predictions")
    labeled = [g.__class__(g.atomic_numbers, g.positions, graph_target=float(p), id=g.id)
               for g, p in zip(graphs, preds)]
    report = T.evaluate(params, labeled, tiny_cfg)
    assert report.mae == 0.0
    assert report.ewt == 1.0
    assert report.std_mae == 0.0
    assert report.n_samples == 6


def test_metric_arithmetic_mean_predictor():
    # Constant predictor at the target mean on targets {0, 2} has MAE 1.
    preds = np.array([1.0, 1.0])
    targets = np.array([0.0, 2.0])
    errors = np.abs(preds - targets)
    assert float(np.mean(errors)) == 1.0


def test_ewt_threshold_counts():
    errors = np.array([0.01, 0.05])
    assert float(np.mean(errors < 0.02)) == 0.5


def test_evaluate_zero_variance_rejected(tiny_cfg, monkeypatch):
    # Rejected from the targets alone, before any graph is featurized.
    params = init_params(tiny_cfg, seed=6)
    rng = np.random.default_rng(1)
    g = random_graph(rng, n_atoms=3, max_z=tiny_cfg.max_z)
    labeled = [g.__class__(g.atomic_numbers, g.positions, graph_target=1.0, id=str(i))
               for i in range(3)]
    featurized = []
    monkeypatch.setattr(T, "featurize_graph",
                        lambda *args, **kwargs: featurized.append(args[0]))
    with pytest.raises(T.MetricError, match="zero variance"):
        T.evaluate(params, labeled, tiny_cfg)
    assert featurized == []


def test_metrics_invariant_to_order_and_batching(tiny_cfg):
    params = init_params(tiny_cfg, seed=7)
    rng = np.random.default_rng(2)
    graphs = make_dataset(rng, 10, tiny_cfg)
    report = T.evaluate(params, graphs, tiny_cfg)
    shuffled = [graphs[i] for i in rng.permutation(10)]
    report2 = T.evaluate(params, shuffled, tiny_cfg)
    assert report.mae == pytest.approx(report2.mae, rel=1e-12)
    assert report.ewt == report2.ewt
    threaded = T.evaluate(params, graphs, tiny_cfg, threads=4)
    assert threaded == report


# --- streamed inference ------------------------------------------------------------

def pair_less_graph():
    """Two atoms: one edge each way and no two-hop pair."""
    return Graph3D(np.array([1, 2]), np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]]),
                   graph_target=0.5, id="pair-less")


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_chunked_predictions_match_single_chunk(tiny_cfg, monkeypatch, mode):
    cfg = tiny_cfg.replace(ablation_mode=mode)
    params = init_params(cfg, seed=71)
    rng = np.random.default_rng(73)
    graphs = [random_graph(rng, n_atoms=n, max_z=cfg.max_z) for n in (3, 6, 1, 5)]
    graphs.insert(2, pair_less_graph())
    graphs += [random_graph(rng, n_atoms=n, max_z=cfg.max_z) for n in (4, 2, 6)]
    with_edges = sum(featurize_graph(g, cfg).n_edges > 0 for g in graphs)
    chunk_sizes = []
    merge = T.merge_features

    def spy(parts):
        chunk_sizes.append(len(parts))
        return merge(parts)

    monkeypatch.setattr(T, "merge_features", spy)
    runs = {}
    for budget in (10 ** 9, 40, 1):
        monkeypatch.setattr(T, "CHUNK_BUDGET", budget)
        chunk_sizes.clear()
        runs[budget] = T.predict(params, graphs, cfg)
        assert sum(chunk_sizes) == len(graphs)
        if budget == 1:   # a chunk closes at every graph with an edge
            assert len(chunk_sizes) == with_edges < len(graphs)
        elif budget > 1000:
            assert chunk_sizes == [len(graphs)]
        else:
            assert 1 < len(chunk_sizes) < len(graphs)
    for budget in (40, 1):
        np.testing.assert_allclose(runs[budget], runs[10 ** 9], rtol=1e-12, atol=0)


@recorded_build
def test_predictions_are_bitwise_independent_of_batch_and_chunk(monkeypatch):
    # A graph's prediction is the same alone, in a merged batch of any size
    # and in any predict chunk, bit for bit, at the default config. Other
    # builds are held to 1e-12 by test_prediction_independent_of_batch_mates.
    graphs = [Graph3D(np.array([SYMBOL_TO_Z[s] for s in symbols]), positions,
                      graph_target=target, id=str(i))
              for i, (symbols, positions, target)
              in enumerate(perfbench_workloads().molecule_frames(5))]
    cfg = RunConfig()
    params = init_params(cfg, 1)
    parts = [featurize_graph(g, cfg) for g in graphs]
    alone = np.array([forward_features(part, params, cfg, grad=False).predictions[0]
                      for part in parts])
    for size in (2, 8, 32):
        batched = np.concatenate([
            forward_features(merge_features(parts[i:i + size]), params, cfg,
                             grad=False).predictions
            for i in range(0, len(parts), size)])
        assert np.array_equal(batched, alone), size
    for budget in (1, 4096, 8192, T.CHUNK_BUDGET):
        monkeypatch.setattr(T, "CHUNK_BUDGET", budget)
        assert np.array_equal(T.predict(params, graphs, cfg), alone), budget


def test_predict_empty_dataset(tiny_cfg):
    params = init_params(tiny_cfg, seed=79)
    assert T.predict(params, [], tiny_cfg).shape == (0,)


def test_predict_memory_does_not_grow_with_dataset(tiny_cfg):
    # One 30-atom cluster is over the chunk budget on its own, so streaming
    # holds one graph's features at a time whatever the dataset length.
    cfg = tiny_cfg.replace(cutoff_c=5.0)
    params = init_params(cfg, seed=83)
    graph = random_graph(np.random.default_rng(89), n_atoms=30, max_z=cfg.max_z)
    features = featurize_graph(graph, cfg)
    assert features.n_pairs + features.n_edges >= T.CHUNK_BUDGET
    del features
    T.predict(params, [graph], cfg)   # builds the cached basis tables

    def peak(copies):
        tracemalloc.start()
        try:
            T.predict(params, [graph] * copies, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) <= 1.2 * peak(2)


# The traced peak of predicting the largest seed-7 clusters-eval cluster (64
# atoms, 44k pairs) at the default config: 159.0 MB while the angle and
# torsion bases were stored whole, 63.5 MB with their factors, 60.3 MB once
# SiLU layers kept only their slope and 54.6 MB once the embedding block
# multiplied each element once. The bound was set at 26% over 63.5 MB; a
# change that moves the peak records the old and new values, and none raises
# the bound to let a regression pass.
PREDICT_PEAK_MB = 80.0


def test_predict_peak_on_the_largest_cluster():
    workloads = perfbench_workloads()
    symbols, positions, target = max(workloads.frames_for("clusters-eval", 7),
                                     key=lambda frame: len(frame[0]))
    graph = Graph3D(np.array([SYMBOL_TO_Z[s] for s in symbols]), positions,
                    graph_target=target, id="largest")
    cfg = workloads.run_config("clusters-eval", 7)
    params = init_params(cfg, seed=7)
    T.predict(params, [graph], cfg)   # builds the cached basis tables
    tracemalloc.start()
    try:
        T.predict(params, [graph], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= PREDICT_PEAK_MB


# Workspace.slots after one taped forward, (slots, bytes): the first 8 seed-0
# molecules-train molecules at the default config (1192 edges, 13,524 pairs)
# and the first 64 seed-0 chains-train chains at the ablation config (692
# edges, 1232 pairs). While each SiLU layer kept its pre-activation, sigmoid
# and output and each residual add its own output they were (108,
# 205_046_560) and (50, 13_571_840); while the embedding block concatenated
# gathered atom rows with the distance encoding, (78, 136_590_112) and (38,
# 9_897_728). Sizes follow from shapes alone, so the pin holds on any build;
# a change that moves it records the old and new values, and none moves it up
# to let a regression pass.
#
# The last entry is the size of Workspace.transient_buffer, which holds in
# turn the forward values no vjp reads: the gathered element rows' sum, each
# block's distance term and last message layer output, and the output
# block's gated messages. While those took slots, the pins were (79,
# 131_859_232) and (39, 9_147_136).
WORKSPACE = {"molecules-train": (8, 69, 112_939_808, 2_441_216),
             "chains-train": (64, 33, 7_198_464, 354_304)}

# Multiply-adds of every Tape.dense call (rows x inner x columns) in one taped
# forward of the same two batches. The same rules hold as for WORKSPACE. While
# the embedding block multiplied the per-edge concat of gathered atom rows and
# the distance encoding by the whole input.merge.w they were 1_883_907_712
# and 32_958_784.
DENSE_MULTIPLY_ADDS = {"molecules-train": 1_739_073_152, "chains-train": 28_002_624}


def seed0_graphs(workload, n_graphs):
    """The workload's seed-0 run config and its first ``n_graphs`` graphs."""
    workloads = perfbench_workloads()
    graphs = [Graph3D(np.array([SYMBOL_TO_Z[s] for s in symbols]), positions,
                      graph_target=target, id=str(i))
              for i, (symbols, positions, target)
              in enumerate(workloads.frames_for(workload, 0)[:n_graphs])]
    return workloads.run_config(workload, 0), graphs


def pinned_batch(workload):
    """The workload's run config and the merged features of its pinned batch."""
    cfg, graphs = seed0_graphs(workload, WORKSPACE[workload][0])
    return cfg, merge_features([featurize_graph(g, cfg) for g in graphs])


@pytest.mark.parametrize("workload", sorted(WORKSPACE))
def test_training_forward_workspace_is_pinned(workload):
    cfg, features = pinned_batch(workload)
    workspace = Workspace()
    forward_features(features, init_params(cfg, seed=0), cfg, workspace=workspace)
    assert (len(workspace.slots), sum(slot.nbytes for slot in workspace.slots),
            workspace.transient_buffer.nbytes) == WORKSPACE[workload][1:]


@pytest.mark.parametrize("workload", sorted(DENSE_MULTIPLY_ADDS))
def test_training_forward_dense_multiply_adds_are_pinned(workload, monkeypatch):
    cfg, features = pinned_batch(workload)
    counted = []
    dense = Tape.dense

    def counting_dense(tape, x, w, *args, **kwargs):
        counted.append(x.value.shape[0] * w.value.shape[0] * w.value.shape[1])
        return dense(tape, x, w, *args, **kwargs)

    monkeypatch.setattr(Tape, "dense", counting_dense)
    forward_features(features, init_params(cfg, seed=0), cfg, workspace=Workspace())
    assert sum(counted) == DENSE_MULTIPLY_ADDS[workload]


# The tracemalloc peak of train() on the first 16 seed-0 molecules-train
# molecules at the default config (one epoch, batches of 8, 14 molecules to
# train on and 2 to validate): 270.4 MB while Adam kept two parameter-sized
# scratch vectors, each improving epoch cloned the parameters afresh, and the
# forward values no vjp reads took workspace slots; 223.6 MB without the three.
# Undoing one of the three gave 248.1, 229.4 and 235.2 MB, so the bound lies
# below all of them. The same rules hold as for PREDICT_PEAK_MB.
TRAIN_PEAK_MB = 227.0


def test_training_peak_is_pinned():
    cfg, graphs = seed0_graphs("molecules-train", 16)
    cfg = cfg.replace(max_epochs=1, batch_size=8)
    T.train(graphs[:2], cfg, split=([0], [1]))   # builds the cached basis tables
    tracemalloc.start()
    try:
        T.train(graphs, cfg, split=(list(range(14)), [14, 15]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= TRAIN_PEAK_MB


# --- training loop -----------------------------------------------------------------

def quick_cfg(tiny_cfg, **extra):
    settings = dict(max_epochs=3, batch_size=4, init_lr=1e-3, warmup_epochs=1)
    settings.update(extra)
    return tiny_cfg.replace(**settings)


def test_train_empty_dataset_rejected(tiny_cfg):
    with pytest.raises(T.TrainError, match="empty"):
        T.train([], quick_cfg(tiny_cfg))


def test_train_requires_targets(tiny_cfg):
    rng = np.random.default_rng(3)
    g = random_graph(rng, n_atoms=3, max_z=tiny_cfg.max_z)
    unlabeled = g.__class__(g.atomic_numbers, g.positions, id="u")
    with pytest.raises(T.TrainError, match="target"):
        T.train([unlabeled], quick_cfg(tiny_cfg))


def test_train_logs_and_determinism(tiny_cfg):
    cfg = quick_cfg(tiny_cfg)
    data = T.synthetic_torsion_task(64, seed=9)
    first = T.train(data, cfg, seed=11)
    second = T.train(data, cfg, seed=11)
    assert len(first.log) == cfg.max_epochs
    assert T.format_epoch_log(first.log) == T.format_epoch_log(second.log)
    assert np.array_equal(first.params.flat_values, second.params.flat_values)
    third = T.train(data, cfg, seed=12)
    assert not np.array_equal(first.params.flat_values, third.params.flat_values)


def test_train_thread_count_does_not_change_results(tiny_cfg):
    cfg = quick_cfg(tiny_cfg)
    data = T.synthetic_torsion_task(64, seed=13)
    serial = T.train(data, cfg, seed=1, threads=1)
    threaded = T.train(data, cfg, seed=1, threads=4)
    assert T.format_epoch_log(serial.log) == T.format_epoch_log(threaded.log)
    assert np.array_equal(serial.params.flat_values, threaded.params.flat_values)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_divergence_reports_step(tiny_cfg):
    # An absurd learning rate overflows the second step's forward pass; the
    # abort carries the offending optimizer step.
    cfg = quick_cfg(tiny_cfg, init_lr=1e80, warmup_epochs=1, max_epochs=50)
    data = T.synthetic_torsion_task(64, seed=17)
    with pytest.raises(T.DivergenceError) as info:
        T.train(data, cfg, seed=1)
    assert info.value.step >= 1
    assert "step" in str(info.value)


def test_best_checkpoint_is_retained(tiny_cfg):
    cfg = quick_cfg(tiny_cfg, max_epochs=5)
    data = T.synthetic_torsion_task(80, seed=19)
    result = T.train(data, cfg, seed=2)
    best = min(entry.valid_mae for entry in result.log)
    assert result.best_score == pytest.approx(best)
    assert result.log[result.best_epoch].valid_mae == pytest.approx(best)


def test_best_checkpoint_is_one_clone_copied_in_place(tiny_cfg, monkeypatch):
    # The parameters are cloned once, before the first epoch; each improving
    # epoch copies them into that clone, which holds the best epoch's values.
    cfg = quick_cfg(tiny_cfg, max_epochs=5)
    data = T.synthetic_torsion_task(80, seed=19)
    clones = []
    clone = ModelParams.clone

    def counted_clone(self):
        clones.append(clone(self))
        return clones[-1]

    monkeypatch.setattr(ModelParams, "clone", counted_clone)
    result = T.train(data, cfg, seed=2)
    scores = [entry.valid_mae for entry in result.log]
    improving = [i for i, score in enumerate(scores) if score < min(scores[:i], default=math.inf)]
    assert len(improving) >= 2 and result.best_epoch == improving[-1]
    assert clones == [result.params]
    monkeypatch.undo()
    at_best = T.train(data, cfg.replace(max_epochs=result.best_epoch + 1), seed=2)
    assert np.array_equal(result.params.flat_values, at_best.final_params.flat_values)


def test_explicit_split_overfits_small_set(tiny_cfg):
    cfg = quick_cfg(tiny_cfg, max_epochs=2)
    data = T.synthetic_torsion_task(64, seed=21)[:8]
    result = T.train(data, cfg, seed=3, split=(list(range(8)), []))
    assert all(math.isnan(entry.valid_mae) for entry in result.log)
    assert result.best_epoch >= 0


@pytest.mark.parametrize("kwargs", [
    {"split": ([0, -1], [2])},
    {"split": ([0.7, 1.9], [3])},
    {"split": ([True, False], [2])},
    {"split": ([0, 99], [])},
    {"split": ([0, 1], [10])},
    {"split": ([0, 0, 0, 1], [2])},
    {"split": ([0, 1, 2], [2])},
    {"split": ([0, 1],)},
    {"split": ([0, 1], [2], [3])},
    {"valid_fraction": 1.5},
    {"valid_fraction": 1.0},
    {"valid_fraction": -0.5},
    {"valid_fraction": "0.1"},
    {"valid_fraction": None},
], ids=["negative-index", "float-index", "bool-index", "index-past-end",
        "valid-index-at-length", "repeated-index", "overlapping-parts", "one-part",
        "three-parts", "valid-fraction-above-one", "valid-fraction-one",
        "negative-valid-fraction", "string-valid-fraction", "none-valid-fraction"])
def test_malformed_split_raises_before_featurizing(monkeypatch, kwargs):
    def featurize(*args):
        raise AssertionError("featurized before the split was checked")

    monkeypatch.setattr(T, "featurize_graph", featurize)
    with pytest.raises(T.TrainError, match="split|valid_fraction"):
        T.train(T.synthetic_torsion_task(64, seed=0)[:10], T.ablation_config(epochs=1), **kwargs)


@pytest.mark.parametrize("seed", [2.5, 3.0, "3"], ids=repr)
def test_non_integral_seed_raises_before_featurizing(monkeypatch, seed):
    data = T.synthetic_torsion_task(64, seed=0)[:10]
    with pytest.raises(NetworkError, match="seed must be an integer"):
        T.synthetic_torsion_task(64, seed)

    def featurize(*args):
        raise AssertionError("featurized before the seed was checked")

    monkeypatch.setattr(T, "featurize_graph", featurize)
    for split in (None, ([0, 1], [2])):
        with pytest.raises(T.TrainError, match="seed must be an integer"):
            T.train(data, T.ablation_config(epochs=1), seed=seed, split=split)


def test_numpy_integer_seed_trains_like_the_int(tiny_cfg):
    cfg = quick_cfg(tiny_cfg, max_epochs=2)
    data = T.synthetic_torsion_task(64, seed=np.int64(1))
    reference = T.synthetic_torsion_task(64, seed=1)
    assert [(g.id, g.graph_target) for g in data] == [(g.id, g.graph_target) for g in reference]
    assert all(np.array_equal(a.positions, b.positions) for a, b in zip(data, reference))
    numpy_seeded, int_seeded = T.train(data, cfg, seed=np.int64(3)), T.train(data, cfg, seed=3)
    assert T.format_epoch_log(numpy_seeded.log) == T.format_epoch_log(int_seeded.log)
    assert np.array_equal(numpy_seeded.params.flat_values, int_seeded.params.flat_values)
    assert np.array_equal(numpy_seeded.final_params.flat_values,
                          int_seeded.final_params.flat_values)


def test_training_steps_never_hold_two_tapes(tiny_cfg):
    # Each step's forward overwrites the previous step's values in the
    # training workspace, and the previous tape is gone before it starts, so
    # three one-step epochs peak no higher than one.
    cfg = tiny_cfg.replace(cutoff_c=5.0)
    rng = np.random.default_rng(97)
    data = [random_graph(rng, n_atoms=12, max_z=cfg.max_z) for _ in range(4)]
    split = (list(range(4)), [])
    T.train(data, cfg.replace(max_epochs=1), seed=1, split=split)  # builds the cached tables

    def peak(epochs):
        tracemalloc.start()
        try:
            T.train(data, cfg.replace(max_epochs=epochs), seed=1, split=split)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3) <= 1.05 * peak(1)


@pytest.mark.parametrize("mode", [FULL, NO_TORSION, NO_ANGLE_TORSION])
def test_workspace_training_matches_fresh_buffers(tiny_cfg, monkeypatch, mode):
    # Batches of 4, 4, ..., 2 graphs make the workspace slots shrink and grow.
    # The second run routes every workspace write, to a slot or to the
    # transient buffer, to a fresh array.
    cfg = quick_cfg(tiny_cfg, ablation_mode=mode)
    data = T.synthetic_torsion_task(64, seed=23)
    pooled = T.train(data, cfg, seed=4)
    requests = {"empty": [], "transient": []}

    def fresh(kind):
        def request(self, shape):
            requests[kind].append(shape)
            return np.empty(shape)
        return request

    for kind in requests:
        monkeypatch.setattr(Workspace, kind, fresh(kind))
    unpooled = T.train(data, cfg, seed=4)
    assert requests["empty"] and requests["transient"]
    assert np.array_equal(pooled.params.flat_values, unpooled.params.flat_values)
    assert np.array_equal(pooled.final_params.flat_values, unpooled.final_params.flat_values)
    assert T.format_epoch_log(pooled.log) == T.format_epoch_log(unpooled.log)


# --- finite-difference forces ---------------------------------------------------------

def test_fd_forces_step_range(tiny_cfg):
    params = init_params(tiny_cfg, seed=8)
    rng = np.random.default_rng(4)
    g = random_graph(rng, n_atoms=3, max_z=tiny_cfg.max_z)
    with pytest.raises(T.TrainError):
        T.fd_forces(params, g, tiny_cfg, h=1e-7)
    with pytest.raises(T.TrainError):
        T.fd_forces(params, g, tiny_cfg, h=1e-2)


def test_fd_forces_sum_to_zero(tiny_cfg):
    params = init_params(tiny_cfg, seed=9)
    rng = np.random.default_rng(5)
    for _ in range(3):
        g = random_graph(rng, n_atoms=4, max_z=tiny_cfg.max_z)
        forces, _ = T.fd_forces(params, g, tiny_cfg, h=1e-4)
        assert np.max(np.abs(forces.sum(axis=0))) < 1e-5


def test_fd_forces_translation_invariant(tiny_cfg):
    params = init_params(tiny_cfg, seed=10)
    rng = np.random.default_rng(6)
    g = random_graph(rng, n_atoms=4, max_z=tiny_cfg.max_z)
    forces, _ = T.fd_forces(params, g, tiny_cfg, h=1e-4)
    moved = rigid_transform(g, np.eye(3), np.array([2.0, -1.0, 0.25]))
    forces2, _ = T.fd_forces(params, moved, tiny_cfg, h=1e-4)
    assert np.max(np.abs(forces - forces2)) < 1e-6


def test_fd_forces_halving_step_agrees_quadratically(tiny_cfg):
    params = init_params(tiny_cfg, seed=11)
    rng = np.random.default_rng(7)
    g = random_graph(rng, n_atoms=4, max_z=tiny_cfg.max_z)
    coarse, _ = T.fd_forces(params, g, tiny_cfg, h=1e-3)
    fine, _ = T.fd_forces(params, g, tiny_cfg, h=5e-4)
    # central differences converge at O(h^2): the two estimates already agree
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_fd_forces_flags_cutoff_crossings(tiny_cfg):
    cfg = tiny_cfg.replace(cutoff_c=1.0)
    params = init_params(cfg, seed=12)
    g = random_graph(np.random.default_rng(8), n_atoms=2, max_z=tiny_cfg.max_z)
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # exactly at cutoff
    g = g.__class__(g.atomic_numbers, positions, id="edge")
    _, flagged = T.fd_forces(params, g, cfg, h=1e-4)
    assert (0, 0) in flagged or (1, 0) in flagged


def mask_flags(graph, cutoff, h):
    """Oracle: displacements whose +h and -h all-pairs cutoff masks differ."""
    def mask(positions):
        diff = positions[:, None, :] - positions[None, :, :]
        inside = np.sqrt(np.sum(diff * diff, axis=-1)) <= cutoff
        np.fill_diagonal(inside, False)
        return inside

    flagged = []
    for atom in range(graph.n_atoms):
        for axis in range(3):
            shifted = graph.positions.copy()
            shifted[atom, axis] += h
            plus = mask(shifted)
            shifted[atom, axis] -= 2.0 * h
            if not np.array_equal(plus, mask(shifted)):
                flagged.append((atom, axis))
    return flagged


@pytest.mark.parametrize("near", [True, False], ids=["pair-within-h", "far-from-cutoff"])
def test_fd_forces_flags_match_cutoff_mask_oracle(tiny_cfg, near):
    h = 1e-4
    cutoff = tiny_cfg.cutoff_c
    # Atoms 0 and 1 lie h/2 inside the cutoff in the first graph, so moving
    # either of them along x crosses it; every other distance is far from it.
    gap = cutoff - 0.5 * h if near else 0.5 * cutoff
    positions = np.array([[0.0, 0.0, 0.0], [gap, 0.0, 0.0], [0.4, 1.1, 0.0],
                          [0.9, 0.5, 1.3]])
    g = Graph3D(np.array([1, 6, 1, 6]), positions, graph_target=0.0, id="cutoff")
    params = init_params(tiny_cfg, seed=13)
    _, flagged = T.fd_forces(params, g, tiny_cfg, h=h)
    expected = mask_flags(g, cutoff, h)
    assert flagged == expected
    assert expected == ([(0, 0), (1, 0)] if near else [])


# --- synthetic tasks -------------------------------------------------------------------

def reference_dihedral(p0, p1, p2, p3):
    b1, b2, b3 = p1 - p0, p2 - p1, p3 - p2
    n1, n2 = np.cross(b1, b2), np.cross(b2, b3)
    m1 = np.cross(n1, b2 / np.linalg.norm(b2))
    angle = math.atan2(float(np.dot(m1, n2)), float(np.dot(n1, n2)))
    return angle if angle >= 0 else angle + 2 * math.pi


def test_torsion_task_minimum_size():
    with pytest.raises(T.TrainError):
        T.synthetic_torsion_task(32, seed=0)
    with pytest.raises(T.TrainError):
        T.synthetic_torsion_task(64, seed=0, task="bogus")


def test_torsion_task_target_formula_and_geometry():
    data = T.synthetic_torsion_task(64, seed=1)
    for g in data[:16]:
        p = g.positions
        lengths = [np.linalg.norm(p[1] - p[0]), np.linalg.norm(p[2] - p[1]),
                   np.linalg.norm(p[3] - p[2])]
        assert all(0.9 <= l <= 1.1 for l in lengths)
        psi = reference_dihedral(p[0], p[1], p[2], p[3])
        expected = math.cos(psi) + 0.1 * sum(lengths)
        assert g.graph_target == pytest.approx(expected, abs=1e-9)


def test_torsion_task_planar_chain_target():
    positions = T.chain_positions(np.array([1.0, 1.0, 1.0]),
                                  np.array([np.deg2rad(110), np.deg2rad(110)]), 0.0)
    psi = reference_dihedral(*positions)
    assert min(psi, 2 * math.pi - psi) < 1e-9
    # dihedral zero: target = cos(0) + 0.1 * sum(d) = 1 + 0.3
    assert 1.0 + 0.1 * 3.0 == pytest.approx(1.3)


def test_task_regeneration_deterministic():
    a = T.synthetic_torsion_task(64, seed=2)
    b = T.synthetic_torsion_task(64, seed=2)
    assert all(np.array_equal(x.positions, y.positions) for x, y in zip(a, b))
    assert [x.graph_target for x in a] == [y.graph_target for y in b]
    c = T.synthetic_torsion_task(64, seed=3)
    assert any(not np.array_equal(x.positions, y.positions) for x, y in zip(a, c))


def test_task_variants_target_dependencies():
    angles_task = T.synthetic_torsion_task(64, seed=4, task="angles")
    lengths_task = T.synthetic_torsion_task(64, seed=4, task="lengths")
    for g in lengths_task[:8]:
        p = g.positions
        total = sum(np.linalg.norm(p[i + 1] - p[i]) for i in range(3))
        assert g.graph_target == pytest.approx(total, abs=1e-9)
    for g in angles_task[:8]:
        p = g.positions
        v1, v2 = p[0] - p[1], p[2] - p[1]
        cos1 = float(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
        v3, v4 = p[1] - p[2], p[3] - p[2]
        cos2 = float(v3 @ v4 / (np.linalg.norm(v3) * np.linalg.norm(v4)))
        assert g.graph_target == pytest.approx(cos1 + cos2, abs=1e-9)


def test_distance_only_mode_cannot_separate_length_matched_chains(tiny_cfg):
    # With a chain-only cutoff the distance-only mode sees just the three
    # bond lengths, so two samples with equal internals except the dihedral
    # featurize identically and must receive identical predictions. Its MAE
    # on such a paired set is therefore bounded below by half the mean
    # within-pair target spread (the Bayes bound for any length-only model).
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(16):
        lengths = rng.uniform(0.9, 1.1, size=3)
        angles = rng.uniform(np.deg2rad(100), np.deg2rad(120), size=2)
        psi_a, psi_b = rng.uniform(0, 2 * np.pi, size=2)
        pairs.append((T.chain_positions(lengths, angles, psi_a),
                      T.chain_positions(lengths, angles, psi_b),
                      math.cos(psi_a) + 0.1 * lengths.sum(),
                      math.cos(psi_b) + 0.1 * lengths.sum()))
    cfg = tiny_cfg.replace(cutoff_c=1.15, ablation_mode=NO_ANGLE_TORSION, max_z=6)
    params = init_params(cfg, seed=13)
    from smpnet.network import forward
    from smpnet.ingest import Graph3D
    bound_sum = 0.0
    error_sum = 0.0
    for pos_a, pos_b, target_a, target_b in pairs:
        ga = Graph3D(np.array([6, 6, 6, 6]), pos_a, id="a")
        gb = Graph3D(np.array([6, 6, 6, 6]), pos_b, id="b")
        pred_a, _ = forward(ga, params, cfg)
        pred_b, _ = forward(gb, params, cfg)
        # The visible features (three bond lengths) agree to rounding, so the
        # predictions must too; the dihedral cannot leak through.
        assert abs(pred_a - pred_b) <= 1e-9 * (1.0 + abs(pred_a))
        bound_sum += abs(target_a - target_b) / 2.0
        error_sum += (abs(pred_a - target_a) + abs(pred_b - target_b)) / 2.0
    n = len(pairs)
    assert error_sum / n >= bound_sum / n - 1e-9


def test_lengths_task_modes_statistically_indistinguishable():
    # On the lengths-only target every mode sees everything it needs, so the
    # three geometry modes land at the same error level: each mode's
    # median-over-3-seeds test MAE stays within 10% of their common mean.
    per_mode = {FULL: [], "NO_TORSION": [], "NO_ANGLE_TORSION": []}
    for seed in range(3):
        samples = T.synthetic_torsion_task(256 + 64, seed=seed, task="lengths")
        train_set, test_set = samples[:256], samples[256:]
        targets = np.array([g.graph_target for g in test_set])
        for mode in per_mode:
            cfg = T.ablation_config(60).replace(ablation_mode=mode, seed=seed)
            result = T.train(train_set, cfg, seed=seed)
            preds = T.predict(result.params, test_set, cfg)
            per_mode[mode].append(float(np.mean(np.abs(preds - targets))))
    medians = {mode: float(np.median(values)) for mode, values in per_mode.items()}
    center = float(np.mean(list(medians.values())))
    for mode, median in medians.items():
        assert abs(median - center) / center < 0.10, (mode, medians)


def test_ablation_report_median_and_ordering():
    report = T.AblationReport(task="torsion")
    for seed, values in enumerate([(0.1, 0.2, 0.4), (0.12, 0.22, 0.38), (0.08, 0.18, 0.5)]):
        for mode, value in zip((FULL, "NO_TORSION", "NO_ANGLE_TORSION"), values):
            report.runs.append(T.AblationRun(mode=mode, seed=seed, test_mae=value))
    assert report.median(FULL) == 0.1
    assert report.ordered(min_gap=0.2)
    assert not report.ordered(min_gap=0.6)


def test_ablation_report_median_of_even_runs_and_missing_mode():
    report = T.AblationReport(task="torsion", runs=[
        T.AblationRun(mode=FULL, seed=seed, test_mae=mae)
        for seed, mae in enumerate((0.3, 0.1, 0.7, 0.2))])
    assert report.median(FULL) == 0.5 * (0.2 + 0.3)
    with pytest.raises(T.TrainError, match=NO_TORSION):
        report.median(NO_TORSION)
