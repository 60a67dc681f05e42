"""Tests of the benchmark itself: inputs, metric names and output checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_per_seed(workload):
    first = workloads.format_xyz(workloads.frames_for(workload, 7))
    assert workloads.format_xyz(workloads.frames_for(workload, 7)) == first
    assert workloads.format_xyz(workloads.frames_for(workload, 8)) != first


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["molecules-train", "clusters-eval"])
def test_inputs_round_trip_and_counts_match_featurization(workload, tmp_path):
    from smpnet.geometry import build_radius_graph, build_two_hop_index
    from smpnet.ingest import load_xyz

    frames = workloads.frames_for(workload, 3)[:4]
    path = tmp_path / "data.xyz"
    path.write_text(workloads.format_xyz(frames), encoding="utf-8")
    graphs = load_xyz(path)
    for (_, positions, target), graph in zip(frames, graphs):
        assert np.array_equal(graph.positions, positions)
        assert graph.graph_target == target
    edges = [build_radius_graph(g, 5.0) for g in graphs]
    pairs = sum(build_two_hop_index(e)[0].size for e in edges)
    assert workloads.graph_counts(frames, 5.0) == {
        "graphs": len(frames), "atoms": sum(g.n_atoms for g in graphs),
        "edges": sum(e.n_edges for e in edges), "pairs": pairs}


def _train_spec():
    return {"kind": "train", "graphs": 10, "split": workloads.split(10),
            "config": {"batch_size": 4, "max_epochs": 2}}


def _untraced_train_result(log=((1.0, 2.0), (0.5, 1.5))):
    return {"traced": False, "completed": 6, "wall_s": 3.0, "setup_s": 1.0,
            "epoch_s": [1.0, 1.1], "valid_s": [0.1, 0.1], "log": [list(r) for r in log],
            "peak_rss_mb": 100.0}


def test_end_to_end_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for spec, result in ((_train_spec(), _untraced_train_result()),
                         ({"kind": "eval", "graphs": 4},
                          {"traced": False, "setup_s": 0.2, "pass_s": [5.0],
                           "peak_rss_mb": 2000.0})):
        metrics = run.end_to_end_metrics(spec, [result])
        assert {name: unit for name, (_, unit) in metrics.items()} == declared
        assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_metric_names_match_benchmark_json():
    layers = {layer: (0.5, 2) for layer, _, _ in tracer.HOOKS}
    counts = {name: 3 for name in tracer.COUNTS}
    results = [_untraced_train_result(),
               dict(_untraced_train_result(), traced=True,
                    trace={"layers": layers, "counts": counts})]
    metrics = run.layer_metrics(results)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trace.other_s"][0] == pytest.approx(3.0 - 0.5 * len(layers))


def test_hooks_resolve_to_callables():
    tracer.check_hooks()


def test_self_time_subtracts_child_spans():
    trace = tracer.Tracer()
    trace.spans = [["network.featurize", 0.0, 1.0, -1, 1],
                   ["geometry.torsions", 0.2, 0.5, 0, 1],
                   ["basis.tbf", 0.6, 0.9, 0, 1]]
    times = trace.layer_times()
    assert times["network.featurize"] == (pytest.approx(0.4), 1)
    assert times["geometry.torsions"] == (pytest.approx(0.3), 1)
    assert times["train.adam"] == (0.0, 0)


def test_prediction_check_rejects_perturbed_predictions():
    predictions = [1.25, -0.5, 3.0]
    assert workloads.check_predictions(predictions, 1.25 * (1 + 1e-12), 0) == []
    assert [i for i, _ in workloads.check_predictions(predictions, 1.25 * (1 + 1e-8), 0)] == [0]
    assert [i for i, _ in workloads.check_predictions([1.25, math.nan, 3.0], 1.25, 0)] == [1]
    assert {i for i, _ in workloads.check_predictions([math.inf], math.inf, 0)} == {0}


def test_epoch_log_check_rejects_perturbed_and_non_finite_logs():
    reference = [[1.0, 2.0], [0.5, 1.5]]
    assert workloads.check_epoch_log(reference, reference) == []
    close = [[1.0, 2.0], [0.5 * (1 + 1e-9), 1.5]]
    assert workloads.check_epoch_log(close, reference) == []
    assert [e for e, _ in workloads.check_epoch_log(close, reference, rtol=0.0)] == [1]
    assert [e for e, _ in workloads.check_epoch_log([[1.0, 2.0], [0.6, 1.5]], reference)] == [1]
    assert [e for e, _ in workloads.check_epoch_log([[math.nan, 2.0], [0.5, 1.5]])] == [0]


def test_score_counts_crashed_and_wrong_children_as_failed():
    spec = _train_spec()
    sizes = {"graphs": 10, "atoms": 40, "edges": 50, "pairs": 90}
    crashed = {"crash": "killed by SIGKILL", "duration_s": 1.0, "traced": False}
    attempted, failed, problems = run.score(
        spec, sizes, [_untraced_train_result(), crashed], None)
    assert (attempted, failed) == (12, 6)
    assert "SIGKILL" in problems[0]
    drifted = _untraced_train_result(log=((1.0, 2.0), (0.5, 1.25)))
    attempted, failed, _ = run.score(spec, sizes, [_untraced_train_result(), drifted], None)
    assert (attempted, failed) == (12, 3)
