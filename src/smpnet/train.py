"""Optimization, metrics, finite-difference forces, and synthetic tasks.

Training is sequential over optimizer steps; each mini-batch runs as one
merged forward/backward over the disjoint union of its graphs, whose sweep
writes the gradients straight into ``ModelParams.flat_grads``, the buffer
``adam_step`` reads. Inference streams: graphs are featurized one at a time
and run in chunks closed at ``CHUNK_BUDGET`` pairs plus edges, and a chunk's
features are released before the next graph is featurized, so memory follows
the largest chunk rather than the dataset. Everything runs in one thread;
the ``threads`` arguments are accepted for compatibility and have no effect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .basis import tables_for
from .ingest import (FULL, NO_ANGLE_TORSION, NO_TORSION, SCHEDULE_STEP,
                     Graph3D, RunConfig)
from .network import (GraphFeatures, ModelParams, NetworkError, backward,
                      featurize_graph, forward_features, init_params,
                      merge_features, philox_generator)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Philox key tags keeping the split, shuffle, and data streams independent.
_SPLIT_TAG = 101
_SHUFFLE_TAG = 202
_TASK_TAG = 303

SYNTHETIC_TASKS = ("torsion", "angles", "lengths")

# Pairs plus edges at which an inference chunk closes: graphs join a chunk
# until their sum reaches it. Inference memory follows the pairs of the
# largest chunk (one row of n_shbf² · n_srbf torsion features per pair), not
# the dataset. On perfbench's clusters-eval clusters (2.7k, 7.3k, 11.6k and
# 45k pairs plus edges, default config) every budget from 2048 to 16384 gave
# a 260-270 MB peak RSS and 0.74-1.0 s per evaluate, the largest cluster
# being a chunk of its own; 32768 and up, one chunk, gave 503-512 MB. The
# largest budget of the flat range keeps small graphs in long batches.
CHUNK_BUDGET = 16384


class TrainError(RuntimeError):
    """Raised for invalid training inputs."""


class DivergenceError(TrainError):
    """Non-finite loss encountered; carries the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at optimizer step {step}")
        self.step = step


class MetricError(ValueError):
    """Raised when a metric is undefined (e.g. zero-variance target)."""


@dataclass
class OptimState:
    """Adam moment buffers, flat and in the parameter layout of ``flat_values``.

    ``scratch`` holds two more buffers of that size, in which ``adam_step``
    computes its update without allocating.
    """

    flat_first: np.ndarray
    flat_second: np.ndarray
    step: int = 0
    lr: float = 0.0
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.flat_first), np.empty_like(self.flat_first))

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimState":
        return cls(flat_first=np.zeros_like(params.flat_values),
                   flat_second=np.zeros_like(params.flat_values))


@dataclass(frozen=True)
class MetricReport:
    """MAE, target-std-normalized MAE, within-threshold fraction, and count."""

    mae: float
    std_mae: float
    ewt: float
    n_samples: int


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    lr: float
    train_mae: float
    valid_mae: float


@dataclass
class TrainResult:
    """Best-validation checkpoint plus the full epoch log."""

    params: ModelParams
    final_params: ModelParams
    log: list[EpochLog]
    best_epoch: int
    best_score: float


def lr_at(cfg: RunConfig, epoch: int) -> float:
    """Learning rate for an epoch: linear warmup, then step or cosine decay.

    The schedule is resolved at epoch granularity. During warmup the rate
    ramps linearly from warmup_factor * init_lr to init_lr. Step decay
    multiplies by decay_ratio every step_size epochs (counted from epoch 0);
    cosine decays to zero at t_max (default max_epochs).
    """
    if epoch < 0:
        raise TrainError(f"epoch must be >= 0, got {epoch}")
    if epoch < cfg.warmup_epochs:
        ramp = epoch / cfg.warmup_epochs
        return cfg.init_lr * (cfg.warmup_factor + (1.0 - cfg.warmup_factor) * ramp)
    if cfg.schedule == SCHEDULE_STEP:
        return cfg.init_lr * cfg.decay_ratio ** (epoch // cfg.step_size)
    t_max = cfg.t_max if cfg.t_max is not None else cfg.max_epochs
    progress = min(epoch, t_max) / t_max
    return cfg.init_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def adam_step(params: ModelParams, opt: OptimState, lr: float):
    """One bias-corrected Adam update from the accumulated gradient buffers.

    No weight decay and no dropout anywhere. Updates are in-place and
    deterministic (fixed parameter order); every product and quotient is
    taken in the order of the textbook expression, in ``opt.scratch``.
    """
    if opt.flat_first.shape != params.flat_values.shape:
        raise TrainError("optimizer moment shape does not match parameters")
    opt.step += 1
    correction1 = 1.0 - ADAM_BETA1 ** opt.step
    correction2 = 1.0 - ADAM_BETA2 ** opt.step
    grad = params.flat_grads
    m = opt.flat_first
    v = opt.flat_second
    update, denom = opt.scratch
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
    m += update
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=update)
    update *= grad
    v += update
    # lr * (m / correction1) / (sqrt(v / correction2) + eps)
    np.divide(m, correction1, out=update)
    update *= lr
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    params.flat_values -= update
    opt.lr = lr


def _stream_predictions(features: Iterable[GraphFeatures], params: ModelParams,
                        cfg: RunConfig) -> np.ndarray:
    """Ordered predictions over chunks of at least ``CHUNK_BUDGET`` pairs plus edges.

    ``features`` may be a lazy iterable: each chunk runs as soon as it is
    full, and drops its features before the next item is drawn.
    """
    outputs = []
    chunk: list[GraphFeatures] = []
    size = 0
    for part in features:
        chunk.append(part)
        size += part.n_pairs + part.n_edges
        del part   # else the name holds the graph while the next is featurized
        if size >= CHUNK_BUDGET:
            outputs.append(_predict_chunk(chunk, params, cfg))
            chunk, size = [], 0
    if chunk:
        outputs.append(_predict_chunk(chunk, params, cfg))
    return np.concatenate(outputs) if outputs else np.zeros(0)


def _predict_chunk(chunk: list[GraphFeatures], params: ModelParams,
                   cfg: RunConfig) -> np.ndarray:
    return forward_features(merge_features(chunk), params, cfg, grad=False).predictions


def predict(params: ModelParams, dataset: Sequence[Graph3D],
            cfg: RunConfig) -> np.ndarray:
    """Graph-scalar predictions for a dataset, in dataset order.

    Graphs are featurized lazily and streamed through ``CHUNK_BUDGET``-sized
    chunks.
    """
    tables = tables_for(cfg)
    return _stream_predictions((featurize_graph(g, cfg, tables) for g in dataset),
                               params, cfg)


def evaluate(params: ModelParams, dataset: Sequence[Graph3D], cfg: RunConfig,
             threads: int = 1) -> MetricReport:
    """MAE, std-normalized MAE, and the within-threshold fraction.

    std_mae divides the MAE by the evaluation set's target standard
    deviation; a zero-variance target makes that undefined and raises before
    any graph is featurized. ``threads`` has no effect.
    """
    if not dataset:
        raise TrainError("cannot evaluate on an empty dataset")
    targets = _targets_of(dataset)
    spread = float(np.std(targets))
    if spread == 0.0:
        raise MetricError("std_mae undefined: evaluation targets have zero variance")
    preds = predict(params, dataset, cfg)
    errors = np.abs(preds - targets)
    mae = float(np.mean(errors))
    return MetricReport(
        mae=mae,
        std_mae=mae / spread,
        ewt=float(np.mean(errors < cfg.ewt_threshold)),
        n_samples=len(dataset),
    )


def _targets_of(dataset: Sequence[Graph3D]) -> np.ndarray:
    targets = np.empty(len(dataset), dtype=np.float64)
    for i, graph in enumerate(dataset):
        if graph.graph_target is None:
            raise TrainError(f"graph {graph.id!r} has no target")
        targets[i] = graph.graph_target
    return targets


def split_dataset(n: int, valid_fraction: float, seed: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled train/valid index split."""
    rng = philox_generator(seed, _SPLIT_TAG)
    order = rng.permutation(n)
    n_valid = int(round(n * valid_fraction))
    return np.sort(order[n_valid:]), np.sort(order[:n_valid])


def train(dataset: Sequence[Graph3D], cfg: RunConfig, seed: Optional[int] = None,
          split: Optional[tuple[Sequence[int], Sequence[int]]] = None,
          threads: int = 1, valid_fraction: float = 0.1) -> TrainResult:
    """Mini-batch training with MAE loss on the graph target.

    Shuffling is keyed to (seed, epoch); the best checkpoint by validation
    MAE (train MAE when the validation split is empty) is retained. A
    non-finite loss aborts with the offending step index. Validation runs in
    the chunks of ``predict``. ``threads`` has no effect.
    """
    if not dataset:
        raise TrainError("cannot train on an empty dataset")
    seed = cfg.seed if seed is None else seed
    targets = _targets_of(dataset)
    tables = tables_for(cfg)
    features = [featurize_graph(g, cfg, tables) for g in dataset]
    if split is None:
        train_idx, valid_idx = split_dataset(len(dataset), valid_fraction, seed)
        if train_idx.size == 0:
            train_idx, valid_idx = valid_idx, train_idx
    else:
        train_idx = np.asarray(split[0], dtype=np.int64)
        valid_idx = np.asarray(split[1], dtype=np.int64)
        if train_idx.size == 0:
            raise TrainError("training split is empty")
    valid_features = [features[i] for i in valid_idx]
    valid_targets = targets[valid_idx]

    params = init_params(cfg, seed)
    opt = OptimState.for_params(params)
    log: list[EpochLog] = []
    best_score = math.inf
    best_epoch = -1
    best_params = params.clone()
    step = 0
    for epoch in range(cfg.max_epochs):
        lr = lr_at(cfg, epoch)
        rng = philox_generator(seed, _SHUFFLE_TAG, epoch)
        order = train_idx[rng.permutation(train_idx.size)]
        abs_error_sum = 0.0
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            merged = merge_features([features[i] for i in batch])
            try:
                cache = forward_features(merged, params, cfg)
            except NetworkError as exc:
                # Parameters blew up on an earlier step; report it as
                # divergence at the step whose forward pass failed.
                raise DivergenceError(step) from exc
            residual = cache.predictions - targets[batch]
            loss = float(np.mean(np.abs(residual)))
            if not math.isfinite(loss):
                raise DivergenceError(step)
            backward(cache, np.sign(residual) / batch.size, accumulate=False)
            adam_step(params, opt, lr)
            abs_error_sum += float(np.sum(np.abs(residual)))
            step += 1
        train_mae = abs_error_sum / order.size
        if valid_idx.size:
            valid_preds = _stream_predictions(valid_features, params, cfg)
            valid_mae = float(np.mean(np.abs(valid_preds - valid_targets)))
            score = valid_mae
        else:
            valid_mae = math.nan
            score = train_mae
        log.append(EpochLog(epoch=epoch, lr=lr, train_mae=train_mae, valid_mae=valid_mae))
        if score < best_score:
            best_score = score
            best_epoch = epoch
            best_params = params.clone()
    return TrainResult(params=best_params, final_params=params, log=log,
                       best_epoch=best_epoch, best_score=best_score)


def format_epoch_log(log: Sequence[EpochLog]) -> str:
    lines = ["epoch,lr,train_mae,valid_mae"]
    for entry in log:
        lines.append(f"{entry.epoch},{entry.lr!r},{entry.train_mae!r},{entry.valid_mae!r}")
    return "\n".join(lines) + "\n"


def format_metric_report(report: MetricReport) -> str:
    return (
        f"mae: {report.mae!r}\n"
        f"std_mae: {report.std_mae!r}\n"
        f"ewt: {report.ewt!r}\n"
        f"n_samples: {report.n_samples}\n"
    )


# --- finite-difference forces ------------------------------------------------

def fd_forces(params: ModelParams, graph: Graph3D, cfg: RunConfig,
              h: float = 1e-4) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Central-difference force estimates -dE/dr, recomputing geometry per step.

    Returns an (n, 3) force array and the list of (atom, axis) displacements
    whose +-h configurations disagree about which atom pairs fall inside the
    cutoff; the energy is not smooth across that boundary, so those entries
    are suspect. The edge list of a featurized graph is the (receiver,
    sender)-ordered set of pairs within the cutoff, so two configurations
    agree exactly when their edge arrays are equal.
    """
    if not 1e-6 <= h <= 1e-3:
        raise TrainError(f"finite-difference step must lie in [1e-6, 1e-3], got {h}")
    tables = tables_for(cfg)

    def energy(moved: Graph3D) -> tuple[float, GraphFeatures]:
        features = featurize_graph(moved, cfg, tables)
        prediction = forward_features(features, params, cfg, grad=False).predictions[0]
        return float(prediction), features

    base = graph.positions
    n = graph.n_atoms
    forces = np.zeros((n, 3), dtype=np.float64)
    flagged: list[tuple[int, int]] = []
    for atom in range(n):
        for axis in range(3):
            shifted = base.copy()
            shifted[atom, axis] += h
            energy_plus, plus = energy(_with_positions(graph, shifted))
            shifted[atom, axis] -= 2.0 * h
            energy_minus, minus = energy(_with_positions(graph, shifted))
            forces[atom, axis] = -(energy_plus - energy_minus) / (2.0 * h)
            if not (np.array_equal(plus.edge_sender, minus.edge_sender)
                    and np.array_equal(plus.edge_receiver, minus.edge_receiver)):
                flagged.append((atom, axis))
    return forces, flagged


def _with_positions(graph: Graph3D, positions: np.ndarray) -> Graph3D:
    return Graph3D(atomic_numbers=graph.atomic_numbers, positions=positions.copy(),
                   graph_target=graph.graph_target, node_targets=graph.node_targets,
                   id=graph.id)


# --- synthetic regression tasks ----------------------------------------------

def synthetic_torsion_task(n_samples: int, seed: int,
                           task: str = "torsion") -> list[Graph3D]:
    """Random 4-atom chains whose target isolates one kind of geometry.

    Bond lengths are uniform in [0.9, 1.1] A, bond angles in [100, 120]
    degrees, and the dihedral is uniform in [0, 2*pi). Targets:

      * ``torsion``: cos(dihedral) + 0.1 * (sum of the three bond lengths)
      * ``angles``:  cos(angle_1) + cos(angle_2)
      * ``lengths``: sum of the three bond lengths
    """
    if n_samples < 64:
        raise TrainError(f"need at least 64 samples, got {n_samples}")
    if task not in SYNTHETIC_TASKS:
        raise TrainError(f"unknown task {task!r}; choose from {SYNTHETIC_TASKS}")
    rng = philox_generator(seed, _TASK_TAG)
    graphs: list[Graph3D] = []
    for index in range(n_samples):
        lengths = rng.uniform(0.9, 1.1, size=3)
        angles = rng.uniform(np.deg2rad(100.0), np.deg2rad(120.0), size=2)
        dihedral = rng.uniform(0.0, 2.0 * np.pi)
        positions = chain_positions(lengths, angles, dihedral)
        if task == "torsion":
            target = math.cos(dihedral) + 0.1 * float(np.sum(lengths))
        elif task == "angles":
            target = math.cos(angles[0]) + math.cos(angles[1])
        else:
            target = float(np.sum(lengths))
        graphs.append(Graph3D(
            atomic_numbers=np.array([6, 6, 6, 6]),
            positions=positions,
            graph_target=target,
            id=f"{task}-{seed}-{index}",
        ))
    return graphs


def chain_positions(lengths: np.ndarray, angles: np.ndarray,
                    dihedral: float) -> np.ndarray:
    """Cartesian coordinates of a 4-atom chain from internal coordinates."""
    a = np.zeros(3)
    b = np.array([lengths[0], 0.0, 0.0])
    b_to_c = np.array([-math.cos(angles[0]), math.sin(angles[0]), 0.0])
    c = b + lengths[1] * b_to_c
    axis = (c - b) / np.linalg.norm(c - b)
    normal = np.cross(b - a, axis)
    normal = normal / np.linalg.norm(normal)
    in_plane = np.cross(normal, axis)
    direction = (
        -math.cos(angles[1]) * axis
        + math.sin(angles[1]) * (math.cos(dihedral) * in_plane
                                 + math.sin(dihedral) * normal)
    )
    d = c + lengths[2] * direction
    return np.stack([a, b, c, d])


def dihedral_angle(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray,
                   p3: np.ndarray) -> float:
    """Textbook dihedral of four points in [0, 2*pi), for oracle checks."""
    b1 = p1 - p0
    b2 = p2 - p1
    b3 = p3 - p2
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m1 = np.cross(n1, b2 / np.linalg.norm(b2))
    angle = math.atan2(float(np.dot(m1, n2)), float(np.dot(n1, n2)))
    return angle if angle >= 0.0 else angle + 2.0 * math.pi


# --- ablation comparison ------------------------------------------------------

def ablation_config(epochs: int = 200, seed: int = 0) -> RunConfig:
    """Desk-scale configuration used by the ablation comparison runs.

    The 2.0 A cutoff keeps bonds and second neighbors of the synthetic
    chains inside the graph but usually excludes the 1-4 pair, so the
    distance-only mode faces an information floor on the dihedral target
    while the angle- and torsion-aware modes can still resolve it.
    """
    return RunConfig(
        cutoff_c=2.0,
        n_srbf=6,
        n_shbf=3,
        num_interaction_blocks=1,
        embed_size=64,
        lb2_distance_size=8,
        lb2_angle_size=8,
        lb2_torsion_size=8,
        output_embed_size=32,
        batch_size=64,
        init_lr=2e-3,
        schedule=SCHEDULE_STEP,
        decay_ratio=0.3,
        step_size=40,
        warmup_epochs=3,
        warmup_factor=0.2,
        max_epochs=epochs,
        ablation_mode=FULL,
        seed=seed,
    )


@dataclass(frozen=True)
class AblationRun:
    mode: str
    seed: int
    test_mae: float


@dataclass
class AblationReport:
    """Per-run test MAE plus per-mode medians over seeds."""

    task: str
    runs: list[AblationRun] = field(default_factory=list)

    def median(self, mode: str) -> float:
        values = sorted(run.test_mae for run in self.runs if run.mode == mode)
        if not values:
            raise TrainError(f"no runs recorded for mode {mode!r}")
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    def ordered(self, min_gap: float = 0.2) -> bool:
        """True when medians satisfy FULL < NO_TORSION < NO_ANGLE_TORSION
        with at least ``min_gap`` relative separation at each step."""
        full = self.median(FULL)
        no_torsion = self.median(NO_TORSION)
        no_angle = self.median(NO_ANGLE_TORSION)
        return (full < (1.0 - min_gap) * no_torsion
                and no_torsion < (1.0 - min_gap) * no_angle)


def run_ablation(task: str = "torsion", epochs: int = 200, n_seeds: int = 3,
                 train_size: int = 512, test_size: int = 128,
                 cfg: Optional[RunConfig] = None) -> AblationReport:
    """Train all three geometry modes on a synthetic task across seeds.

    Train and test sets are drawn from one stream and split off the front,
    so every mode and seed sees identical data.
    """
    report = AblationReport(task=task)
    base = cfg if cfg is not None else ablation_config(epochs)
    for seed in range(n_seeds):
        samples = synthetic_torsion_task(train_size + test_size, seed=seed, task=task)
        train_set = samples[:train_size]
        test_set = samples[train_size:]
        for mode in (FULL, NO_TORSION, NO_ANGLE_TORSION):
            mode_cfg = base.replace(ablation_mode=mode, max_epochs=epochs, seed=seed)
            result = train(train_set, mode_cfg, seed=seed)
            test_targets = _targets_of(test_set)
            preds = predict(result.params, test_set, mode_cfg)
            test_mae = float(np.mean(np.abs(preds - test_targets)))
            report.runs.append(AblationRun(mode=mode, seed=seed, test_mae=test_mae))
    return report
