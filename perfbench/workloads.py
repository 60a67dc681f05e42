"""Workload definitions, seeded input generators and output checks.

Each workload is a dataset written as XYZ (plus, for evaluation, a
checkpoint) and a run configuration. The inputs depend only on the workload
seed; the program under test sees nothing but the files written here.

Why these three workloads: the cost of smpnet grows with two-hop pairs, not
atoms, and training and inference stress different layers.

* ``chains-train``: the paper's ablation task (512 four-atom chains, the
  desk-scale ablation config). Graphs are tiny, so per-call overhead in
  featurization and in the training loop dominates.
* ``molecules-train``: QM9-sized molecules (9-18 H/C/N/O atoms, about 12
  pairs per edge) at the default architecture. The only workload where the
  interaction blocks, backward and Adam run at real scale.
* ``clusters-eval``: bulk-density carbon clusters (about 23 pairs per edge)
  evaluated from a checkpoint, exactly as ``smpnet eval`` does. Inference
  only: pair-level featurization and the interaction forward.
"""
from __future__ import annotations

import math

import numpy as np

REFERENCE_SEED = 0
# Epoch MAEs of the reference seed must match reference.json to this relative
# tolerance. Bit-identical refactors reproduce them exactly. Scaling every
# input coordinate by 1 + 1e-15 moves them by at most 3e-13, so 1e-6 leaves
# room for a changed summation order, while any change to the model, the
# data or the optimizer moves them by far more.
REFERENCE_RTOL = 1e-6
# Rigid-motion invariance tolerance of the acceptance suite.
INVARIANCE_RTOL = 1e-9

VALID_FRACTION = 0.1          # the last tenth of each training set validates
MIN_SEPARATION = 1.0          # angstrom, between atoms of a generated molecule
# Molecules fit in a ball of this radius, so every atom pair lies within the
# 5 A cutoff and edge and pair counts are the same for every seed.
MOLECULE_RADIUS = 2.45
MOLECULE_SIZES = tuple(9 + i % 10 for i in range(32))
MOLECULE_ELEMENTS = ("H", "C", "N", "O")
MOLECULE_WEIGHTS = (0.40, 0.35, 0.125, 0.125)
# Per-element contributions to the molecule target (an additive energy).
ELEMENT_ENERGY = {"H": -0.2, "C": -0.6, "N": -0.4, "O": -0.3}
# Clusters are the lattice sites of a simple cubic crystal at this density
# nearest one site, each jittered by up to CLUSTER_JITTER per axis. A fixed
# lattice keeps the pair count (the cost) within about 1% across seeds, where
# random packing varies it by 8%.
CLUSTER_SIZES = (16, 24, 32, 64)
CLUSTER_DENSITY = 0.1         # atoms per cubic angstrom
CLUSTER_JITTER = 0.2          # angstrom

WORKLOADS = {
    "chains-train": {"kind": "train", "n_graphs": 512, "epochs": 20},
    "molecules-train": {"kind": "train", "n_graphs": len(MOLECULE_SIZES), "epochs": 5,
                        "batch_size": 8},
    "clusters-eval": {"kind": "eval", "n_graphs": len(CLUSTER_SIZES)},
}


def run_config(workload: str, seed: int):
    """The smpnet RunConfig of a workload; the seed drives init and shuffling."""
    from smpnet.ingest import RunConfig
    from smpnet.train import ablation_config
    info = WORKLOADS[workload]
    if workload == "chains-train":
        return ablation_config(epochs=info["epochs"], seed=seed)
    if workload == "molecules-train":
        return RunConfig(batch_size=info["batch_size"], max_epochs=info["epochs"], seed=seed)
    return RunConfig(seed=seed)


def split(n_graphs: int) -> tuple[list[int], list[int]]:
    """Train and validation indices: the validation set is the last tenth."""
    n_train = n_graphs - int(round(VALID_FRACTION * n_graphs))
    return list(range(n_train)), list(range(n_train, n_graphs))


# A frame is (element symbols, (n, 3) positions in angstrom, target).


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, tag]))


def _packed_ball(rng: np.random.Generator, n_atoms: int, radius: float) -> np.ndarray:
    """Uniform points in a ball, added one by one, each at least
    MIN_SEPARATION from every earlier point."""
    positions = np.empty((n_atoms, 3))
    count = 0
    while count < n_atoms:
        candidate = rng.uniform(-radius, radius, size=3)
        if candidate @ candidate > radius * radius:
            continue
        if count and np.min(np.linalg.norm(positions[:count] - candidate, axis=1)) < MIN_SEPARATION:
            continue
        positions[count] = candidate
        count += 1
    return positions


def chain_frames(seed: int, n_graphs: int) -> list:
    """The paper's synthetic dihedral-regression task, as smpnet draws it."""
    from smpnet.train import synthetic_torsion_task
    return [(["C"] * g.n_atoms, g.positions, g.graph_target)
            for g in synthetic_torsion_task(n_graphs, seed)]


def molecule_frames(seed: int) -> list:
    rng = _rng(seed, 1)
    frames = []
    for n_atoms in MOLECULE_SIZES:
        symbols = [str(s) for s in rng.choice(MOLECULE_ELEMENTS, size=n_atoms, p=MOLECULE_WEIGHTS)]
        positions = _packed_ball(rng, n_atoms, MOLECULE_RADIUS)
        target = sum(ELEMENT_ENERGY[s] for s in symbols) + 0.05 * float(rng.standard_normal())
        frames.append((symbols, positions, target))
    return frames


def cluster_frames(seed: int) -> list:
    rng = _rng(seed, 2)
    spacing = CLUSTER_DENSITY ** (-1.0 / 3.0)
    axis = np.arange(-4, 5)
    sites = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3) * spacing
    nearest = np.argsort(np.linalg.norm(sites, axis=1), kind="stable")
    frames = []
    for n_atoms in CLUSTER_SIZES:
        positions = sites[nearest[:n_atoms]] + rng.uniform(
            -CLUSTER_JITTER, CLUSTER_JITTER, size=(n_atoms, 3))
        frames.append((["C"] * n_atoms, positions, float(rng.standard_normal())))
    return frames


def frames_for(workload: str, seed: int) -> list:
    if workload == "chains-train":
        return chain_frames(seed, WORKLOADS[workload]["n_graphs"])
    if workload == "molecules-train":
        return molecule_frames(seed)
    return cluster_frames(seed)


def format_xyz(frames) -> str:
    """XYZ text with shortest round-trip floats, so equal frames give equal bytes."""
    lines = []
    for symbols, positions, target in frames:
        lines.append(str(len(symbols)))
        lines.append(f"target={float(target)!r}")
        for symbol, row in zip(symbols, positions):
            lines.append(f"{symbol} {float(row[0])!r} {float(row[1])!r} {float(row[2])!r}")
    return "\n".join(lines) + "\n"


def graph_counts(frames, cutoff: float) -> dict:
    """Atoms, directed radius-graph edges and two-hop pairs, counted directly.

    Every directed edge s -> r pairs with each edge into s except r -> s, so
    a node of degree k contributes k * (k - 1) pairs.
    """
    atoms = edges = pairs = 0
    for _, positions, _ in frames:
        diff = positions[:, None, :] - positions[None, :, :]
        within = np.sqrt(np.sum(diff * diff, axis=-1)) <= cutoff
        np.fill_diagonal(within, False)
        degree = within.sum(axis=1)
        atoms += len(positions)
        edges += int(degree.sum())
        pairs += int(np.sum(degree * (degree - 1)))
    return {"graphs": len(frames), "atoms": atoms, "edges": edges, "pairs": pairs}


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniform proper rotation (QR of a Gaussian matrix, det fixed to +1)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# --- output checks ------------------------------------------------------------
# Each returns the failed operations as (index, reason) pairs; an empty list
# means the output is correct.

def check_predictions(predictions, moved_prediction: float, moved_index: int) -> list:
    """Every prediction is finite, and graph ``moved_index`` predicts the same
    value within INVARIANCE_RTOL after a proper rigid motion."""
    failures = [(i, f"non-finite prediction {p!r}")
                for i, p in enumerate(map(float, predictions)) if not math.isfinite(p)]
    reference = float(predictions[moved_index])
    scale = max(abs(reference), abs(moved_prediction))
    if not abs(reference - moved_prediction) <= INVARIANCE_RTOL * scale:
        failures.append((moved_index, f"prediction {reference!r} becomes "
                                      f"{moved_prediction!r} after a rigid motion"))
    return failures


def check_epoch_log(log, reference=None, rtol: float = REFERENCE_RTOL) -> list:
    """Finite MAEs every epoch and, when given, agreement with a reference.

    ``log`` and ``reference`` hold one (train_mae, valid_mae) row per epoch;
    ``rtol=0`` demands bit-identical rows.
    """
    failures = [(e, f"non-finite MAE {row}")
                for e, row in enumerate(log) if not all(map(math.isfinite, row))]
    if reference is not None:
        failures += [(e, f"epoch {e} missing from the log")
                     for e in range(len(log), len(reference))]
        failures += [(e, f"MAEs {row} differ from {ref}")
                     for e, (row, ref) in enumerate(zip(log, reference))
                     if not all(math.isclose(v, r, rel_tol=rtol, abs_tol=0.0)
                                for v, r in zip(row, ref))]
    return failures
