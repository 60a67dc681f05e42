import numpy as np
import pytest

from smpnet.ingest import Graph3D, RunConfig


def random_graph(rng: np.random.Generator, n_atoms: int = None,
                 box: float = 3.0, min_separation: float = 0.6,
                 max_z: int = 2) -> Graph3D:
    """A well-separated random point cloud; rejection sampling keeps atom
    pairs far enough apart that angles and torsions are well conditioned."""
    if n_atoms is None:
        n_atoms = int(rng.integers(2, 7))
    positions = np.empty((n_atoms, 3))
    count = 0
    while count < n_atoms:
        candidate = rng.uniform(0.0, box, size=3)
        if count == 0 or np.min(
                np.linalg.norm(positions[:count] - candidate, axis=1)) >= min_separation:
            positions[count] = candidate
            count += 1
    numbers = rng.integers(1, max_z + 1, size=n_atoms)
    return Graph3D(numbers, positions, graph_target=float(rng.normal()), id="random")


@pytest.fixture
def tiny_cfg() -> RunConfig:
    """Small architecture used for fast network-level tests."""
    return RunConfig(
        cutoff_c=3.5,
        n_srbf=3,
        n_shbf=2,
        num_interaction_blocks=2,
        embed_size=8,
        lb2_distance_size=3,
        lb2_angle_size=3,
        lb2_torsion_size=3,
        output_embed_size=6,
        batch_size=8,
        max_z=6,
        max_epochs=4,
    )


def unfused_pair_aggregate(tape, base, gates, pair_edge, pair_neighbor, n_edges):
    """Oracle for ``Tape.pair_aggregate``: the gather/dense/mul/add/segment_sum
    composition that materializes every pair-wide intermediate."""
    term = tape.gather(base, pair_neighbor)
    for a, up, b, proj in gates:
        term = tape.add(term, tape.mul(tape.dense(a, up, b), tape.gather(proj, pair_neighbor)))
    return tape.segment_sum(term, pair_edge, n_edges)


def per_block_matmul(tape, a, bs):
    """Oracle for ``Tape.stacked_matmul``: one ``dense`` per weight."""
    return [tape.dense(a, b) for b in bs]
