import numpy as np
import pytest

from smpnet.autodiff import Tape, scatter_rows
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


def gather(tape, x, index):
    """Oracle op: the rows ``x[index]``, whose cotangent is summed into the
    gathered rows."""
    rows = x.value.shape[0]
    return tape._record(x.value[index], (x,), lambda g: (scatter_rows(index, g, rows),))


def add(tape, a, b):
    """Oracle op: ``a + b``. Each parent owns its cotangent, so the second one
    gets a copy."""
    return tape._record(a.value + b.value, (a, b), lambda g: (
        g, g.copy() if a.needs_grad and b.needs_grad else g))


def unfused_pair_aggregate(tape, base, gates, pair_edge, pair_neighbor, n_edges):
    """Oracle for ``Tape.pair_aggregate``: the gather/dense/mul/add/segment_sum
    composition that materializes every pair-wide intermediate."""
    term = gather(tape, base, pair_neighbor)
    for a, up, b, proj in gates:
        term = add(tape, term, tape.mul(tape.dense(a, up, b), gather(tape, proj, pair_neighbor)))
    return tape.segment_sum(term, pair_edge, n_edges)


def per_block_matmul(tape, rows, n_rows, bs):
    """Oracle for ``Tape.blocked_matmul``: the rows built whole, then one
    ``dense`` per weight."""
    a = tape.constant(rows(0, n_rows))
    return [tape.dense(a, b) for b in bs]


_dense = Tape.dense   # kept, so the oracle still works with Tape.dense patched to it


def unfused_dense(tape, x, w, b=None, silu=False, residual=None, transient=False):
    """Oracle for ``Tape.dense(..., residual=)``: the dense layer, then a
    separate ``add`` of the residual."""
    out = _dense(tape, x, w, b, silu=silu, transient=transient)
    return out if residual is None else add(tape, residual, out)
