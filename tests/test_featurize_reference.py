"""The segmented featurization against per-edge loop references.

``reference_two_hop_index`` and ``reference_torsions`` are the per-edge loop
implementations that ``build_two_hop_index`` and ``compute_torsions`` replaced,
kept here as oracles. The torsion oracle also reports collinear neighbors of
single-neighbor edges, as the documented contract asks.
"""
import numpy as np
import pytest

from smpnet.basis import _radial_table, spherical_bessel, tables_for
from smpnet.geometry import (COLLINEAR_PROJECTION_EPS, build_radius_graph,
                             build_two_hop_index, compute_torsions)
from smpnet.ingest import Graph3D, RunConfig
from smpnet.train import ablation_config

from conftest import random_graph


def reference_two_hop_index(edges):
    pair_k, pair_j = [], []
    offsets = edges.receiver_offsets
    for k in range(edges.n_edges):
        sender = edges.senders[k]
        receiver = edges.receivers[k]
        for j in range(offsets[sender], offsets[sender + 1]):
            if edges.senders[j] != receiver:
                pair_k.append(k)
                pair_j.append(j)
    return np.asarray(pair_k, dtype=np.int64), np.asarray(pair_j, dtype=np.int64)


def _reference_plane_basis(axis):
    pick = np.argmin(np.abs(axis))
    seed = np.zeros(3)
    seed[pick] = 1.0
    b1 = seed - np.dot(seed, axis) * axis
    b1 = b1 / np.linalg.norm(b1)
    return b1, np.cross(axis, b1)


def reference_torsions(graph, edges, pair_k, pair_j):
    pos = graph.positions
    phi = np.zeros(pair_k.size, dtype=np.float64)
    counts = np.bincount(pair_k, minlength=edges.n_edges).astype(np.int64)
    collinear = []
    boundaries = np.flatnonzero(np.diff(pair_k)) + 1
    group_starts = np.concatenate(([0], boundaries)) if pair_k.size else np.empty(0, np.int64)
    group_ends = np.concatenate((boundaries, [pair_k.size])) if pair_k.size else group_starts
    for start, end in zip(group_starts, group_ends):
        k = pair_k[start]
        t = end - start
        origin = pos[edges.senders[k]]
        axis = pos[edges.receivers[k]] - origin
        axis = axis / np.linalg.norm(axis)
        b1, b2 = _reference_plane_basis(axis)
        azimuths = np.empty(t, dtype=np.float64)
        for offset in range(t):
            j = pair_j[start + offset]
            rel = pos[edges.senders[j]] - origin
            proj = rel - np.dot(rel, axis) * axis
            if np.linalg.norm(proj) < COLLINEAR_PROJECTION_EPS:
                azimuths[offset] = 0.0
                collinear.append(int(start + offset))
                continue
            az = np.arctan2(np.dot(proj, b2), np.dot(proj, b1))
            azimuths[offset] = az if az >= 0.0 else az + 2.0 * np.pi
        if t == 1:
            continue
        neighbor_dist = edges.distances[pair_j[start:end]]
        neighbor_node = edges.senders[pair_j[start:end]]
        order = np.lexsort((neighbor_node, neighbor_dist, azimuths))
        gaps = np.mod(azimuths[order] - azimuths[order[np.arange(t) - 1]], 2.0 * np.pi)
        gaps[0] = 2.0 * np.pi - np.sum(gaps[1:])
        phi[start + order] = gaps
    return phi, counts, tuple(collinear)


def graph_of(positions):
    positions = np.asarray(positions, dtype=float)
    return Graph3D(np.ones(len(positions), dtype=int), positions, id="g")


def assert_matches_reference(graph, cutoff):
    edges = build_radius_graph(graph, cutoff)
    pair_k, pair_j = build_two_hop_index(edges)
    ref_k, ref_j = reference_two_hop_index(edges)
    assert pair_k.dtype == np.int64 and pair_j.dtype == np.int64
    assert np.array_equal(pair_k, ref_k) and np.array_equal(pair_j, ref_j)
    phi, counts, collinear = compute_torsions(graph, edges, pair_k, pair_j)
    ref_phi, ref_counts, ref_collinear = reference_torsions(graph, edges, pair_k, pair_j)
    assert np.array_equal(counts, ref_counts)
    assert phi.shape == ref_phi.shape
    assert np.max(np.abs(phi - ref_phi), initial=0.0) <= 1e-12
    assert collinear == ref_collinear
    assert all(type(p) is int for p in collinear)
    return phi, counts, collinear


@pytest.mark.parametrize("trial", range(40))
def test_random_graphs_match_reference(trial):
    rng = np.random.default_rng(500 + trial)
    n_atoms = int(rng.integers(2, 25))
    graph = random_graph(rng, n_atoms=n_atoms, box=1.0 + 0.5 * n_atoms ** (1 / 3))
    assert_matches_reference(graph, cutoff=float(rng.uniform(1.0, 3.5)))


def test_azimuth_ties_broken_by_distance_then_node():
    # Edge 0 -> 1 lies along z; neighbors 2, 3, 5, 6 form a square in the xz
    # plane. Neighbors 2 and 3 share azimuth 0 and distance, 4 shares azimuth 0
    # at a larger distance, and 5 and 6 share azimuth pi and distance.
    graph = graph_of([[0, 0, 0], [0, 0, 1], [1, 0, 0.5], [1, 0, -0.5], [2, 0, 0],
                      [-1, 0, 0.5], [-1, 0, -0.5]])
    phi, counts, _ = assert_matches_reference(graph, cutoff=2.5)
    edges = build_radius_graph(graph, 2.5)
    pair_k, pair_j = build_two_hop_index(edges)
    k = next(k for k in range(edges.n_edges)
             if edges.senders[k] == 0 and edges.receivers[k] == 1)
    gaps = dict(zip(edges.senders[pair_j[pair_k == k]].tolist(), phi[pair_k == k]))
    # Cyclic order 2, 3, 4, 5, 6: only the first of each azimuth carries a gap.
    assert counts[k] == 5
    assert gaps == {2: pytest.approx(np.pi), 3: 0.0, 4: 0.0,
                    5: pytest.approx(np.pi), 6: 0.0}


def test_collinear_neighbors_match_reference():
    # Node 3 is off the x axis by less than COLLINEAR_PROJECTION_EPS, so its
    # azimuth about edges along x is rounding noise and must be set to 0.
    graph = graph_of([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [-2, 3e-9, 0], [0.2, 1, 0]])
    _, _, collinear = assert_matches_reference(graph, cutoff=5.0)
    assert len(collinear) > 2


def test_collinear_neighbor_of_single_neighbor_edge_is_reported():
    graph = graph_of([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    edges = build_radius_graph(graph, 1.2)
    pair_k, pair_j = build_two_hop_index(edges)
    phi, counts, collinear = compute_torsions(graph, edges, pair_k, pair_j)
    assert pair_k.size == 2 and np.all(counts[pair_k] == 1)
    assert np.array_equal(phi, [0.0, 0.0])
    assert collinear == (0, 1)
    assert all(type(p) is int for p in collinear)


def test_single_neighbor_edges_match_reference():
    graph = graph_of([[0, 0, 0], [1, 0, 0], [1.6, 0.8, 0], [2.4, 1.2, 0.5]])
    phi, _, _ = assert_matches_reference(graph, cutoff=1.2)
    assert np.all(phi == 0.0)


@pytest.mark.parametrize("positions", [[[0, 0, 0]], [[0, 0, 0], [1, 0, 0]],
                                       [[0, 0, 0], [4, 0, 0], [8, 0, 0]]])
def test_graphs_without_pairs_match_reference(positions):
    phi, counts, collinear = assert_matches_reference(graph_of(positions), cutoff=1.5)
    assert phi.size == 0 and collinear == ()
    assert counts.size == build_radius_graph(graph_of(positions), 1.5).n_edges


@pytest.mark.parametrize("cfg", [RunConfig(), ablation_config()],
                         ids=["default", "ablation"])
def test_radial_table_matches_per_order_bessel(cfg):
    tables = tables_for(cfg)
    rng = np.random.default_rng(9)
    d = np.concatenate([rng.uniform(1e-9, tables.cutoff, 400),
                        [1e-9, 1e-3, 0.5, tables.cutoff]])
    radial = _radial_table(d, tables)
    assert radial.shape == (d.size, tables.n_shbf, tables.n_srbf)
    for ell in range(tables.n_shbf):
        x = np.outer(d, tables.roots[ell] / tables.cutoff)
        expected = tables.norms[ell] * spherical_bessel(ell, x.ravel()).reshape(x.shape)
        # Relative to each (l, n) column's scale: entries near a root are ~0.
        scale = np.max(np.abs(expected), axis=0)
        assert np.all(np.abs(radial[:, ell, :] - expected) <= 2e-15 * scale)
