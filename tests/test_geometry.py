import numpy as np
import pytest

from smpnet.geometry import (GeometryError, build_radius_graph,
                             build_two_hop_index, compute_angles,
                             compute_torsions, random_rotation, rigid_transform,
                             two_hop_geometry)
from smpnet.ingest import Graph3D

from conftest import random_graph


def graph_of(positions, numbers=None):
    positions = np.asarray(positions, dtype=float)
    if numbers is None:
        numbers = np.ones(len(positions), dtype=int)
    return Graph3D(numbers, positions, id="g")


def brute_force_pairs(edges):
    """O(n^3)-style exhaustive enumeration of (k, j) message pairs."""
    pairs = []
    for k in range(edges.n_edges):
        for j in range(edges.n_edges):
            if edges.receivers[j] == edges.senders[k] and edges.senders[j] != edges.receivers[k]:
                pairs.append((k, j))
    return pairs


# --- radius graph ---------------------------------------------------------------

def test_two_atoms_within_cutoff():
    edges = build_radius_graph(graph_of([[0, 0, 0], [1, 0, 0]]), cutoff=5.0)
    assert edges.n_edges == 2
    assert np.allclose(edges.distances, [1.0, 1.0])


def test_two_atoms_beyond_cutoff():
    edges = build_radius_graph(graph_of([[0, 0, 0], [6, 0, 0]]), cutoff=5.0)
    assert edges.n_edges == 0


def test_equilateral_triangle_edges():
    h = np.sqrt(3) / 2
    edges = build_radius_graph(graph_of([[0, 0, 0], [1, 0, 0], [0.5, h, 0]]), cutoff=5.0)
    assert edges.n_edges == 6
    assert np.allclose(edges.distances, 1.0)


def test_edges_sorted_and_symmetric():
    rng = np.random.default_rng(0)
    g = random_graph(rng, n_atoms=6)
    edges = build_radius_graph(g, cutoff=2.5)
    order = list(zip(edges.receivers, edges.senders))
    assert order == sorted(order)
    forward = set(zip(edges.senders.tolist(), edges.receivers.tolist()))
    assert all((b, a) in forward for a, b in forward)
    for k in range(edges.n_edges):
        assert 0 < edges.distances[k] <= 2.5


def test_incoming_index():
    rng = np.random.default_rng(1)
    g = random_graph(rng, n_atoms=5)
    edges = build_radius_graph(g, cutoff=3.0)
    offsets = edges.receiver_offsets
    assert offsets.dtype == np.int64 and offsets.shape == (g.n_atoms + 1,)
    assert offsets[0] == 0 and offsets[-1] == edges.n_edges
    assert np.all(np.diff(offsets) >= 0)
    for node in range(g.n_atoms):
        assert np.all(edges.receivers[offsets[node]:offsets[node + 1]] == node)


# --- two-hop index --------------------------------------------------------------

def test_chain_reverse_edge_excluded():
    edges = build_radius_graph(
        graph_of([[0, 0, 0], [1, 0, 0], [2, 0, 0]]), cutoff=1.5)
    pair_k, pair_j = build_two_hop_index(edges)
    # Edge (b -> a) pairs only with the incoming edge (c -> b).
    k_ba = next(k for k in range(edges.n_edges)
                if edges.senders[k] == 1 and edges.receivers[k] == 0)
    mask = pair_k == k_ba
    assert int(mask.sum()) == 1
    j = int(pair_j[mask][0])
    assert edges.senders[j] == 2 and edges.receivers[j] == 1


def test_single_bond_has_no_pairs():
    edges = build_radius_graph(graph_of([[0, 0, 0], [1, 0, 0]]), cutoff=5.0)
    pair_k, pair_j = build_two_hop_index(edges)
    assert pair_k.size == 0 and pair_j.size == 0


def test_star_pair_count_matches_enumeration():
    g = graph_of([[0, 0, 0], [1.2, 0, 0], [0, 1.2, 0], [0, 0, 1.2]])
    edges = build_radius_graph(g, cutoff=1.5)  # star only: leaf pairs exceed 1.5
    pair_k, pair_j = build_two_hop_index(edges)
    expected = brute_force_pairs(edges)
    assert list(zip(pair_k.tolist(), pair_j.tolist())) == expected
    # Each center->leaf edge sees the other two leaves' incoming edges.
    for k in range(edges.n_edges):
        if edges.senders[k] == 0:
            assert int(np.sum(pair_k == k)) == 2
    assert pair_k.size == 6


@pytest.mark.parametrize("trial", range(30))
def test_two_hop_matches_brute_force_on_small_graphs(trial):
    rng = np.random.default_rng(1000 + trial)
    g = random_graph(rng, n_atoms=int(rng.integers(2, 7)))
    edges = build_radius_graph(g, cutoff=2.2)
    pair_k, pair_j = build_two_hop_index(edges)
    assert list(zip(pair_k.tolist(), pair_j.tolist())) == brute_force_pairs(edges)


# --- angles ---------------------------------------------------------------------

def test_right_angle():
    g = graph_of([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    edges = build_radius_graph(g, cutoff=5.0)
    pair_k, pair_j = build_two_hop_index(edges)
    theta = compute_angles(g, edges, pair_k, pair_j)
    at_origin = [theta[p] for p in range(pair_k.size)
                 if edges.senders[pair_k[p]] == 0]
    assert at_origin and np.allclose(at_origin, np.pi / 2)


def test_collinear_chain_through_angle_is_pi():
    g = graph_of([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    edges = build_radius_graph(g, cutoff=1.5)
    pair_k, pair_j = build_two_hop_index(edges)
    theta = compute_angles(g, edges, pair_k, pair_j)
    assert np.allclose(theta, np.pi)


def test_equilateral_triangle_angles():
    h = np.sqrt(3) / 2
    g = graph_of([[0, 0, 0], [1, 0, 0], [0.5, h, 0]])
    edges = build_radius_graph(g, cutoff=5.0)
    pair_k, pair_j = build_two_hop_index(edges)
    theta = compute_angles(g, edges, pair_k, pair_j)
    assert np.allclose(theta, np.pi / 3)


def test_angles_never_nan_under_rounding():
    # Nearly collinear triples push the exact cosine past +-1 by rounding.
    g = graph_of([[0, 0, 0], [1, 0, 0], [2 + 1e-16, 1e-16, 0]])
    edges = build_radius_graph(g, cutoff=5.0)
    pair_k, pair_j = build_two_hop_index(edges)
    theta = compute_angles(g, edges, pair_k, pair_j)
    assert np.all(np.isfinite(theta))
    assert np.all((theta >= 0) & (theta <= np.pi))


# --- torsions --------------------------------------------------------------------

def test_quarter_turn_gaps():
    for zeta in (-0.4, 0.0, 0.7):
        g = graph_of([[0, 0, 0], [0, 0, 1], [1, 0, zeta], [0, 1, zeta]])
        edges = build_radius_graph(g, cutoff=5.0)
        pair_k, pair_j = build_two_hop_index(edges)
        phi, counts, flags = compute_torsions(g, edges, pair_k, pair_j)
        assert not flags
        k = next(k for k in range(edges.n_edges)
                 if edges.senders[k] == 0 and edges.receivers[k] == 1)
        gaps = sorted(phi[pair_k == k])
        assert counts[k] == 2
        assert np.allclose(gaps, [np.pi / 2, 3 * np.pi / 2])
        assert abs(sum(gaps) - 2 * np.pi) < 1e-9


def test_three_neighbor_gaps_sum_to_full_turn():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng, n_atoms=5)
        edges = build_radius_graph(g, cutoff=4.0)
        pair_k, pair_j = build_two_hop_index(edges)
        phi, counts, _ = compute_torsions(g, edges, pair_k, pair_j)
        for k in range(edges.n_edges):
            if counts[k] >= 2:
                assert abs(phi[pair_k == k].sum() - 2 * np.pi) < 1e-9


def test_single_neighbor_torsion_is_zero():
    g = graph_of([[0, 0, 0], [1, 0, 0], [1.6, 0.8, 0]])
    edges = build_radius_graph(g, cutoff=1.2)
    pair_k, pair_j = build_two_hop_index(edges)
    phi, counts, _ = compute_torsions(g, edges, pair_k, pair_j)
    assert np.all(counts[pair_k] == 1)
    assert np.all(phi == 0.0)


def test_collinear_neighbor_flagged():
    g = graph_of([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0.2, 1, 0]])
    edges = build_radius_graph(g, cutoff=5.0)
    pair_k, pair_j = build_two_hop_index(edges)
    phi, counts, flags = compute_torsions(g, edges, pair_k, pair_j)
    # For edge (0 -> 1) the neighbor at (-1, 0, 0) sits on the axis.
    assert flags
    assert np.all(np.isfinite(phi))


def test_hydrogen_peroxide_gap_is_the_dihedral():
    dihedral = 1.9  # radians, arbitrary non-degenerate value
    d_oo, d_oh, angle = 1.475, 0.95, np.deg2rad(94.8)
    o1 = np.array([0.0, 0.0, 0.0])
    o2 = np.array([0.0, 0.0, d_oo])
    h1 = o1 + d_oh * np.array([np.sin(angle), 0.0, np.cos(angle)])
    h2 = o2 + d_oh * np.array([np.sin(angle) * np.cos(dihedral),
                               np.sin(angle) * np.sin(dihedral),
                               -np.cos(angle)])
    g = graph_of([o1, o2, h1, h2], numbers=[8, 8, 1, 1])
    edges = build_radius_graph(g, cutoff=5.0)
    pair_k, pair_j = build_two_hop_index(edges)
    phi, counts, _ = compute_torsions(g, edges, pair_k, pair_j)
    k = next(k for k in range(edges.n_edges)
             if edges.senders[k] == 0 and edges.receivers[k] == 1)
    gaps = sorted(phi[pair_k == k])
    assert np.allclose(gaps, sorted([dihedral, 2 * np.pi - dihedral]), atol=1e-9)


# --- rigid transforms -------------------------------------------------------------

def test_identity_transform():
    rng = np.random.default_rng(3)
    g = random_graph(rng)
    out = rigid_transform(g, np.eye(3), np.zeros(3))
    assert np.array_equal(out.positions, g.positions)
    assert np.array_equal(out.atomic_numbers, g.atomic_numbers)


def test_translation_preserves_distances():
    rng = np.random.default_rng(4)
    g = random_graph(rng, n_atoms=5)
    out = rigid_transform(g, np.eye(3), np.array([3.0, -1.0, 0.5]))
    d0 = np.linalg.norm(g.positions[:, None] - g.positions[None, :], axis=-1)
    d1 = np.linalg.norm(out.positions[:, None] - out.positions[None, :], axis=-1)
    assert np.allclose(d0, d1, atol=1e-12)


def test_reflection_rejected():
    rng = np.random.default_rng(5)
    g = random_graph(rng)
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(GeometryError, match="improper"):
        rigid_transform(g, reflection, np.zeros(3))
    with pytest.raises(GeometryError, match="orthogonal"):
        rigid_transform(g, np.eye(3) + 1e-6, np.zeros(3))


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("rotation, translation", [
    (np.diag([1.0, 1.0, NAN]), np.zeros(3)),
    (np.diag([1.0, INF, 1.0]), np.zeros(3)),
    (np.full((3, 3), -INF), np.zeros(3)),
    (np.full((3, 3), 1e200), np.zeros(3)),
    (np.eye(3), np.array([0.0, NAN, 0.0])),
    (np.eye(3), np.array([INF, 0.0, 0.0])),
    (np.eye(3), np.array([0.0, 0.0, -INF])),
], ids=["nan-rotation", "inf-rotation", "minus-inf-rotation", "overflowing-rotation",
        "nan-translation", "inf-translation", "minus-inf-translation"])
def test_non_finite_motion_rejected(rotation, translation):
    # RuntimeWarnings are errors in this suite, so a check made after the
    # products would fail here with another error.
    g = random_graph(np.random.default_rng(5))
    with pytest.raises(GeometryError, match="finite"):
        rigid_transform(g, rotation, translation)


def geometry_table(graph, cutoff):
    edges = build_radius_graph(graph, cutoff)
    hops = two_hop_geometry(graph, edges)
    return edges, hops


def test_se3_invariance_of_geometry_tables():
    rng = np.random.default_rng(6)
    g = random_graph(rng, n_atoms=6)
    edges, hops = geometry_table(g, 4.0)
    for _ in range(100):
        rotation = random_rotation(rng)
        translation = rng.uniform(-8.0, 8.0, size=3)
        moved = rigid_transform(g, rotation, translation)
        edges2, hops2 = geometry_table(moved, 4.0)
        assert np.array_equal(edges.senders, edges2.senders)
        assert np.array_equal(edges.receivers, edges2.receivers)
        assert np.max(np.abs(edges.distances - edges2.distances)) < 1e-9
        assert np.max(np.abs(hops.theta - hops2.theta)) < 1e-9
        assert np.max(np.abs(hops.phi - hops2.phi)) < 1e-9


def test_permutation_leaves_per_edge_multisets_unchanged():
    rng = np.random.default_rng(8)
    g = random_graph(rng, n_atoms=6)
    perm = rng.permutation(g.n_atoms)
    permuted = Graph3D(g.atomic_numbers[perm], g.positions[perm], id="p")
    edges, hops = geometry_table(g, 3.0)
    edges2, hops2 = geometry_table(permuted, 3.0)
    assert edges.n_edges == edges2.n_edges

    # inverse map: original node i sits at position inv[i] in the permuted graph
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)

    def per_edge_multisets(edges_, hops_, relabel):
        table = {}
        for p in range(hops_.pair_edge.size):
            k = hops_.pair_edge[p]
            key = (relabel[edges_.senders[k]], relabel[edges_.receivers[k]])
            d = edges_.distances[hops_.pair_neighbor[p]]
            table.setdefault(key, []).append(
                (round(d, 9), round(hops_.theta[p], 9), round(hops_.phi[p], 9)))
        return {k: sorted(v) for k, v in table.items()}

    original = per_edge_multisets(edges, hops, inv)
    relabeled = per_edge_multisets(edges2, hops2, np.arange(g.n_atoms))
    assert original == relabeled
