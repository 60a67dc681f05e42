"""The vectorized featurization and basis kernels against loop references.

``reference_two_hop_index`` and ``reference_torsions`` are the per-edge loop
implementations that ``build_two_hop_index`` and ``compute_torsions`` replaced,
kept here as oracles. The torsion oracle also reports collinear neighbors of
single-neighbor edges, as the documented contract asks. ``reference_roots``
is the order-by-order interlacing bisection that the all-orders root solve
replaced, and ``reference_real_sph_harm``, ``reference_sbf`` and
``reference_tbf`` are the per-(l, m) harmonic and per-column embedding loops
that the one-sweep harmonics replaced.
"""
import math

import numpy as np
import pytest

from smpnet import basis
from smpnet.basis import (MAX_ORDER, _bessel_table, _harmonics, _radial_table, bessel_roots,
                          build_tables, sbf_embed, spherical_bessel, tables_for, tbf_embed)
from smpnet.geometry import (COLLINEAR_PROJECTION_EPS, build_radius_graph,
                             build_two_hop_index, compute_torsions,
                             two_hop_geometry)
from smpnet.ingest import FULL, NO_ANGLE_TORSION, NO_TORSION, Graph3D, RunConfig
from smpnet.network import featurize_graph, merge_features, pair_basis_rows
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
    assert radial.shape == (tables.n_shbf, tables.n_srbf, d.size)
    for ell in range(tables.n_shbf):
        x = np.outer(d, tables.roots[ell] / tables.cutoff)
        expected = tables.norms[ell] * spherical_bessel(ell, x.ravel()).reshape(x.shape)
        # Relative to each (l, n) column's scale: entries near a root are ~0.
        scale = np.max(np.abs(expected), axis=0)
        assert np.all(np.abs(radial[ell].T - expected) <= 2e-15 * scale)


def reference_roots(l_max, n_max):
    roots = np.zeros((l_max + 1, n_max + l_max), dtype=np.float64)
    # j_0 = sin(x)/x: its roots are exactly n*pi; they seed the interlacing.
    roots[0] = np.arange(1, n_max + l_max + 1) * np.pi
    for order in range(1, l_max + 1):
        count = n_max + l_max - order
        lo = roots[order - 1, :count].copy()
        hi = roots[order - 1, 1:count + 1].copy()
        f_lo = _bessel_table(order, lo)[order]
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            f_mid = _bessel_table(order, mid)[order]
            take_hi = (f_lo * f_mid) <= 0.0
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
            f_lo = np.where(take_hi, f_lo, f_mid)
        mid = 0.5 * (lo + hi)
        for _ in range(2):
            value = _bessel_table(order, mid)[order]
            # j_l'(x) = j_{l-1}(x) - (l + 1)/x * j_l(x)
            table = _bessel_table(order + 1, mid)
            slope = table[order - 1] - (order + 1) / mid * table[order]
            mid = mid - value / slope
        roots[order, :count] = mid
    return roots[:, :n_max]


def reference_assoc_legendre(order, m, theta):
    u = np.cos(theta)
    s = np.sin(theta)
    pmm = np.ones_like(u)
    for i in range(1, m + 1):
        pmm = pmm * (2 * i - 1) * s
    if order == m:
        return pmm
    pm1 = (2 * m + 1) * u * pmm
    if order == m + 1:
        return pm1
    for ell in range(m + 2, order + 1):
        pmm, pm1 = pm1, ((2 * ell - 1) * u * pm1 - (ell + m - 1) * pmm) / (ell - m)
    return pm1


def reference_real_sph_harm(order, m, theta, phi):
    theta, phi = np.broadcast_arrays(np.atleast_1d(theta), np.atleast_1d(phi))
    m_abs = abs(m)
    legendre = reference_assoc_legendre(order, m_abs, theta)
    norm = math.sqrt(
        (2 * order + 1) / (4.0 * math.pi)
        * math.factorial(order - m_abs) / math.factorial(order + m_abs)
    )
    if m == 0:
        return norm * legendre
    if m > 0:
        return math.sqrt(2.0) * norm * legendre * np.cos(m_abs * phi)
    return math.sqrt(2.0) * norm * legendre * np.sin(m_abs * phi)


def reference_sbf(d, theta, tables):
    radial = _radial_table(d, tables)
    out = np.empty((d.size, tables.n_shbf, tables.n_srbf), dtype=np.float64)
    for ell in range(tables.n_shbf):
        zonal = reference_real_sph_harm(ell, 0, theta, 0.0)
        out[:, ell, :] = radial[ell].T * zonal[:, None]
    return out


def reference_tbf(d, theta, phi, tables):
    radial = _radial_table(d, tables)
    out = np.empty((d.size, tables.tbf_size), dtype=np.float64)
    col = 0
    for ell in range(tables.n_shbf):
        for m in range(-ell, ell + 1):
            angular = reference_real_sph_harm(ell, m, theta, phi)
            out[:, col:col + tables.n_srbf] = radial[ell].T * angular[:, None]
            col += tables.n_srbf
    return out


def test_roots_match_interlacing_reference():
    roots = bessel_roots(MAX_ORDER, 64)
    reference = reference_roots(MAX_ORDER, 64)
    assert np.array_equal(roots[0], reference[0])
    assert np.all(np.abs(roots - reference) <= 2 * np.spacing(reference))


def test_harmonics_sweep_matches_per_degree_reference():
    rng = np.random.default_rng(13)
    theta = np.concatenate([[0.0, np.pi, 0.5 * np.pi], rng.uniform(0.0, np.pi, 200)])
    phi = np.concatenate([[0.3, 2.0, 0.0], rng.uniform(0.0, 2.0 * np.pi, 200)])
    sweep = _harmonics(MAX_ORDER + 1, theta, phi)
    assert sweep.shape == ((MAX_ORDER + 1) ** 2, theta.size)
    for ell in range(MAX_ORDER + 1):
        for m in range(-ell, ell + 1):
            expected = reference_real_sph_harm(ell, m, theta, phi)
            assert np.array_equal(sweep[ell * ell + ell + m], expected), (ell, m)


@pytest.mark.parametrize("tables", [build_tables(5.0, 6, 7), build_tables(2.0, 4, 3),
                                    build_tables(3.0, 2, 1)],
                         ids=["default", "ablation", "order-zero"])
def test_sbf_tbf_match_column_loops(tables):
    rng = np.random.default_rng(17)
    d = np.concatenate([[1e-9, tables.cutoff], rng.uniform(0.0, tables.cutoff, 300)])
    theta = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 300)])
    phi = rng.uniform(0.0, 2.0 * np.pi, d.size)
    assert np.array_equal(sbf_embed(d, theta, tables), reference_sbf(d, theta, tables))
    assert np.array_equal(tbf_embed(d, theta, phi, tables),
                          reference_tbf(d, theta, phi, tables))


def test_embedding_rows_do_not_depend_on_batch_mates():
    # A compact graph alone and followed by a spread one: the spread graph
    # raises the largest Bessel argument of the call, which must not change
    # the compact graph's rows.
    tables = tables_for(RunConfig())
    rng = np.random.default_rng(23)
    coordinates = []
    for box in (1.5, 6.0):
        graph = random_graph(rng, n_atoms=8, box=box)
        edges = build_radius_graph(graph, tables.cutoff)
        hops = two_hop_geometry(graph, edges)
        coordinates.append((edges.distances[hops.pair_neighbor], hops.theta, hops.phi))
    (d, theta, phi), (d_other, theta_other, phi_other) = coordinates
    assert d.size and d_other.size and d_other.max() > 2.0 * d.max()
    both = [np.concatenate(pair) for pair in zip((d, theta, phi),
                                                  (d_other, theta_other, phi_other))]
    assert np.array_equal(sbf_embed(both[0], both[1], tables)[:d.size],
                          sbf_embed(d, theta, tables))
    assert np.array_equal(tbf_embed(*both, tables)[:d.size], tbf_embed(d, theta, phi, tables))


def pendant_graph(cutoff):
    """A zigzag chain whose end atoms have one neighbor each: the edges into
    them are no pair's neighbor edge."""
    bond = 0.6 * cutoff
    positions = [[0.0, 0.0, 0.0], [bond, 0.0, 0.0],
                 [1.5 * bond, 0.5 * math.sqrt(3.0) * bond, 0.0],
                 [2.5 * bond, 0.5 * math.sqrt(3.0) * bond, 0.2 * bond]]
    return Graph3D(np.array([1, 2, 1, 2]), np.array(positions), id="pendant")


@pytest.mark.parametrize("cfg", [RunConfig(), ablation_config()],
                         ids=["default", "ablation"])
def test_featurized_pair_bases_are_column_major_references(cfg):
    # The basis rows rebuilt from the stored factors, per graph and merged.
    # One graph without pairs among the parts: the merged rows must be
    # column-major all the same. The pendant chain has edges whose rows of
    # the per-edge radial table no pair reads.
    tables = tables_for(cfg)
    rng = np.random.default_rng(31)
    graphs = [random_graph(rng, n_atoms=n, box=1.5) for n in (6, 2, 8)]
    graphs.append(pendant_graph(cfg.cutoff_c))
    sbf_rows, tbf_rows = [], []
    for graph in graphs:
        edges = build_radius_graph(graph, cfg.cutoff_c)
        hops = two_hop_geometry(graph, edges)
        d = edges.distances[hops.pair_neighbor]
        sbf_rows.append(reference_sbf(d, hops.theta, tables).reshape(d.size, tables.sbf_size))
        tbf_rows.append(reference_tbf(d, hops.theta, hops.phi, tables))
    for mode in (FULL, NO_TORSION, NO_ANGLE_TORSION):
        parts = [featurize_graph(g, cfg.replace(ablation_mode=mode)) for g in graphs]
        assert parts[1].n_pairs == 0 and parts[1].n_edges
        assert all(part.n_pairs for part in parts[:1] + parts[2:])
        unread = np.setdiff1d(np.arange(parts[3].n_edges), parts[3].pair_neighbor)
        assert unread.size == 2
        merged = merge_features(parts)
        for feats, sbf, tbf in zip(parts + [merged], sbf_rows + [np.concatenate(sbf_rows)],
                                   tbf_rows + [np.concatenate(tbf_rows)]):
            for kind, reference in (("sbf", sbf), ("tbf", tbf)):
                value = pair_basis_rows(feats, kind, tables)(0, feats.n_pairs)
                assert value.flags.f_contiguous
                assert np.array_equal(value, reference)


@pytest.mark.parametrize("mode, tables_built", [(FULL, 1), (NO_TORSION, 1),
                                                (NO_ANGLE_TORSION, 1)])
def test_featurize_builds_one_radial_table_per_graph(monkeypatch, mode, tables_built):
    cfg = RunConfig(ablation_mode=mode)
    tables_for(cfg)   # fills the table cache, whose normalization calls _bessel_table too
    graph = random_graph(np.random.default_rng(37), n_atoms=6, box=1.5)
    calls = []
    bessel_table = basis._bessel_table

    def counted(*args):
        calls.append(args)
        return bessel_table(*args)

    monkeypatch.setattr(basis, "_bessel_table", counted)
    features = featurize_graph(graph, cfg)
    assert features.n_pairs
    assert len(calls) == tables_built
    # The distance embedding is that table's l = 0 rows, points first.
    assert features.edge_rbf.flags.c_contiguous
    assert np.array_equal(features.edge_rbf, features.edge_radial[0].T)

