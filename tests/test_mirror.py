"""The paper's completeness claim, checked on mirror images.

A graph and its mirror image (x -> -x) have the same distances and the same
angles; only the torsions tell them apart. Every mode featurizes the whole
(d, theta, phi) description, so the features of a mirror pair differ in
their torsions. But the fields that the distance-only mode
(NO_ANGLE_TORSION, SchNet-like) and the distance-angle mode (NO_TORSION,
DimeNet-like) read must be bitwise alike, and so must their predictions;
the full spherical representation must tell the two apart. This pins the
torsion convention (gaps to the azimuthal predecessor) against a change that
would make it reflection-blind.

The convention also has a limit, pinned below as a documented property: one
edge's pair features do not fix its neighborhood up to congruence.
"""
import math

import numpy as np
import pytest

from smpnet.basis import tables_for
from smpnet.ingest import FULL, NO_ANGLE_TORSION, NO_TORSION, Graph3D, RunConfig
from smpnet.network import (featurize_graph, forward_features, init_params, merge_features,
                            pair_basis_rows)
from smpnet.train import ablation_config, synthetic_torsion_task

from conftest import random_graph

# The fields each mode's forward reads, besides the atoms and graph ids. The
# distance-angle mode also reads the zonal columns of ``pair_harmonics``.
DISTANCE_FIELDS = ("edge_sender", "edge_receiver", "edge_rbf", "pair_edge", "pair_neighbor")
READS = {NO_ANGLE_TORSION: DISTANCE_FIELDS,
         NO_TORSION: DISTANCE_FIELDS + ("edge_distance", "edge_radial", "pair_theta")}


def mirrored(graph: Graph3D) -> Graph3D:
    positions = graph.positions.copy()
    positions[:, 0] = -positions[:, 0]
    return Graph3D(graph.atomic_numbers, positions, graph_target=graph.graph_target,
                   id=graph.id + "-mirror")


def dihedral_angle(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray,
                   p3: np.ndarray) -> float:
    """Textbook dihedral of four points in [0, 2*pi)."""
    b1 = p1 - p0
    b2 = p2 - p1
    b3 = p3 - p2
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m1 = np.cross(n1, b2 / np.linalg.norm(b2))
    angle = math.atan2(float(np.dot(m1, n2)), float(np.dot(n1, n2)))
    return angle if angle >= 0.0 else angle + 2.0 * math.pi


def chiral_graphs(cfg):
    rng = np.random.default_rng(71)
    graphs = [random_graph(rng, n_atoms=5) for _ in range(3)]
    return [g for g in graphs if featurize_graph(g, cfg).n_pairs]


def ablation_chains():
    # Dihedrals away from 0 and pi: those chains are their own mirror images.
    chains = [g for g in synthetic_torsion_task(64, seed=5)
              if abs(math.sin(dihedral_angle(*g.positions))) > 0.3]
    return chains[:3]


def pair_basis(feats, kind, cfg):
    """Every row of a pair basis, rebuilt from the factors in ``feats``."""
    return pair_basis_rows(feats, kind, tables_for(cfg))(0, feats.n_pairs)


def features_and_predictions(graphs, cfg):
    features = merge_features([featurize_graph(g, cfg) for g in graphs])
    predictions = forward_features(features, init_params(cfg, seed=0), cfg,
                                   grad=False).predictions
    return features, predictions


@pytest.mark.parametrize("case", ["random", "chains"])
def test_mirror_images_split_only_with_torsions(tiny_cfg, case):
    base_cfg = tiny_cfg if case == "random" else ablation_config()
    graphs = chiral_graphs(base_cfg) if case == "random" else ablation_chains()
    assert len(graphs) == 3
    mirrors = [mirrored(g) for g in graphs]
    for mode in (NO_TORSION, NO_ANGLE_TORSION):
        cfg = base_cfg.replace(ablation_mode=mode)
        (feats, preds), (mirror_feats, mirror_preds) = (
            features_and_predictions(gs, cfg) for gs in (graphs, mirrors))
        for field in READS[mode]:
            assert np.array_equal(getattr(feats, field), getattr(mirror_feats, field)), (
                mode, field)
        if mode == NO_TORSION:
            orders = np.arange(cfg.n_shbf)
            zonal = orders * orders + orders
            assert np.array_equal(feats.pair_harmonics[zonal],
                                  mirror_feats.pair_harmonics[zonal])
            assert np.array_equal(pair_basis(feats, "sbf", cfg),
                                  pair_basis(mirror_feats, "sbf", cfg))
        assert np.array_equal(preds, mirror_preds), mode
    cfg = base_cfg.replace(ablation_mode=FULL)
    (feats, preds), (mirror_feats, mirror_preds) = (
        features_and_predictions(gs, cfg) for gs in (graphs, mirrors))
    assert np.array_equal(pair_basis(feats, "sbf", cfg), pair_basis(mirror_feats, "sbf", cfg))
    tbf, mirror_tbf = pair_basis(feats, "tbf", cfg), pair_basis(mirror_feats, "tbf", cfg)
    for g in range(len(graphs)):
        rows = np.isin(feats.pair_edge, np.flatnonzero(
            feats.graph_ids[feats.edge_sender] == g))
        assert not np.array_equal(tbf[rows], mirror_tbf[rows])
        assert preds[g] != mirror_preds[g]


def star(azimuths) -> Graph3D:
    """Carbon S at the origin with R 1 A up the z axis and three more
    neighbors at 1.00, 1.05 and 1.10 A, each at polar angle 110 degrees from
    S->R and at the given azimuths (degrees) about it."""
    polar = math.radians(110.0)
    positions = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    for radius, azimuth in zip((1.00, 1.05, 1.10), np.radians(azimuths)):
        positions.append([radius * math.sin(polar) * math.cos(azimuth),
                          radius * math.sin(polar) * math.sin(azimuth),
                          radius * math.cos(polar)])
    return Graph3D(np.full(5, 6), np.array(positions), id="star")


def pair_coordinates(graph: Graph3D, cfg):
    """(d, theta, phi) per pair, and the pairs of edge S->R (atoms 0 and 1)."""
    feats = featurize_graph(graph, cfg)
    coords = np.column_stack([feats.edge_distance[feats.pair_neighbor], feats.pair_theta,
                              feats.pair_phi])
    edge = np.flatnonzero((feats.edge_sender == 0) & (feats.edge_receiver == 1))
    return coords, feats.pair_edge == edge


def test_one_edges_pairs_do_not_fix_its_neighborhood():
    # phi is each neighbor's gap to its azimuthal predecessor, and which
    # neighbor that is is no feature. Azimuths 0/100/220 and 0/220/120 give
    # the 1.00, 1.05 and 1.10 A neighbors the gaps 140, 100 and 120 degrees
    # in both, yet the two neighborhoods are not congruent. The rest of the
    # graph tells them apart: the other edges' pairs see the difference.
    cfg = RunConfig(cutoff_c=1.2)
    first, second = star([0.0, 100.0, 220.0]), star([0.0, 220.0, 120.0])
    (coords, on_edge), (other, other_on_edge) = (pair_coordinates(g, cfg)
                                                  for g in (first, second))
    assert np.array_equal(on_edge, other_on_edge) and on_edge.sum() == 3
    # d and theta bitwise; phi up to the rounding of azimuth differences.
    assert np.array_equal(coords[on_edge, :2], other[on_edge, :2])
    np.testing.assert_allclose(coords[on_edge, 2], other[on_edge, 2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.degrees(coords[on_edge, 2]), [140.0, 100.0, 120.0])

    gaps = [float(np.linalg.norm(g.positions[2] - g.positions[3])) for g in (first, second)]
    np.testing.assert_allclose(gaps, [1.476, 1.810], atol=5e-4)

    def multiset(rows):
        return rows[np.lexsort(np.round(rows, 9).T[::-1])]

    assert coords.shape == other.shape
    assert np.max(np.abs(multiset(coords) - multiset(other))) > 0.1
