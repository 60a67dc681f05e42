"""The paper's completeness claim, checked on mirror images.

A graph and its mirror image (x -> -x) have the same distances and the same
angles; only the torsions tell them apart. So the distance-only mode
(NO_ANGLE_TORSION, SchNet-like) and the distance-angle mode (NO_TORSION,
DimeNet-like) must featurize and predict the two bitwise alike, and the full
spherical representation must not. This pins the torsion convention (gaps to
the azimuthal predecessor) against a change that would make it
reflection-blind.
"""
import math

import numpy as np
import pytest

from smpnet.basis import tables_for
from smpnet.ingest import FULL, NO_ANGLE_TORSION, NO_TORSION, Graph3D
from smpnet.network import (featurize_graph, forward_features, init_params, merge_features,
                            pair_basis_rows)
from smpnet.train import ablation_config, synthetic_torsion_task

from conftest import random_graph

FEATURE_FIELDS = ("edge_sender", "edge_receiver", "edge_distance", "edge_rbf", "edge_radial",
                  "pair_edge", "pair_neighbor", "pair_theta", "pair_phi", "pair_harmonics")


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
        for field in FEATURE_FIELDS:
            value, mirror_value = getattr(feats, field), getattr(mirror_feats, field)
            assert (value is None and mirror_value is None) or np.array_equal(
                value, mirror_value), (mode, field)
        if mode == NO_TORSION:
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
