"""Radius graphs and the spherical-coordinate description of two-hop paths.

For every directed edge k (sender s_k, receiver r_k) and every edge j that
points into s_k from a node other than r_k, this module produces the tuple
(d, theta, phi): the neighbor distance, the angle at s_k between the
directions to r_k and to the neighbor, and the torsion angle. Torsions are
azimuthal gaps between consecutive neighbors projected onto the plane
perpendicular to the edge, taken in ascending azimuth about the s_k -> r_k
axis; the gaps around one edge sum to 2*pi whenever there are at least two
neighbors.

Nothing loops over edges in Python: the two-hop index is CSR arithmetic over
``receiver_offsets``, and torsions treat each edge's pairs as one segment of
flat arrays (one frame per edge, one sort for all segments, gaps and the
wrap-around closure per segment). All functions are pure and operate on
immutable inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Graph3D, pair_distances

# Below this projected norm (angstrom) a neighbor counts as collinear with
# the edge axis; its torsion is geometrically undefined and set to zero.
COLLINEAR_PROJECTION_EPS = 1e-8

ORTHOGONALITY_TOL = 1e-12


class GeometryError(ValueError):
    """Raised for invalid geometric inputs (e.g. an improper rotation)."""


@dataclass(frozen=True)
class DirectedEdgeList:
    """Directed radius-graph edges, sorted by (receiver, sender).

    ``receiver_offsets`` is a CSR-style index: edges with receiver i occupy
    positions [receiver_offsets[i], receiver_offsets[i+1]).
    """

    senders: np.ndarray
    receivers: np.ndarray
    distances: np.ndarray
    receiver_offsets: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.senders.size


@dataclass(frozen=True)
class TwoHopGeometry:
    """Per-pair spherical coordinates for all two-hop message paths.

    Pair p couples edge ``pair_edge[p]`` (the edge being updated) with edge
    ``pair_neighbor[p]`` (an edge into its sender). ``collinear_pairs`` lists
    pair indices whose neighbor was collinear with the edge axis.
    """

    pair_edge: np.ndarray
    pair_neighbor: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    collinear_pairs: tuple[int, ...] = ()

    @property
    def n_pairs(self) -> int:
        return self.pair_edge.size


def build_radius_graph(graph: Graph3D, cutoff: float) -> DirectedEdgeList:
    """All directed edges (i -> j) with 0 < |r_i - r_j| <= cutoff.

    Both directions of every pair are present. Edges are ordered by
    (receiver, sender), which makes the ordering deterministic and incoming
    edges of each node contiguous.
    """
    if not cutoff > 0:
        raise GeometryError(f"cutoff must be positive, got {cutoff}")
    n = graph.n_atoms
    dist = pair_distances(graph.positions)
    mask = (dist <= cutoff)
    np.fill_diagonal(mask, False)
    # Row-major scan of mask[receiver, sender] yields (receiver, sender) order.
    receivers, senders = np.nonzero(mask)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(receivers, minlength=n), out=offsets[1:])
    return DirectedEdgeList(
        senders=_frozen(senders.astype(np.int64)),
        receivers=_frozen(receivers.astype(np.int64)),
        distances=_frozen(dist[receivers, senders]),
        receiver_offsets=_frozen(offsets),
    )


def build_two_hop_index(edges: DirectedEdgeList) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (k, j) with j pointing into the sender of k and s_j != r_k.

    The reverse edge of k is excluded: it would yield a degenerate angle and
    an undefined torsion. Pairs are ordered by (k, j). The candidates of edge
    k are the CSR block of its sender in ``receiver_offsets``; the blocks are
    laid out one after another by ``repeat`` and ``cumsum``.
    """
    offsets = edges.receiver_offsets
    first = offsets[edges.senders]
    sizes = offsets[edges.senders + 1] - first
    block_starts = np.cumsum(sizes) - sizes
    pair_k = np.repeat(np.arange(edges.n_edges, dtype=np.int64), sizes)
    pair_j = np.arange(pair_k.size, dtype=np.int64) + np.repeat(first - block_starts, sizes)
    keep = edges.senders[pair_j] != edges.receivers[pair_k]
    return _frozen(pair_k[keep]), _frozen(pair_j[keep])


def compute_angles(graph: Graph3D, edges: DirectedEdgeList,
                   pair_k: np.ndarray, pair_j: np.ndarray) -> np.ndarray:
    """Angle at s_k between the direction to r_k and the direction to s_j.

    The cosine is clamped to [-1, 1] before arccos, so no angle is NaN even
    when rounding pushes the exact dot product past +-1.
    """
    pos = graph.positions
    origin = pos[edges.senders[pair_k]]
    to_receiver = pos[edges.receivers[pair_k]] - origin
    to_neighbor = pos[edges.senders[pair_j]] - origin
    dot = np.sum(to_receiver * to_neighbor, axis=-1)
    norms = np.linalg.norm(to_receiver, axis=-1) * np.linalg.norm(to_neighbor, axis=-1)
    cos = np.clip(dot / norms, -1.0, 1.0)
    return _frozen(np.arccos(cos))


def compute_torsions(
    graph: Graph3D,
    edges: DirectedEdgeList,
    pair_k: np.ndarray,
    pair_j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Torsion angles as azimuthal gaps between consecutive neighbors.

    For each edge k, the neighbors contributing pairs are projected onto the
    plane through s_k perpendicular to the s_k -> r_k axis. Azimuths are taken
    in the right-handed frame about that axis (the in-plane zero is arbitrary;
    only azimuth differences survive). Neighbors are sorted by ascending
    azimuth with ties broken by (distance, node index), and each neighbor's
    torsion is the gap to its predecessor in this cyclic order, so the gaps of
    one edge sum to 2*pi when it has two or more neighbors. A single neighbor
    gets torsion 0. Neighbors collinear with the axis (projection norm below
    ``COLLINEAR_PROJECTION_EPS``) get azimuth 0 and are reported in the
    returned diagnostics tuple, whatever the edge's neighbor count.

    All pairs are handled at once: ``pair_k`` is sorted, so each edge's pairs
    form one contiguous segment, and a single sort keyed on the edge first
    orders every segment.

    Returns (phi per pair, neighbor count per edge, collinear pair indices).
    """
    pos = graph.positions
    counts = np.bincount(pair_k, minlength=edges.n_edges).astype(np.int64)
    origin = pos[edges.senders]
    axis = pos[edges.receivers] - origin
    axis = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    b1, b2 = _plane_basis(axis)
    axis, b1, b2 = axis[pair_k], b1[pair_k], b2[pair_k]
    rel = pos[edges.senders[pair_j]] - origin[pair_k]
    proj = rel - np.sum(rel * axis, axis=-1, keepdims=True) * axis
    collinear = np.linalg.norm(proj, axis=-1) < COLLINEAR_PROJECTION_EPS
    azimuth = np.arctan2(np.sum(proj * b2, axis=-1), np.sum(proj * b1, axis=-1))
    azimuth[azimuth < 0.0] += 2.0 * np.pi
    azimuth[collinear] = 0.0

    order = np.lexsort((edges.senders[pair_j], edges.distances[pair_j], azimuth, pair_k))
    starts = np.flatnonzero(np.diff(pair_k, prepend=-1))
    gaps = np.mod(np.diff(azimuth[order], prepend=0.0), 2.0 * np.pi)
    # The first neighbor's gap carries the wrap-around so the gaps always
    # sum to a full turn; a single neighbor's gap is 0.
    gaps[starts] = 0.0
    closure = 2.0 * np.pi - np.add.reduceat(gaps, starts)
    gaps[starts] = np.where(counts[pair_k[starts]] > 1, closure, 0.0)
    phi = np.empty_like(gaps)
    phi[order] = gaps
    return _frozen(phi), _frozen(counts), tuple(np.flatnonzero(collinear).tolist())


def two_hop_geometry(graph: Graph3D, edges: DirectedEdgeList) -> TwoHopGeometry:
    """Build the full (pair index, theta, phi) description for a graph."""
    pair_k, pair_j = build_two_hop_index(edges)
    theta = compute_angles(graph, edges, pair_k, pair_j)
    phi, _, collinear = compute_torsions(graph, edges, pair_k, pair_j)
    return TwoHopGeometry(
        pair_edge=pair_k,
        pair_neighbor=pair_j,
        theta=theta,
        phi=phi,
        collinear_pairs=collinear,
    )


def rigid_transform(graph: Graph3D, rotation: np.ndarray,
                    translation: np.ndarray) -> Graph3D:
    """Apply a proper rigid motion r -> R r + t to all positions.

    ``rotation`` must be finite and orthogonal within 1e-12 with determinant
    +1, and ``translation`` finite; reflections are rejected.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64)
    # Comparison chains that NaN and infinity fail, made before any arithmetic
    # on them. No entry of an orthogonal matrix exceeds 1 in magnitude, so the
    # product is taken only when it cannot overflow.
    if not (rotation.shape == (3, 3) and translation.shape == (3,)
            and np.all(np.abs(translation) < np.inf)):
        raise GeometryError("expected a 3x3 rotation and a finite 3-vector translation")
    if not (np.all(np.abs(rotation) <= 1 + ORTHOGONALITY_TOL)
            and np.max(np.abs(rotation.T @ rotation - np.eye(3))) <= ORTHOGONALITY_TOL):
        raise GeometryError("rotation matrix must be finite and orthogonal within 1e-12")
    if np.linalg.det(rotation) < 0:
        raise GeometryError("improper rotation (reflection) rejected")
    new_positions = graph.positions @ rotation.T + translation
    return Graph3D(
        atomic_numbers=graph.atomic_numbers,
        positions=new_positions,
        graph_target=graph.graph_target,
        id=graph.id,
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform proper rotation (QR of a Gaussian matrix, det fixed to +1)."""
    gaussian = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(gaussian)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _plane_basis(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal in-plane bases (b1, b2) with b1 x b2 = axis, one per row.

    b1 is the coordinate axis along the smallest |component| (the first on a
    tie) with its part along the axis removed.
    """
    rows = np.arange(axes.shape[0])
    pick = np.argmin(np.abs(axes), axis=-1)
    b1 = -axes[rows, pick][:, None] * axes
    b1[rows, pick] += 1.0
    b1 = b1 / np.linalg.norm(b1, axis=-1, keepdims=True)
    b2 = np.cross(axes, b1)
    return b1, b2


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array
