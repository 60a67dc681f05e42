"""The spherical message passing network: forward, backward, serialization.

Messages live on directed edges. An embedding block builds initial messages
from atom embeddings and the distance embedding of each edge; interaction
blocks update them by aggregating neighbor messages gated by encoded
geometry (distance, distance-angle, and distance-angle-torsion embeddings);
an output block pools messages into node features and sums a per-node
readout into the graph scalar.

Featurization is the same in every ablation mode: each graph carries the
complete (d, theta, phi) description. The mode only chooses which gates a
forward runs: all three in FULL (SphereNet), distance and angle in
NO_TORSION (DimeNet-like), distance alone in NO_ANGLE_TORSION (SchNet-like).
So features built once serve every mode, and parts of any modes merge.

Two-hop pairs outnumber edges many times over, so everything that depends
only on the neighbor edge is computed once per edge: the message projections,
the distance term and the radial factors of the angle and torsion
embeddings. Those embeddings are never stored whole. Featurization keeps
their factors, the radial rows per edge and the harmonics per pair, and
``begin_forward`` rebuilds the basis rows one fixed block of pairs at a
time (``pair_basis_rows``) and multiplies each block by every interaction
block's down-projection stacked side by side, one fused tape op
(``Tape.blocked_matmul``) per geometry kind, once per forward; its vjp
rebuilds each block once more. The rest of the pair path (gate
up-projection, gating, summing per edge) is one fused tape op,
``Tape.pair_aggregate``, that works through the pairs in blocks too. So no
array with one row per pair and one column per basis entry or message
channel outlives a block, in the forward or for the backward.

Inference (``forward_features(..., grad=False)``) enters the parameters as
constants, so the tape records nothing and every intermediate is freed once
consumed; the predictions are bitwise those of the taped forward. Training
passes a ``Workspace`` to its taped forwards, which then write their values
into the same buffers step after step (see ``forward_features``).

Geometry and basis values enter as constants: gradients flow to parameters
only. Gate encodings use bottleneck blocks (down-projection without bias,
then up-projection), and the gated geometry terms are additive per geometry
type, so zeroing the torsion encoder's weights reproduces the torsion-free
network exactly.
"""
from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .autodiff import Node, Tape, Workspace
from .basis import (BasisTables, _harmonics, _radial_table, rbf_embed, sbf_embed, tables_for,
                    tbf_embed)
from .geometry import build_radius_graph, two_hop_geometry
from .ingest import FULL, NO_TORSION, Graph3D, IngestError, RunConfig

FORMAT_MAGIC = b"SMPNET01"
FORMAT_VERSION = 1


class NetworkError(RuntimeError):
    """Raised for numerical failures and inconsistent model state."""


class ModelIOError(NetworkError):
    """Raised for malformed model files or config mismatches on load."""


def philox_generator(seed: int, tag: int = 0, extra: int = 0) -> np.random.Generator:
    """Counter-based, platform-independent RNG keyed by (seed, tag, extra).

    The Philox key is two uint64 words: the seed modulo 2^64 and a fold of the
    stream tag with a per-use counter such as the epoch. (Given as a list, an
    int at or above 2^63 would be read as float64 and could collide.) The
    seed is any integer, numpy's included, read through ``operator.index``;
    anything else, a float too, raises ``NetworkError``.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise NetworkError(f"seed must be an integer, got {seed!r}") from None
    key = np.array([seed % (1 << 64), ((tag % (1 << 32)) << 32) + extra % (1 << 32)], np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def param_shapes(cfg: RunConfig) -> dict[str, tuple[int, ...]]:
    """The full named-parameter directory implied by a config.

    Every ablation mode shares one directory: unused geometry encoders stay
    allocated (and untrained), which keeps parameter layouts comparable
    across modes for a fixed seed.
    """
    embed = cfg.embed_size
    gate = cfg.output_embed_size
    out = cfg.output_embed_size
    sbf_size = cfg.n_shbf * cfg.n_srbf
    tbf_size = cfg.n_shbf * cfg.n_shbf * cfg.n_srbf
    shapes: dict[str, tuple[int, ...]] = {}
    shapes["atom_embed"] = (cfg.max_z + 1, embed)
    _bottleneck_shapes(shapes, "input.rbf", cfg.n_srbf, cfg.lb2_distance_size, embed)
    shapes["input.merge.w"] = (3 * embed, embed)
    shapes["input.merge.b"] = (embed,)
    for i in range(cfg.num_interaction_blocks):
        prefix = f"inter{i}."
        _bottleneck_shapes(shapes, prefix + "rbf", cfg.n_srbf, cfg.lb2_distance_size, gate)
        _bottleneck_shapes(shapes, prefix + "sbf", sbf_size, cfg.lb2_angle_size, gate)
        _bottleneck_shapes(shapes, prefix + "tbf", tbf_size, cfg.lb2_torsion_size, gate)
        for kind in ("rbf", "sbf", "tbf"):
            shapes[prefix + f"proj_{kind}.w"] = (embed, gate)
            shapes[prefix + f"proj_{kind}.b"] = (gate,)
        shapes[prefix + "up.w"] = (gate, embed)
        shapes[prefix + "up.b"] = (embed,)
        for j in range(cfg.num_message_layers):
            shapes[prefix + f"msg{j}.w"] = (embed, embed)
            shapes[prefix + f"msg{j}.b"] = (embed,)
        for r in range(cfg.num_residual_blocks):
            for half in ("a", "b"):
                shapes[prefix + f"res{r}.{half}.w"] = (embed, embed)
                shapes[prefix + f"res{r}.{half}.b"] = (embed,)
    _bottleneck_shapes(shapes, "output.rbf", cfg.n_srbf, cfg.lb2_distance_size, embed)
    shapes["output.node.w"] = (embed, out)
    shapes["output.node.b"] = (out,)
    shapes["output.read1.w"] = (out, out)
    shapes["output.read1.b"] = (out,)
    shapes["output.read2.w"] = (out, 1)
    shapes["output.read2.b"] = (1,)
    return shapes


def _bottleneck_shapes(shapes: dict, name: str, in_size: int, mid: int, out_size: int):
    shapes[name + ".down"] = (in_size, mid)
    shapes[name + ".up"] = (mid, out_size)
    shapes[name + ".b"] = (out_size,)


class ModelParams:
    """Named parameter tensors with paired, same-shaped gradient buffers.

    Shapes are fully determined by the config; construction audits every
    tensor against the directory and fails fast on any mismatch. Tensors and
    their gradients are views into two flat buffers, so the optimizer can
    update everything with a handful of vectorized operations. ``grads`` is
    the one gradient store: a taped forward binds each parameter leaf to its
    view, and the backward sweep adds into ``flat_grads`` directly.
    """

    def __init__(self, cfg: RunConfig, values: dict[str, np.ndarray]):
        expected = param_shapes(cfg)
        if set(values) != set(expected):
            missing = sorted(set(expected) - set(values))
            extra = sorted(set(values) - set(expected))
            raise NetworkError(f"parameter directory mismatch: missing={missing} extra={extra}")
        self.cfg = cfg
        total = sum(int(np.prod(shape)) for shape in expected.values())
        self.flat_values = np.empty(total, dtype=np.float64)
        self.flat_grads = np.zeros(total, dtype=np.float64)
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in expected.items():
            tensor = np.asarray(values[name], dtype=np.float64)
            if tensor.shape != shape:
                raise NetworkError(
                    f"parameter {name!r} has shape {tensor.shape}, expected {shape}"
                )
            size = tensor.size
            view = self.flat_values[offset:offset + size].reshape(shape)
            view[...] = tensor
            self.values[name] = view
            self.grads[name] = self.flat_grads[offset:offset + size].reshape(shape)
            offset += size

    def names(self) -> list[str]:
        """Parameter names in ``param_shapes`` order; only the acceptance suite calls it."""
        return list(self.values)

    def zero_grads(self):
        self.flat_grads.fill(0.0)

    def clone(self) -> "ModelParams":
        return ModelParams(self.cfg, self.values)


def init_params(cfg: RunConfig, seed: int) -> ModelParams:
    """Draw parameters deterministically from a counter-based generator.

    Weights are uniform on [-1/sqrt(fan_in), 1/sqrt(fan_in)] (the embedding
    table uses its row width); biases start at zero. The Philox stream makes
    the draw platform-independent and bit-reproducible.
    """
    rng = philox_generator(seed)
    values: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".b") or len(shape) == 1:
            values[name] = np.zeros(shape, dtype=np.float64)
            continue
        fan_in = cfg.embed_size if name == "atom_embed" else shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        values[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(cfg, values)


@dataclass(frozen=True)
class GraphFeatures:
    """Geometry and basis values for one graph (or a merged batch).

    All arrays are plain numpy; the network treats them as constants.
    Merged batches keep per-graph node segments via ``graph_ids``. The field
    metadata is the layout ``merge_features`` reads: the count each index
    field is offset by, and the axis along which the factor fields run over
    the edges or pairs.

    The layout is the same in every ablation mode. The angle and torsion
    bases are kept as their two factors, not as their product, each as
    ``basis`` returns it. ``edge_radial`` is the ``_radial_table`` of the
    edge distances, the radial rows norm(l, n) * j_l(z_ln * d / c), shape
    (n_shbf, n_srbf, edges); ``pair_harmonics`` is the ``_harmonics`` sweep
    of the pair angles, all n_shbf² Y_l^m, shape (n_shbf², pairs), of which
    the angle basis reads the zonal Y_l^0. Both keep the edge or pair axis
    last, so each of their rows is one contiguous run. ``edge_rbf`` is the
    distance basis, (edges, n_srbf) and C-contiguous: the l = 0 rows of
    ``edge_radial``, copied points first. ``pair_basis_rows`` rebuilds the
    basis rows of a block of pairs from the factors, the edge distances and
    the pair angles.
    """

    n_atoms: int
    n_graphs: int
    atomic_numbers: np.ndarray
    graph_ids: np.ndarray = field(metadata={"offset_by": "n_graphs"})
    edge_sender: np.ndarray = field(metadata={"offset_by": "n_atoms"})
    edge_receiver: np.ndarray = field(metadata={"offset_by": "n_atoms"})
    edge_distance: np.ndarray
    edge_rbf: np.ndarray
    edge_radial: np.ndarray = field(metadata={"axis": -1})
    pair_edge: np.ndarray = field(metadata={"offset_by": "n_edges"})
    pair_neighbor: np.ndarray = field(metadata={"offset_by": "n_edges"})
    pair_theta: np.ndarray
    pair_phi: np.ndarray
    pair_harmonics: np.ndarray = field(metadata={"axis": -1})

    @property
    def n_edges(self) -> int:
        return self.edge_sender.size

    @property
    def n_pairs(self) -> int:
        return self.pair_edge.size


def featurize_graph(graph: Graph3D, cfg: RunConfig) -> GraphFeatures:
    """Radius graph, two-hop geometry, and basis factors for one graph.

    One radial Bessel table is built over the edge distances and one
    harmonic sweep over the pair angles. The distance embedding is read from
    the table's l = 0 rows and stored per edge; the angle and torsion
    embeddings are stored as the two factors. The result does not depend on
    ``cfg.ablation_mode``; the mode only picks which of them a forward reads.
    """
    if np.any(graph.atomic_numbers > cfg.max_z):
        raise IngestError(
            f"graph {graph.id!r} contains atomic numbers above max_z={cfg.max_z}"
        )
    tables = tables_for(cfg)
    edges = build_radius_graph(graph, cfg.cutoff_c)
    hops = two_hop_geometry(graph, edges)
    radial = _radial_table(edges.distances, tables)
    return GraphFeatures(
        n_atoms=graph.n_atoms,
        n_graphs=1,
        atomic_numbers=graph.atomic_numbers,
        graph_ids=np.zeros(graph.n_atoms, dtype=np.int64),
        edge_sender=edges.senders,
        edge_receiver=edges.receivers,
        edge_distance=edges.distances,
        edge_rbf=rbf_embed(edges.distances, tables, radial=radial),
        edge_radial=radial,
        pair_edge=hops.pair_edge,
        pair_neighbor=hops.pair_neighbor,
        pair_theta=hops.theta,
        pair_phi=hops.phi,
        pair_harmonics=_harmonics(tables.n_shbf, hops.theta, hops.phi),
    )


def merge_features(parts: list[GraphFeatures]) -> GraphFeatures:
    """Disjoint union of featurized graphs, laid out as ``GraphFeatures`` declares.

    Counts add up and arrays are concatenated, the factor fields along their
    last axis. An index field is then shifted once, by one repeat that gives
    each part's entries the sum of its count over the parts before it.
    Geometry was computed per graph, so no cross-graph edges appear no
    matter how close the coordinate frames happen to be. A single graph is
    returned as is.
    """
    if not parts:
        raise NetworkError("cannot merge an empty feature list")
    if len(parts) == 1 and parts[0].n_graphs == 1:
        return parts[0]
    merged = {}
    for spec in fields(GraphFeatures):
        values = [getattr(part, spec.name) for part in parts]
        if not isinstance(values[0], np.ndarray):
            merged[spec.name] = sum(values)
        else:
            merged[spec.name] = np.concatenate(values, axis=spec.metadata.get("axis", 0))
        count = spec.metadata.get("offset_by")
        if count is not None:
            counts = np.array([getattr(part, count) for part in parts], dtype=np.int64)
            merged[spec.name] += np.repeat(np.cumsum(counts) - counts,
                                           [value.size for value in values])
    return GraphFeatures(**merged)


def pair_basis_rows(features: GraphFeatures, kind: str, tables: BasisTables):
    """The pair basis ``kind`` ("sbf" or "tbf") of ``features``, built on demand.

    Returns ``rows(start, stop)``: rows start:stop of the (pairs, size)
    angle or torsion basis, column-major and bitwise what ``sbf_embed`` or
    ``tbf_embed`` computes from the pairs' neighbor-edge distances and
    angles alone. Each call gathers the radial columns of its pairs' neighbor
    edges and slices their harmonic sweep, both in the stored layout with
    the pairs last, and passes them straight to the embedding as ``radial=``
    and ``angular=`` (for either kind the whole sweep: ``sbf_embed`` reads
    its zonal rows); the embedding still range-checks the distances and
    angles.
    """
    def rows(start: int, stop: int) -> np.ndarray:
        neighbor = features.pair_neighbor[start:stop]
        d = features.edge_distance[neighbor]
        factors = {"radial": np.take(features.edge_radial, neighbor, axis=2),
                   "angular": features.pair_harmonics[:, start:stop]}
        theta = features.pair_theta[start:stop]
        if kind == "sbf":
            return sbf_embed(d, theta, tables, **factors).reshape(stop - start, tables.sbf_size)
        return tbf_embed(d, theta, features.pair_phi[start:stop], tables, **factors)

    return rows


@dataclass
class ForwardContext:
    """One forward pass: what it threads through its blocks, and its (n_graphs, 1)
    ``prediction`` node, None until ``forward_features`` sets it."""

    tape: Tape
    params: ModelParams
    leaves: dict[str, Node]
    features: GraphFeatures
    cfg: RunConfig
    gate_inputs: dict[str, list[Node]]
    prediction: Optional[Node] = None

    @property
    def predictions(self) -> np.ndarray:
        """The per-graph predictions: a 1-D view of the prediction column."""
        return self.prediction.value[:, 0]


def _dense(ctx: ForwardContext, name: str, x: Node, activation: bool = False,
           residual: Optional[Node] = None, transient: bool = False) -> Node:
    return ctx.tape.dense(x, ctx.leaves[name + ".w"], ctx.leaves[name + ".b"],
                          silu=activation, residual=residual, transient=transient)


def _bottleneck(ctx: ForwardContext, name: str, x: Node) -> Node:
    """Down-projection (no bias) followed by a biased up-projection."""
    mid = ctx.tape.dense(x, ctx.leaves[name + ".down"])
    return ctx.tape.dense(mid, ctx.leaves[name + ".up"], ctx.leaves[name + ".b"])


def begin_forward(features: GraphFeatures, params: ModelParams,
                  cfg: RunConfig, grad: bool = True,
                  workspace: Optional[Workspace] = None) -> ForwardContext:
    """A fresh tape; parameters enter as leaves, or as constants without grad.

    A taped forward writes its values into ``workspace`` when one is given;
    a forward with ``grad=False`` never uses it.

    The gate inputs ``basis @ inter{b}.{kind}.down`` do not depend on the
    messages, so they are computed here, once per forward: one
    ``Tape.blocked_matmul`` per geometry kind multiplies each block of the
    basis rows, rebuilt by ``pair_basis_rows``, by every interaction block's
    down-projection stacked side by side. Its vjp rebuilds each block of
    rows once for all interaction blocks. It returns one column-view node
    per interaction block; blocks called one by one on this context pick up
    theirs. At the shipped bottleneck width each node's value is bitwise the
    product of the whole materialized basis.

    ``cfg`` must describe the network ``params`` holds (``_check_architecture``).
    """
    _check_architecture(params, cfg)
    tape = Tape(workspace if grad else None)
    if grad:
        leaves = {name: tape.leaf(value, params.grads[name])
                  for name, value in params.values.items()}
    else:
        leaves = {name: tape.constant(value) for name, value in params.values.items()}
    gate_inputs = {}
    for kind in {FULL: ("sbf", "tbf"), NO_TORSION: ("sbf",)}.get(cfg.ablation_mode, ()):
        gate_inputs[kind] = tape.blocked_matmul(
            pair_basis_rows(features, kind, tables_for(cfg)), features.n_pairs,
            [leaves[f"inter{b}.{kind}.down"] for b in range(cfg.num_interaction_blocks)])
    return ForwardContext(tape=tape, params=params, leaves=leaves, features=features,
                          cfg=cfg, gate_inputs=gate_inputs)


def embedding_block(ctx: ForwardContext) -> Node:
    """Initial messages from sender/receiver embeddings and the edge distance.

    Each message is ``silu([h_s | h_r | e] @ W + b)``, with ``W`` =
    ``input.merge.w``, ``h_s`` and ``h_r`` the embeddings of the sender's and
    receiver's elements and ``e`` the encoded edge distance. ``W`` enters as
    its sender, receiver and distance row blocks, each a leaf whose value and
    gradient buffer are row views of ``W``'s. The element terms are computed
    once per element: the whole ``atom_embed`` table times the sender block
    plus ``b``, and times the receiver block, so a row's value does not depend
    on the batch. Each edge gathers its two rows and sums them in one
    ``Tape.gather_add``, whose transient value is the addend of the distance
    layer's pre-activation.
    """
    tape, feats, merge = ctx.tape, ctx.features, ctx.leaves["input.merge.w"]
    grads = np.split(merge.grad, 3) if merge.needs_grad else [None] * 3
    sender_w, receiver_w, distance_w = [
        tape.constant(rows) if grad is None else tape.leaf(rows, grad)
        for rows, grad in zip(np.split(merge.value, 3), grads)]
    atoms = ctx.leaves["atom_embed"]
    senders = tape.dense(atoms, sender_w, ctx.leaves["input.merge.b"])
    receivers = tape.dense(atoms, receiver_w)
    elements = tape.gather_add(senders, feats.atomic_numbers[feats.edge_sender],
                               receivers, feats.atomic_numbers[feats.edge_receiver])
    encoded = _bottleneck(ctx, "input.rbf", tape.constant(feats.edge_rbf))
    messages = tape.dense(encoded, distance_w, elements, silu=True)
    _check_finite(messages, "embedding block")
    return messages


def interaction_block(ctx: ForwardContext, messages: Node, block: int) -> Node:
    """One message update: gated geometry aggregation plus a transform branch.

    Each active geometry type contributes an additive term
    ``encode(geometry) * project(neighbor message)`` per two-hop pair; the
    per-edge sums are mapped back to message width and added to the
    transformed old message, followed by residual refinement.

    Projections act row-wise, so ``project`` runs on the edge messages. The
    distance term depends only on the neighbor edge and is computed per edge
    too. Each angle or torsion gate is a bottleneck. Its down-projection is
    this block's (pairs, bottleneck) node of ``ctx.gate_inputs``, which
    ``begin_forward`` computed once per forward for every block.
    ``Tape.pair_aggregate`` applies the up-projection and bias, multiplies by
    the neighbor's projected message, adds the distance term and sums per
    edge, a fixed block of pairs at a time. Each edge adds its pairs in pair
    order, so the value is bitwise that of gathering, gating and summing the
    pair-wide arrays.

    The transform branch runs the message layers on the old message (none
    leaves it as is). Each residual add is the ``residual`` of the dense
    layer that computes its other operand: the up-projection takes the
    branch, and each residual block's second layer takes its input.

    The distance term and the last message layer's output are transients
    (see ``autodiff``): no vjp reads them, and ``pair_aggregate`` and the
    up-projection consume each before the next is written.
    """
    tape, feats, cfg = ctx.tape, ctx.features, ctx.cfg
    if messages.value.shape[0] != feats.n_edges:
        raise NetworkError(
            f"messages have {messages.value.shape[0]} rows but the "
            f"two-hop index describes {feats.n_edges} edges"
        )
    prefix = f"inter{block}."

    distance_term = tape.mul(
        _bottleneck(ctx, prefix + "rbf", tape.constant(feats.edge_rbf)),
        _dense(ctx, prefix + "proj_rbf", messages),
        transient=True,
    )
    aggregated = tape.pair_aggregate(distance_term, [(
        inputs[block],
        ctx.leaves[prefix + kind + ".up"],
        ctx.leaves[prefix + kind + ".b"],
        _dense(ctx, prefix + f"proj_{kind}", messages),
    ) for kind, inputs in ctx.gate_inputs.items()],
        feats.pair_edge, feats.pair_neighbor, feats.n_edges)
    updated = messages
    for j in range(cfg.num_message_layers):
        updated = _dense(ctx, prefix + f"msg{j}", updated, activation=True,
                         transient=j == cfg.num_message_layers - 1)
    updated = _dense(ctx, prefix + "up", aggregated, residual=updated)
    for r in range(cfg.num_residual_blocks):
        inner = _dense(ctx, prefix + f"res{r}.a", updated, activation=True)
        updated = _dense(ctx, prefix + f"res{r}.b", inner, activation=True, residual=updated)
    _check_finite(updated, f"interaction block {block}")
    return updated


def output_block(ctx: ForwardContext, messages: Node) -> Node:
    """Pool distance-gated messages per node, then sum node readouts per graph.

    Returns the (n_graphs, 1) column of graph predictions. The gated messages
    are a transient, which only the pooling reads.
    """
    tape, feats = ctx.tape, ctx.features
    gate = _bottleneck(ctx, "output.rbf", tape.constant(feats.edge_rbf))
    gated = tape.mul(gate, messages, transient=True)
    pooled = tape.segment_sum(gated, feats.edge_receiver, feats.n_atoms)
    nodes = _dense(ctx, "output.node", pooled, activation=True)
    hidden = _dense(ctx, "output.read1", nodes, activation=True)
    contributions = _dense(ctx, "output.read2", hidden)
    prediction = tape.segment_sum(contributions, feats.graph_ids, feats.n_graphs)
    _check_finite(prediction, "output block")
    return prediction


def forward_features(features: GraphFeatures, params: ModelParams,
                     cfg: RunConfig, grad: bool = True,
                     workspace: Optional[Workspace] = None) -> ForwardContext:
    """Run all blocks on featurized input; the context keeps the tape for backward.

    With ``grad=False`` the parameters enter as constants, so the tape records
    no node and each intermediate is freed once consumed: the predictions are
    the same, bit for bit, and ``backward`` has nothing to sweep.

    A taped forward given a ``workspace`` writes its values into the
    workspace's buffers, overwriting those of the previous forward on it.
    The returned context, its predictions included, is then valid only until
    the next forward on the same workspace: run ``backward`` and copy what
    must outlive the step before that. Drop the context before the next
    forward, so that the two tapes never coexist and a slot that grows frees
    its old buffer. Values and gradients are bitwise those of a forward
    without a workspace. ``grad=False`` ignores ``workspace``.
    """
    ctx = begin_forward(features, params, cfg, grad, workspace)
    messages = embedding_block(ctx)
    for block in range(cfg.num_interaction_blocks):
        messages = interaction_block(ctx, messages, block)
    ctx.prediction = output_block(ctx, messages)
    return ctx


def forward(graph: Graph3D, params: ModelParams,
            cfg: RunConfig) -> tuple[float, ForwardContext]:
    """Predict the graph scalar for a single graph."""
    ctx = forward_features(featurize_graph(graph, cfg), params, cfg)
    return float(ctx.predictions[0]), ctx


def backward(ctx: ForwardContext, upstream,
             accumulate: bool = True) -> dict[str, np.ndarray]:
    """Reverse sweep of ``ctx.tape`` into the gradient buffers of ``ctx.params``.

    ``upstream`` is the cotangent of the per-graph predictions: a scalar for
    single-graph forwards or an array of shape (n_graphs,). With
    ``accumulate=False`` the buffers are zeroed first, so they hold this
    call's gradients; otherwise the gradients are added to what they hold.
    Returns ``ctx.params.grads``: named views into ``flat_grads``, not
    copies, so the next ``backward`` on the same params overwrites them.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 0:
        upstream = np.full(ctx.predictions.shape, float(upstream))
    if not accumulate:
        ctx.params.zero_grads()
    ctx.tape.backward(ctx.prediction, upstream[:, None])
    return ctx.params.grads


def _check_architecture(params: ModelParams, cfg: RunConfig):
    """Raise ``NetworkError`` unless ``cfg`` gives the parameter shapes and the
    cutoff of ``params.cfg``; the ablation mode and training fields may differ."""
    if cfg.cutoff_c != params.cfg.cutoff_c or param_shapes(cfg) != param_shapes(params.cfg):
        raise NetworkError("config does not match the parameters: their shapes or "
                           "cutoff_c differ from those of the config they were built with")


def _check_finite(node: Node, stage: str):
    if not np.all(np.isfinite(node.value)):
        raise NetworkError(f"non-finite values in {stage}")


# --- filter export ---------------------------------------------------------

def export_filters(params: ModelParams, cfg: RunConfig,
                   d_values, theta_values, phi_values,
                   channels: Optional[list[int]] = None) -> tuple[list[str], np.ndarray]:
    """Responses of the first block's torsion encoder on a geometry grid.

    For each grid point the full 3D embedding is pushed through that block's
    torsion bottleneck (down-projection, up-projection, bias). Returns the
    CSV header and one row ``d, theta, phi, c...`` per point, ordered
    lexicographically by (d, theta, phi). ``cfg`` must describe the network
    ``params`` holds, as in ``begin_forward``.
    """
    _check_architecture(params, cfg)
    grid = np.meshgrid(d_values, theta_values, phi_values, indexing="ij")
    if grid[0].size == 0:
        raise NetworkError("filter grid must contain at least one sample per axis")
    if cfg.num_interaction_blocks < 1:
        raise NetworkError("filter export needs at least one interaction block")
    tables = tables_for(cfg)
    down = params.values["inter0.tbf.down"]
    up = params.values["inter0.tbf.up"]
    bias = params.values["inter0.tbf.b"]
    width = bias.size
    if channels is None:
        channels = list(range(width))
    if len(channels) == 0:
        raise NetworkError("channels must name at least one channel")
    if any(not 0 <= ch < width for ch in channels):
        raise NetworkError(f"channel index outside [0, {width})")
    flat_d, flat_t, flat_p = (axis.ravel() for axis in grid)
    embedded = tbf_embed(flat_d, flat_t, flat_p, tables)
    responses = (embedded @ down) @ up + bias
    rows = np.column_stack([flat_d, flat_t, flat_p, responses[:, channels]])
    header = ["d", "theta", "phi"] + [f"c{ch}" for ch in channels]
    return header, rows


# --- serialization ---------------------------------------------------------

def save_model(params: ModelParams, path: str):
    """Write the format-versioned header plus little-endian float64 blobs."""
    header = {
        "format_version": FORMAT_VERSION,
        "config": params.cfg.to_dict(),
        "tensors": [{"name": name, "shape": list(value.shape)}
                    for name, value in params.values.items()],
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(FORMAT_MAGIC)
        handle.write(struct.pack("<Q", len(encoded)))
        handle.write(encoded)
        for value in params.values.values():
            handle.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def load_model(path: str, expected_cfg: Optional[RunConfig] = None
               ) -> tuple[ModelParams, RunConfig]:
    """Read a model file; reject it if the embedded config disagrees.

    When ``expected_cfg`` is given, every config field must match the stored
    echo exactly. Every malformed file raises ModelIOError.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    magic = data[:len(FORMAT_MAGIC)]
    if magic != FORMAT_MAGIC:
        raise ModelIOError(f"{path}: not a model file (bad magic {magic!r})")
    offset = len(FORMAT_MAGIC) + 8
    if len(data) < offset:
        raise ModelIOError(f"{path}: truncated header length")
    (header_len,) = struct.unpack("<Q", data[len(FORMAT_MAGIC):offset])
    if header_len > len(data) - offset:
        raise ModelIOError(f"{path}: truncated header")
    try:
        header = json.loads(data[offset:offset + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ModelIOError(f"{path}: corrupt header: {exc}") from exc
    offset += header_len
    if not isinstance(header, dict):
        raise ModelIOError(f"{path}: corrupt header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ModelIOError(
            f"{path}: unsupported format version {header.get('format_version')!r}"
        )
    stored = header.get("config")
    if not isinstance(stored, dict):
        raise ModelIOError(f"{path}: header has no config object")
    try:
        cfg = RunConfig(**stored)
    except (TypeError, ValueError) as exc:
        raise ModelIOError(f"{path}: invalid stored config: {exc}") from exc
    if expected_cfg is not None:
        mismatched = [
            key for key, value in expected_cfg.to_dict().items()
            if stored.get(key) != value
        ]
        if mismatched:
            raise ModelIOError(
                f"{path}: stored config disagrees with session config on "
                f"{', '.join(sorted(mismatched))}"
            )
    directory = _tensor_directory(path, header.get("tensors"))
    if directory != param_shapes(cfg):
        raise ModelIOError(f"{path}: tensor directory does not match the stored config")
    values: dict[str, np.ndarray] = {}
    for name, shape in directory.items():
        count = math.prod(shape)
        if 8 * count > len(data) - offset:
            raise ModelIOError(f"{path}: truncated tensor data for {name!r}")
        values[name] = np.frombuffer(data, dtype="<f8", count=count,
                                     offset=offset).reshape(shape).copy()
        offset += 8 * count
    if offset != len(data):
        raise ModelIOError(f"{path}: trailing bytes after tensor data")
    return ModelParams(cfg, values), cfg


def _tensor_directory(path: str, entries) -> dict[str, tuple[int, ...]]:
    """Validated ``{name: shape}`` in file order from the header's tensor list."""
    if not isinstance(entries, list):
        raise ModelIOError(f"{path}: header has no tensor list")
    directory: dict[str, tuple[int, ...]] = {}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if (not isinstance(name, str) or name in directory or not isinstance(shape, list)
                or not all(type(size) is int and size >= 0 for size in shape)):
            raise ModelIOError(f"{path}: malformed tensor entry {entry!r}")
        directory[name] = tuple(shape)
    return directory
