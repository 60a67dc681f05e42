"""The spherical message passing network: forward, backward, serialization.

Messages live on directed edges. An embedding block builds initial messages
from atom embeddings and the distance embedding of each edge; interaction
blocks update them by aggregating neighbor messages gated by encoded
geometry (distance, distance-angle, and distance-angle-torsion embeddings,
depending on the ablation mode); an output block pools messages into node
features and sums a per-node readout into the graph scalar.

Two-hop pairs outnumber edges many times over, so everything that depends
only on the neighbor edge is computed once per edge: the message projections
and the distance term. Only the narrow down-projections of the angle and
torsion embeddings are evaluated per pair, and they do not depend on the
messages: ``begin_forward`` computes them once per forward, one product per
geometry kind against every block's down-projection stacked side by side.
The column-major pair bases are read once by that product instead of once
per block. The rest of the pair path (gate up-projection, gating, summing
per edge) is one fused tape op, ``Tape.pair_aggregate``, that works through
the pairs in blocks, so no message-wide array per pair is kept, in the
forward or for the backward.

Inference (``forward_features(..., grad=False)``) enters the parameters as
constants, so the tape records nothing and every intermediate is freed once
consumed; the predictions are bitwise those of the taped forward.

Geometry and basis values enter as constants: gradients flow to parameters
only. Gate encodings use bottleneck blocks (down-projection without bias,
then up-projection), and the gated geometry terms are additive per geometry
type, so zeroing the torsion encoder's weights reproduces the torsion-free
network exactly.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Node, Tape
from .basis import BasisTables, _radial_table, rbf_embed, sbf_embed, tbf_embed, tables_for
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

    The Philox key is two 64-bit words: the (wrapped) seed and a fold of the
    stream tag with a per-use counter such as the epoch.
    """
    key = [seed % (1 << 64), ((tag % (1 << 32)) << 32) + (extra % (1 << 32))]
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
        return list(self.values)

    def zero_grads(self):
        self.flat_grads.fill(0.0)

    def clone(self) -> "ModelParams":
        return ModelParams(self.cfg, self.values)

    def n_parameters(self) -> int:
        return self.flat_values.size


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
    Merged batches keep per-graph node segments via ``graph_ids``. The pair
    bases ``pair_sbf`` and ``pair_tbf`` are column-major, as the basis
    functions build them.
    """

    n_atoms: int
    n_graphs: int
    atomic_numbers: np.ndarray
    graph_ids: np.ndarray
    edge_sender: np.ndarray
    edge_receiver: np.ndarray
    edge_rbf: np.ndarray
    pair_edge: np.ndarray
    pair_neighbor: np.ndarray
    pair_sbf: Optional[np.ndarray]
    pair_tbf: Optional[np.ndarray]

    @property
    def n_edges(self) -> int:
        return self.edge_sender.size

    @property
    def n_pairs(self) -> int:
        return self.pair_edge.size


def featurize_graph(graph: Graph3D, cfg: RunConfig,
                    tables: Optional[BasisTables] = None) -> GraphFeatures:
    """Radius graph, two-hop geometry, and basis embeddings for one graph.

    Angle and torsion embeddings are computed only when the ablation mode
    consumes them. Both depend on the neighbor edge's distance through the
    same radial Bessel table, so it is computed once, over the edge
    distances, gathered to the pairs, and passed to both as ``radial=``.
    """
    if np.any(graph.atomic_numbers > cfg.max_z):
        raise IngestError(
            f"graph {graph.id!r} contains atomic numbers above max_z={cfg.max_z}"
        )
    tables = tables if tables is not None else tables_for(cfg)
    edges = build_radius_graph(graph, cfg.cutoff_c)
    hops = two_hop_geometry(graph, edges)
    pair_sbf = pair_tbf = None
    if cfg.ablation_mode in (FULL, NO_TORSION):
        pair_d = edges.distances[hops.pair_neighbor]
        radial = _radial_table(edges.distances, tables, hops.pair_neighbor)
        pair_sbf = sbf_embed(pair_d, hops.theta, tables,
                             radial=radial).reshape(hops.n_pairs, tables.sbf_size)
        if cfg.ablation_mode == FULL:
            pair_tbf = tbf_embed(pair_d, hops.theta, hops.phi, tables, radial=radial)
    return GraphFeatures(
        n_atoms=graph.n_atoms,
        n_graphs=1,
        atomic_numbers=graph.atomic_numbers,
        graph_ids=np.zeros(graph.n_atoms, dtype=np.int64),
        edge_sender=edges.senders,
        edge_receiver=edges.receivers,
        edge_rbf=rbf_embed(edges.distances, tables),
        pair_edge=hops.pair_edge,
        pair_neighbor=hops.pair_neighbor,
        pair_sbf=pair_sbf,
        pair_tbf=pair_tbf,
    )


def merge_features(parts: list[GraphFeatures]) -> GraphFeatures:
    """Disjoint union of featurized graphs with offset indices.

    Geometry was computed per graph, so no cross-graph edges appear no matter
    how close the coordinate frames happen to be.
    """
    if not parts:
        raise NetworkError("cannot merge an empty feature list")
    if len(parts) == 1:
        single = parts[0]
        if single.n_graphs == 1:
            return single
    node_offset = 0
    edge_offset = 0
    graph_offset = 0
    chunks = {name: [] for name in (
        "atomic_numbers", "graph_ids", "edge_sender", "edge_receiver", "edge_rbf",
        "pair_edge", "pair_neighbor", "pair_sbf", "pair_tbf",
    )}
    has_sbf = parts[0].pair_sbf is not None
    has_tbf = parts[0].pair_tbf is not None
    for part in parts:
        chunks["atomic_numbers"].append(part.atomic_numbers)
        chunks["graph_ids"].append(part.graph_ids + graph_offset)
        chunks["edge_sender"].append(part.edge_sender + node_offset)
        chunks["edge_receiver"].append(part.edge_receiver + node_offset)
        chunks["edge_rbf"].append(part.edge_rbf)
        chunks["pair_edge"].append(part.pair_edge + edge_offset)
        chunks["pair_neighbor"].append(part.pair_neighbor + edge_offset)
        if has_sbf:
            chunks["pair_sbf"].append(part.pair_sbf)
        if has_tbf:
            chunks["pair_tbf"].append(part.pair_tbf)
        node_offset += part.n_atoms
        edge_offset += part.n_edges
        graph_offset += part.n_graphs
    return GraphFeatures(
        n_atoms=node_offset,
        n_graphs=graph_offset,
        atomic_numbers=np.concatenate(chunks["atomic_numbers"]),
        graph_ids=np.concatenate(chunks["graph_ids"]),
        edge_sender=np.concatenate(chunks["edge_sender"]),
        edge_receiver=np.concatenate(chunks["edge_receiver"]),
        edge_rbf=np.concatenate(chunks["edge_rbf"]),
        pair_edge=np.concatenate(chunks["pair_edge"]),
        pair_neighbor=np.concatenate(chunks["pair_neighbor"]),
        pair_sbf=_concat_column_major(chunks["pair_sbf"]) if has_sbf else None,
        pair_tbf=_concat_column_major(chunks["pair_tbf"]) if has_tbf else None,
    )


def _concat_column_major(arrays: list[np.ndarray]) -> np.ndarray:
    """Rows of ``arrays`` stacked into one column-major array.

    ``np.concatenate`` picks its output order from the inputs' strides, and a
    part with no pairs (or one) would turn it row-major; concatenating the
    transposes fixes the order whatever the parts.
    """
    return np.concatenate([a.T for a in arrays], axis=1).T


@dataclass
class ForwardContext:
    """Everything one forward pass threads through its blocks."""

    tape: Tape
    leaves: dict[str, Node]
    features: GraphFeatures
    cfg: RunConfig
    gate_inputs: dict[str, list[Node]]


@dataclass
class ForwardCache:
    """Forward result plus the tape needed for the backward sweep."""

    context: ForwardContext
    prediction: Node
    params: ModelParams

    @property
    def predictions(self) -> np.ndarray:
        return self.prediction.value


def _dense(ctx: ForwardContext, name: str, x: Node, activation: bool = False) -> Node:
    return ctx.tape.dense(x, ctx.leaves[name + ".w"], ctx.leaves[name + ".b"], silu=activation)


def _bottleneck(ctx: ForwardContext, name: str, x: Node) -> Node:
    """Down-projection (no bias) followed by a biased up-projection."""
    mid = ctx.tape.dense(x, ctx.leaves[name + ".down"])
    return ctx.tape.dense(mid, ctx.leaves[name + ".up"], ctx.leaves[name + ".b"])


def begin_forward(features: GraphFeatures, params: ModelParams,
                  cfg: RunConfig, grad: bool = True) -> ForwardContext:
    """A fresh tape; parameters enter as leaves, or as constants without grad.

    The gate inputs ``feature @ inter{b}.{kind}.down`` do not depend on the
    messages, so they are computed here, once per forward: one product per
    geometry kind against every block's down-projection stacked side by
    side (``Tape.stacked_matmul``), one node per block. At the shipped
    bottleneck width each node's value and gradient are bitwise those of the
    block's own product. Blocks called one by one on this context pick up
    theirs.
    """
    tape = Tape()
    if grad:
        leaves = {name: tape.leaf(value, params.grads[name])
                  for name, value in params.values.items()}
    else:
        leaves = {name: tape.constant(value) for name, value in params.values.items()}
    gate_features = {}
    if cfg.ablation_mode in (FULL, NO_TORSION):
        gate_features["sbf"] = features.pair_sbf
    if cfg.ablation_mode == FULL:
        gate_features["tbf"] = features.pair_tbf
    gate_inputs = {kind: tape.stacked_matmul(tape.constant(feature), [
        leaves[f"inter{b}.{kind}.down"] for b in range(cfg.num_interaction_blocks)])
        for kind, feature in gate_features.items()}
    return ForwardContext(tape=tape, leaves=leaves, features=features, cfg=cfg,
                          gate_inputs=gate_inputs)


def embedding_block(ctx: ForwardContext) -> Node:
    """Initial messages from sender/receiver embeddings and the edge distance."""
    tape, feats = ctx.tape, ctx.features
    atoms = tape.gather(ctx.leaves["atom_embed"], feats.atomic_numbers)
    senders = tape.gather(atoms, feats.edge_sender)
    receivers = tape.gather(atoms, feats.edge_receiver)
    encoded = _bottleneck(ctx, "input.rbf", tape.constant(feats.edge_rbf))
    merged = tape.concat([senders, receivers, encoded])
    messages = _dense(ctx, "input.merge", merged, activation=True)
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
    edge, a block of whole edges at a time. Its value is bitwise that of
    gathering, gating and summing the pair-wide arrays (``pair_edge`` is
    sorted, so each edge sums its pairs in the same order).
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
    )
    aggregated = tape.pair_aggregate(distance_term, [(
        inputs[block],
        ctx.leaves[prefix + kind + ".up"],
        ctx.leaves[prefix + kind + ".b"],
        _dense(ctx, prefix + f"proj_{kind}", messages),
    ) for kind, inputs in ctx.gate_inputs.items()],
        feats.pair_edge, feats.pair_neighbor, feats.n_edges)
    aggregated = _dense(ctx, prefix + "up", aggregated)

    branch = messages
    for j in range(cfg.num_message_layers):
        branch = _dense(ctx, prefix + f"msg{j}", branch, activation=True)
    updated = tape.add(branch, aggregated)
    for r in range(cfg.num_residual_blocks):
        inner = _dense(ctx, prefix + f"res{r}.a", updated, activation=True)
        inner = _dense(ctx, prefix + f"res{r}.b", inner, activation=True)
        updated = tape.add(updated, inner)
    _check_finite(updated, f"interaction block {block}")
    return updated


def output_block(ctx: ForwardContext, messages: Node) -> tuple[Node, Node]:
    """Pool distance-gated messages per node, then sum node readouts per graph."""
    tape, feats = ctx.tape, ctx.features
    gate = _bottleneck(ctx, "output.rbf", tape.constant(feats.edge_rbf))
    gated = tape.mul(gate, messages)
    pooled = tape.segment_sum(gated, feats.edge_receiver, feats.n_atoms)
    nodes = _dense(ctx, "output.node", pooled, activation=True)
    hidden = _dense(ctx, "output.read1", nodes, activation=True)
    contributions = _dense(ctx, "output.read2", hidden)
    totals = tape.segment_sum(contributions, feats.graph_ids, feats.n_graphs)
    prediction = tape.reshape(totals, (feats.n_graphs,))
    _check_finite(prediction, "output block")
    return nodes, prediction


def forward_features(features: GraphFeatures, params: ModelParams,
                     cfg: RunConfig, grad: bool = True) -> ForwardCache:
    """Run all blocks on featurized input; cache the tape for backward.

    With ``grad=False`` the parameters enter as constants, so the tape records
    no node and each intermediate is freed once consumed: the predictions are
    the same, bit for bit, and ``backward`` has nothing to sweep.
    """
    ctx = begin_forward(features, params, cfg, grad)
    messages = embedding_block(ctx)
    for block in range(cfg.num_interaction_blocks):
        messages = interaction_block(ctx, messages, block)
    _, prediction = output_block(ctx, messages)
    return ForwardCache(context=ctx, prediction=prediction, params=params)


def forward(graph: Graph3D, params: ModelParams,
            cfg: RunConfig) -> tuple[float, ForwardCache]:
    """Predict the graph scalar for a single graph."""
    cache = forward_features(featurize_graph(graph, cfg), params, cfg)
    return float(cache.predictions[0]), cache


def backward(cache: ForwardCache, upstream,
             accumulate: bool = True) -> dict[str, np.ndarray]:
    """Reverse sweep into the gradient buffers of ``cache.params``.

    ``upstream`` is the cotangent of the per-graph predictions: a scalar for
    single-graph caches or an array of shape (n_graphs,). With
    ``accumulate=False`` the buffers are zeroed first, so they hold this
    call's gradients; otherwise the gradients are added to what they hold.
    Returns ``cache.params.grads``: named views into ``flat_grads``, not
    copies, so the next ``backward`` on the same params overwrites them.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 0:
        upstream = np.full(cache.prediction.value.shape, float(upstream))
    if not accumulate:
        cache.params.zero_grads()
    cache.context.tape.backward(cache.prediction, upstream)
    return cache.params.grads


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
    lexicographically by (d, theta, phi).
    """
    d_values = np.atleast_1d(np.asarray(d_values, dtype=np.float64))
    theta_values = np.atleast_1d(np.asarray(theta_values, dtype=np.float64))
    phi_values = np.atleast_1d(np.asarray(phi_values, dtype=np.float64))
    if d_values.size == 0 or theta_values.size == 0 or phi_values.size == 0:
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
    if any(not 0 <= ch < width for ch in channels):
        raise NetworkError(f"channel index outside [0, {width})")
    grid_d, grid_t, grid_p = np.meshgrid(d_values, theta_values, phi_values, indexing="ij")
    flat_d, flat_t, flat_p = grid_d.ravel(), grid_t.ravel(), grid_p.ravel()
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
