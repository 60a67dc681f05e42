"""Per-layer spans around calls into smpnet, installed from outside the package.

Each hook replaces the attribute a caller looks up (``smpnet.geometry.
compute_torsions`` is what ``two_hop_geometry`` calls, ``smpnet.network.
tbf_embed`` is what ``featurize_graph`` calls) with a wrapper that records a
span: name, start, end, parent span and operation id. Spans stay in memory
and are written out when the run ends. A layer's self time is its spans'
duration minus the part covered by their child spans.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (layer, module, attribute path). Order is the order of the report.
HOOKS = (
    ("ingest.load_xyz", "smpnet.ingest", "load_xyz"),
    ("network.load_model", "smpnet.network", "load_model"),
    ("basis.tables", "smpnet.basis", "build_tables"),
    ("network.featurize", "smpnet.train", "featurize_graph"),
    ("geometry.radius_graph", "smpnet.network", "build_radius_graph"),
    ("geometry.two_hop_index", "smpnet.geometry", "build_two_hop_index"),
    ("geometry.angles", "smpnet.geometry", "compute_angles"),
    ("geometry.torsions", "smpnet.geometry", "compute_torsions"),
    ("basis.rbf", "smpnet.network", "rbf_embed"),
    ("basis.sbf", "smpnet.network", "sbf_embed"),
    ("basis.tbf", "smpnet.network", "tbf_embed"),
    ("network.merge", "smpnet.train", "merge_features"),
    ("network.embedding", "smpnet.network", "embedding_block"),
    ("network.interaction", "smpnet.network", "interaction_block"),
    ("network.output", "smpnet.network", "output_block"),
    ("network.backward", "smpnet.train", "backward"),
    ("autodiff.backward", "smpnet.autodiff", "Tape.backward"),
    ("train.adam", "smpnet.train", "adam_step"),
)

# Layers a workload kind never reaches; every other hook must be called.
NOT_CALLED = {
    "train": {"network.load_model"},
    "eval": {"network.backward", "autodiff.backward", "train.adam"},
}

# A call to one of these outside any other span starts a new operation: a
# file load, one graph featurized, or one merged batch (a training step, a
# validation pass or an evaluation chunk) with everything it runs after.
OPERATION_STARTS = {"ingest.load_xyz", "network.load_model", "network.featurize",
                    "network.merge"}

# Attributes the untraced run probes to find epoch and step boundaries.
PROBES = (("smpnet.train", "lr_at"), ("smpnet.train", "adam_step"))

COUNTS = ("count.graphs", "count.atoms", "count.edges", "count.pairs", "count.steps",
          "autodiff.tape_nodes", "network.feature_bytes")


# Exit code of run.py and child.py when the benchmark no longer fits the
# program: a hooked or probed function is gone, or was never called.
EXIT_STALE = 3


class TraceError(RuntimeError):
    """A hooked function is missing, or was never called where it must be."""


def resolve(module: str, path: str):
    """The object owning the hooked attribute, and the attribute name."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        raise TraceError(f"hooked function {module}.{path} no longer exists")
    return owner, name


def check_hooks():
    """Raise TraceError unless every hooked and probed attribute exists."""
    for module, path in [hook[1:] for hook in HOOKS] + list(PROBES):
        resolve(module, path)


def _feature_bytes(features) -> int:
    return sum(value.nbytes for value in vars(features).values()
               if hasattr(value, "nbytes"))


class Tracer:
    """Records spans of every hooked call while ``active`` is set."""

    def __init__(self):
        self.spans: list[list] = []     # [layer, start, end, parent index, operation]
        self.stack: list[int] = []
        self.operation = 0
        self.active = False
        self.counts = defaultdict(int)

    def install(self):
        for layer, module, path in HOOKS:
            owner, name = resolve(module, path)
            setattr(owner, name, self._wrap(layer, getattr(owner, name)))

    def _wrap(self, layer: str, function):
        starts_operation = layer in OPERATION_STARTS

        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            if starts_operation and not self.stack:
                self.operation += 1
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.operation]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._count(layer, args, result)
            return result

        return traced

    def _count(self, layer: str, args, result):
        counts = self.counts
        if layer == "network.featurize":
            counts["count.graphs"] += 1
            counts["count.atoms"] += result.n_atoms
            counts["count.edges"] += result.n_edges
            counts["count.pairs"] += result.n_pairs
            counts["network.feature_bytes"] += _feature_bytes(result)
        elif layer == "network.merge" and not any(result is part for part in args[0]):
            counts["network.feature_bytes"] += _feature_bytes(result)
        elif layer == "network.output":
            counts["autodiff.tape_nodes"] += len(args[0].tape.nodes)
        elif layer == "train.adam":
            counts["count.steps"] += 1

    def layer_times(self) -> dict:
        """Self seconds and call count per layer."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (layer, start, end, _, _), inner in zip(self.spans, child_time):
            self_s[layer] += end - start - inner
            calls[layer] += 1
        return {layer: (self_s[layer], calls[layer]) for layer, _, _ in HOOKS}

    def check_called(self, kind: str):
        called = {span[0] for span in self.spans}
        missing = [layer for layer, _, _ in HOOKS
                   if layer not in NOT_CALLED[kind] and layer not in called]
        if missing:
            raise TraceError(f"hooked layers never called: {', '.join(missing)}")

    def write(self, path: str, origin: float):
        with open(path, "w", encoding="utf-8") as handle:
            for layer, start, end, parent, operation in self.spans:
                handle.write(json.dumps({
                    "name": layer, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": operation}) + "\n")
