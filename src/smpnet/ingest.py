"""Parsing of structure files, target manifests, and run configurations.

All parsing is pure and locale-independent: numeric fields are read with
C-locale decimal semantics (``float``/``int`` on the raw token), and parsed
records are immutable after construction.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np

from .basis import MAX_ORDER, MAX_ROOTS
from .elements import MAX_Z, SYMBOL_TO_Z, z_to_symbol

# Two atoms closer than this (in angstrom) are rejected: downstream angle and
# torsion formulas divide by interatomic distances.
MIN_ATOM_SEPARATION = 1e-6

FULL = "FULL"
NO_TORSION = "NO_TORSION"
NO_ANGLE_TORSION = "NO_ANGLE_TORSION"
ABLATION_MODES = (FULL, NO_TORSION, NO_ANGLE_TORSION)

SCHEDULE_STEP = "step"
SCHEDULE_COSINE = "cosine"
SCHEDULES = (SCHEDULE_STEP, SCHEDULE_COSINE)


class IngestError(ValueError):
    """Raised for malformed structure, manifest, or config input."""


class XYZParseError(IngestError):
    """XYZ stream error, carrying the offending frame index and line number."""

    def __init__(self, message: str, frame: int, line: int):
        super().__init__(f"frame {frame}, line {line}: {message}")
        self.frame = frame
        self.line = line


@dataclass(frozen=True)
class Graph3D:
    """A 3D graph: atomic numbers, Cartesian positions, an optional target.

    Positions are an (n, 3) float64 array in angstrom. Arrays are made
    read-only so instances can be shared freely across threads. Atomic
    numbers and coordinates must be real numbers (integers or floats, not
    booleans, complex numbers, strings or ragged nestings), atomic numbers
    integer-valued, and the target a finite real number other than a bool;
    anything else raises ``IngestError``.
    """

    atomic_numbers: np.ndarray
    positions: np.ndarray
    graph_target: Optional[float] = None
    id: str = ""

    def __post_init__(self):
        z = _real_array(self.atomic_numbers, "atomic numbers", self.id)
        pos = np.ascontiguousarray(_real_array(self.positions, "positions", self.id),
                                   dtype=np.float64)
        if z.ndim != 1 or z.size < 1:
            raise IngestError(f"graph {self.id!r}: need at least one atom")
        # One comparison chain that NaN fails; then no cast can round or wrap.
        if not np.all((z >= 1) & (z <= MAX_Z) & (z == np.trunc(z))):
            raise IngestError(f"graph {self.id!r}: atomic numbers must be integers "
                              f"in [1, {MAX_Z}]")
        z = np.ascontiguousarray(z, dtype=np.int64)
        if pos.shape != (z.size, 3):
            raise IngestError(
                f"graph {self.id!r}: positions shape {pos.shape} does not match "
                f"{z.size} atoms"
            )
        if not np.all(np.isfinite(pos)):
            raise IngestError(f"graph {self.id!r}: non-finite coordinate")
        if self.graph_target is not None:
            target = self.graph_target
            # abs(x) <= _FLOAT_MAX fails for inf, NaN and ints beyond float64.
            if (not isinstance(target, numbers.Real) or isinstance(target, bool)
                    or not abs(target) <= _FLOAT_MAX):
                raise IngestError(f"graph {self.id!r}: target must be a finite real number")
            object.__setattr__(self, "graph_target", float(target))
        _check_min_separation(pos, self.id)
        z.setflags(write=False)
        pos.setflags(write=False)
        object.__setattr__(self, "atomic_numbers", z)
        object.__setattr__(self, "positions", pos)

    @property
    def n_atoms(self) -> int:
        return self.atomic_numbers.size


def _real_array(value, name: str, graph_id: str) -> np.ndarray:
    """``value`` as an array of integers or floats; any other kind raises
    ``IngestError`` before a cast could coerce it."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise IngestError(f"graph {graph_id!r}: {name}: {exc}") from None
    if array.dtype.kind not in "iuf":
        raise IngestError(f"graph {graph_id!r}: {name} must be real numbers, "
                          f"got dtype {array.dtype}")
    return array


def pair_distances(positions: np.ndarray) -> np.ndarray:
    """The (n, n) matrix of distances between all atoms, 0 on the diagonal.

    The one all-pairs distance routine: the separation guard of ``Graph3D``
    and the radius graph both call it.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _check_min_separation(pos: np.ndarray, graph_id: str):
    n = pos.shape[0]
    if n < 2:
        return
    dist = pair_distances(pos)
    dist[np.diag_indices(n)] = np.inf
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    if dist[i, j] < MIN_ATOM_SEPARATION:
        raise IngestError(
            f"graph {graph_id!r}: atoms {i} and {j} are {dist[i, j]:.3e} A apart "
            f"(duplicate-position guard at {MIN_ATOM_SEPARATION:g} A)"
        )


def parse_xyz(text: str, source: str = "<string>") -> list[Graph3D]:
    """Parse one or more concatenated XYZ frames into Graph3D records.

    Each frame is a count line, a comment line (which may carry a
    ``target=<float>`` token), and one ``<symbol> <x> <y> <z>`` line per atom.
    Errors report the frame index and 1-based line number.
    """
    lines = text.splitlines()
    graphs: list[Graph3D] = []
    pos = 0
    frame = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        graphs.append(_parse_frame(lines, pos, frame, source))
        pos += 2 + graphs[-1].n_atoms
        frame += 1
    return graphs


def _parse_frame(lines: list[str], start: int, frame: int, source: str) -> Graph3D:
    lineno = start + 1
    try:
        n = int(lines[start].strip())
    except ValueError:
        raise XYZParseError(f"malformed atom count {lines[start].strip()!r}", frame, lineno)
    if n < 1:
        raise XYZParseError(f"atom count must be positive, got {n}", frame, lineno)
    comment = lines[start + 1] if start + 1 < len(lines) else ""
    target = _parse_comment_target(comment, frame, start + 2)
    # A count beyond the remaining lines fails at the first missing line;
    # allocate only for the lines that exist.
    rows = min(n, max(len(lines) - start - 2, 0))
    numbers = np.empty(rows, dtype=np.int64)
    coords = np.empty((rows, 3), dtype=np.float64)
    for i in range(n):
        lineno = start + 3 + i
        if start + 2 + i >= len(lines):
            raise XYZParseError(f"expected {n} atom lines, stream ended", frame, lineno)
        tokens = lines[start + 2 + i].split()
        if len(tokens) != 4:
            raise XYZParseError(
                f"expected '<symbol> <x> <y> <z>', got {lines[start + 2 + i]!r}",
                frame, lineno,
            )
        symbol = tokens[0]
        if symbol not in SYMBOL_TO_Z:
            raise XYZParseError(f"unknown element symbol {symbol!r}", frame, lineno)
        numbers[i] = SYMBOL_TO_Z[symbol]
        for axis in range(3):
            try:
                coords[i, axis] = float(tokens[1 + axis])
            except ValueError:
                raise XYZParseError(f"bad coordinate {tokens[1 + axis]!r}", frame, lineno)
        if not np.all(np.isfinite(coords[i])):
            raise XYZParseError("non-finite coordinate", frame, lineno)
    graph_id = f"{source}#{frame}"
    try:
        return Graph3D(numbers, coords, graph_target=target, id=graph_id)
    except IngestError as exc:
        raise XYZParseError(str(exc), frame, start + 1) from exc


def _parse_comment_target(comment: str, frame: int, lineno: int) -> Optional[float]:
    for token in comment.split():
        if token.startswith("target="):
            raw = token[len("target="):]
            try:
                value = float(raw)
            except ValueError:
                raise XYZParseError(f"bad target value {raw!r}", frame, lineno)
            if not math.isfinite(value):
                raise XYZParseError(f"non-finite target {raw!r}", frame, lineno)
            return value
    return None


def format_xyz(graphs: list[Graph3D]) -> str:
    """Serialize graphs back to XYZ text.

    Coordinates use shortest round-trip float representation, so
    parse(format(parse(text))) reproduces positions bit-identically.
    """
    out = []
    for g in graphs:
        out.append(str(g.n_atoms))
        out.append(f"target={g.graph_target!r}" if g.graph_target is not None else "")
        for z, row in zip(g.atomic_numbers, g.positions):
            coords = " ".join(repr(float(value)) for value in row)
            out.append(f"{z_to_symbol(int(z))} {coords}")
    return "\n".join(out) + "\n"


def _read_text(path: str | os.PathLike) -> str:
    """A UTF-8 text file's contents, with universal newlines."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise IngestError(f"{os.fspath(path)}: not UTF-8 text: {exc}") from exc


def load_xyz(path: str | os.PathLike) -> list[Graph3D]:
    """Read an XYZ file from disk."""
    return parse_xyz(_read_text(path), source=os.fspath(path))


def load_manifest(path: str | os.PathLike) -> list[tuple[str, float]]:
    """Load a line-delimited manifest of ``{"file": ..., "target": ...}`` records.

    Relative structure paths are resolved against the manifest's directory.
    Returns (resolved path, target) tuples in file order.
    """
    base = os.path.dirname(os.path.abspath(os.fspath(path)))
    entries: list[tuple[str, float]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # ValueError: also over-long integers
            raise IngestError(f"{path}:{lineno}: invalid record: {exc}") from exc
        if not isinstance(record, dict) or "file" not in record or "target" not in record:
            raise IngestError(f"{path}:{lineno}: record needs 'file' and 'target' keys")
        if not isinstance(record["file"], str):
            raise IngestError(f"{path}:{lineno}: 'file' must be a string")
        raw = record["target"]
        if isinstance(raw, bool):
            raise IngestError(f"{path}:{lineno}: target must be a number, got {raw!r}")
        try:
            target = float(raw) if isinstance(raw, (int, float)) else math.nan
        except OverflowError:  # an integer beyond the float range
            target = math.inf
        if not math.isfinite(target):
            raise IngestError(f"{path}:{lineno}: non-finite target {raw!r}")
        resolved = os.path.normpath(os.path.join(base, record["file"]))
        if resolved in seen:
            raise IngestError(f"{path}:{lineno}: duplicate entry for {record['file']!r}")
        seen.add(resolved)
        if not os.path.exists(resolved):
            raise IngestError(f"{path}:{lineno}: structure file {resolved!r} missing")
        entries.append((resolved, target))
    return entries


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a featurization/training run.

    Defaults follow the fixed values of the reference hyperparameter tables
    (6 radial / 7 spherical basis functions, cutoff 5 A, warmup factor 0.2).
    """

    cutoff_c: float = 5.0
    n_srbf: int = 6
    n_shbf: int = 7
    num_interaction_blocks: int = 3
    embed_size: int = 256
    lb2_distance_size: int = 8
    lb2_angle_size: int = 8
    lb2_torsion_size: int = 8
    output_embed_size: int = 64
    num_message_layers: int = 2
    num_residual_blocks: int = 2
    max_z: int = MAX_Z
    batch_size: int = 32
    init_lr: float = 1e-3
    schedule: str = SCHEDULE_STEP
    decay_ratio: float = 0.1
    step_size: int = 10
    t_max: Optional[int] = None
    warmup_epochs: int = 3
    warmup_factor: float = 0.2
    max_epochs: int = 100
    ablation_mode: str = FULL
    seed: int = 0
    ewt_threshold: float = 0.02

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and _CONFIG_FIELDS[name] == Optional[int]:
                continue
            if not _is_int(value):
                raise IngestError(f"{name} must be an integer, got {value!r}")
            minimum = 0 if name in _MAY_BE_ZERO else 1
            if name != "seed" and value < minimum:   # any integer seeds the generators
                raise IngestError(f"{name} must be an integer >= {minimum}, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not (_is_int(value) or isinstance(value, float)) or not abs(value) <= _FLOAT_MAX:
                raise IngestError(f"{name} must be a finite number, got {value!r}")
        if not self.cutoff_c > 0:
            raise IngestError(f"cutoff_c must be positive, got {self.cutoff_c}")
        if self.n_shbf > MAX_ORDER:
            raise IngestError(f"n_shbf exceeds supported harmonic order {MAX_ORDER}: {self.n_shbf}")
        if self.n_srbf > MAX_ROOTS:
            raise IngestError(f"n_srbf exceeds supported root count {MAX_ROOTS}: {self.n_srbf}")
        if self.max_z > MAX_Z:
            raise IngestError(f"max_z exceeds element table bound {MAX_Z}: {self.max_z}")
        if not 0 < self.warmup_factor <= 1:
            raise IngestError(f"warmup_factor must lie in (0, 1], got {self.warmup_factor}")
        if not 0 < self.decay_ratio <= 1:
            raise IngestError(f"decay_ratio must lie in (0, 1], got {self.decay_ratio}")
        if self.schedule not in SCHEDULES:
            raise IngestError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.ablation_mode not in ABLATION_MODES:
            raise IngestError(
                f"ablation_mode must be one of {ABLATION_MODES}, got {self.ablation_mode!r}"
            )
        if not self.init_lr > 0:
            raise IngestError(f"init_lr must be positive, got {self.init_lr}")
        if not self.ewt_threshold > 0:
            raise IngestError(f"ewt_threshold must be positive, got {self.ewt_threshold}")

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# The schema is the annotations of RunConfig.
_CONFIG_FIELDS = get_type_hints(RunConfig)
_INT_FIELDS = tuple(name for name, kind in _CONFIG_FIELDS.items()
                    if kind in (int, Optional[int]))
_FLOAT_FIELDS = tuple(name for name, kind in _CONFIG_FIELDS.items() if kind is float)
_MAY_BE_ZERO = ("num_interaction_blocks", "num_message_layers", "num_residual_blocks")
_FLOAT_MAX = sys.float_info.max   # abs(x) <= it fails for inf, nan and ints beyond float64


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse a flat ``key: value`` document into a RunConfig.

    Blank lines and ``#`` comments are ignored; unspecified keys take the
    defaults. Unknown keys are errors.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ":" not in stripped:
            raise IngestError(f"{source}:{lineno}: expected 'key: value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split(":", 1))
        if key not in _CONFIG_FIELDS:
            raise IngestError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise IngestError(f"{source}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _convert_config_value(key, raw)
        except ValueError as exc:
            raise IngestError(f"{source}:{lineno}: {exc}") from exc
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise IngestError(f"{source}: {exc}") from exc


def _convert_config_value(key: str, raw: str):
    if key in _INT_FIELDS:
        if key == "t_max" and raw.lower() == "none":
            return None
        return int(raw)
    if key in _FLOAT_FIELDS:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {raw!r} for {key}")
        return value
    if key == "ablation_mode":
        return raw.upper()
    if key == "schedule":
        return raw.lower()
    return raw


def load_config(path: str | os.PathLike) -> RunConfig:
    """Read a RunConfig document from disk."""
    return parse_config(_read_text(path), source=os.fspath(path))
