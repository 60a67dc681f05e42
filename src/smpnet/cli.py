"""Command-line interface: one executable, six subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All outputs are plain CSV or key/value text, written byte-identically for
identical (argv, input files, seed).
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .basis import BasisError, build_tables, rbf_embed, sbf_embed, tbf_embed
from .geometry import GeometryError, build_radius_graph, two_hop_geometry
from .ingest import (ABLATION_MODES, IngestError, RunConfig, load_config,
                     load_manifest, load_xyz)
from .network import (ModelIOError, NetworkError, export_filters, load_model,
                      save_model)
from .train import (SYNTHETIC_TASKS, DivergenceError, MetricError,
                    TrainError, evaluate, format_epoch_log,
                    format_metric_report, run_ablation, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or flag values."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via UsageError."""

    def error(self, message):
        raise UsageError(message)


def _float_csv(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated float list, got {raw!r}") from exc
    if not all(math.isfinite(value) for value in values):
        raise UsageError(f"expected finite floats, got {raw!r}")
    return values


def _int_csv(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smpnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"smpnet {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (default: config value)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect "
                            "(everything runs in one thread)")

    p = sub.add_parser("featurize", help="emit per-pair geometry (d, theta, phi) as CSV")
    p.add_argument("--input", required=True, help="XYZ file, one or more frames")
    p.add_argument("--cutoff", type=float, default=5.0, help="radius-graph cutoff in angstrom")
    p.add_argument("--out", required=True, help="output CSV path")
    common(p)

    p = sub.add_parser("train", help="train a model and write checkpoint + epoch log")
    p.add_argument("--input", help="XYZ file with target= comment keys")
    p.add_argument("--manifest", help="line-delimited {file, target} manifest")
    p.add_argument("--config", help="run configuration file (defaults apply otherwise)")
    p.add_argument("--out-model", required=True, help="checkpoint output path")
    p.add_argument("--log", help="epoch log CSV output path")
    p.add_argument("--valid-fraction", type=float, default=0.1,
                   help="validation fraction when no explicit split exists")
    common(p)

    p = sub.add_parser("eval", help="compute MAE / std. MAE / EwT for a checkpoint")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--input", help="XYZ file with target= comment keys")
    p.add_argument("--manifest", help="line-delimited {file, target} manifest")
    p.add_argument("--config", help="session config; must match the checkpoint exactly")
    p.add_argument("--out", help="metric report path (stdout when omitted)")
    common(p)

    p = sub.add_parser("ablate", help="compare FULL / NO_TORSION / NO_ANGLE_TORSION "
                                      "on a synthetic task")
    p.add_argument("--task", default="torsion", choices=SYNTHETIC_TASKS)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seeds", type=int, default=3, help="number of seeds (0..n-1)")
    p.add_argument("--train-size", type=int, default=512)
    p.add_argument("--test-size", type=int, default=128)
    p.add_argument("--out", help="comparison table CSV path (stdout when omitted)")
    common(p)

    p = sub.add_parser("basis-dump", help="sample basis values as CSV for cross-checks")
    p.add_argument("--cutoff", type=float, default=5.0)
    p.add_argument("--n-srbf", type=int, default=6)
    p.add_argument("--n-shbf", type=int, default=7)
    p.add_argument("--samples", type=int, default=8, help="radial sample count")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("export-filters", help="torsion-encoder responses on a "
                                              "(d, theta, phi) grid")
    p.add_argument("--model", required=True)
    p.add_argument("--phi", type=_float_csv,
                   default=[0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                   help="comma-separated torsion samples (radians)")
    p.add_argument("--d-samples", type=int, default=32)
    p.add_argument("--theta-samples", type=int, default=32)
    p.add_argument("--channels", type=_int_csv, default=None,
                   help="comma-separated output channel subset (default: all)")
    p.add_argument("--out", required=True)
    common(p)
    return parser


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_text(path: Optional[str], text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _load_dataset(args) -> list:
    if bool(args.input) == bool(args.manifest):
        raise UsageError("provide exactly one of --input or --manifest")
    if args.input:
        graphs = load_xyz(args.input)
    else:
        graphs = []
        for path, target in load_manifest(args.manifest):
            frames = load_xyz(path)
            if len(frames) != 1:
                raise IngestError(
                    f"{path}: manifest entries must reference single-frame files, "
                    f"found {len(frames)} frames"
                )
            graphs.append(dataclasses.replace(frames[0], graph_target=target))
    if not graphs:
        raise IngestError("no structures found in input")
    return graphs


def _session_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def cmd_featurize(args) -> int:
    if not args.cutoff > 0:
        raise UsageError(f"--cutoff must be positive, got {args.cutoff}")
    graphs = load_xyz(args.input)
    lines = ["graph_id,k,j,d,theta,phi"]
    for graph in graphs:
        edges = build_radius_graph(graph, args.cutoff)
        hops = two_hop_geometry(graph, edges)
        neighbor_d = edges.distances[hops.pair_neighbor]
        for p in range(hops.n_pairs):
            lines.append(
                f"{graph.id},{hops.pair_edge[p]},{hops.pair_neighbor[p]},"
                f"{_fmt(neighbor_d[p])},{_fmt(hops.theta[p])},{_fmt(hops.phi[p])}"
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_train(args) -> int:
    if not 0.0 <= args.valid_fraction < 1.0:
        raise UsageError(f"--valid-fraction must lie in [0, 1), got {args.valid_fraction}")
    cfg = _session_config(args)
    dataset = _load_dataset(args)
    result = train(dataset, cfg, valid_fraction=args.valid_fraction)
    save_model(result.params, args.out_model)
    if args.log:
        _write_text(args.log, format_epoch_log(result.log))
    return EXIT_OK


def cmd_eval(args) -> int:
    expected = load_config(args.config) if args.config else None
    params, cfg = load_model(args.model, expected_cfg=expected)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    dataset = _load_dataset(args)
    report = evaluate(params, dataset, cfg)
    _write_text(args.out, format_metric_report(report))
    return EXIT_OK


def cmd_ablate(args) -> int:
    if args.epochs < 1 or args.seeds < 1:
        raise UsageError("--epochs and --seeds must be positive")
    if args.train_size < 64 or args.test_size < 1:
        raise UsageError("--train-size must be >= 64 and --test-size >= 1")
    report = run_ablation(task=args.task, epochs=args.epochs, n_seeds=args.seeds,
                          train_size=args.train_size, test_size=args.test_size)
    by_seed = {}
    for run in report.runs:
        by_seed.setdefault(run.seed, {})[run.mode] = run.test_mae
    lines = ["seed,full_mae,no_torsion_mae,no_angle_torsion_mae"]
    for seed in sorted(by_seed):
        row = by_seed[seed]
        lines.append(f"{seed}," + ",".join(_fmt(row[mode]) for mode in ABLATION_MODES))
    lines.append("median," + ",".join(_fmt(report.median(mode)) for mode in ABLATION_MODES))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_basis_dump(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    try:
        tables = build_tables(args.cutoff, args.n_srbf, args.n_shbf)
    except BasisError as exc:
        raise UsageError(str(exc)) from exc
    c = tables.cutoff
    d_values = c * (np.arange(1, args.samples + 1) / args.samples)
    theta_values = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    phi_values = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    lines = ["kind,l,m,n,d,theta,phi,value"]
    for d in d_values:
        radial = rbf_embed(d, tables)
        for n in range(tables.n_srbf):
            lines.append(f"rbf,,,{n + 1},{_fmt(d)},,,{_fmt(radial[n])}")
        for theta in theta_values:
            angular = sbf_embed(d, theta, tables)
            for ell in range(tables.n_shbf):
                for n in range(tables.n_srbf):
                    lines.append(
                        f"sbf,{ell},,{n + 1},{_fmt(d)},{_fmt(theta)},,"
                        f"{_fmt(angular[ell, n])}"
                    )
            for phi in phi_values:
                full = tbf_embed(d, theta, phi, tables)
                col = 0
                for ell in range(tables.n_shbf):
                    for m in range(-ell, ell + 1):
                        for n in range(tables.n_srbf):
                            lines.append(
                                f"tbf,{ell},{m},{n + 1},{_fmt(d)},{_fmt(theta)},"
                                f"{_fmt(phi)},{_fmt(full[col])}"
                            )
                            col += 1
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_export_filters(args) -> int:
    if args.d_samples < 1 or args.theta_samples < 1:
        raise UsageError("--d-samples and --theta-samples must be positive")
    if not args.phi:
        raise UsageError("--phi must contain at least one sample")
    params, cfg = load_model(args.model)
    if cfg.num_interaction_blocks < 1:
        raise ModelIOError(f"{args.model}: filter export needs at least one interaction block")
    width = params.values["inter0.tbf.b"].size
    if not all(0 <= ch < width for ch in args.channels or ()):
        raise UsageError(f"--channels entries must lie in [0, {width})")
    d_values = cfg.cutoff_c * (np.arange(1, args.d_samples + 1) / (args.d_samples + 1))
    theta_values = np.linspace(0.0, math.pi, args.theta_samples)
    header, rows = export_filters(params, cfg, d_values, theta_values,
                                  np.asarray(args.phi, dtype=np.float64),
                                  channels=args.channels)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(value) for value in row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


_HANDLERS = {
    "featurize": cmd_featurize,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "basis-dump": cmd_basis_dump,
    "export-filters": cmd_export_filters,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if args.command is None:
        print("error: a subcommand is required (see --help)", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (IngestError, ModelIOError, GeometryError, BasisError, MetricError,
            TrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
