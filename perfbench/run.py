"""smpnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload chains-train --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; smpnet is imported from its ``src``. The
inputs are generated from the seed into ``perfbench/out/<workload>-<seed>/``;
then child processes (perfbench/child.py) repeat the workload, each from a
fresh interpreter, until ``--seconds`` would be exceeded. A child killed by a
signal (an OOM kill, say) or crashing counts as a failed run; its planned
operations count as failed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced children alternate
and the metrics are per-layer self times and counts. The run record (system,
input sizes, every child's raw result, failures) is written next to the
inputs as record.json; traced children also write their spans there.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# A run must end within 180 s; children are not started past this point.
DEADLINE_S = 165.0
EXIT_NO_PROGRAM = 2

sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """smpnet from this checkout's src, or exit: without it nothing is measured."""
    if not (SRC / "smpnet" / "__init__.py").is_file():
        print(f"error: {SRC / 'smpnet'} not found; run from a checkout of smpnet",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import smpnet
    if Path(smpnet.__file__).resolve().parent != SRC / "smpnet":
        print(f"error: imported smpnet from {smpnet.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def blas_record() -> dict:
    import numpy as np
    record = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    for library in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["blas_threads"] = getter()
                return record
    return record


def prepare(workload: str, seed: int, out_dir: Path) -> tuple[dict, dict]:
    """Write the workload's inputs and the spec children read; return the
    spec and the input sizes."""
    from smpnet.network import init_params, save_model

    info = workloads.WORKLOADS[workload]
    frames = workloads.frames_for(workload, seed)
    cfg = workloads.run_config(workload, seed)
    data = out_dir / "data.xyz"
    data.write_text(workloads.format_xyz(frames), encoding="utf-8")
    spec = {"workload": workload, "kind": info["kind"], "seed": seed, "data": str(data),
            "config": cfg.to_dict(), "graphs": len(frames)}
    if info["kind"] == "train":
        spec["split"] = workloads.split(len(frames))
    else:
        spec["model"] = str(out_dir / "model.bin")
        save_model(init_params(cfg, seed), spec["model"])
    return spec, workloads.graph_counts(frames, cfg.cutoff_c)


def run_child(spec: dict, out_dir: Path, index: int, traced: bool, timeout: float) -> dict:
    """One child process; a crash or kill becomes a result with ``crash`` set."""
    child_spec = dict(spec, trace_path=str(out_dir / f"trace-{index}.jsonl"))
    spec_path = out_dir / f"spec-{index}.json"
    result_path = out_dir / f"result-{index}.json"
    spec_path.write_text(json.dumps(child_spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    command = [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path),
               "1" if traced else "0"]
    started = time.perf_counter()
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"timed out after {timeout:.0f} s", "duration_s": timeout,
                "traced": traced}
    duration = time.perf_counter() - started
    if proc.returncode == tracing.EXIT_STALE:
        sys.stderr.write(proc.stderr)
        sys.exit(tracing.EXIT_STALE)
    if proc.returncode != 0 or not result_path.is_file():
        reason = f"exit code {proc.returncode}"
        if proc.returncode < 0:
            try:
                reason = f"killed by {signal.Signals(-proc.returncode).name}"
            except ValueError:
                reason = f"killed by signal {-proc.returncode}"
        return {"crash": reason, "stderr": proc.stderr[-2000:], "duration_s": duration,
                "traced": traced}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(duration_s=duration, traced=traced)
    return result


def run_children(spec: dict, out_dir: Path, seconds: float, trace: bool) -> list[dict]:
    """Repeat the workload until another child would overrun ``seconds``.

    Traced runs alternate untraced and traced children and stop on a pair.
    """
    results: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        traced = trace and len(results) % 2 == 1
        results.append(run_child(spec, out_dir, len(results), traced,
                                 timeout=max(10.0, DEADLINE_S - elapsed)))
        elapsed = time.perf_counter() - start
        longest = max(r["duration_s"] for r in results)
        if elapsed + longest > DEADLINE_S:
            break
        if len(results) % (2 if trace else 1) == 0 and elapsed + longest > seconds:
            break
    return results


def _finished(results: list[dict]) -> list[dict]:
    return [r for r in results if "crash" not in r and "error" not in r]


def score(spec: dict, sizes: dict, results: list[dict], reference
          ) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all children, with the reasons.

    An operation is one optimizer step (train) or one graph evaluated (eval).
    A traced child must also have featurized exactly the graphs, atoms, edges
    and pairs the benchmark counts in its inputs.
    """
    if spec["kind"] == "train":
        steps_per_epoch = -(-len(spec["split"][0]) // spec["config"]["batch_size"])
        planned = steps_per_epoch * spec["config"]["max_epochs"]
    else:
        planned = spec["graphs"]
    attempted = failed = 0
    problems: list[str] = []
    first = None
    for index, result in enumerate(results):
        attempted += planned
        if "crash" in result or "error" in result:
            failed += planned - result.get("completed", 0)
            problems.append(f"child {index}: {result.get('crash') or result['error']}")
            continue
        if spec["kind"] == "train":
            log = result["log"]
            first = log if first is None else first
            failures = (workloads.check_epoch_log(log, reference)
                        + workloads.check_epoch_log(log, first, rtol=0.0))
            lost = steps_per_epoch * len({epoch for epoch, _ in failures})
        else:
            mae = result["mae"]
            first = mae if first is None else first
            failures = workloads.check_predictions(result["moved"][:1], result["moved"][1], 0)
            # The MAE is finite exactly when every prediction is; it must
            # also repeat bit for bit in every child.
            if not math.isfinite(mae) or mae != first:
                failures.append((None, f"MAE {mae!r}, first child {first!r}"))
                lost = planned
            else:
                lost = len({graph for graph, _ in failures})
        if result["traced"]:
            featurized = {name: result["trace"]["counts"].get(f"count.{name}", 0)
                          for name in sizes}
            if featurized != sizes:
                failures.append((None, f"featurized {featurized}, inputs hold {sizes}"))
                lost = planned
        failed += min(planned, lost)
        problems += [f"child {index}: {why}" for _, why in failures]
    return attempted, failed, problems


def end_to_end_metrics(spec: dict, results: list[dict]) -> dict:
    untraced = [r for r in _finished(results) if not r["traced"]]
    if spec["kind"] == "train":
        epochs = [t for r in untraced for t in r["epoch_s"]]
        valid = [t for r in untraced for t in r["valid_s"]]
        graphs_per_s = len(spec["split"][1]) / statistics.median(valid)
    else:
        epochs = [t for r in untraced for t in r["pass_s"]]
        graphs_per_s = spec["graphs"] / statistics.median(epochs)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
        "epoch_s": (statistics.median(epochs), "s"),
        "eval_graphs_per_s": (graphs_per_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
    }


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer self times of the traced child with the median wall time."""
    finished = _finished(results)
    traced = sorted((r for r in finished if r["traced"]), key=lambda r: r["wall_s"])
    untraced_wall = statistics.median(r["wall_s"] for r in finished if not r["traced"])
    chosen = traced[(len(traced) - 1) // 2]
    metrics = {}
    for layer, (self_s, calls) in chosen["trace"]["layers"].items():
        metrics[f"{layer}_s"] = (self_s, "s")
        metrics[f"{layer}_calls"] = (calls, "count")
    counts = chosen["trace"]["counts"]
    for name in tracing.COUNTS[:-1]:
        metrics[name] = (counts.get(name, 0), "count")
    # Computed size of every GraphFeatures array built, featurized or merged.
    metrics["network.feature_mb"] = (counts.get("network.feature_bytes", 0) / 2**20, "MB")
    covered = sum(self_s for self_s, _ in chosen["trace"]["layers"].values())
    metrics["trace.wall_s"] = (chosen["wall_s"], "s")
    metrics["trace.other_s"] = (chosen["wall_s"] - covered, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (chosen["wall_s"] - untraced_wall, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    try:
        tracing.check_hooks()
    except tracing.TraceError as exc:
        print(f"benchmark out of date: {exc}", file=sys.stderr)
        return tracing.EXIT_STALE
    import numpy as np

    out_dir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    started = time.perf_counter()
    spec, sizes = prepare(args.workload, args.seed, out_dir)
    results = run_children(spec, out_dir, args.seconds, bool(args.trace))

    reference = None
    if args.seed == workloads.REFERENCE_SEED and spec["kind"] == "train":
        stored = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        reference = stored[args.workload]
    attempted, failed, problems = score(spec, sizes, results, reference)
    finished = {r["traced"] for r in _finished(results)}
    if False not in finished or (args.trace and True not in finished):
        print(json.dumps({"problems": problems}), file=sys.stderr)
        print("error: no child finished; nothing was measured", file=sys.stderr)
        return 1
    metrics = layer_metrics(results) if args.trace else end_to_end_metrics(spec, results)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, **blas_record(), "smpnet_threads": 1,
        "inputs": sizes, "children": len(results), "run_s": time.perf_counter() - started,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "problems": problems, "metrics": {k: v for k, (v, _) in metrics.items()},
        "results": [{k: v for k, v in r.items() if k != "trace"} for r in results],
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    # The 13 MB checkpoint is regenerated from the seed; do not keep one per run.
    (out_dir / "model.bin").unlink(missing_ok=True)
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed={args.seed}: {sizes['graphs']} graphs, {sizes['atoms']} atoms, "
          f"{sizes['edges']} edges, {sizes['pairs']} pairs; {len(results)} children; "
          f"error_rate {failed}/{attempted}; blas {record['blas']} "
          f"x{record['blas_threads']}; record in {out_dir / 'record.json'}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
