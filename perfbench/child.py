"""One repetition of a workload, in a process of its own.

    python3 perfbench/child.py SPEC_JSON RESULT_JSON TRACE(0|1)

run.py starts this with ``src`` on PYTHONPATH, once per repetition, so that
peak memory and smpnet's cached basis tables start fresh each time. It reads
the generated inputs named in SPEC_JSON and writes its timings, the program's
outputs and (when traced) the per-layer times to RESULT_JSON. An exception
raised by smpnet is reported in the result, not raised. Exit code 3 means the
benchmark no longer fits the program (a hook or probe target is gone or was
never called); run.py then stops without a result.
"""
from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback

import numpy as np

import tracer as tracing
import workloads


class ProbeError(RuntimeError):
    """The epoch or step probes saw a different number of calls than planned."""


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_train(spec: dict, tracer) -> dict:
    from smpnet import ingest
    from smpnet import train as train_module

    cfg = ingest.RunConfig(**spec["config"])
    # Probes on the epoch's first call and on each optimizer step split
    # train() into set-up, epochs, and each epoch's validation window.
    epoch_starts: list[float] = []
    step_ends: list[float] = []
    lr_at, adam_step = train_module.lr_at, train_module.adam_step

    def probed_lr_at(*args, **kwargs):
        epoch_starts.append(time.perf_counter())
        return lr_at(*args, **kwargs)

    def probed_adam_step(*args, **kwargs):
        result = adam_step(*args, **kwargs)
        step_ends.append(time.perf_counter())
        return result

    train_module.lr_at = probed_lr_at
    train_module.adam_step = probed_adam_step
    train_idx, valid_idx = spec["split"]
    steps_per_epoch = -(-len(train_idx) // cfg.batch_size)

    out = {"planned": steps_per_epoch * cfg.max_epochs}
    tracer.active = True
    start = time.perf_counter()
    try:
        dataset = ingest.load_xyz(spec["data"])
        begin = time.perf_counter()
        result = train_module.train(dataset, cfg, split=(train_idx, valid_idx), threads=1)
    except Exception:
        tracer.active = False
        out.update(error=traceback.format_exc(), completed=len(step_ends))
        return out
    end = time.perf_counter()
    tracer.active = False

    if len(epoch_starts) != cfg.max_epochs or len(step_ends) != out["planned"]:
        raise ProbeError(
            f"train() made {len(epoch_starts)} lr_at and {len(step_ends)} adam_step "
            f"calls; the benchmark expects {cfg.max_epochs} and {out['planned']}")
    epoch_ends = epoch_starts[1:] + [end]
    last_steps = step_ends[steps_per_epoch - 1::steps_per_epoch]
    out.update(
        completed=out["planned"],
        wall_s=end - start,
        setup_s=epoch_starts[0] - begin,
        epoch_s=[e - s for s, e in zip(epoch_starts, epoch_ends)],
        valid_s=[e - s for s, e in zip(last_steps, epoch_ends)],
        log=[[entry.train_mae, entry.valid_mae] for entry in result.log],
    )
    return out


def run_eval(spec: dict, tracer) -> dict:
    from smpnet import basis, ingest, network
    from smpnet import train as train_module

    out = {"planned": spec["graphs"]}
    tracer.active = True
    start = time.perf_counter()
    try:
        params, cfg = network.load_model(spec["model"])
        basis.tables_for(cfg)
        begin = time.perf_counter()
        dataset = ingest.load_xyz(spec["data"])
        report = train_module.evaluate(params, dataset, cfg, threads=1)
    except Exception:
        tracer.active = False
        out.update(error=traceback.format_exc(), completed=0)
        return out
    end = time.perf_counter()
    tracer.active = False

    # Invariance check, outside the timed region: the first (smallest)
    # cluster under a random proper rigid motion.
    rng = np.random.Generator(np.random.PCG64([spec["seed"], 3]))
    rotation = workloads.random_rotation(rng)
    graph = dataset[0]
    moved = ingest.Graph3D(graph.atomic_numbers,
                           graph.positions @ rotation.T + rng.uniform(-10, 10, size=3),
                           graph_target=graph.graph_target, id=graph.id + "-moved")
    try:
        pair = [float(train_module.predict(params, [g], cfg)[0]) for g in (graph, moved)]
    except Exception:
        pair = [math.nan, math.nan]
        out["check_error"] = traceback.format_exc()
    out.update(
        completed=out["planned"],
        wall_s=end - start,
        setup_s=begin - start,
        pass_s=[end - begin],
        mae=report.mae,
        moved=pair,
    )
    return out


def main(argv: list[str]) -> int:
    spec_path, result_path, trace = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = tracing.Tracer()
    traced = trace == "1"
    try:
        if traced:
            tracer.install()
        origin = time.perf_counter()
        out = (run_train if spec["kind"] == "train" else run_eval)(spec, tracer)
        if traced and "error" not in out:
            tracer.check_called(spec["kind"])
    except (tracing.TraceError, ProbeError) as exc:
        print(f"benchmark out of date: {exc}", file=sys.stderr)
        return tracing.EXIT_STALE
    out["peak_rss_mb"] = _peak_rss_mb()
    if traced:
        tracer.write(spec["trace_path"], origin)
        out["trace"] = {
            "layers": tracer.layer_times(),
            "counts": dict(tracer.counts),
            "spans": len(tracer.spans),
        }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
