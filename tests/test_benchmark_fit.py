"""perfbench's traced child still fits the program.

``perfbench/tracer.py`` wraps smpnet functions by name, and the traced child
exits 3 ("benchmark out of date") when one of them is gone or never called.
This runs that child's training and evaluation paths on a small workload, so
a refactor that would leave the benchmark stale fails here. The child runs in
a process of its own that writes no bytecode, so nothing under ``perfbench/``
changes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs child.main, which installs a tracer.Tracer, runs the workload and calls
# check_called, once per kind: 64 chains for one ablation-config epoch, then
# evaluation of 8 of them from an init_params checkpoint.
SCRIPT = """
import json, os, sys
import child, workloads
from smpnet.network import init_params, save_model
from smpnet.train import ablation_config

out = sys.argv[1]
cfg = ablation_config(epochs=1)
frames = workloads.chain_frames(0, 64)
model = os.path.join(out, "model.bin")
save_model(init_params(cfg, 0), model)
specs = {
    "train": ({"config": cfg.to_dict(), "split": workloads.split(64)}, frames),
    "eval": ({"graphs": 8, "seed": 0, "model": model}, frames[:8]),
}
codes = []
for kind, (spec, chosen) in specs.items():
    path = os.path.join(out, kind)
    with open(path + ".xyz", "w", encoding="utf-8") as handle:
        handle.write(workloads.format_xyz(chosen))
    spec.update(kind=kind, data=path + ".xyz", trace_path=path + ".jsonl")
    with open(path + ".spec.json", "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    codes.append(child.main([path + ".spec.json", path + ".result.json", "1"]))
sys.exit(max(codes))
"""


def test_traced_benchmark_child_fits_the_program(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for kind in ("train", "eval"):
        result = json.loads((tmp_path / f"{kind}.result.json").read_text(encoding="utf-8"))
        assert "error" not in result, result["error"]
        assert result["completed"] == result["planned"] > 0
        assert result["trace"]["spans"] > 0
