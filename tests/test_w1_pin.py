"""Two fixed training runs pinned to their output bytes.

W1 trains ``synthetic_torsion_task(512, seed=0)`` with
``ablation_config(epochs=20)`` (seed 0). The default-config runs train the
3-block default ``RunConfig`` (``batch_size=8``, 2 epochs, seed 0) in each
ablation mode on perfbench's molecules-train seed-0 molecules and its 29/3
split. Each test hashes the ``save_model`` bytes of the best and the final
parameters and the epoch log. A refactor that claims bitwise equal training
keeps these hashes; a change that only rounds differently records new ones
here and in ROADMAP.md. The CLI pins hash the default ``smpnet basis-dump``
CSV and the default-grid ``smpnet export-filters`` CSV of a small seed-3
checkpoint. The featurization pins hash every ``GraphFeatures`` field of the
seed-0 perfbench inputs, which every ablation mode featurizes alike, and the
Bessel pin hashes one ``_bessel_table`` over both of its branches.

Another numpy or BLAS build may round differently, so the tests run only on
the build the hashes were recorded with: numpy 2.4.6 and OpenBLAS
0.3.31.188.0 running its SkylakeX kernels.
"""
import ctypes
import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from smpnet.basis import MAX_ARGUMENT, MAX_ORDER, _bessel_table
from smpnet.cli import main
from smpnet.elements import SYMBOL_TO_Z
from smpnet.ingest import FULL, NO_ANGLE_TORSION, NO_TORSION, Graph3D, RunConfig
from smpnet.network import (GraphFeatures, featurize_graph, init_params, merge_features,
                            save_model)
from smpnet.train import ablation_config, format_epoch_log, synthetic_torsion_task, train

NUMPY = "2.4.6"
OPENBLAS = "0.3.31.188.0"
CORE = "SkylakeX"

BEST = "bd5ee3102c9a039420cceab6ebab6935dece84d3f7399678fe6fec77203a6b7d"
FINAL = "4ce818a55b38195a66d3c329dd928efb0585a0dc126bf11f877649e605802e50"
LOG = "05f8c4e8668c532147b5feb20f05eaa18d318d48f1ac2dee7d5257201821f86f"

# (checkpoint, epoch log) per mode. Best and final are the same parameters:
# each mode's best epoch is its last.
DEFAULT_CONFIG = {
    FULL: ("2999f897dc393907ed7a64b160fe465a95b368a6b186ea19a39eb813a2704f83",
           "a99655c7fde048642a8975884d92e5bad02089500e426daa823105d8e4613148"),
    NO_TORSION: ("f4673e69497c85389f9c9ada3dbbfa79f8403278638f13d3dafef3276f56ffe6",
                 "90750ea2e66975be79e44ca813fa3d05ad9c05d582d93d0bc6ccacb56100e8c4"),
    NO_ANGLE_TORSION: ("33a31b67a1dcb25ad22a7b866878c21433a70976d154987e824bed12acd45688",
                       "0eb2d8febe418b74e95a0fc8d553aff9de48f8fe23cc5beccba050fc3f3cc5c2"),
}

# sha256 over every featurized graph of a workload's seed-0 inputs, then over
# their merge (the clusters are not merged); the same in every ablation mode.
FEATURES = {
    "chains-train": "703fbd542de4c882f92d2e3f2597e9ed965cd743457e6dddf1dce89ba953c465",
    "molecules-train": "9795f902459b7f850fd03fe2811879847649e11e9ca2382e56c2d7be2b0cebb4",
    "clusters-eval": "078e15fd04e79aeaef31bd3c5180e54b164e12b0101e70374c3fa82448e01950",
}
MODES = (FULL, NO_TORSION, NO_ANGLE_TORSION)
BESSEL_TABLE = "29313a4e49f9b66939bb9a527f877c7397fa9b501e602caae2bf875e58b23b1f"

BASIS_DUMP = "deed715bf1db9af20544244ffa28f181394a943e0bdc629d48a5786e0d28fe0b"
EXPORT_FILTERS = "8f11cd091045f82827ff8e071ad0fb64873d22aa53d2d41f9f158cfa461b1d6c"


def openblas_core() -> str | None:
    """The kernel set OpenBLAS picked at load time, read from the library
    numpy bundles (as ``perfbench/run.py`` finds it), or None."""
    for library in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(library)), "scipy_openblas_get_corename64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            return getter().decode()
    return None


def blas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


BUILD = (np.__version__, blas_version(), openblas_core())
recorded_build = pytest.mark.skipif(
    BUILD != (NUMPY, OPENBLAS, CORE),
    reason=f"the hashes were recorded with numpy {NUMPY}, OpenBLAS {OPENBLAS} on {CORE}; "
           f"found numpy {BUILD[0]}, OpenBLAS {BUILD[1]} on {BUILD[2]}")


def digests(result, tmp_path) -> list[str]:
    """sha256 of the best and final checkpoint bytes and of the epoch log."""
    out = []
    for name, params in (("best", result.params), ("final", result.final_params)):
        path = tmp_path / f"{name}.bin"
        save_model(params, str(path))
        out.append(hashlib.sha256(path.read_bytes()).hexdigest())
    out.append(hashlib.sha256(format_epoch_log(result.log).encode()).hexdigest())
    return out


def perfbench_workloads():
    """``perfbench/workloads.py``, imported without writing bytecode under perfbench/."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def workload_graphs(workloads, name: str) -> list[Graph3D]:
    """The seed-0 frames of a perfbench workload as graphs."""
    return [Graph3D(np.array([SYMBOL_TO_Z[s] for s in symbols]), positions,
                    graph_target=target, id=str(i))
            for i, (symbols, positions, target) in enumerate(workloads.frames_for(name, 0))]


def hash_features(digest, features: GraphFeatures):
    """Feed every field's values, dtype, shape and memory order to ``digest``."""
    for spec in dataclasses.fields(GraphFeatures):
        value = getattr(features, spec.name)
        if isinstance(value, np.ndarray):
            digest.update(f"{spec.name} {value.dtype.str} {value.shape} "
                          f"{value.flags.c_contiguous} {value.flags.f_contiguous}".encode())
            digest.update(value.tobytes())
        else:
            digest.update(f"{spec.name} {value!r}".encode())


@recorded_build
def test_w1_checkpoints_and_log_are_byte_identical(tmp_path):
    result = train(synthetic_torsion_task(512, seed=0), ablation_config(epochs=20))
    assert digests(result, tmp_path) == [BEST, FINAL, LOG]


@recorded_build
@pytest.mark.parametrize("mode", MODES)
def test_default_config_checkpoints_and_log_are_byte_identical(tmp_path, mode):
    workloads = perfbench_workloads()
    graphs = workload_graphs(workloads, "molecules-train")
    cfg = RunConfig(batch_size=8, max_epochs=2, seed=0, ablation_mode=mode)
    result = train(graphs, cfg, split=workloads.split(len(graphs)))
    checkpoint, log = DEFAULT_CONFIG[mode]
    assert digests(result, tmp_path) == [checkpoint, checkpoint, log]


@recorded_build
@pytest.mark.parametrize("workload", list(FEATURES))
def test_featurized_inputs_are_byte_identical(workload):
    workloads = perfbench_workloads()
    graphs = workload_graphs(workloads, workload)
    found = {}
    for mode in MODES:
        cfg = dataclasses.replace(workloads.run_config(workload, 0), ablation_mode=mode)
        digest = hashlib.sha256()
        parts = []
        for graph in graphs:
            features = featurize_graph(graph, cfg)
            hash_features(digest, features)
            if workload != "clusters-eval":
                parts.append(features)
        if parts:
            hash_features(digest, merge_features(parts))
        found[mode] = digest.hexdigest()
    assert found == dict.fromkeys(MODES, FEATURES[workload])


@recorded_build
def test_bessel_table_is_byte_identical():
    # Both branches at every order: the series on [0, 0.5), log-spaced down to
    # subnormals, and the recurrence on [0.5, MAX_ARGUMENT].
    rng = np.random.default_rng(20)
    xs = np.concatenate([
        [0.0, 5e-324, 1e-310, np.nextafter(0.5, 0.0), 0.5, MAX_ARGUMENT],
        np.geomspace(1e-300, 0.5, 300, endpoint=False),
        rng.uniform(0.0, 0.5, 2000), 0.5 - rng.uniform(0.0, 1e-3, 200),
        rng.uniform(0.5, MAX_ARGUMENT, 2000)])
    table = _bessel_table(MAX_ORDER, xs)
    assert hashlib.sha256(table.tobytes()).hexdigest() == BESSEL_TABLE


@recorded_build
def test_basis_dump_csv_is_byte_identical(tmp_path):
    out = tmp_path / "basis.csv"
    assert main(["basis-dump", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BASIS_DUMP


@recorded_build
def test_export_filters_csv_is_byte_identical(tmp_path):
    cfg = RunConfig(n_srbf=4, n_shbf=4, num_interaction_blocks=1, embed_size=8,
                    lb2_distance_size=3, lb2_angle_size=3, lb2_torsion_size=3,
                    output_embed_size=4, max_z=6)
    model, out = tmp_path / "model.bin", tmp_path / "filters.csv"
    save_model(init_params(cfg, seed=3), str(model))
    assert main(["export-filters", "--model", str(model), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_FILTERS
