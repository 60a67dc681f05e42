"""W1, the 512-chain ablation training run, pinned to its output bytes.

W1 trains ``synthetic_torsion_task(512, seed=0)`` with
``ablation_config(epochs=20)`` (seed 0) and hashes the ``save_model`` bytes
of the best and the final parameters and the epoch log. A refactor that
claims bitwise equal training keeps these hashes; a change that only rounds
differently records new ones here and in ROADMAP.md.

Another numpy or BLAS build may round differently, so the test runs only on
the build the hashes were recorded with: numpy 2.4.6 and OpenBLAS
0.3.31.188.0 running its SkylakeX kernels.
"""
import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from smpnet.network import save_model
from smpnet.train import ablation_config, format_epoch_log, synthetic_torsion_task, train

NUMPY = "2.4.6"
OPENBLAS = "0.3.31.188.0"
CORE = "SkylakeX"

BEST = "ddbccc73add345767329b90ce4127794a7334d2bc7d7f7bef893ff0420d58da4"
FINAL = "0fca811f2cf30ce3e5fb08450125eb88af8717698c892e0cd820c4b02e8826b5"
LOG = "c078c79689cf8c1c0fbe782bf22fcfc58d6a50960e3c323fdfd529a6465f786d"


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


@pytest.mark.skipif((np.__version__, blas_version(), openblas_core()) != (NUMPY, OPENBLAS, CORE),
                    reason=f"W1 hashes were recorded with numpy {NUMPY}, OpenBLAS {OPENBLAS} "
                           f"on {CORE}")
def test_w1_checkpoints_and_log_are_byte_identical(tmp_path):
    result = train(synthetic_torsion_task(512, seed=0), ablation_config(epochs=20))
    digests = []
    for name, params in (("best", result.params), ("final", result.final_params)):
        path = tmp_path / f"{name}.bin"
        save_model(params, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    digests.append(hashlib.sha256(format_epoch_log(result.log).encode()).hexdigest())
    assert digests == [BEST, FINAL, LOG]
