import os
import subprocess
import sys
from pathlib import Path

import pytest

import slabrt

SRC = str(Path(slabrt.__file__).resolve().parents[1])


def _threads_after_import(**preset) -> str:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, slabrt; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("preset,expected", [({}, "1"),
                                             ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
                                             ({"OMP_NUM_THREADS": "2"}, "None")])
def test_import_pins_blas_unless_preset(preset, expected):
    assert _threads_after_import(**preset) == expected
