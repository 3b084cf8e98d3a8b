import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slabrt
from slabrt.cli import main

SRC = str(Path(slabrt.__file__).resolve().parents[1])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _python(code: str, **preset) -> subprocess.CompletedProcess:
    """python -W error -c code with neither thread variable set but those in preset."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)


def _threads_after_import(**preset) -> str:
    out = _python("import os, slabrt; print(os.environ.get('OPENBLAS_NUM_THREADS'))", **preset)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("preset,expected", [({}, "1"),
                                             ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
                                             ({"OMP_NUM_THREADS": "2"}, "None")])
def test_import_pins_blas_unless_preset(preset, expected):
    assert _threads_after_import(**preset) == expected


@pytest.mark.parametrize("code,preset,warns", [
    ("import numpy, slabrt", {}, True),
    ("import slabrt, numpy", {}, False),
    ("import numpy, slabrt", {"OPENBLAS_NUM_THREADS": "1"}, False),
], ids=["numpy-first", "slabrt-first", "numpy-first-preset"])
def test_import_after_numpy_warns_that_the_pin_comes_too_late(code, preset, warns):
    # OpenBLAS reads its thread count when numpy loads it, so slabrt's pin
    # cannot take effect after that unless the variable was already set
    out = _python(code, **preset)
    assert (out.returncode != 0) == warns, out.stderr
    if warns:
        assert "UserWarning" in out.stderr and "set OPENBLAS_NUM_THREADS=1" in out.stderr


def _evolve_outputs(out: Path) -> tuple:
    amp = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)["amplitude"]
    return amp, json.loads((out / "fit.json").read_text())["lambda_fit"]


def test_two_blas_threads_move_evolve_only_at_roundoff(tmp_path):
    # the propagator power R = P^k, the pair-chain products by R and the row
    # products are dgemm calls, whose rounding depends on the OpenBLAS thread
    # count; two threads moved the stable.ini amplitudes by 3.3e-16 relative
    # and lambda_fit not at all
    args = ["evolve", "--config", str(CONFIGS / "stable.ini"), "--xi", "2"]
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    threaded = subprocess.run([sys.executable, "-m", "slabrt", *args,
                               "--out", str(tmp_path / "two")],
                              env=env, capture_output=True, text=True, timeout=120)
    assert threaded.returncode == 0, threaded.stderr
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*args, "--out", str(tmp_path / "one")]) == 0
    amp2, lam2 = _evolve_outputs(tmp_path / "two")
    amp1, lam1 = _evolve_outputs(tmp_path / "one")
    assert len(amp2) == len(amp1) == 3001
    assert np.allclose(amp2, amp1, rtol=1e-12, atol=0.0)
    assert lam2 == pytest.approx(lam1, rel=1e-12)
