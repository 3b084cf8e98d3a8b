"""The library calls the benchmark makes, run as the benchmark makes them.

bench/workloads.py is imported unchanged, so a change to a name, a
signature or a field it reads fails here and not only in the benchmark.
"""

import importlib.util
from pathlib import Path

import slabrt
from slabrt import (
    SlabConfig,
    fit_growth_rate,
    growth_rate,
    mode_initial_state,
    preset_profile,
    simulate,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crosscheck_body_runs_on_slip_inputs(grid32):
    # the crosscheck-slip inputs on a small grid, at one frequency
    p = preset_profile("tanh-layer", y_c=0.5, w=0.05)
    c = SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0)
    ops = _workloads().crosscheck_body(slabrt, {"xis": [2.0]}, p, c, grid32)
    assert [op for op in ops if "error" in op] == []
    (freq,) = [op for op in ops if op["op"] == "frequency"]
    assert abs(freq["cn_fit"] - freq["lambda"]) <= 1e-3 * freq["lambda"]

    # the final state's history is the (t, amplitude) columns of the rows
    ms = growth_rate(p, c, grid32, 2.0)
    w0, sigma0 = mode_initial_state(ms)
    sim = simulate(c, ms.forms, w0, sigma0, 1e-3 / ms.lam, 4.0 / ms.lam)
    assert sim.state.history == [row[:2] for row in sim.rows]
    assert fit_growth_rate(sim.rows) == freq["cn_fit"]
