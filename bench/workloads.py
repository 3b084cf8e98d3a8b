"""Workload definitions: seeded inputs, timed bodies and the correctness gate.

The harness process imports this module without loading slabrt or numpy;
the bodies receive the slabrt package from the sample process that runs
them.
"""

import copy
import csv
import json
import math
import os
import random

WORKLOADS = ("scan-default", "crosscheck-slip", "stable-control")

# Seed 0 is exactly these inputs.  scan-default and stable-control repeat
# configs/default.ini and configs/stable.ini.
BASE = {
    "scan-default": {
        "preset": "linear-up", "mu": 0.01, "g": 1.0, "k0": 0.0, "k1": 0.0, "L": 1.0,
        "n": 128, "b": 10.0, "n_samples": 64,
    },
    "crosscheck-slip": {
        "preset": "tanh-layer", "y_c": 0.5, "w": 0.05,
        "mu": 0.02, "g": 1.0, "k0": 0.5, "k1": 1.0, "L": 1.0,
        "n": 192, "xis": [1.0, 2.0, 4.0, 8.0],
    },
    "stable-control": {
        "preset": "linear-down", "mu": 0.5, "g": 1.0, "k0": -1.0, "k1": -0.5, "L": 1.0,
        "n": 128, "a": 0.5, "b": 6.0, "n_samples": 16,
    },
}

# Other seeds scale these inputs by factors drawn uniformly from the ranges.
MU_RANGE = (0.9, 1.1)
B_RANGE = (0.95, 1.05)
XI_RANGE = (0.9, 1.1)

# Tolerances of the acceptance suite (tests/test_acceptance.py).
FIXED_POINT_TOL = 1e-8
ORACLE_RTOL = 1e-6
CN_FIT_RTOL = 1e-3

STABLE_SCAN_SAMPLES = 64
STABLE_EVOLVE_XI = 2.0


def make_inputs(workload: str, seed: int, n: int | None = None) -> dict:
    """Inputs of one workload; seed 0 gives BASE, n overrides the grid size."""
    inputs = copy.deepcopy(BASE[workload])
    if seed != 0:
        rng = random.Random(seed)
        inputs["mu"] *= rng.uniform(*MU_RANGE)
        if workload != "crosscheck-slip":
            inputs["b"] *= rng.uniform(*B_RANGE)
        else:
            inputs["xis"] = [xi * rng.uniform(*XI_RANGE) for xi in inputs["xis"]]
    if n is not None:
        inputs["n"] = n
    return inputs


def is_cli(workload: str) -> bool:
    return workload != "crosscheck-slip"


def ini_text(inputs: dict) -> str:
    """INI config for the CLI workloads (formats as in configs/*.ini)."""
    lines = ["[profile]", f"preset = {inputs['preset']}", "", "[physics]"]
    lines += [f"{k} = {inputs[k]!r}" for k in ("mu", "g", "k0", "k1", "L")]
    lines += ["", "[grid]", f"n = {inputs['n']}", "", "[band]"]
    if "a" in inputs:
        lines.append(f"a = {inputs['a']!r}")
    lines += [f"b = {inputs['b']!r}", "", "[scan]", f"n_samples = {inputs['n_samples']}",
              "", "[output]", "formats = csv,json", ""]
    return "\n".join(lines)


def commands(workload: str, ini: str, out: str) -> list:
    """CLI argument lists run in order by one sample of a CLI workload."""
    common = ["--config", ini, "--out", out]
    if workload == "scan-default":
        return [["critical", *common], ["dispersion", *common]]
    return [["critical", *common],
            ["dispersion", *common, "--n-samples", str(STABLE_SCAN_SAMPLES)],
            ["evolve", *common, "--xi", repr(STABLE_EVOLVE_XI)]]


def scan_frequencies(a: float, b: float, n_samples: int, L: float) -> list:
    """Frequencies a dispersion scan solves: n_samples uniform points strictly
    inside (a, b) plus the lattice points k / L inside the band."""
    uniform = [a + (b - a) * (i + 1) / (n_samples + 1) for i in range(n_samples)]
    lattice = [k / L for k in range(1, int(math.ceil(b * L)) + 1) if a < k / L < b]
    return sorted(set(uniform) | set(lattice))


def crosscheck_body(slabrt, inputs: dict, profile, slab, grid) -> list:
    """Critical numbers, then rate, QZ oracle and Crank-Nicolson fit per xi.

    Each operation's failure is recorded and the next one still runs.
    """
    ops = []
    try:
        num = slabrt.compute_critical_numbers(profile, slab, grid)
        ops.append({"op": "critical", "mu_c": num.mu_c, "xi_c": num.xi_c})
    except Exception as exc:  # recorded as a failed operation
        ops.append({"op": "critical", "error": repr(exc)})
    for xi in inputs["xis"]:
        rec = {"op": "frequency", "xi": xi}
        try:
            ms = slabrt.growth_rate(profile, slab, grid, xi)
            if ms is not None:
                rec["lambda"] = ms.lam
                rec["fixed_point_res"] = ms.residuals["fixed_point_res"]
                oracle = slabrt.companion_oracle(ms.forms)
                rec["oracle"] = None if oracle is None else oracle[0]
                w0, sigma0 = slabrt.mode_initial_state(ms)
                sim = slabrt.simulate(slab, ms.forms, w0, sigma0, 1e-3 / ms.lam, 4.0 / ms.lam)
                rec["cn_fit"] = slabrt.fit_growth_rate(sim.state.history)
        except Exception as exc:  # recorded as a failed operation
            rec["error"] = repr(exc)
        ops.append(rec)
    return ops


# ---------------------------------------------------------------------------
# correctness gate: each function returns a list of (operation, reason or None)
# ---------------------------------------------------------------------------

def fixed_point_ok(lam: float, res: float) -> bool:
    """The residual |alpha(lam) + lam^2| is measured against lam^2: the
    acceptance suite's 1e-8 applies as is for rates below 1, and relative to
    lam^2 above, where eigenvalue roundoff grows with lam^2."""
    return res <= FIXED_POINT_TOL * max(1.0, lam * lam)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def judge_crosscheck(ops: list) -> list:
    verdicts = []
    for rec in ops:
        name = rec["op"] if rec["op"] == "critical" else f"xi={rec['xi']!r}"
        reason = rec.get("error")
        if reason is None and rec["op"] == "critical":
            if not rec["xi_c"] > 0.0:
                reason = f"xi_c = {rec['xi_c']!r} although mu < mu_c = {rec['mu_c']!r}"
        elif reason is None:
            lam = rec.get("lambda")
            if lam is None:
                reason = "no growing mode"
            elif not fixed_point_ok(lam, rec["fixed_point_res"]):
                reason = f"fixed_point_res {rec['fixed_point_res']:.3g}"
            elif rec["oracle"] is None or _rel(lam, rec["oracle"]) > ORACLE_RTOL:
                reason = f"oracle {rec['oracle']!r} vs rate {lam!r}"
            elif _rel(rec["cn_fit"], lam) > CN_FIT_RTOL:
                reason = f"Crank-Nicolson fit {rec['cn_fit']!r} vs rate {lam!r}"
        verdicts.append((name, reason))
    return verdicts


def read_outputs(out: str) -> dict:
    """Every output file of one sample, by name."""
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def dispersion_rows(files: dict) -> dict:
    """xi -> (lambda, alpha_residual) for the positive-frequency CSV rows."""
    text = files["dispersion.csv"].decode()
    rows = {}
    for row in csv.DictReader(text.splitlines()):
        xi = float(row["xi"])
        if xi > 0.0:
            rows[xi] = (float(row["lambda"]), float(row["alpha_residual"]))
    return rows


def scan_xis(workload: str, inputs: dict, files: dict) -> list:
    """Frequencies the dispersion command of one CLI sample solved, grown or
    rejected, on the band it reported in summary.json."""
    a, b = json.loads(files["summary.json"])["band"]
    n_samples = STABLE_SCAN_SAMPLES if workload == "stable-control" else inputs["n_samples"]
    return scan_frequencies(a, b, n_samples, inputs["L"])


def judge_cli(workload: str, inputs: dict, codes: list, files: dict,
              oracle: dict | None = None) -> list:
    """Verdicts for one CLI sample: one per command, one per frequency.

    codes holds (command, exit code or error text); oracle maps xi to the
    companion-oracle rate (None: no growing root) for scan-default.
    """
    verdicts = [(cmd, None if rc == 0 else f"exit {rc!r}") for cmd, rc in codes]
    if any(rc != 0 for _, rc in codes):
        return verdicts
    expected = scan_xis(workload, inputs, files)
    rows = dispersion_rows(files)
    for xi in sorted(set(rows) - set(expected)):
        verdicts.append((f"xi={xi!r}", "unexpected frequency in dispersion.csv"))
    for xi in expected:
        reason = None
        if workload == "stable-control":
            if xi in rows:
                reason = f"stable control grows at rate {rows[xi][0]!r}"
        elif xi in rows:
            lam, res = rows[xi]
            ref = oracle[xi]
            if not fixed_point_ok(lam, res):
                reason = f"fixed_point_res {res:.3g}"
            elif ref is None or _rel(lam, ref) > ORACLE_RTOL:
                reason = f"oracle {ref!r} vs rate {lam!r}"
        elif oracle[xi] is not None:
            reason = f"rejected as stable, oracle rate {oracle[xi]!r}"
        verdicts.append((f"xi={xi!r}", reason))
    if workload == "stable-control":
        lattice_max = json.loads(files["summary.json"])["Lambda"]
        if lattice_max is not None:
            verdicts[1] = (verdicts[1][0], f"stable control has Lambda {lattice_max!r}")
        fit = json.loads(files["fit.json"])
        grows = fit["lambda_variational"] is not None or not fit["lambda_fit"] < 0.0
        verdicts.append((f"evolve xi={STABLE_EVOLVE_XI!r}",
                         f"stable control fits rate {fit['lambda_fit']!r}" if grows else None))
    return verdicts
