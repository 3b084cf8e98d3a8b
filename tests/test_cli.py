import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slabrt import build_grid, growth_rate
import slabrt.dispersion
from slabrt.cli import load_config, main
from schema_check import validate_file

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"

UNSTABLE = """\
[profile]
preset = linear-up

[physics]
mu = 0.01
g = 1.0
k0 = 0.0
k1 = 0.0
L = 1.0

[grid]
n = 64

[band]
b = 5.0

[scan]
n_samples = 6

[output]
dir = {out}
"""

STABLE = """\
[profile]
preset = linear-down

[physics]
mu = 0.5
g = 1.0
k0 = -1.0
k1 = -0.5
L = 1.0

[grid]
n = 64

[band]
a = 0.5
b = 5.0

[scan]
n_samples = 4

[output]
dir = {out}
"""


@pytest.fixture
def unstable_cfg(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(UNSTABLE.format(out=tmp_path / "out"))
    return str(path)


@pytest.fixture
def stable_cfg(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(STABLE.format(out=tmp_path / "out"))
    return str(path)


def test_check_unstable(unstable_cfg, capsys):
    assert main(["check", "--config", unstable_cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rt_condition"] is True


def test_check_stable(stable_cfg, capsys):
    assert main(["check", "--config", stable_cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rt_condition"] is False
    assert rep["y0_witness"] is None


def test_check_schema(unstable_cfg, capsys, tmp_path):
    main(["check", "--config", unstable_cfg])
    payload = tmp_path / "check.json"
    payload.write_text(capsys.readouterr().out)
    validate_file(payload, "check.schema.json")


def test_check_negative_csv_profile(tmp_path, capsys):
    y = np.linspace(0, 1, 12)
    rho = 1.0 - 1.5 * y  # goes negative above y = 2/3
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("y,rho\n" + "\n".join(f"{a},{b}" for a, b in zip(y, rho)) + "\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[profile]\ncsv = {csv_path}\n[physics]\nmu = 0.1\n")
    assert main(["check", "--config", cfg.as_posix()]) == 2
    err = capsys.readouterr().err
    assert "rho(" in err  # names the offending location


def test_check_one_field_csv_row_rejected(tmp_path, capsys):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("y,rho\n0,1\n0.5\n1,2\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[profile]\ncsv = {csv_path}\n")
    assert main(["check", "--config", cfg.as_posix()]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("rows,line", [
    pytest.param("0,1\n0.5,abc\n1,2\n", "line 3", id="non-numeric-rho"),
    pytest.param("y2,rho2\n0,1\n1,2\n", "line 2", id="second-header-row"),
])
def test_check_non_numeric_csv_row_rejected(tmp_path, capsys, rows, line):
    # only the first non-empty row may be a header; any other row that is
    # not two numbers is an error naming the file and line
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("y,rho\n" + rows)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[profile]\ncsv = {csv_path}\n")
    assert main(["check", "--config", cfg.as_posix()]) == 2
    err = capsys.readouterr().err
    assert str(csv_path) in err and line in err and "not a number" in err


def _table_config(tmp_path, rows):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("y,rho\n" + "".join(f"{row}\n" for row in rows))
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[profile]\ncsv = {csv_path}\n")
    return str(cfg)


NINE_ROWS = [f"{y},{1 + y}" for y in np.linspace(0, 1, 9)]


@pytest.mark.parametrize("rows,message", [
    pytest.param(NINE_ROWS[:4] + ["0.5,nan"] + NINE_ROWS[5:], "non-finite", id="rho-nan"),
    pytest.param(NINE_ROWS[:4] + ["0.5,inf"] + NINE_ROWS[5:], "non-finite", id="rho-inf"),
    pytest.param(NINE_ROWS[:3] + [NINE_ROWS[4], NINE_ROWS[3]] + NINE_ROWS[5:],
                 "strictly increasing", id="y-out-of-order"),
    pytest.param(NINE_ROWS[:5] + NINE_ROWS[4:], "strictly increasing", id="y-repeated"),
])
def test_check_rejects_bad_table_values(tmp_path, capsys, rows, message):
    assert main(["check", "--config", _table_config(tmp_path, rows)]) == 2
    assert message in capsys.readouterr().err


def test_table_row_cap_rejected(tmp_path, capsys):
    # Chebyshev nodes: the table itself is well posed, only its size is capped
    y = 0.5 - 0.5 * np.cos(np.pi * np.arange(1025) / 1024)
    rows = [f"{a},{1 + a}" for a in y]
    assert main(["check", "--config", _table_config(tmp_path, rows)]) == 2
    assert "tabulated profile has 1025 nodes, above the cap of 1024" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "critical", "mode"])
def test_nan_density_sample_rejected(tmp_path, capsys, command):
    # the interpolant through 200 equispaced nodes overflows: some samples of
    # rho are NaN, and a NaN must not hide the negative ones
    rows = [f"{a},{1 + a}" for a in np.linspace(0, 1, 200)]
    assert main([command, "--config", _table_config(tmp_path, rows), "--out",
                 str(tmp_path / "o"), "--xi", "2"]) == 2
    assert "density not positive: rho(" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["mode", "evolve"])
def test_mode_and_evolve_reject_nonpositive_density(tmp_path, capsys, command):
    # the same rejection as check/critical/dispersion, not a failed Cholesky
    y = np.linspace(0, 1, 12)
    rho = 1.0 - 1.5 * np.sin(np.pi * y)
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("y,rho\n" + "\n".join(f"{a},{b}" for a, b in zip(y, rho)) + "\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[profile]\ncsv = {csv_path}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--xi", "3"]) == 2
    assert "density not positive" in capsys.readouterr().err


def test_critical_outputs(unstable_cfg, tmp_path):
    out = tmp_path / "crit"
    assert main(["critical", "--config", unstable_cfg, "--out", str(out)]) == 0
    payload = validate_file(out / "critical.json", "critical.schema.json")
    assert payload["mu_c_closed"] == 0.0
    assert abs(payload["mu_c_numerical"] - payload["mu_c_closed"]) <= 1e-6
    assert payload["xi_c"] == 0.0
    assert payload["band"][0] == 0.0
    assert payload["C1"] > 0 and payload["C2"] > 0


def test_critical_slip_dual_path(unstable_cfg, tmp_path):
    out = tmp_path / "crit2"
    assert main(["critical", "--config", unstable_cfg, "--out", str(out),
                 "--mu", "0.25", "--k0", "1.0", "--k1", "1.0"]) == 0
    payload = validate_file(out / "critical.json", "critical.schema.json")
    assert payload["mu_c_closed"] == pytest.approx(0.5)
    assert abs(payload["mu_c_numerical"] - payload["mu_c_closed"]) <= 1e-6
    assert 0 < payload["xi_c"] <= np.sqrt(payload["C0"] / (2 * 0.25))


def test_dispersion_outputs(unstable_cfg, tmp_path):
    out = tmp_path / "disp"
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(out)]) == 0
    payload = validate_file(out / "summary.json", "dispersion_summary.schema.json")
    assert payload["Lambda"] > 0
    assert payload["LambdaStar"] == payload["Lambda"]
    lines = (out / "dispersion.csv").read_text().splitlines()
    assert lines[0] == "xi,lambda,alpha_residual,iters"
    rows = [line.split(",") for line in lines[1:]]
    xis = [float(r[0]) for r in rows]
    assert xis == sorted(xis)
    assert all(float(r[2]) <= 1e-8 for r in rows)
    # mirrored curve covers both signs
    assert min(xis) < 0 < max(xis)


def test_dispersion_stable_empty(stable_cfg, tmp_path):
    out = tmp_path / "disp-stable"
    assert main(["dispersion", "--config", stable_cfg, "--out", str(out)]) == 0
    payload = validate_file(out / "summary.json", "dispersion_summary.schema.json")
    assert payload["Lambda"] is None
    assert payload["note"] == "NoGrowingMode"
    assert payload["lattice"] == []
    lines = (out / "dispersion.csv").read_text().splitlines()
    assert lines == ["xi,lambda,alpha_residual,iters"]


def test_dispersion_rerun_byte_identical(unstable_cfg, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(out1)]) == 0
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(out2)]) == 0
    assert (out1 / "dispersion.csv").read_bytes() == (out2 / "dispersion.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_dispersion_svg(unstable_cfg, tmp_path):
    out = tmp_path / "disp-svg"
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(out),
                 "--format", "csv,json,svg"]) == 0
    svg = (out / "dispersion.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_mode_outputs(unstable_cfg, tmp_path):
    out = tmp_path / "mode"
    assert main(["mode", "--config", unstable_cfg, "--out", str(out),
                 "--xi", "2.0"]) == 0
    payload = validate_file(out / "residuals.json", "mode_residuals.schema.json")
    assert payload["fixed_point_res"] <= 1e-8
    assert payload["div_res"] <= 1e-8
    lines = (out / "mode.csv").read_text().splitlines()
    assert lines[0] == "y,psi,phi,pi"
    assert len(lines) == 65  # header + one row per node


def test_mode_svg(unstable_cfg, tmp_path):
    out = tmp_path / "mode-svg"
    assert main(["mode", "--config", unstable_cfg, "--out", str(out),
                 "--xi", "2.0", "--format", "csv,json,svg"]) == 0
    svg = (out / "mode.svg").read_text()
    assert svg.startswith("<svg") and svg.count("polyline") == 3


def test_mode_csv_j_renormalization(unstable_cfg, tmp_path):
    # coarse re-quadrature oracle: trapezoid on the written columns
    out = tmp_path / "mode-j"
    assert main(["mode", "--config", unstable_cfg, "--out", str(out),
                 "--xi", "2.0", "--n", "128"]) == 0
    rows = np.loadtxt(out / "mode.csv", delimiter=",", skiprows=1)
    y, psi = rows[:, 0], rows[:, 1]
    rho = 1.0 + y
    dpsi = np.gradient(psi, y)
    f = rho * (4.0 * psi**2 + dpsi**2)
    J = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(y)))
    assert J == pytest.approx(1.0, abs=1e-3)


def test_mode_stable_exit_code(stable_cfg, tmp_path):
    out = tmp_path / "mode-stable"
    assert main(["mode", "--config", stable_cfg, "--out", str(out),
                 "--xi", "2.0"]) == 3


def test_mode_finds_growth_where_gm_is_indefinite(tmp_path, capsys):
    # light over heavy with strong slip: alpha(0) >= 0, yet a mode grows
    cfg = tmp_path / "indefinite.ini"
    cfg.write_text(STABLE.format(out=tmp_path / "out")
                   .replace("k0 = -1.0", "k0 = 6.0").replace("k1 = -0.5", "k1 = 6.0"))
    out = tmp_path / "mode-indefinite"
    assert main(["mode", "--config", str(cfg), "--out", str(out), "--xi", "2"]) == 0
    payload = validate_file(out / "residuals.json", "mode_residuals.schema.json")
    assert payload["lambda"] == pytest.approx(43.19034068, rel=1e-9)
    assert "lambda = 43.19034068" in capsys.readouterr().out


def test_mode_unconverged_exit_code(unstable_cfg, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("slabrt.variational.RAYLEIGH_CAP", 1)
    assert main(["mode", "--config", unstable_cfg, "--out", str(tmp_path / "o"),
                 "--xi", "2.0"]) == 4
    assert "growth-rate fixed point at xi = 2 did not converge" in capsys.readouterr().err


def test_mode_requires_xi(unstable_cfg, tmp_path, capsys):
    # the parser is built once per process: an earlier --xi must not carry over
    assert main(["evolve", "--config", unstable_cfg, "--out", str(tmp_path / "ev"),
                 "--xi", "2"]) == 0
    capsys.readouterr()
    assert main(["mode", "--config", unstable_cfg]) == 2
    assert capsys.readouterr().err == "error: mode requires --xi\n"


def test_evolve_outputs(unstable_cfg, tmp_path):
    out = tmp_path / "ev"
    assert main(["evolve", "--config", unstable_cfg, "--out", str(out),
                 "--xi", "2.0"]) == 0
    payload = validate_file(out / "fit.json", "evolve_fit.schema.json")
    assert payload["rel_diff"] <= 1e-3
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,amplitude,energy,balance_residual"
    assert len(lines) > 10


def test_evolve_stable_reports_decay(stable_cfg, tmp_path):
    out = tmp_path / "ev-stable"
    assert main(["evolve", "--config", stable_cfg, "--out", str(out),
                 "--xi", "2.0"]) == 0
    payload = validate_file(out / "fit.json", "evolve_fit.schema.json")
    assert payload["lambda_fit"] < 0
    assert payload["lambda_variational"] is None


def test_evolve_short_run_reports_unfit(unstable_cfg, tmp_path, capsys):
    # a run too short to fit writes fit.json with the reason and exits 4
    cfg = Path(unstable_cfg)
    cfg.write_text(cfg.read_text() + "\n[evolve]\nt_end = 0.05\n")
    out = tmp_path / "ev-short"
    assert main(["evolve", "--config", str(cfg), "--out", str(out), "--xi", "2"]) == 4
    payload = validate_file(out / "fit.json", "evolve_fit.schema.json")
    assert payload["lambda_fit"] is None and payload["rel_diff"] is None
    assert payload["note"] == "need at least 10 samples, got 3"
    assert "need at least 10 samples" in capsys.readouterr().err


def test_evolve_overflow_exits_4_naming_step(tmp_path, capsys):
    # a long coarse run of the default case grows past the float range;
    # the first sampled energy that overflows ends it with one message
    cfg = tmp_path / "run.ini"
    cfg.write_text((CONFIGS / "default.ini").read_text()
                   + "\n[evolve]\ndt = 0.1\nt_end = 2000\n")
    out = tmp_path / "ev-overflow"
    assert main(["evolve", "--config", str(cfg), "--out", str(out),
                 "--xi", "2", "--n", "32"]) == 4
    err = capsys.readouterr().err
    assert err == "error: amplitude overflows at step 9310, t = 931\n"


@pytest.mark.parametrize("args", [["--xi", "2", "--g", "1e-300"], ["--xi", "1e-150"]],
                         ids=["g-1e-300", "xi-1e-150"])
def test_evolve_fits_rates_near_1e_300(tmp_path, capsys, args):
    # rates near 1e-300: 1e-6 lam psi would start from an energy that underflows,
    # and polyfit would square times near 5e297; the run starts from 2^-20 psi
    # and fits against exactly scaled times
    out = tmp_path / "ev-slow"
    assert main(["evolve", "--config", str(CONFIGS / "default.ini"), "--out", str(out),
                 "--n", "16", *args]) == 0
    assert capsys.readouterr().err == ""
    payload = validate_file(out / "fit.json", "evolve_fit.schema.json")
    assert payload["lambda_variational"] < 1e-299
    assert payload["rel_diff"] <= 1e-6
    energy = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 2]
    assert np.all(energy >= np.finfo(float).tiny) and np.all(np.isfinite(energy))


def test_escape_scans_for_lambda(tmp_path):
    # without --Lambda, escape takes the lattice supremum of the scan
    cfg = str(CONFIGS / "default.ini")
    disp, esc = tmp_path / "disp", tmp_path / "esc"
    assert main(["dispersion", "--config", cfg, "--out", str(disp)]) == 0
    assert main(["escape", "--config", cfg, "--out", str(esc), "--epsilon", "0.1",
                 "--delta", "1e-6", "--m0", "1"]) == 0
    Lambda = json.loads((disp / "summary.json").read_text())["Lambda"]
    payload = validate_file(esc / "escape.json", "escape.schema.json")
    assert payload["Lambda"] == Lambda == pytest.approx(0.590316442714717, rel=1e-9)


def test_escape_solves_only_the_lattice(unstable_cfg, tmp_path, monkeypatch):
    # escape writes only Lambda, so it skips the 6 uniform samples and
    # solves the lattice 1, 2, 3, 4 inside the band (0, 5)
    calls = []

    def counted(p, c, grid, xi):
        calls.append(xi)
        return growth_rate(p, c, grid, xi)

    monkeypatch.setattr("slabrt.dispersion.growth_rate", counted)
    assert main(["escape", "--config", unstable_cfg, "--out", str(tmp_path / "esc"),
                 "--epsilon", "0.1", "--delta", "1e-6", "--m0", "1"]) == 0
    assert calls == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("command, reconstructions", [("dispersion", 0), ("escape", 0),
                                                       ("mode", 1)])
def test_only_mode_reconstructs(unstable_cfg, tmp_path, monkeypatch, command, reconstructions):
    # the scans keep rates only, so no mode's phi, pi or residuals are built
    built, reconstruct = [], slabrt.dispersion.reconstruct_mode
    monkeypatch.setattr(slabrt.dispersion, "reconstruct_mode",
                        lambda *args: built.append(1) or reconstruct(*args))
    assert main([command, "--config", unstable_cfg, "--out", str(tmp_path / "o"), "--xi", "2",
                 "--epsilon", "0.1", "--delta", "1e-6", "--m0", "1"]) == 0
    assert len(built) == reconstructions


@pytest.mark.parametrize("command", ["critical", "dispersion", "escape"])
def test_huge_band_edge_exits_2_naming_overflow(tmp_path, capsys, command):
    # the bound constants assemble the forms at b, whose xi^4 terms overflow
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[profile]\npreset = linear-up\n[band]\nb = 1e80\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--epsilon", "0.1", "--delta", "1e-6", "--m0", "1"]) == 2
    assert capsys.readouterr().err == "error: quadratic forms at xi = 1e+80 overflow\n"


def test_escape_stable_without_lambda(tmp_path, capsys):
    out = tmp_path / "esc-stable"
    assert main(["escape", "--config", str(CONFIGS / "stable.ini"), "--out", str(out),
                 "--epsilon", "0.1", "--delta", "1e-6", "--m0", "1"]) == 3
    assert "no growing lattice mode" in capsys.readouterr().err
    assert not (out / "escape.json").exists()


def test_escape_outputs(unstable_cfg, tmp_path):
    out = tmp_path / "esc"
    assert main(["escape", "--config", unstable_cfg, "--out", str(out),
                 "--epsilon", "1.0", "--m0", "1.0", "--delta", "0.02",
                 "--Lambda", "2.0"]) == 0
    payload = validate_file(out / "escape.json", "escape.schema.json")
    assert payload["T"] == pytest.approx(np.log(100.0) / 2.0)


def test_escape_variant_b(unstable_cfg, tmp_path):
    out = tmp_path / "esc-b"
    assert main(["escape", "--config", unstable_cfg, "--out", str(out),
                 "--epsilon", "0.5", "--delta", "0.01", "--variant", "B",
                 "--Lambda", "1.0"]) == 0
    payload = validate_file(out / "escape.json", "escape.schema.json")
    assert payload["T"] == pytest.approx(np.log(100.0))


def test_escape_nonpositive_horizon(unstable_cfg):
    assert main(["escape", "--config", unstable_cfg, "--epsilon", "1.0",
                 "--m0", "1.0", "--delta", "2.0", "--Lambda", "1.0"]) == 2


def test_escape_requires_parameters(unstable_cfg):
    assert main(["escape", "--config", unstable_cfg]) == 2


def test_missing_config_rejected():
    assert main(["check", "--config", "/nonexistent/run.ini"]) == 2


def test_bad_format_rejected(unstable_cfg):
    assert main(["check", "--config", unstable_cfg, "--format", "pdf"]) == 2


def test_grid_too_small_rejected(unstable_cfg, tmp_path):
    assert main(["mode", "--config", unstable_cfg, "--out", str(tmp_path / "o"),
                 "--xi", "2.0", "--n", "8"]) == 2


def test_zero_frequency_rejected(unstable_cfg, tmp_path):
    assert main(["mode", "--config", unstable_cfg, "--out", str(tmp_path / "o"),
                 "--xi", "0.0"]) == 2


@pytest.mark.parametrize("flags", [
    ["--xi", "1e200"],
    ["--g", "1e308", "--xi", "2"],
    ["--mu", "1e300", "--xi", "2"],
])
def test_mode_rejects_overflowing_forms(unstable_cfg, tmp_path, capsys, flags):
    assert main(["mode", "--config", unstable_cfg, "--out", str(tmp_path / "o")] + flags) == 2
    xi = float(flags[-1])
    assert capsys.readouterr().err == f"error: quadratic forms at xi = {xi:g} overflow\n"


@pytest.mark.parametrize("profile,argv,message", [
    ("preset = linear-up", ["check", "--n-samples", "1"], "n_samples must be at least 2"),
    ("preset = linear-up", ["evolve"], "evolve requires --xi"),
    ("preset = linear-up", ["escape", "--epsilon", "0.1", "--delta", "1e-6"],
     "escape variant A requires m0"),
    ("preset = linear-up",
     ["escape", "--Lambda", "1", "--m0", "0", "--epsilon", "0.1", "--delta", "1e-6"],
     "m0 must be positive"),
    ("preset = linear-up", ["check", "--g", "-1"], "gravity g must be nonnegative"),
    ("preset = tanh-layer\nw = 0", ["check"], "tanh-layer width w must be positive"),
])
def test_input_errors_exit_2_with_message(tmp_path, capsys, profile, argv, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(UNSTABLE.format(out=tmp_path / "out").replace("preset = linear-up", profile))
    assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_inverted_band_rejected(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[profile]\npreset = linear-up\n[physics]\nmu = 0.01\n"
        "[grid]\nn = 64\n[band]\na = 5.0\nb = 2.0\n[scan]\nn_samples = 4\n"
    )
    assert main(["dispersion", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2


SLIP_BELOW_XI_C = ["--preset", "tanh-layer", "--mu", "0.02", "--k0", "0.5", "--k1", "1.0"]


def test_critical_rejects_band_below_xi_c(unstable_cfg, tmp_path, capsys):
    # xi_c is about 25 here, above the configured upper edge b = 5
    out = tmp_path / "crit"
    assert main(["critical", "--config", unstable_cfg, "--out", str(out)]
                + SLIP_BELOW_XI_C) == 2
    err = capsys.readouterr().err
    assert "xi_c" in err and "b = 5" in err
    assert not (out / "critical.json").exists()


def test_dispersion_scans_explicit_band_below_xi_c(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[profile]\npreset = linear-up\n[physics]\nmu = 0.01\n"
        "[grid]\nn = 64\n[band]\na = 1.0\nb = 5.0\n[scan]\nn_samples = 4\n"
    )
    out = tmp_path / "o"
    assert main(["dispersion", "--config", str(cfg), "--out", str(out)]
                + SLIP_BELOW_XI_C) == 0
    assert json.loads((out / "summary.json").read_text())["band"] == [1.0, 5.0]


BAND_INI = "[profile]\npreset = linear-up\n[grid]\nn = 64\n[band]\n{band}\n[scan]\nn_samples = 4\n"
ESCAPE_FLAGS = ["--epsilon", "0.1", "--delta", "1e-6", "--m0", "1"]


@pytest.mark.parametrize("command", ["dispersion", "escape"])
@pytest.mark.parametrize("band,flags,message", [
    pytest.param("b = 5.0", SLIP_BELOW_XI_C,
                 "critical frequency xi_c = 25 is not below the upper edge b = 5", id="xi_c-above-b"),
    pytest.param("a = 5.0\nb = 3.0", [], "[band] a = 5 is not below the upper edge b = 3",
                 id="inverted"),
    pytest.param("a = -1.0\nb = 3.0", [], "[band] a = -1 is negative", id="negative-a"),
])
def test_scan_rejects_bad_lower_edge(tmp_path, capsys, monkeypatch, command, band, flags,
                                     message):
    # the lower edge must satisfy 0 <= a < b before any frequency is solved,
    # and the message names where it came from
    def no_scan(*args):
        raise AssertionError("scan_band ran")

    monkeypatch.setattr("slabrt.cli.scan_band", no_scan)
    cfg = tmp_path / "run.ini"
    cfg.write_text(BAND_INI.format(band=band))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)] + ESCAPE_FLAGS + flags) == 2
    assert f"invalid band: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["critical", "dispersion", "escape"])
def test_empty_band_named(tmp_path, capsys, command):
    # b = 0 leaves no band above xi_c = 0: the band is named, not the
    # zero frequency a bound constant would be evaluated at
    cfg = tmp_path / "run.ini"
    cfg.write_text(BAND_INI.format(band="b = 0"))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)] + ESCAPE_FLAGS) == 2
    assert capsys.readouterr().err == ("error: invalid band: critical frequency xi_c = 0 "
                                       "is not below the upper edge b = 0\n")
    assert not out.exists()


def test_dispersion_band_a_below_empty_critical_band(tmp_path, capsys):
    # b = 2 lies below xi_c = 2.399, so the critical band is empty, but an
    # explicit [band] a = 0.1 still scans (0.1, 2)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[profile]\npreset = linear-up\n[physics]\nmu = 0.25\nk0 = 1\nk1 = 1\n"
                   "[grid]\nn = 48\n[band]\na = 0.1\nb = 2.0\n[scan]\nn_samples = 4\n")
    out = tmp_path / "o"
    assert main(["critical", "--config", str(cfg), "--out", str(out)]) == 2
    assert "xi_c = 2.39936 is not below the upper edge b = 2" in capsys.readouterr().err
    assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # xi = 1 is the band's one lattice frequency
    cfg = load_config(str(cfg))
    lam = growth_rate(cfg.profile(), cfg.slab(), build_grid(cfg.n), 1.0).lam
    assert summary["Lambda"] == lam and summary["band"] == [0.1, 2.0]


@pytest.mark.parametrize("profile,message", [
    pytest.param("preset = linear-up\nw = 0.05", "preset 'linear-up' takes no parameter 'w'",
                 id="linear-up-w"),
    pytest.param("preset = exp\ny_c = 0.3", "preset 'exp' takes no parameter 'y_c'",
                 id="exp-y_c"),
    pytest.param("csv = {csv}\nw = 0.05", "[profile] w is not read by the tabulated profile",
                 id="csv-w"),
    pytest.param("csv = {csv}\npreset = exp",
                 "[profile] preset is not read by the tabulated profile of [profile] csv = ",
                 id="csv-preset"),
])
def test_unread_profile_key_rejected(tmp_path, capsys, profile, message):
    # a profile parameter that nothing reads is bad input, named with its profile
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("y,rho\n" + "".join(f"{row}\n" for row in NINE_ROWS))
    cfg = tmp_path / "run.ini"
    cfg.write_text("[profile]\n" + profile.format(csv=csv_path) + "\n[grid]\nn = 32\n")
    out = tmp_path / "o"
    assert main(["mode", "--config", str(cfg), "--out", str(out), "--xi", "2"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_lattice_cap_rejected(tmp_path, capsys, monkeypatch):
    # only the rejection path: (b - a) L = 20000 lattice frequencies are never listed
    def no_solve(*args):
        raise AssertionError("growth_rate ran")

    monkeypatch.setattr("slabrt.dispersion.growth_rate", no_solve)
    cfg = tmp_path / "run.ini"
    cfg.write_text(BAND_INI.format(band="b = 10.0"))
    assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--L", "2000"]) == 2
    assert "20000 lattice frequencies, above the cap of 10000" in capsys.readouterr().err


def test_workers_flag_rejected(unstable_cfg, tmp_path):
    # the scan is serial; --workers is no longer an option
    with pytest.raises(SystemExit) as exc:
        main(["dispersion", "--config", unstable_cfg, "--out", str(tmp_path / "o"),
              "--workers", "2"])
    assert exc.value.code == 2


def test_size_caps_rejected(unstable_cfg, tmp_path, capsys):
    # only the rejection path: the capped sizes are never allocated
    out = str(tmp_path / "o")
    assert main(["dispersion", "--config", unstable_cfg, "--out", out, "--n", "100000"]) == 2
    assert "cap of 1024" in capsys.readouterr().err
    assert main(["dispersion", "--config", unstable_cfg, "--out", out,
                 "--n-samples", "100000"]) == 2
    assert "cap of 10000" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_tanh_layer_config_parameters(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[profile]\npreset = tanh-layer\ny_c = 0.35\nw = 0.08\n"
        "[physics]\nmu = 0.01\n"
    )
    assert main(["check", "--config", str(cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rt_condition"] is True
    # steepest gradient sits at the layer centre
    assert rep["y0_witness"] == pytest.approx(0.35, abs=0.01)


def test_dispersion_after_other_model_byte_identical(unstable_cfg, tmp_path):
    # a run on another profile (and so another grid object of the same size)
    # in between must not leak its cached Gram matrices into the next run
    out1, other, out2 = tmp_path / "fresh", tmp_path / "other", tmp_path / "after"
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(out1)]) == 0
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(other),
                 "--preset", "tanh-layer"]) == 0
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(out2)]) == 0
    assert (other / "dispersion.csv").read_bytes() != (out1 / "dispersion.csv").read_bytes()
    assert (out1 / "dispersion.csv").read_bytes() == (out2 / "dispersion.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_percent_in_config_path_survives(tmp_path):
    # interpolation is disabled, so literal percent signs are fine
    out = tmp_path / "100% data"
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[profile]\npreset = linear-up\n[physics]\nmu = 0.01\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["check", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("flags,name", [
    (["--epsilon", "nan", "--Lambda", "1.0"], "epsilon"),
    (["--epsilon", "0.1", "--Lambda", "nan"], "Lambda"),
    (["--epsilon", "0.1", "--Lambda", "inf"], "Lambda"),
])
def test_escape_rejects_non_finite_settings(unstable_cfg, tmp_path, capsys, flags, name):
    out = tmp_path / "o"
    assert main(["escape", "--config", unstable_cfg, "--out", str(out),
                 "--delta", "1e-6", "--m0", "1.0"] + flags) == 2
    assert f"{name} = " in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_xi_and_file_value_rejected(unstable_cfg, tmp_path, capsys):
    assert main(["mode", "--config", unstable_cfg, "--out", str(tmp_path / "o"),
                 "--xi", "nan"]) == 2
    assert "xi = nan is not a finite number" in capsys.readouterr().err
    cfg = tmp_path / "run.ini"
    cfg.write_text("[profile]\npreset = tanh-layer\nw = inf\n")
    assert main(["check", "--config", str(cfg)]) == 2
    assert "w = inf is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[physics]\nmuu = 5\n", "unknown config key 'muu' in [physics]"),
    ("[grdi]\nn = 64\n", "unknown config section [grdi]"),
    ("[DEFAULT]\nmu = 0.02\n", "unknown config section [DEFAULT]"),
    ("mu = 0.01\n", "no section headers"),
    ("[physics]\nmu = 0.01\nmu = 0.02\n", "already exists"),
    ("[physics]\nmu\n", "parsing errors"),
])
def test_unknown_config_entries_rejected(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main(["check", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("t_end,message,solves", [
    pytest.param("1e9", "cap of 1000000", True, id="1e9-cap of 1000000"),
    pytest.param("0", "t_end = 0 must be positive", False, id="0-t_end = 0 must be positive"),
])
def test_evolve_rejects_step_count(tmp_path, capsys, monkeypatch, t_end, message, solves):
    # only the rejection path: a capped run must never start, and a file
    # value that is not positive is rejected before the mode is solved
    def no_run(*args):
        raise AssertionError("rejected run went ahead")

    monkeypatch.setattr("slabrt.cli.simulate", no_run)
    if not solves:
        monkeypatch.setattr("slabrt.cli.growth_rate", no_run)
    cfg = tmp_path / "run.ini"
    cfg.write_text(UNSTABLE.format(out=tmp_path / "out") + f"\n[evolve]\nt_end = {t_end}\n")
    assert main(["evolve", "--config", str(cfg), "--xi", "2.0"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "critical"])
def test_missing_profile_csv_rejected(tmp_path, capsys, command):
    missing = tmp_path / "absent.csv"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[profile]\ncsv = {missing}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("extra,flags", [("[escape]\nvariant = C\n", []),
                                         ("", ["--variant", "C"])])
def test_escape_rejects_variant_before_scan(tmp_path, capsys, monkeypatch, extra, flags):
    def no_scan(*args):
        raise AssertionError("scan_band ran")

    monkeypatch.setattr("slabrt.cli.scan_band", no_scan)
    cfg = tmp_path / "run.ini"
    cfg.write_text(UNSTABLE.format(out=tmp_path / "out") + extra)
    assert main(["escape", "--config", str(cfg), "--epsilon", "0.1", "--delta", "1e-6",
                 "--m0", "1"] + flags) == 2
    assert "unknown escape-time variant 'C'" in capsys.readouterr().err


SETTINGS_INI = """\
[profile]
csv = rho.csv
preset = tanh-layer
y_c = 0.4
w = 0.05
[physics]
mu = 0.11
g = 1.2
k0 = 0.3
k1 = 0.4
L = 1.5
[grid]
n = 48
[band]
a = 0.6
b = 7.0
[scan]
n_samples = 9
[evolve]
dt = 0.002
t_end = 3.0
[escape]
epsilon = 0.7
m0 = 1.1
delta = 0.03
variant = B
lambda = 2.5
[output]
dir = here
formats = svg, csv
"""
FILE_FIELDS = {
    "profile_csv": "rho.csv", "preset": "tanh-layer", "y_c": 0.4, "w": 0.05,
    "mu": 0.11, "g": 1.2, "k0": 0.3, "k1": 0.4, "L": 1.5, "n": 48, "band_a": 0.6, "band_b": 7.0,
    "n_samples": 9, "dt": 0.002, "t_end": 3.0, "epsilon": 0.7, "m0": 1.1,
    "delta": 0.03, "variant": "B", "Lambda": 2.5, "out_dir": "here",
    "formats": ("svg", "csv"), "xi": None,
}
FLAG_FIELDS = {
    "xi": ("--xi", "3.5", 3.5), "out_dir": ("--out", "there", "there"),
    "formats": ("--format", "json", ("json",)),
    "preset": ("--preset", "exp", "exp"), "mu": ("--mu", "0.21", 0.21),
    "g": ("--g", "2.2", 2.2), "k0": ("--k0", "-0.3", -0.3),
    "k1": ("--k1", "-0.4", -0.4), "L": ("--L", "2.5", 2.5), "n": ("--n", "40", 40),
    "n_samples": ("--n-samples", "11", 11), "epsilon": ("--epsilon", "0.8", 0.8),
    "m0": ("--m0", "1.3", 1.3), "delta": ("--delta", "0.04", 0.04),
    "variant": ("--variant", "A", "A"), "Lambda": ("--Lambda", "3.5", 3.5),
}


def _run_config(monkeypatch, argv):
    seen = []
    monkeypatch.setattr("slabrt.cli.cmd_check", lambda cfg: seen.append(cfg) or 0)
    assert main(argv) == 0
    return seen[0]


def test_settings_reach_their_fields(tmp_path, monkeypatch):
    # every file key and every flag lands in its own RunConfig field
    ini = tmp_path / "run.ini"
    ini.write_text(SETTINGS_INI)
    cfg = _run_config(monkeypatch, ["check", "--config", str(ini)])
    assert {k: getattr(cfg, k) for k in FILE_FIELDS} == FILE_FIELDS
    flags = [arg for flag, value, _ in FLAG_FIELDS.values() for arg in (flag, value)]
    cfg = _run_config(monkeypatch, ["check", "--config", str(ini)] + flags)
    expected = FILE_FIELDS | {k: v for k, (_, _, v) in FLAG_FIELDS.items()}
    expected["profile_csv"] = None  # --preset replaces the file's table
    assert {k: getattr(cfg, k) for k in expected} == expected


def test_empty_preset_keeps_default(tmp_path, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text("[profile]\npreset =\n")
    cfg = _run_config(monkeypatch, ["check", "--config", str(ini)])
    y = np.linspace(0.0, 1.0, 5)
    assert cfg.preset is None and np.array_equal(cfg.profile().rho(y), 1.0 + y)


def test_preset_flag_replaces_table_and_file_preset(tmp_path):
    # the flag clears [profile] csv, so the file's preset beside it is no conflict
    cfg = tmp_path / "run.ini"
    cfg.write_text("[profile]\ncsv = missing.csv\npreset = exp\n[grid]\nn = 32\n")
    assert main(["mode", "--config", str(cfg), "--out", str(tmp_path / "o"), "--xi", "2",
                 "--preset", "linear-up"]) == 0


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("value", ["1e-300", "1e-150", "1e150", "1e300"])
@pytest.mark.parametrize("flag", ["--mu", "--g", "--k0", "--k1", "--xi"])
@pytest.mark.parametrize("command", ["mode", "evolve"])
def test_scale_sweep_exits_cleanly(tmp_path, command, flag, value):
    # a parameter at either end of the float range ends in a documented exit
    # code, never in a zero rate or a NaN or Infinity in an output file
    out = tmp_path / "o"
    code = main([command, "--config", str(CONFIGS / "default.ini"), "--out", str(out),
                 "--n", "16", "--xi", "2", flag, value])
    assert code in (0, 2, 3, 4)
    for path in out.glob("*.json"):
        payload = _strict_json(path.read_text())
        if path.name == "residuals.json":
            assert payload["lambda"] > 0.0


@pytest.mark.parametrize("command", ["mode", "evolve"])
def test_overflowing_rayleigh_root_exits_4(tmp_path, capsys, command):
    # b * b overflows in the first Rayleigh step: no rate, rather than lambda = 0
    assert main([command, "--config", str(CONFIGS / "default.ini"), "--out",
                 str(tmp_path / "o"), "--n", "16", "--xi", "2", "--k0", "1e300"]) == 4
    assert capsys.readouterr().err == ("error: growth-rate fixed point at xi = 2: the Rayleigh "
                                       "root over- or underflows to inf\n")


@pytest.mark.parametrize("command", ["mode", "evolve"])
def test_non_finite_pencil_exits_4(tmp_path, capsys, command):
    # s A1t overflows at the second Rayleigh step: the eigensolve refuses the
    # pencil by stage and frequency, with no RuntimeWarning on the way
    assert main([command, "--config", str(CONFIGS / "default.ini"), "--out",
                 str(tmp_path / "o"), "--n", "16", "--xi", "2", "--k0", "1e153"]) == 4
    assert capsys.readouterr().err == ("error: growth-rate fixed point at xi = 2: array must "
                                       "not contain infs or NaNs\n")


def test_huge_slip_is_no_stability_proof(tmp_path):
    # mu_c read 0 from a NaN at k0 = k1 = 1e155, and mu >= mu_c then "proved"
    # that nothing grows (exit 3); the slab is light over heavy, but slip
    # walls that strong make Gm indefinite, so only a rate or a named failure
    assert main(["mode", "--config", str(CONFIGS / "stable.ini"), "--out", str(tmp_path / "o"),
                 "--n", "16", "--xi", "2", "--k0", "1e155", "--k1", "1e155"]) in (0, 4)


def test_thin_tanh_layer_mode_writes_no_warning(tmp_path):
    # rho' of a w = 1e-4 layer underflows at most nodes; a fresh interpreter
    # with the default warning filters prints nothing to stderr
    ini = tmp_path / "thin.ini"
    ini.write_text((CONFIGS / "default.ini").read_text()
                   .replace("preset = linear-up", "preset = tanh-layer\nw = 1e-4"))
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-m", "slabrt", "mode", "--config", str(ini),
                          "--out", str(tmp_path / "o"), "--n", "32", "--xi", "2"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")


def test_non_finite_residual_exits_2_writing_no_json(tmp_path, capsys, monkeypatch):
    reconstruct = slabrt.dispersion.reconstruct_mode

    def nan_residual(*args):
        phi, pi, res = reconstruct(*args)
        return phi, pi, {**res, "ode_res": float("nan")}

    monkeypatch.setattr(slabrt.dispersion, "reconstruct_mode", nan_residual)
    out = tmp_path / "o"
    assert main(["mode", "--config", str(CONFIGS / "default.ini"), "--out", str(out),
                 "--n", "16", "--xi", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'residuals.json'} not written: ")
    assert err.count("\n") == 1
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("flag, value", [("--k0", "1e150"), ("--k1", "1e150"), ("--g", "1e300")])
def test_large_mode_has_finite_residuals(tmp_path, flag, value):
    # the residual norms are scaled by a power of two, so squaring a value
    # above 1e154 no longer overflows a norm of a finite mode
    out = tmp_path / "o"
    assert main(["mode", "--config", str(CONFIGS / "default.ini"), "--out", str(out),
                 "--n", "16", "--xi", "2", flag, value]) == 0
    payload = _strict_json((out / "residuals.json").read_text())
    assert payload["lambda"] > 0.0
    assert all(np.isfinite(v) for v in payload.values())


@pytest.mark.parametrize("command, args, shown", [
    ("mode", ["--xi", "1e-300"], "xi = 1e-300 underflow: g xi^2 = 0"),
    ("mode", ["--xi", "1e-10", "--g", "1e-300"], "xi = 1e-10 underflow: g xi^2 = 9.99989e-321"),
    ("mode", ["--xi", "1e-160"], "xi = 1e-160 underflow: g xi^2 = 9.99989e-321"),
    ("evolve", ["--xi", "1e-300"], "xi = 1e-300 underflow: g xi^2 = 0"),
])
def test_underflowing_gravity_form_exits_2_writing_nothing(tmp_path, capsys, command, args,
                                                           shown):
    out = tmp_path / "o"
    assert main([command, "--config", str(CONFIGS / "default.ini"), "--out", str(out),
                 "--n", "16"] + args) == 2
    assert capsys.readouterr().err == f"error: quadratic forms at {shown}\n"
    assert not out.exists()


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # each CLI run pays its import; scipy.linalg is the only scipy module it needs
    heavy = ["scipy." + name for name in ("sparse", "optimize", "interpolate", "integrate",
                                          "special", "stats", "signal", "fft", "ndimage",
                                          "spatial")]
    code = ("import sys, slabrt.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert run.stdout == "[]\n"
