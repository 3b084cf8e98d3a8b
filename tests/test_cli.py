import json

import numpy as np
import pytest

from slabrt.cli import main
from schema_check import validate_file

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


def test_mode_requires_xi(unstable_cfg):
    assert main(["mode", "--config", unstable_cfg]) == 2


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


def test_negative_workers_rejected(unstable_cfg, tmp_path):
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(tmp_path / "o"),
                 "--workers", "-5"]) == 2


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


def test_worker_count_does_not_change_bytes(unstable_cfg, tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["dispersion", "--config", unstable_cfg, "--out", str(out2),
                 "--workers", "3"]) == 0
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
