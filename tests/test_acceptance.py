"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import time

import numpy as np
import pytest

from slabrt import (
    SlabConfig,
    alpha,
    assemble_forms,
    build_grid,
    c0_constant,
    companion_oracle,
    critical_frequency,
    critical_viscosity_closed_form,
    critical_viscosity_numerical,
    frak_S,
    growth_rate,
    kinetic_energy,
    mode_initial_state,
    preset_profile,
    scan_band,
    simulate,
    upper_bound_constants,
)
from slabrt.cli import main
from slabrt.evolve import CrankNicolsonStepper, EvolveState


class _Criterion:
    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict} {self.label} ({elapsed:.1f}s)")
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


DEFAULT = SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0)


@pytest.fixture(scope="module")
def up():
    return preset_profile("linear-up")


@pytest.fixture(scope="module")
def g128():
    return build_grid(128)


@pytest.fixture(scope="module")
def default_modes(up, g128):
    return {xi: growth_rate(up, DEFAULT, g128, xi) for xi in (1.5, 2.0, 3.0)}


def test_criterion_1_critical_viscosity_dual_path(g128):
    with _Criterion(1, "critical viscosity dual path", 5.0):
        for k0, k1 in ((6.0, 6.0), (3.0, 0.0), (-1.0, -2.0), (1.0, 4.0)):
            c = SlabConfig(mu=1.0, g=1.0, k0=k0, k1=k1, L=1.0)
            closed = critical_viscosity_closed_form(c)
            numerical = critical_viscosity_numerical(c, g128)
            assert abs(closed - numerical) <= 1e-6, (k0, k1, closed, numerical)


def test_criterion_2_fixed_point_correctness(default_modes):
    with _Criterion(2, "fixed point vs companion oracle", 30.0):
        for xi, ms in default_modes.items():
            assert ms is not None, xi
            val, _ = alpha(ms.forms, ms.lam)
            assert abs(val + ms.lam**2) <= 1e-8, xi
            lam_hat, _ = companion_oracle(ms.forms)
            assert abs(lam_hat - ms.lam) / lam_hat <= 1e-6, xi


def test_criterion_3_strong_form_and_natural_bcs(up, default_modes):
    with _Criterion(3, "fourth-order equation + natural boundary conditions", 30.0):
        ms = default_modes[2.0]
        assert ms.residuals["ode_res"] <= 1e-5
        r0, r1 = ms.residuals["bc_res_0"], ms.residuals["bc_res_1"]
        assert r0 <= 1e-4 and r1 <= 1e-4
        # decrease under doubling, demonstrated where truncation dominates:
        # by n = 64 the mode is converged to the roundoff floor of the
        # fourth-derivative evaluation and no further decrease is measurable
        res = {}
        for n in (16, 32):
            m = growth_rate(up, DEFAULT, build_grid(n), 2.0)
            res[n] = tuple(m.residuals[k] for k in ("ode_res", "bc_res_0", "bc_res_1"))
        print(f"  residuals n=16 {res[16]}")
        print(f"  residuals n=32 {res[32]}")
        print(f"  residuals n=128 {(ms.residuals['ode_res'], r0, r1)}")
        assert res[32][0] < res[16][0]
        assert res[32][1] < res[16][1]
        assert res[32][2] < res[16][2]


def test_criterion_4_monotonicity_and_bounds(up, g128, default_modes):
    with _Criterion(4, "monotonicity and bound suite", 60.0):
        fs = default_modes[2.0].forms
        S = frak_S(fs)
        svals = np.linspace(S / 21.0, S * 0.999, 20)
        avals = [alpha(fs, float(s))[0] for s in svals]
        assert all(a < b for a, b in zip(avals, avals[1:]))

        C1, C2 = upper_bound_constants(up, DEFAULT, g128, (1.0, 10.0))
        assert C1 > 0 and C2 > 0
        for s, a in zip(svals, avals):
            assert a <= s * C2 - C1 + 1e-12

        ys = np.linspace(0, 1, 4001)
        r1 = np.max(np.abs(up.drho(ys)) / up.rho(ys))
        r2 = np.max(1.0 / up.rho(ys))
        C0 = c0_constant(DEFAULT)
        for ms in default_modes.values():
            lam = ms.lam
            assert lam**2 <= DEFAULT.g * r1 + lam * C0 * r2 + 1.0

        for mu, k0, k1 in ((0.5, 6.0, 6.0), (0.2, 1.0, 4.0), (0.05, 3.0, 0.0)):
            c = SlabConfig(mu=mu, g=1.0, k0=k0, k1=k1, L=1.0)
            assert c.mu < critical_viscosity_closed_form(c)
            xi_c = critical_frequency(c, g128)
            assert xi_c <= np.sqrt(c0_constant(c) / (2.0 * c.mu))


def test_criterion_5_time_domain_cross_validation(default_modes):
    with _Criterion(5, "time-domain cross validation", 60.0):
        ms = default_modes[2.0]
        fs = ms.forms
        lam = ms.lam
        w0, s0 = mode_initial_state(ms)
        # fit over >= 3 e-folds of growth
        sim = simulate(DEFAULT, fs, w0, s0, 1e-3 / lam, 3.5 / lam)
        hist = sim.state.history
        amps = [a for _, a in hist]
        assert max(amps) / min(amps) >= np.exp(3.0)
        from slabrt import fit_growth_rate

        lam_fit = fit_growth_rate(hist)
        assert abs(lam_fit - lam) / lam <= 1e-3
        # balance residual per step at dt = 1e-4
        simb = simulate(DEFAULT, fs, w0, s0, 1e-4, 0.05, sample_every=1)
        assert max(row[3] for row in simb.rows[1:]) <= 1e-6
        # second-order reduction, measured above the cancellation floor
        res = {}
        for dt in (8e-3, 4e-3, 2e-3):
            simr = simulate(DEFAULT, fs, w0, s0, dt, 0.4, sample_every=1)
            res[dt] = max(row[3] for row in simr.rows[1:])
        print(f"  balance residuals vs dt: {res}")
        assert 2.5 <= res[8e-3] / res[4e-3] <= 6.0
        assert 2.5 <= res[4e-3] / res[2e-3] <= 6.0


def test_criterion_6_stability_negative_control():
    with _Criterion(6, "stability negative control", 30.0):
        down = preset_profile("linear-down")
        c = SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0)
        g = build_grid(64)
        result = scan_band(down, c, g, (0.5, 6.0), 8)
        assert result.samples == [] and result.Lambda is None
        # discrete energy: kinetic plus stratification-weighted buoyancy is
        # the Lyapunov functional of the stable system
        fs = assemble_forms(down, c, g, 2.0)
        rng = np.random.default_rng(11)
        state = EvolveState(t=0.0, sigma=np.zeros(g.n - 2),
                            w=rng.standard_normal(g.n - 2) * 1e-3)
        stepper = CrankNicolsonStepper(c, fs, 1e-3)
        wq = g.w[1:-1]
        gx2 = c.g * fs.xi**2

        def total_energy(s):
            buoy = 0.5 * gx2 * np.sum(wq * s.sigma ** 2 / (-fs.drho_nodes[1:-1]))
            return kinetic_energy(s, fs) + buoy

        prev = total_energy(state)
        for _ in range(2000):
            state = stepper.step(state)
            cur = total_energy(state)
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur


def test_criterion_7_structural_invariants(up, g128, default_modes, tmp_path):
    with _Criterion(7, "structural invariants", 30.0):
        for xi, ms in default_modes.items():
            # divergence-free reconstruction
            div = xi * ms.phi + g128.D1 @ ms.psi_full()
            assert np.max(np.abs(div)) <= 1e-8
            # J-normalization of the returned mode
            assert abs(ms.psi @ ms.forms.Jm @ ms.psi - 1.0) <= 1e-10
        # parity: mirrored scan entries are bit-identical
        res = scan_band(up, DEFAULT, build_grid(64), (1.0, 5.0), 6)
        pos = {pt.xi: pt.lam for pt in res.samples if pt.xi > 0}
        for pt in res.samples:
            if pt.xi < 0:
                assert pt.lam == pos[-pt.xi]
        ms_neg = growth_rate(up, DEFAULT, build_grid(64), -2.0)
        ms_pos = growth_rate(up, DEFAULT, build_grid(64), 2.0)
        assert ms_neg.lam == ms_pos.lam
        # deterministic byte-identical CLI reruns
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[profile]\npreset = linear-up\n"
            "[physics]\nmu = 0.01\ng = 1.0\nk0 = 0.0\nk1 = 0.0\nL = 1.0\n"
            "[grid]\nn = 64\n[band]\nb = 5.0\n[scan]\nn_samples = 6\n"
        )
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["mode", "--config", str(cfg), "--out", str(out),
                         "--xi", "2.0"]) == 0
            outs.append(out)
        for name in ("dispersion.csv", "summary.json", "mode.csv", "residuals.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_criterion_8_grid_convergence(up):
    with _Criterion(8, "grid convergence of the rate", 30.0):
        for name in ("linear-up", "exp", "tanh-layer"):
            p = preset_profile(name)
            lam64 = growth_rate(p, DEFAULT, build_grid(64), 2.0).lam
            lam128 = growth_rate(p, DEFAULT, build_grid(128), 2.0).lam
            assert abs(lam64 - lam128) / lam128 <= 1e-8, name
