"""Seeded random-configuration sweep: the structural invariants must hold
for any admissible parameter combination, not just the curated cases."""

import numpy as np

from slabrt import (
    SlabConfig,
    assemble_forms,
    build_grid,
    c0_constant,
    companion_oracle,
    critical_frequency,
    critical_viscosity_closed_form,
    fit_growth_rate,
    growth_rate,
    mode_initial_state,
    preset_profile,
    simulate,
)

PRESETS = ["linear-up", "exp", "tanh-layer", "linear-down"]


def test_random_configuration_sweep(grid64):
    rng = np.random.default_rng(424242)
    for trial in range(12):
        name = PRESETS[trial % len(PRESETS)]
        p = preset_profile(name)
        c = SlabConfig(
            mu=float(10 ** rng.uniform(-3, 0)),
            g=float(rng.uniform(0.5, 2.0)),
            k0=float(rng.uniform(-3, 6)),
            k1=float(rng.uniform(-3, 6)),
            L=float(rng.uniform(0.5, 2.0)),
        )
        mu_c = critical_viscosity_closed_form(c)
        xi_c = critical_frequency(c, grid64) if c.mu < mu_c else 0.0
        # stay inside the admissible band, where the dissipation form wins
        xi = float(rng.uniform(1.05 * xi_c + 0.5, 1.05 * xi_c + 5.0))
        tag = f"{name} mu={c.mu:.4g} k=({c.k0:.3g},{c.k1:.3g}) xi={xi:.4g}"

        ms = growth_rate(p, c, grid64, xi)
        oracle = companion_oracle(assemble_forms(p, c, grid64, xi))
        if ms is None:
            # both solution paths must agree on stability
            assert oracle is None, tag
            assert name == "linear-down", tag
            continue
        assert oracle is not None, tag
        assert abs(oracle[0] - ms.lam) / oracle[0] <= 1e-6, tag
        assert abs(ms.psi @ ms.forms.Jm @ ms.psi - 1.0) <= 1e-10, tag
        assert ms.residuals["div_res"] <= 1e-8, tag
        assert ms.residuals["fixed_point_res"] <= 1e-8, tag
        ys = np.linspace(0, 1, 2001)
        r1 = np.max(np.abs(p.drho(ys)) / p.rho(ys))
        r2 = np.max(1.0 / p.rho(ys))
        assert ms.lam**2 <= c.g * r1 + ms.lam * c0_constant(c) * r2 + 1.0, tag


def test_random_configs_time_domain(grid64):
    # third solution path: the integrator grows mode-initialized data at
    # the eigenvalue rate for arbitrary admissible parameters
    rng = np.random.default_rng(77)
    for name in ("exp", "tanh-layer"):
        p = preset_profile(name)
        c = SlabConfig(
            mu=float(10 ** rng.uniform(-2.5, -1)),
            g=float(rng.uniform(0.5, 2.0)),
            k0=float(rng.uniform(-2, 2)),
            k1=float(rng.uniform(-2, 2)),
            L=1.0,
        )
        mu_c = critical_viscosity_closed_form(c)
        xi_c = critical_frequency(c, grid64) if c.mu < mu_c else 0.0
        xi = 1.05 * xi_c + 2.0
        ms = growth_rate(p, c, grid64, xi)
        assert ms is not None
        w0, s0 = mode_initial_state(ms)
        sim = simulate(c, ms.forms, w0, s0, 1e-3 / ms.lam, 4.0 / ms.lam)
        lam_fit = fit_growth_rate(sim.rows)
        assert abs(lam_fit - ms.lam) / ms.lam <= 1e-3, (name, c)
