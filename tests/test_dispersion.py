import numpy as np
import pytest

from slabrt import (
    SlabConfig,
    alpha,
    assemble_forms,
    build_grid,
    c0_constant,
    companion_oracle,
    constant_profile,
    escape_time,
    growth_rate,
    preset_profile,
    real_fields,
    reconstruct_mode,
    scan_band,
)
from slabrt.errors import EmptyBand, NonPositiveHorizon


def test_stable_profile_has_no_growing_mode(profile_down, grid64):
    c = SlabConfig(mu=0.5, g=1.0, k0=0.0, k1=0.0, L=1.0)
    for xi in (0.5, 2.0, 5.0):
        assert growth_rate(profile_down, c, grid64, xi) is None


def test_growth_rate_fixed_point_residual(default_mode):
    assert default_mode.lam > 0.0
    assert default_mode.residuals["fixed_point_res"] <= 1e-8


def test_growth_rate_solution_is_j_normalized(default_mode):
    fs = default_mode.forms
    v = default_mode.psi
    assert v @ fs.Jm @ v == pytest.approx(1.0, abs=1e-10)


def test_growth_rate_matches_companion(default_mode):
    lam_hat, _ = companion_oracle(default_mode.forms)
    assert abs(lam_hat - default_mode.lam) / lam_hat <= 1e-6


def test_companion_eigenvector_residual(default_mode):
    # standard backward error of a quadratic eigenpair:
    # |P(lam) v| / ((lam^2 |J| + lam |G| + |E2|) |v|)
    fs = default_mode.forms
    lam, v = companion_oracle(fs)
    r = lam * lam * (fs.Jm @ v) + lam * (fs.Gm @ v) - fs.E2m @ v
    den = (lam * lam * np.linalg.norm(fs.Jm, 2) + lam * np.linalg.norm(fs.Gm, 2)
           + np.linalg.norm(fs.E2m, 2)) * np.linalg.norm(v)
    assert np.linalg.norm(r) / den <= 1e-6


def test_companion_none_for_dissipative_system(grid64):
    # rho = 1 kills the gravity form; with a positive-definite dissipation
    # form all eigenvalues sit in the left half plane
    c = SlabConfig(mu=0.3, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(constant_profile(1.0), c, grid64, 1.5)
    assert companion_oracle(fs) is None


def test_growth_rate_quadratic_bound(default_mode, profile_up, default_config):
    # lam^2 <= g sup|rho'/rho| + lam C0 sup(1/rho) + 1
    ys = np.linspace(0, 1, 4001)
    r1 = np.max(np.abs(profile_up.drho(ys)) / profile_up.rho(ys))
    r2 = np.max(1.0 / profile_up.rho(ys))
    lam = default_mode.lam
    assert lam * lam <= default_config.g * r1 + lam * c0_constant(default_config) * r2 + 1.0


def test_reconstruction_divergence_free(default_mode):
    fs = default_mode.forms
    div = fs.xi * default_mode.phi + fs.grid.D1 @ default_mode.psi_full()
    assert np.max(np.abs(div)) <= 1e-8
    assert default_mode.residuals["div_res"] <= 1e-8


def test_reconstruction_zero_mode(default_mode, profile_up, default_config):
    from dataclasses import replace

    ms0 = replace(default_mode, psi=np.zeros_like(default_mode.psi))
    out = reconstruct_mode(ms0, profile_up, default_config)
    assert np.all(out.phi == 0.0)
    assert np.all(out.pi == 0.0)


def test_momentum_residuals(default_mode):
    # direct substitution into both linearized momentum components
    assert default_mode.residuals["mom_x_res"] <= 1e-6
    assert default_mode.residuals["mom_y_res"] <= 1e-5


def test_fourth_order_equation_residual(default_mode):
    assert default_mode.residuals["ode_res"] <= 1e-5


def test_natural_bc_residuals_small(default_mode, default_config):
    r = default_mode.residuals
    assert r["bc_res_0"] <= 1e-4 and r["bc_res_1"] <= 1e-4


def test_natural_bc_residual_decreases_while_underresolved(profile_up, default_config):
    # convergence-under-refinement oracle, run where truncation dominates
    res = {}
    for n in (16, 32):
        ms = growth_rate(profile_up, default_config, build_grid(n), 2.0)
        res[n] = (ms.residuals["bc_res_0"], ms.residuals["bc_res_1"])
    assert res[32][0] < res[16][0]
    assert res[32][1] < res[16][1]


def test_slip_config_mode(profile_up, grid128):
    # generic slip configuration in its valid regime (mu above critical)
    c = SlabConfig(mu=0.5, g=1.0, k0=1.0, k1=0.5, L=1.0)
    ms = growth_rate(profile_up, c, grid128, 2.0)
    assert ms is not None
    assert ms.residuals["fixed_point_res"] <= 1e-8
    lam_hat, _ = companion_oracle(ms.forms)
    assert abs(lam_hat - ms.lam) / lam_hat <= 1e-6
    assert ms.residuals["bc_res_0"] <= 1e-4 and ms.residuals["bc_res_1"] <= 1e-4


@pytest.mark.parametrize("xi", [2.0, 4.0])
def test_growth_rate_expands_bracket_below_xi_c(grid64, xi):
    # slip walls below xi_c: alpha is negative again at sqrt(-alpha(0)), so
    # the starting interval does not bracket the rate and has to expand
    p = preset_profile("tanh-layer")
    c = SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0)
    fs = assemble_forms(p, c, grid64, xi)
    s0 = np.sqrt(-alpha(fs, 0.0)[0])
    assert s0 * s0 + alpha(fs, s0)[0] < 0.0
    ms = growth_rate(p, c, grid64, xi)
    lam_hat, _ = companion_oracle(ms.forms)
    assert abs(lam_hat - ms.lam) / lam_hat <= 1e-6


def test_grid_convergence_of_rate(profile_up, default_config):
    lam64 = growth_rate(profile_up, default_config, build_grid(64), 2.0).lam
    lam128 = growth_rate(profile_up, default_config, build_grid(128), 2.0).lam
    assert abs(lam64 - lam128) / lam128 <= 1e-8


def test_scan_lattice_arithmetic(profile_up, default_config, grid64):
    res = scan_band(profile_up, default_config, grid64, (1.0, 5.0), 4)
    assert [pt.xi for pt in res.lattice] == [2.0, 3.0, 4.0]


def test_scan_supremum_selection(profile_up, default_config, grid64):
    res = scan_band(profile_up, default_config, grid64, (1.0, 5.0), 8)
    lams = {pt.xi: pt.lam for pt in res.lattice}
    assert res.Lambda == max(lams.values())
    assert lams[res.xi_star] == res.Lambda
    # xi_star is the smallest maximizing lattice frequency
    assert all(lam < res.Lambda for xi, lam in lams.items() if xi < res.xi_star)


def test_scan_parity_mirroring(profile_up, default_config, grid64):
    res = scan_band(profile_up, default_config, grid64, (1.0, 4.0), 6)
    pos = {pt.xi: pt.lam for pt in res.samples if pt.xi > 0}
    neg = {pt.xi: pt.lam for pt in res.samples if pt.xi < 0}
    assert set(neg) == {-x for x in pos}
    for x, lam in pos.items():
        assert neg[-x] == lam  # bit-identical by the mirroring construction


def test_growth_rate_even_in_xi(profile_up, default_config, grid64):
    # the forms depend on xi^2 only, so direct solves agree bitwise
    a = growth_rate(profile_up, default_config, grid64, 2.0)
    b = growth_rate(profile_up, default_config, grid64, -2.0)
    assert a.lam == b.lam


def test_scan_empty_band(profile_up, default_config, grid64):
    with pytest.raises(EmptyBand) as exc:
        scan_band(profile_up, default_config, grid64, (1.0, 1.5), 4)
    assert "L >" in str(exc.value)


def test_scan_curve_continuity(profile_up, default_config, grid64):
    # refinement check: the maximum jump between adjacent samples shrinks
    def max_jump(n_samples):
        res = scan_band(profile_up, default_config, grid64, (1.5, 3.5), n_samples)
        pos = [(pt.xi, pt.lam) for pt in res.samples if pt.xi > 0]
        return max(abs(b[1] - a[1]) for a, b in zip(pos, pos[1:]))

    assert max_jump(32) < max_jump(8)


def test_scan_rates_satisfy_quadratic_bound(profile_up, default_config, grid64):
    # every rate in a scan obeys lam^2 <= g sup|rho'/rho| + lam C0 sup(1/rho) + 1
    ys = np.linspace(0, 1, 4001)
    r1 = np.max(np.abs(profile_up.drho(ys)) / profile_up.rho(ys))
    r2 = np.max(1.0 / profile_up.rho(ys))
    C0 = c0_constant(default_config)
    res = scan_band(profile_up, default_config, grid64, (1.0, 8.0), 10)
    assert res.samples
    for pt in res.samples:
        assert pt.lam**2 <= default_config.g * r1 + pt.lam * C0 * r2 + 1.0


def test_scan_stable_config_is_empty(profile_down, grid64):
    c = SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0)
    res = scan_band(profile_down, c, grid64, (0.5, 6.0), 6)
    assert res.samples == [] and res.lattice == []
    assert res.Lambda is None and res.xi_star is None


def test_real_fields_structure(default_mode, default_config):
    x = np.linspace(0.0, 2.0 * np.pi, 41)
    f = real_fields(default_mode, 0.5, x)
    # all fields real by construction
    for arr in (f.varrho, f.u1, f.u2, f.q):
        assert np.isrealobj(arr)
    # div u = 2 L* (xi phi + psi') cos(x xi) vanishes with the divergence
    g = default_mode.forms.grid
    du = 2.0 * 0.5 * (default_mode.xi * default_mode.phi
                      + g.D1 @ default_mode.psi_full())
    assert np.max(np.abs(du)) <= 1e-8
    # both velocity components carry energy
    assert np.linalg.norm(f.u1) > 0.0
    assert np.linalg.norm(f.u2) > 0.0


def test_real_fields_requires_reconstruction(default_mode):
    from dataclasses import replace

    bare = replace(default_mode, phi=None, pi=None)
    with pytest.raises(ValueError):
        real_fields(bare, 0.5, np.linspace(0, 1, 5))


def test_escape_time_variant_a():
    # ln(100) / 2
    assert escape_time(2.0, 1.0, 1.0, 0.02, "A") == pytest.approx(np.log(100.0) / 2.0)


def test_escape_time_variant_b():
    # ln(100), m0 ignored
    assert escape_time(1.0, 0.5, 123.0, 0.01, "B") == pytest.approx(np.log(100.0))


def test_escape_time_boundary_flagged():
    with pytest.raises(NonPositiveHorizon):
        escape_time(1.0, 1.0, 1.0, 2.0, "A")
    with pytest.raises(NonPositiveHorizon):
        escape_time(1.0, 0.5, 1.0, 1.0, "B")


def test_escape_time_validates_inputs():
    with pytest.raises(ValueError):
        escape_time(-1.0, 1.0, 1.0, 0.1, "A")
    with pytest.raises(ValueError):
        escape_time(1.0, 1.0, 1.0, 0.1, "C")
