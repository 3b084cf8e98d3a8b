import numpy as np
import pytest
import scipy.linalg as sla

from slabrt import (
    SlabConfig,
    alpha,
    assemble_forms,
    c0_constant,
    compute_critical_numbers,
    constant_profile,
    critical_frequency,
    critical_viscosity_closed_form,
    critical_viscosity_numerical,
    frak_S,
    preset_profile,
    upper_bound_constants,
)
from slabrt.errors import ConvergenceFailure, NoRTPoint, NoSignChange
from slabrt.variational import _bisect


def test_alpha_nonnegative_for_stable_profile(profile_down, grid64):
    # rho' <= 0 and free-slip walls: every term of the energy is nonnegative
    c = SlabConfig(mu=0.5, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(profile_down, c, grid64, 2.0)
    for s in (0.1, 1.0, 10.0):
        val, _ = alpha(fs, s)
        assert val >= 0.0


def test_alpha_linear_in_s_for_uniform_density(grid64):
    # rho = 1 kills the gravity form, so alpha(s) = s * min eig(G, J)
    c = SlabConfig(mu=0.3, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(constant_profile(1.0), c, grid64, 1.5)
    a1, _ = alpha(fs, 1.0)
    for s in (0.25, 2.0, 7.0):
        val, _ = alpha(fs, s)
        assert val == pytest.approx(s * a1, rel=1e-9)


def test_alpha_matches_dense_qz_oracle(profile_up, grid32):
    # brute force: QZ on the unreduced pencil, independent of the Cholesky path
    c = SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(profile_up, c, grid32, 2.0)
    s = 0.1
    val, v = alpha(fs, s)
    assert val < 0.0
    ev = sla.eigvals(s * fs.Gm - fs.E2m, fs.Jm)
    oracle = np.min(ev.real[np.abs(ev.imag) <= 1e-8 * (1 + np.abs(ev.real))])
    assert val == pytest.approx(oracle, rel=1e-9)
    # the value also sits under the linear upper bound on the same grid
    C1, C2 = upper_bound_constants(profile_up, c, grid32, (1.0, 10.0))
    assert val <= s * C2 - C1


def test_alpha_minimizer_consistency(profile_up, default_config, grid128):
    # E(psi_min, s) equals alpha(s) and the minimizer is J-normalized
    fs = assemble_forms(profile_up, default_config, grid128, 2.0)
    for s in (0.05, 0.2, 0.5):
        val, v = alpha(fs, s)
        assert v @ fs.Jm @ v == pytest.approx(1.0, abs=1e-12)
        energy = s * (v @ fs.Gm @ v) - v @ fs.E2m @ v
        assert abs(energy - val) <= 1e-10 * (1.0 + abs(val))


def test_critical_viscosity_closed_form_cases():
    # nonpositive coefficients give zero; otherwise the quotient supremum
    assert critical_viscosity_closed_form(SlabConfig(mu=1, k0=-1, k1=-2)) == 0.0
    assert critical_viscosity_closed_form(SlabConfig(mu=1, k0=3, k1=0)) == pytest.approx(1.0)
    assert critical_viscosity_closed_form(SlabConfig(mu=1, k0=1, k1=4)) == pytest.approx(
        (5.0 + np.sqrt(13.0)) / 6.0)
    # equal positive coefficients: sup over cubic trial shapes is k/2
    assert critical_viscosity_closed_form(SlabConfig(mu=1, k0=6, k1=6)) == pytest.approx(3.0)


def test_critical_viscosity_closed_form_is_cubic_supremum(rng):
    # oracle: maximize (k0 p^2 + k1 q^2) / (4 (p^2 + p q + q^2)) over a dense
    # sweep of cubic endpoint slopes (p, q); cubics are the maximizers
    th = np.linspace(0, np.pi, 20001)
    p, q = np.cos(th), np.sin(th)
    den = 4.0 * (p * p + p * q + q * q)
    for _ in range(20):
        k0, k1 = rng.uniform(-4, 6, size=2)
        c = SlabConfig(mu=1.0, k0=k0, k1=k1)
        direct = max(0.0, np.max((k0 * p * p + k1 * q * q) / den))
        assert critical_viscosity_closed_form(c) == pytest.approx(direct, abs=1e-7)


@pytest.mark.parametrize("k0,k1", [(6.0, 6.0), (3.0, 0.0), (-1.0, -2.0), (1.0, 4.0)])
def test_critical_viscosity_dual_path(k0, k1, grid128):
    c = SlabConfig(mu=1.0, g=1.0, k0=k0, k1=k1, L=1.0)
    closed = critical_viscosity_closed_form(c)
    numerical = critical_viscosity_numerical(c, grid128)
    assert abs(closed - numerical) <= 1e-6


def test_critical_viscosity_numerical_clamped(grid64):
    # nonpositive numerator: the supremum is zero up to eigensolve roundoff
    assert critical_viscosity_numerical(SlabConfig(mu=1, k0=-1, k1=-1), grid64) <= 1e-12


def test_critical_frequency_zero_above_mu_c(grid64):
    c = SlabConfig(mu=4.0, g=1.0, k0=6.0, k1=6.0, L=1.0)
    assert c.mu >= critical_viscosity_closed_form(c)
    assert critical_frequency(c, grid64) == 0.0


def test_critical_frequency_fixed_point(grid128):
    from slabrt.forms import gradient_matrix, mass_matrix, slope_traces, curvature_matrix
    from slabrt.variational import pencil_extreme

    c = SlabConfig(mu=0.5, g=1.0, k0=6.0, k1=6.0, L=1.0)
    xi_c = critical_frequency(c, grid128)
    assert xi_c > 0.0
    # self-consistency: h(xi_c^2) = xi_c^2 to the bisection tolerance
    t0v, t1v = slope_traces(grid128)
    negE0 = -(c.mu * curvature_matrix(grid128)
              - c.k1 * np.outer(t1v, t1v) - c.k0 * np.outer(t0v, t0v))
    negE0 = 0.5 * (negE0 + negE0.T)
    K1 = gradient_matrix(grid128)
    M = mass_matrix(grid128)
    t = xi_c * xi_c
    h, _ = pencil_extreme(negE0, c.mu * (2.0 * K1 + t * M), largest=True)
    assert abs(h - t) <= 1e-8
    # bound from the dissipation chain
    assert xi_c <= np.sqrt(c0_constant(c) / (2.0 * c.mu))


def test_upper_bound_constants_positive(profile_up, default_config, grid128):
    C1, C2 = upper_bound_constants(profile_up, default_config, grid128, (1.0, 5.0))
    assert C1 > 0.0 and C2 > 0.0


def test_upper_bound_requires_rt_point(profile_down, default_config, grid64):
    with pytest.raises(NoRTPoint):
        upper_bound_constants(profile_down, default_config, grid64, (1.0, 5.0))


def test_alpha_upper_bound_chain(profile_up, default_config, grid128):
    # alpha(s) <= s C2 - C1 across the band, at 20 sampled rates
    band = (1.0, 10.0)
    C1, C2 = upper_bound_constants(profile_up, default_config, grid128, band)
    for xi in (1.5, 2.0, 5.0):
        fs = assemble_forms(profile_up, default_config, grid128, xi)
        for s in np.linspace(0.02, 2.0, 20):
            val, _ = alpha(fs, float(s))
            assert val <= s * C2 - C1 + 1e-12


def test_alpha_upper_bound_chain_half_width(profile_up, default_config, grid128):
    # halving the bump width changes the constants but preserves the bound
    band = (1.0, 10.0)
    Cn = upper_bound_constants(profile_up, default_config, grid128, band)
    Ch = upper_bound_constants(profile_up, default_config, grid128, band, width=0.25)
    assert Ch != Cn
    fs = assemble_forms(profile_up, default_config, grid128, 2.0)
    for (C1, C2) in (Cn, Ch):
        for s in np.linspace(0.02, 2.0, 20):
            val, _ = alpha(fs, float(s))
            assert val <= s * C2 - C1 + 1e-12


def test_alpha_lower_bound(profile_up, grid128):
    # alpha(s) >= -g sup|rho'/rho| - s C0 sup(1/rho)
    c = SlabConfig(mu=0.5, g=1.0, k0=1.0, k1=0.5, L=1.0)
    ys = np.linspace(0, 1, 4001)
    r1 = np.max(np.abs(profile_up.drho(ys)) / profile_up.rho(ys))
    r2 = np.max(1.0 / profile_up.rho(ys))
    C0 = c0_constant(c)
    fs = assemble_forms(profile_up, c, grid128, 2.0)
    for s in (0.05, 0.5, 2.0, 10.0):
        val, _ = alpha(fs, s)
        bound = -c.g * r1 - s * C0 * r2
        assert val >= bound - 1e-6 * (1.0 + abs(bound))


def test_frak_s_brackets_sign_change(profile_up, default_config, grid128):
    fs = assemble_forms(profile_up, default_config, grid128, 2.0)
    S = frak_S(fs)
    lo, _ = alpha(fs, S - 1e-6)
    hi, _ = alpha(fs, S + 1e-6)
    assert lo < 0.0 < hi


def test_alpha_strictly_increasing_below_frak_s(profile_up, default_config, grid128):
    fs = assemble_forms(profile_up, default_config, grid128, 2.0)
    S = frak_S(fs)
    svals = np.linspace(S / 21.0, S * 0.999, 20)
    avals = [alpha(fs, float(s))[0] for s in svals]
    assert all(a < b for a, b in zip(avals, avals[1:]))
    assert all(a < 0 for a in avals[:-1])


def test_alpha_sampled_lipschitz(profile_up, default_config, grid128):
    # |alpha(s1) - alpha(s2)| <= max G(psi_s) |s1 - s2| with the constant
    # evaluated at the sampled minimizers
    fs = assemble_forms(profile_up, default_config, grid128, 2.0)
    svals = np.linspace(0.05, 1.5, 12)
    avals, gvals = [], []
    for s in svals:
        val, v = alpha(fs, float(s))
        avals.append(val)
        gvals.append(v @ fs.Gm @ v)
    K_hat = max(gvals)
    for i in range(len(svals)):
        for j in range(i + 1, len(svals)):
            assert abs(avals[i] - avals[j]) <= K_hat * abs(svals[i] - svals[j]) * (1 + 1e-9)


def test_frak_s_degenerate_uniform_density(grid64):
    # rho = 1 with a positive-definite dissipation form: alpha > 0 always
    c = SlabConfig(mu=0.3, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(constant_profile(1.0), c, grid64, 1.5)
    assert frak_S(fs) == 0.0


def test_frak_s_reports_no_sign_change(grid64):
    # gravity so strong the energy stays negative through the search cap
    p = preset_profile("linear-up")
    c = SlabConfig(mu=1e-9, g=1e9, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(p, c, grid64, 2.0)
    with pytest.warns(NoSignChange):
        S = frak_S(fs, s_cap=10.0)
    assert S == np.inf


def test_compute_critical_numbers_aggregate(profile_up, grid128):
    c = SlabConfig(mu=0.5, g=1.0, k0=6.0, k1=6.0, L=1.0)
    nums = compute_critical_numbers(profile_up, c, grid128)
    assert nums.mu_c == pytest.approx(3.0)
    assert 0 < nums.xi_c <= np.sqrt(nums.C0 / (2 * c.mu))
    assert nums.band[0] == nums.xi_c
    assert nums.band[1] == pytest.approx(max(4 * nums.xi_c, 10.0))
    assert nums.C1 > 0 and nums.C2 > 0


def test_compute_critical_numbers_frak_at(profile_up, grid128):
    c = SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0)
    nums = compute_critical_numbers(profile_up, c, grid128, frak_at=2.0)
    fs = assemble_forms(profile_up, c, grid128, 2.0)
    assert nums.frakS == pytest.approx(frak_S(fs), abs=1e-10)


def test_compute_critical_numbers_stable_profile(profile_down, grid64):
    c = SlabConfig(mu=1.0, g=1.0, k0=-1.0, k1=-1.0, L=1.0)
    nums = compute_critical_numbers(profile_down, c, grid64)
    assert nums.mu_c == 0.0 and nums.xi_c == 0.0
    assert nums.band[0] == 0.0
    assert nums.C1 is None and nums.C2 is None


def test_bisect_expands_bracket_above_initial_hi():
    # below(1) and below(2) hold, so the bracket grows to [2, 4]; hi then
    # settles at 3 and 10 halvings reach a width 2**-9 <= 2**-10 * 3
    root, steps = _bisect(lambda s: s < 3.0, 0.0, 1.0, 2.0**-10, "test root")
    assert steps == 10
    assert abs(root - 3.0) <= 2.0**-10


def test_bisect_root_inside_initial_bracket():
    root, steps = _bisect(lambda s: s < 0.3, 0.0, 1.0, 1e-12, "test root")
    assert abs(root - 0.3) <= 1e-12
    assert steps == 40  # 2**-40 <= 1e-12 < 2**-39


def test_bisect_bracket_failure_names_the_root():
    with pytest.raises(ConvergenceFailure, match="could not bracket the test root"):
        _bisect(lambda s: True, 0.0, 1.0, 1e-10, "test root")


def test_bisect_step_cap_names_the_root():
    # a root at 0 with zero tolerance halves towards the subnormals, far
    # past the step cap
    with pytest.raises(ConvergenceFailure, match="test root bisection exceeded"):
        _bisect(lambda s: s < 0.0, 0.0, 1.0, 0.0, "test root")
