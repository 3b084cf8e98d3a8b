import ast
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import slabrt.forms
import slabrt.variational
from slabrt import (
    DensityProfile,
    SlabConfig,
    alpha,
    assemble_forms,
    build_grid,
    c0_constant,
    compute_critical_numbers,
    constant_profile,
    critical_frequency,
    critical_viscosity_closed_form,
    critical_viscosity_numerical,
    frak_S,
    growth_rate,
    preset_profile,
    upper_bound_constants,
)
from slabrt.errors import (
    ConvergenceFailure,
    EigensolveFailure,
    NoRTPoint,
    NoSignChange,
    ZeroFrequency,
)
from slabrt.forms import curvature_matrix, gradient_matrix, mass_matrix, slope_traces
from slabrt.grid import _coarse_grid
from slabrt.variational import (
    _bump_center,
    _critical_point,
    _rayleigh_fixed_point,
    _rayleigh_root,
    _ReducedPencil,
    _unit,
    bump_values,
    pencil_extreme,
)


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


def test_critical_viscosity_closed_form_at_huge_slip():
    # k0^2 + k1^2 - k0 k1 would be inf - inf = NaN, which the clamp read as 0
    assert critical_viscosity_closed_form(SlabConfig(mu=1, k0=1e200, k1=1e200)) == (
        pytest.approx(5e199, rel=1e-15))


@pytest.mark.parametrize("e", [600, -600])
def test_critical_viscosity_closed_form_follows_power_of_two_scaling(e):
    # mu_c is homogeneous of degree 1 in (k0, k1), and scaling by 2^e is exact
    for k0, k1 in [(0.5, 1.0), (6.0, 6.0), (-1.0, -0.5)]:
        scaled = SlabConfig(mu=1, k0=np.ldexp(k0, e), k1=np.ldexp(k1, e))
        assert critical_viscosity_closed_form(scaled) == np.ldexp(
            critical_viscosity_closed_form(SlabConfig(mu=1, k0=k0, k1=k1)), e), (k0, k1)


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


def _h(c, grid, t):
    """Largest eigenvalue of (-E0) v = theta mu (2 K1 + t M) v, with E0
    spelled out here rather than taken from the solver."""
    t0v, t1v = slope_traces(grid)
    negE0 = -(c.mu * curvature_matrix(grid)
              - c.k1 * np.outer(t1v, t1v) - c.k0 * np.outer(t0v, t0v))
    negE0 = 0.5 * (negE0 + negE0.T)
    B = c.mu * (2.0 * gradient_matrix(grid) + t * mass_matrix(grid))
    return pencil_extreme(negE0, B)[0]


def test_critical_frequency_fixed_point(grid128):
    c = SlabConfig(mu=0.5, g=1.0, k0=6.0, k1=6.0, L=1.0)
    xi_c = critical_frequency(c, grid128)
    assert xi_c > 0.0
    # self-consistency: h(xi_c^2) = xi_c^2
    t = xi_c * xi_c
    h = _h(c, grid128, t)
    assert abs(h - t) <= 1e-8
    # bound from the dissipation chain
    assert xi_c <= np.sqrt(c0_constant(c) / (2.0 * c.mu))


@pytest.mark.parametrize("n", [64, 128, 192])
@pytest.mark.parametrize("mu,k0,k1", [(0.02, 0.5, 1.0), (0.1, -1.0, 3.0)])
def test_critical_frequency_iteration(mu, k0, k1, n, monkeypatch):
    # the Rayleigh-functional iteration rises from its start, the coarse
    # grid's maximizer, to the fixed point in a few pencil solves, with a
    # residual no worse than roundoff allows
    solves, ts = [], []

    def counted(A, B):
        solves.append(B.shape[0])
        return pencil_extreme(A, B)

    def recorded(coefficients, what, t0=0.0):
        return _rayleigh_fixed_point(lambda t: ts.append(t) or coefficients(t), what, t0)

    monkeypatch.setattr("slabrt.variational.pencil_extreme", counted)
    monkeypatch.setattr("slabrt.variational._rayleigh_fixed_point", recorded)
    c = SlabConfig(mu=mu, g=1.0, k0=k0, k1=k1, L=1.0)
    grid = build_grid(n)
    t = critical_frequency(c, grid) ** 2
    assert abs(_h(c, grid, t) - t) / t <= 1e-9
    # the coarse grid's solves come first, from 0, then the fine grid's
    fine = [t for t, m in zip(ts, solves) if m == n - 2]
    assert solves.count(n - 2) <= 4 and len(solves) <= 12
    assert ts[0] == 0.0 and fine[0] > 0.0 and fine == sorted(fine)
    assert fine[-1] <= t * (1.0 + 1e-9)


CRITICAL_CONFIGS = [(0.02, 0.5, 1.0), (0.1, -1.0, 3.0), (0.5, 6.0, 6.0)]


def _critical_from_zero(c, grid, monkeypatch):
    """critical_frequency with its fixed point started at 0: no grid exceeds the coarse size."""
    with monkeypatch.context() as m:
        m.setattr(slabrt.variational, "_COARSE_NODES", 2**31)
        return critical_frequency(c, grid)


@pytest.mark.parametrize("n", [64, 128, 192, 256])
@pytest.mark.parametrize("mu,k0,k1", CRITICAL_CONFIGS)
def test_critical_frequency_coarse_start(mu, k0, k1, n, monkeypatch):
    # mu < mu_c: every vector's Rayleigh root lies at or below xi_c^2, so the
    # start from the coarse grid's maximizer reaches the fixed point that the
    # start at 0 reaches, in no more solves of the fine pencil
    c = SlabConfig(mu=mu, g=1.0, k0=k0, k1=k1, L=1.0)
    grid = build_grid(n)
    solves = []
    extreme = slabrt.variational.pencil_extreme
    monkeypatch.setattr(slabrt.variational, "pencil_extreme",
                        lambda A, B: solves.append(B.shape[0]) or extreme(A, B))
    t = critical_frequency(c, grid) ** 2
    started = solves.count(n - 2)
    t0 = _critical_from_zero(c, grid, monkeypatch) ** 2
    from_zero = solves.count(n - 2) - started
    if k0 != 6.0:  # k = 6 reads 1.1e-9 here at n = 256, and 7.4e-10 from the start at 0
        assert abs(_h(c, grid, t) - t) / t <= 1e-9
    assert abs(t - t0) <= 1e-9 * t0
    assert started <= from_zero


@pytest.mark.parametrize("fallback", ["coarse-raises", "coarse-h0-nonpositive",
                                      "start-above-root"])
def test_critical_frequency_coarse_start_falls_back(monkeypatch, fallback):
    # a failed coarse start gives the value started at 0, bit for bit
    c = SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0)
    grid = build_grid(64)
    ref = _critical_from_zero(c, grid, monkeypatch)
    extreme = slabrt.variational.pencil_extreme
    if fallback == "start-above-root":  # a start 1e-3 above the coarse vector's root
        monkeypatch.setattr(slabrt.variational, "_COARSE_SHIFT", -1e-3)
    else:
        def coarse_fails(A, B):
            if B.shape[0] != _coarse_grid().n - 2:
                return extreme(A, B)
            if fallback == "coarse-raises":
                raise EigensolveFailure("coarse")
            return _ReducedPencil(B, A).pair()  # the smallest pair: h(0) < 0

        monkeypatch.setattr(slabrt.variational, "pencil_extreme", coarse_fails)
        if fallback == "coarse-h0-nonpositive":
            assert _critical_point(c, _coarse_grid()) == (None, None)
    assert critical_frequency(c, grid) == ref


def test_critical_frequency_just_below_mu_c(grid32):
    # xi_c -> 0 as mu -> mu_c, and the relative stop test still takes the
    # fixed point there: xi_c^2 falls linearly with mu_c - mu
    c = SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0)
    mu_c = critical_viscosity_closed_form(c)
    slopes = [critical_frequency(replace(c, mu=mu_c * (1.0 - d)), grid32) ** 2 / (mu_c * d)
              for d in (1e-4, 1e-6)]
    assert slopes[1] == pytest.approx(slopes[0], rel=1e-3)
    assert slopes[0] == pytest.approx(16.08, rel=1e-3)


def test_critical_numbers_and_rates_build_each_unweighted_gram_once(monkeypatch):
    # the crosscheck physics: critical_frequency reads E0, K1 and M from the
    # cache the rates use, so K2, K1 and M are built once each; the builders
    # are counted in every slabrt module that binds them
    builds = []
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "slabrt"]
    for name in ("curvature_matrix", "gradient_matrix", "mass_matrix"):
        build = getattr(slabrt.forms, name)

        def counted(g, *weight, name=name, build=build):
            if not weight:
                builds.append(name)
            return build(g, *weight)

        for mod in modules:
            if getattr(mod, name, None) is build:
                monkeypatch.setattr(mod, name, counted)
    slabrt.forms._grams.cache_clear()
    slabrt.forms._slab_grams.cache_clear()
    p = preset_profile("tanh-layer", y_c=0.5, w=0.05)
    c = SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0)
    grid = build_grid(192)
    assert compute_critical_numbers(p, c, grid).xi_c > 0.0
    for xi in (1.0, 2.0, 4.0, 8.0):
        assert growth_rate(p, c, grid, xi) is not None
    assert sorted(builds) == sorted(["curvature_matrix", "gradient_matrix", "mass_matrix"] * 2)


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


def test_alpha_upper_bound_chain_halved_bump(grid128):
    # a thin heavy-over-light bump on a stably falling density: the full
    # bump width sees mostly rho' < 0 and must be halved to fit the bump
    def rho(y):
        y = np.asarray(y, dtype=float)
        return 2.0 - y + 0.05 * np.exp(-((y - 0.5) / 0.02) ** 2)

    def drho(y):
        u = (np.asarray(y, dtype=float) - 0.5) / 0.02
        return -1.0 - 5.0 * u * np.exp(-u * u)

    p = DensityProfile(rho, drho)
    c = SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0)
    band = (1.0, 10.0)
    C1, C2 = upper_bound_constants(p, c, grid128, band)
    # the full-width bump has no positive gravity quotient
    y0 = _bump_center(p)
    v = bump_values(grid128.nodes, y0, min(y0, 1.0 - y0))[1:-1]
    assert v @ assemble_forms(p, c, grid128, band[0]).E2m @ v <= 0.0
    assert C1 > 0.0
    for xi in (1.5, 2.0, 5.0):
        fs = assemble_forms(p, c, grid128, xi)
        for s in np.linspace(0.02, 2.0, 20):
            val, _ = alpha(fs, float(s))
            assert val <= s * C2 - C1 + 1e-12


def test_upper_bound_constants_reject_zero_band_edge(profile_up, default_config, grid64):
    # the forms are assembled at both edges, and xi = 0 has none
    with pytest.raises(ZeroFrequency):
        upper_bound_constants(profile_up, default_config, grid64, (0.0, 10.0))


def test_upper_bound_constants_without_gravity(profile_up, grid64):
    # g = 0 zeroes every gravity quotient, so no halving ever succeeds
    c = SlabConfig(mu=0.01, g=0.0, k0=0.0, k1=0.0, L=1.0)
    with pytest.raises(NoRTPoint, match="no bump width"):
        upper_bound_constants(profile_up, c, grid64, (1.0, 10.0))
    nums = compute_critical_numbers(profile_up, c, grid64)
    assert nums.C1 is None and nums.C2 is None


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


@pytest.mark.parametrize("preset,c,xi", [
    ("linear-up", SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0), 2.0),
    ("tanh-layer", SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0), 30.0),
])
def test_frak_s_is_sharp(preset, c, xi, grid128):
    fs = assemble_forms(preset_profile(preset), c, grid128, xi)
    S = frak_S(fs)
    assert alpha(fs, S * (1.0 - 1e-9))[0] < 0.0 < alpha(fs, S * (1.0 + 1e-9))[0]


def test_frak_s_infinite_below_xi_c(grid64):
    # slip walls below xi_c: Gm is indefinite, so alpha(s) -> -inf
    c = SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0)
    fs = assemble_forms(preset_profile("tanh-layer"), c, grid64, 2.0)
    assert np.linalg.eigvalsh(fs.Gm)[0] < 0.0
    with pytest.warns(NoSignChange, match="not positive definite"):
        S = frak_S(fs)
    assert S == np.inf


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


def test_frak_s_zero_for_stable_profile(profile_down, grid64):
    # rho' < 0: -E2m is positive definite, so alpha(s) > 0 for every s >= 0
    c = SlabConfig(mu=0.3, g=1.0, k0=0.0, k1=0.0, L=1.0)
    assert frak_S(assemble_forms(profile_down, c, grid64, 1.5)) == 0.0


def test_frak_s_finite_for_strong_gravity(grid64):
    # Gm is positive definite, so even a huge threshold is finite and
    # returned without a NoSignChange warning
    p = preset_profile("linear-up")
    c = SlabConfig(mu=1e-9, g=1e9, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(p, c, grid64, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NoSignChange)
        S = frak_S(fs)
    assert S == pytest.approx(2.0794e16, rel=1e-4)


def test_compute_critical_numbers_aggregate(profile_up, grid128):
    c = SlabConfig(mu=0.5, g=1.0, k0=6.0, k1=6.0, L=1.0)
    nums = compute_critical_numbers(profile_up, c, grid128)
    assert nums.mu_c == pytest.approx(3.0)
    assert 0 < nums.xi_c <= np.sqrt(nums.C0 / (2 * c.mu))
    assert nums.band[0] == nums.xi_c
    assert nums.band[1] == pytest.approx(max(4 * nums.xi_c, 10.0))
    assert nums.C1 > 0 and nums.C2 > 0


def test_compute_critical_numbers_stable_profile(profile_down, grid64):
    c = SlabConfig(mu=1.0, g=1.0, k0=-1.0, k1=-1.0, L=1.0)
    nums = compute_critical_numbers(profile_down, c, grid64)
    assert nums.mu_c == 0.0 and nums.xi_c == 0.0
    assert nums.band[0] == 0.0
    assert nums.C1 is None and nums.C2 is None


@pytest.mark.parametrize("a,b,e", [(1.0, -3.0, 2.0), (2.0, -1e8, 1e-3), (1.0, 0.0, 4.0),
                                   (1.0, 3.0, 2.0), (0.5, 1e8, 1e-3), (3.0, 2.0, -0.25)])
def test_rayleigh_root_matches_np_roots(a, b, e):
    # b < 0 and b >= 0 take different formulas; |b| >> a e is where the
    # textbook formula cancels
    ref = max(np.roots([a, b, -e]).real)
    assert _rayleigh_root(a, b, e) == pytest.approx(ref, rel=1e-12)


def test_rayleigh_root_none_without_real_root():
    assert _rayleigh_root(1.0, 1.0, -1.0) is None


def test_rayleigh_fixed_point_diagonal_pencil(monkeypatch):
    # alpha(s) = min(4 s - 6, -s/2 - 3) with an indefinite first-order term:
    # the minimizer switches after the first step, and the fixed point is
    # the root of s^2 - s/2 - 3, i.e. s = 2
    roots = []

    def record(a, b, e):
        roots.append(_rayleigh_root(a, b, e))
        return roots[-1]

    monkeypatch.setattr("slabrt.variational._rayleigh_root", record)
    red = _ReducedPencil(np.eye(2), np.diag([4.0, -0.5]), np.diag([6.0, 3.0]))
    root, steps, _ = _rayleigh_fixed_point(red.rayleigh_coefficients, "test root")
    assert root == pytest.approx(2.0, rel=1e-15)
    assert steps == 3
    assert roots[0] == pytest.approx(np.sqrt(10.0) - 2.0, rel=1e-15)
    assert roots == sorted(roots)


def test_reduction_names_a_failed_triangular_inverse(monkeypatch):
    # trtri reports an exactly zero diagonal entry of L through info > 0
    monkeypatch.setattr(sla, "get_lapack_funcs", lambda names, arrays: lambda L, lower: (L, 2))
    with pytest.raises(EigensolveFailure,
                       match=r"^pencil eigensolve: trtri info = 2$"):
        _ReducedPencil(np.eye(2), np.eye(2))


def test_lapack_failures_are_converted_in_one_place():
    # only variational._lapack reaches raw LAPACK routines or names
    # LinAlgError, and the two eigen-paths hold no try block of their own
    src = Path(__file__).resolve().parent.parent / "src" / "slabrt"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_lapack":
                assert path.name == "variational.py"
                allowed = {id(n) for n in ast.walk(node)}
            if isinstance(node, ast.FunctionDef) and node.name in ("growth_rate",
                                                                   "companion_oracle"):
                assert not any(isinstance(n, ast.Try) for n in ast.walk(node)), node.name
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or (
                node.name if isinstance(node, ast.alias) else None)
            if name in ("get_lapack_funcs", "LinAlgError"):
                assert id(node) in allowed, f"{path.name}:{node.lineno} names {name}"


def test_variational_builds_no_slab_form():
    # forms._slab_grams alone composes E0 and builds K1 and M for critical_frequency
    path = Path(__file__).resolve().parent.parent / "src" / "slabrt" / "variational.py"
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
             for n in ast.walk(ast.parse(path.read_text()))}
    assert not names & {"_dissipation_matrix", "gradient_matrix", "mass_matrix"}


def test_unit_vectors_and_congruences_have_one_home():
    # variational._unit normalizes and signs every eigenvector, forms._sym
    # symmetrizes every reduced matrix
    src = Path(__file__).resolve().parent.parent / "src" / "slabrt"
    for path in sorted(src.glob("*.py")):
        names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
                 for n in ast.walk(ast.parse(path.read_text()))}
        assert not names & {"_fix_sign", "_congruence"}, path.name


def test_unit_scales_to_the_b_norm_and_signs_by_the_largest_entry():
    B = np.diag([1.0, 4.0])
    assert np.array_equal(_unit(np.array([1.0, -2.0]), B), np.array([-1.0, 2.0]) / np.sqrt(17.0))
    assert np.array_equal(_unit(np.array([-3.0, 0.0]), B), np.array([1.0, 0.0]))


def test_rayleigh_fixed_point_rejects_nonnegative_alpha0():
    red = _ReducedPencil(np.eye(2), np.diag([1.0, 2.0]), np.diag([-1.0, 0.0]))
    assert _rayleigh_fixed_point(red.rayleigh_coefficients, "test root")[:2] == (None, 1)


def test_rayleigh_fixed_point_from_a_later_start():
    # alpha(s) = min(1 - 4 s, s): F(0) = 0 rejects the start t = 0, yet
    # F(2) = -3 < 0 and the root above it is 2 + sqrt(3); F(4) = 1 >= 0
    # rejects that start as it rejects t = 0
    red = _ReducedPencil(np.eye(2), np.diag([-4.0, 1.0]), np.diag([-1.0, 0.0]))
    assert _rayleigh_fixed_point(red.rayleigh_coefficients, "test root")[:2] == (None, 1)
    root, _, _ = _rayleigh_fixed_point(red.rayleigh_coefficients, "test root", 2.0)
    assert root == pytest.approx(2.0 + np.sqrt(3.0), rel=1e-15)
    assert _rayleigh_fixed_point(red.rayleigh_coefficients, "test root", 4.0)[:2] == (None, 1)


@pytest.mark.parametrize("b", [1e200, -1e200])
def test_rayleigh_fixed_point_rejects_an_overflowing_root(b):
    # b * b overflows, so the root comes out 0 (b > 0) or inf (b < 0); at
    # the start t = 0 either would read as convergence to a zero rate
    with pytest.raises(ConvergenceFailure,
                       match=r"^test root: the Rayleigh root over- or underflows to (0|inf)$"):
        _rayleigh_fixed_point(lambda t: ((1.0, b, 1.0), None), "test root")


def test_rayleigh_fixed_point_returns_the_solve_at_the_root():
    # the eigensolve the iteration stopped at is the one at the root, so its
    # eigenvalue is alpha(root) = -root^2
    red = _ReducedPencil(np.eye(2), np.diag([4.0, -0.5]), np.diag([6.0, 3.0]))
    root, _, (theta, _) = _rayleigh_fixed_point(red.rayleigh_coefficients, "test root")
    assert abs(theta + root * root) <= 1e-12 * max(1.0, root * root)


@pytest.mark.parametrize("t0", [0.0, 4.0])
def test_rayleigh_fixed_point_returns_the_solve_at_a_rejected_start(t0):
    # a rejected start returns its one solve, at t0, where F(t0) = t0^2 + theta >= 0
    red = _ReducedPencil(np.eye(2), np.diag([-4.0, 1.0]), np.diag([-1.0, 0.0]))
    root, steps, (theta, _) = _rayleigh_fixed_point(red.rayleigh_coefficients, "test root", t0)
    assert (root, steps) == (None, 1)
    assert t0 * t0 + theta >= 0.0
    assert theta == red.rayleigh_coefficients(t0)[1][0]


def test_fixed_point_solves_leave_no_state_behind():
    # the Rayleigh fixed point returns its last eigensolve: no method of
    # _ReducedPencil but __init__ assigns to self, and _critical_point keeps
    # no mutable cell for its coefficients to fill
    path = Path(__file__).resolve().parent.parent / "src" / "slabrt" / "variational.py"
    tree = ast.parse(path.read_text())
    cls, = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_ReducedPencil")
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef) and fn.name != "__init__":
            for n in ast.walk(fn):
                assert not (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                            and getattr(n.value, "id", None) == "self"), (fn.name, n.lineno)
    fn, = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_critical_point")
    assert not any(isinstance(n, (ast.List, ast.Dict, ast.Set, ast.Nonlocal, ast.Global))
                   for n in ast.walk(fn))
