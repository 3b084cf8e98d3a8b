"""Independent continuum oracles: closed-form limits the whole pipeline
must reproduce, regardless of how the discrete solver is built."""

import numpy as np
import pytest
import scipy.linalg as sla

from slabrt import (
    SlabConfig,
    assemble_forms,
    build_grid,
    critical_frequency,
    critical_viscosity_closed_form,
    escape_time,
    growth_rate,
    preset_profile,
)
from slabrt.forms import curvature_matrix, slope_traces
from slabrt.variational import _rayleigh_fixed_point, _ReducedPencil


def inviscid_rate(g, beta, xi, mode=1):
    """Exponential stratification rho = e^{beta y} with impermeable walls:
    separation psi = e^{-beta y / 2} sin(n pi y) gives the classical rate
    lam^2 = g beta xi^2 / (n^2 pi^2 + beta^2 / 4 + xi^2)."""
    return np.sqrt(g * beta * xi**2 / (mode**2 * np.pi**2 + beta**2 / 4.0 + xi**2))


def test_vanishing_viscosity_approaches_inviscid_rate(grid128, profile_exp):
    lam_exact = inviscid_rate(1.0, 1.0, 2.0)
    c = SlabConfig(mu=1e-5, g=1.0, k0=0.0, k1=0.0, L=1.0)
    ms = growth_rate(profile_exp, c, grid128, 2.0)
    assert ms is not None
    assert abs(ms.lam - lam_exact) / lam_exact <= 5e-3
    assert ms.lam < lam_exact  # viscosity can only slow the growth


def test_rate_decreases_with_viscosity(grid128, profile_exp):
    lams = []
    for mu in (1e-5, 1e-3, 1e-1):
        c = SlabConfig(mu=mu, g=1.0, k0=0.0, k1=0.0, L=1.0)
        lams.append(growth_rate(profile_exp, c, grid128, 2.0).lam)
    assert lams[0] > lams[1] > lams[2]


def test_inviscid_rate_increases_with_frequency_then_saturates(grid128, profile_exp):
    # the closed form is monotone in xi with limit sqrt(g beta); the nearly
    # inviscid solver should track that ordering
    c = SlabConfig(mu=1e-5, g=1.0, k0=0.0, k1=0.0, L=1.0)
    lams = [growth_rate(profile_exp, c, grid128, xi).lam for xi in (1.0, 2.0, 4.0)]
    exact = [inviscid_rate(1.0, 1.0, xi) for xi in (1.0, 2.0, 4.0)]
    assert lams == sorted(lams)
    for lam, ex in zip(lams, exact):
        assert abs(lam - ex) / ex <= 5e-3
    assert lams[-1] < 1.0  # sqrt(g beta) ceiling


def test_no_slip_limit(grid64, profile_up):
    # psi' = 0 at both walls (Jiang, Jiang & Ni's Dirichlet case) is the
    # k -> -inf limit of the slip walls: restricting the forms to the null
    # space of the slope traces gives lam_D, and lam(k) falls to it
    # monotonically from above, with (lam - lam_D) |k| -> 0.009778
    fs = assemble_forms(profile_up, SlabConfig(mu=0.01), grid64, 2.0)
    N = sla.null_space(np.vstack(slope_traces(grid64)))
    red = _ReducedPencil(*(N.T @ A @ N for A in (fs.Jm, fs.Gm, fs.E2m)))
    lam_d, _ = _rayleigh_fixed_point(red.rayleigh_coefficients, "no-slip rate")
    assert lam_d == pytest.approx(0.30067626457, abs=1e-9)
    ks = (10.0, 1.0, 0.0, -1.0, -10.0, -100.0, -1e3, -1e4)
    lams = [growth_rate(profile_up, SlabConfig(mu=0.01, k0=k, k1=k), grid64, 2.0).lam
            for k in ks]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert lams[-1] > lam_d
    for k, lam in zip(ks[-3:], lams[-3:]):
        assert (lam - lam_d) * abs(k) == pytest.approx(0.009778, rel=0.01)


def test_boundary_quotient_never_exceeds_closed_form(grid64, rng):
    # random trial shapes cannot beat the claimed supremum
    K2 = curvature_matrix(grid64)
    t0, t1 = slope_traces(grid64)
    for _ in range(10):
        k0, k1 = rng.uniform(-3, 6, size=2)
        mu_c = critical_viscosity_closed_form(SlabConfig(mu=1.0, k0=k0, k1=k1))
        for _ in range(50):
            v = rng.standard_normal(grid64.n - 2)
            quotient = (k1 * (t1 @ v) ** 2 + k0 * (t0 @ v) ** 2) / (v @ K2 @ v)
            assert quotient <= mu_c + 1e-9


def test_critical_frequency_is_sharp(grid128, profile_up):
    # just above xi_c the dissipation form is positive definite; just below
    # it has a negative direction
    c = SlabConfig(mu=0.5, g=1.0, k0=6.0, k1=6.0, L=1.0)
    xi_c = critical_frequency(c, grid128)
    above = assemble_forms(profile_up, c, grid128, 1.01 * xi_c)
    np.linalg.cholesky(above.Gm)
    below = assemble_forms(profile_up, c, grid128, 0.99 * xi_c)
    ev = sla.eigh(below.Gm, below.Jm, eigvals_only=True, subset_by_index=[0, 0])
    assert ev[0] < 0.0


def test_sharp_layer_grid_convergence():
    # thin tanh layer: the rate still converges under refinement
    p = preset_profile("tanh-layer", y_c=0.5, w=0.03)
    c = SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0)
    lam128 = growth_rate(p, c, build_grid(128), 2.0).lam
    lam256 = growth_rate(p, c, build_grid(256), 2.0).lam
    assert abs(lam128 - lam256) / lam256 <= 1e-5


def test_escape_time_monotonicity():
    # smaller initial size or faster growth means a later / earlier escape
    base = escape_time(1.0, 1.0, 1.0, 0.01, "A")
    assert escape_time(1.0, 1.0, 1.0, 0.001, "A") > base
    assert escape_time(2.0, 1.0, 1.0, 0.01, "A") < base
    assert escape_time(1.0, 2.0, 1.0, 0.01, "A") > base


def test_headerless_profile_csv(tmp_path):
    from slabrt import profile_from_csv, validate_profile

    y = np.linspace(0, 1, 14)
    path = tmp_path / "plain.csv"
    path.write_text("\n".join(f"{a},{1 + a}" for a in y) + "\n")
    p = profile_from_csv(path)
    assert validate_profile(p).rt_condition
