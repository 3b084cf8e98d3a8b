import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from slabrt import (
    DensityProfile,
    SlabConfig,
    assemble_forms,
    build_grid,
    c0_constant,
    constant_profile,
    critical_frequency,
    critical_viscosity_closed_form,
    preset_profile,
)
from slabrt.errors import ZeroFrequency
from slabrt.forms import (
    FormSet,
    _grams,
    _slab_grams,
    curvature_matrix,
    gradient_matrix,
    mass_matrix,
    slope_traces,
)


def interior_parabola(g):
    """psi = y (1 - y): the standard polynomial test shape."""
    psi = g.nodes * (1.0 - g.nodes)
    return psi[1:-1]


def test_zero_frequency_rejected(profile_up, default_config, grid64):
    with pytest.raises(ZeroFrequency):
        assemble_forms(profile_up, default_config, grid64, 0.0)


def test_formset_holds_only_the_pencil():
    assert [f.name for f in fields(FormSet)] == ["xi", "E2m", "Gm", "Jm", "grid",
                                                 "rho_nodes", "drho_nodes"]


def test_forms_match_grams_when_interleaved():
    # two profiles on two distinct grids of equal size and two slabs on each
    # (profile, grid), visited in turn, each triple assembled twice in a row (a
    # cache miss, then a hit): every form must equal its expression in freshly
    # built Gram matrices, bit for bit, so a dissipation form cached for the
    # other slab fails
    slabs = (SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0),
             SlabConfig(mu=0.5, g=2.5, k0=-1.0, k1=3.0, L=1.0))
    profiles = (preset_profile("linear-up"), preset_profile("tanh-layer"))
    grids = (build_grid(32), build_grid(32))
    for xi in (1.0, 2.5):
        xi2 = xi * xi
        for p in profiles:
            for g in grids:
                for c in slabs:
                    t0, t1 = slope_traces(g)
                    E0 = (c.mu * curvature_matrix(g)
                          - c.k1 * np.outer(t1, t1) - c.k0 * np.outer(t0, t0))
                    E1 = c.mu * (2.0 * gradient_matrix(g) + xi2 * mass_matrix(g))
                    J = gradient_matrix(g, p.rho) + xi2 * mass_matrix(g, p.rho)
                    for fs in (assemble_forms(p, c, g, xi), assemble_forms(p, c, g, -xi)):
                        assert np.array_equal(fs.Gm, E0 + xi2 * E1)
                        assert np.array_equal(fs.E2m, c.g * xi2 * mass_matrix(g, p.drho))
                        assert np.array_equal(fs.Jm, 0.5 * (J + J.T))


def test_node_density_sampled_once_per_profile_and_grid(default_config, grid64):
    base = preset_profile("linear-up")
    calls = []

    def rho(y):
        calls.append(y)
        return base.rho(y)

    p = DensityProfile(rho, base.drho)
    fs1 = assemble_forms(p, default_config, grid64, 1.0)
    seen = len(calls)
    fs2 = assemble_forms(p, default_config, grid64, 2.0)
    assert len(calls) == seen
    assert fs2.rho_nodes is fs1.rho_nodes and fs2.drho_nodes is fs1.drho_nodes
    assert not fs1.rho_nodes.flags.writeable and not fs1.drho_nodes.flags.writeable
    assert np.array_equal(fs1.rho_nodes, base.rho(grid64.nodes))
    assert np.array_equal(fs1.drho_nodes, base.drho(grid64.nodes))


def test_slab_grams_are_shared_by_every_profile(default_config, grid64):
    # E0, K1 and M depend on neither xi nor the profile: each profile's Grams
    # on one slab and grid hold the very arrays critical_frequency reads
    slab = _slab_grams(default_config, grid64)
    for name in ("linear-up", "exp"):
        held = _grams(preset_profile(name), default_config, grid64)
        assert all(a is b for a, b in zip(held, slab))
    assert not any(A.flags.writeable for A in slab)
    assert np.array_equal(slab[1], gradient_matrix(grid64))
    assert np.array_equal(slab[2], mass_matrix(grid64))


def test_e0_parabola(grid32):
    # psi'' = -2 so E0 = int 4 = 4 with free-slip walls
    c = SlabConfig(mu=1.0, g=1.0, k0=0.0, k1=0.0, L=1.0)
    E0 = _slab_grams(c, grid32)[0]
    v = interior_parabola(grid32)
    assert v @ E0 @ v == pytest.approx(4.0, abs=1e-10)


def test_j_parabola_uniform_density(grid32):
    # exact polynomial integrals: int psi^2 = 1/30, int psi'^2 = 1/3
    c = SlabConfig(mu=1.0, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(constant_profile(1.0), c, grid32, 1.0)
    v = interior_parabola(grid32)
    assert v @ fs.Jm @ v == pytest.approx(1.0 / 30.0 + 1.0 / 3.0, abs=1e-10)


def test_e2_parabola_linear_density(profile_up, grid32):
    # rho' = 1, g = 1, xi = 2: E2 = 4 int psi^2 = 4/30
    c = SlabConfig(mu=1.0, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(profile_up, c, grid32, 2.0)
    v = interior_parabola(grid32)
    assert v @ fs.E2m @ v == pytest.approx(4.0 / 30.0, abs=1e-10)


def test_e1_parabola(grid32):
    # E1 = mu int (2 psi'^2 + xi^2 psi^2) with mu = 2, xi = 3, read off
    # Gm = E0 + xi^2 E1 with E0 = mu int 4 = 8
    c = SlabConfig(mu=2.0, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(constant_profile(1.0), c, grid32, 3.0)
    v = interior_parabola(grid32)
    expect = 2.0 * (2.0 / 3.0 + 9.0 / 30.0)
    assert v @ fs.Gm @ v == pytest.approx(8.0 + 9.0 * expect, abs=1e-10)


def test_slip_terms_in_e0(grid32):
    # psi'(0) = 1, psi'(1) = -1 for the parabola
    c = SlabConfig(mu=1.0, g=1.0, k0=2.0, k1=3.0, L=1.0)
    v = interior_parabola(grid32)
    t0, t1 = slope_traces(grid32)
    assert t0 @ v == pytest.approx(1.0, abs=1e-11)
    assert t1 @ v == pytest.approx(-1.0, abs=1e-11)
    E0 = _slab_grams(c, grid32)[0]
    assert v @ E0 @ v == pytest.approx(4.0 - 3.0 * 1.0 - 2.0 * 1.0, abs=1e-10)
    # Gm carries the same wall terms: xi^2 E1 = 2/3 + 1/30 at mu = xi = 1
    fs = assemble_forms(constant_profile(1.0), c, grid32, 1.0)
    assert v @ fs.Gm @ v == pytest.approx(-1.0 + 2.0 / 3.0 + 1.0 / 30.0, abs=1e-10)


def test_matrices_symmetric(profile_exp, default_config, grid64):
    fs = assemble_forms(profile_exp, default_config, grid64, 1.7)
    E0 = _slab_grams(default_config, grid64)[0]
    E1 = default_config.mu * (2.0 * gradient_matrix(grid64) + 1.7**2 * mass_matrix(grid64))
    for A in (E0, E1, fs.E2m, fs.Gm, fs.Jm):
        assert np.array_equal(A, A.T)


def test_g_is_e0_plus_xi2_e1(profile_up, default_config, grid64):
    fs = assemble_forms(profile_up, default_config, grid64, 2.5)
    E0 = _slab_grams(default_config, grid64)[0]
    E1 = default_config.mu * (2.0 * gradient_matrix(grid64) + 2.5**2 * mass_matrix(grid64))
    assert np.array_equal(fs.Gm, E0 + 2.5**2 * E1)


@pytest.mark.parametrize("name", ["exp", "linear-up", "linear-down", "tanh-layer"])
def test_j_positive_definite(name, default_config, grid64):
    fs = assemble_forms(preset_profile(name), default_config, grid64, 1.3)
    np.linalg.cholesky(fs.Jm)  # raises if not PD


def test_g_positive_definite_above_critical_viscosity(grid64, profile_up):
    # mu >= mu_c makes the dissipation form nonnegative for every frequency
    for mu_factor in (1.0, 2.0):
        c = SlabConfig(mu=3.0 * mu_factor, g=1.0, k0=6.0, k1=6.0, L=1.0)
        assert c.mu >= critical_viscosity_closed_form(c)
        for xi in (0.3, 1.0, 4.0):
            fs = assemble_forms(profile_up, c, grid64, xi)
            np.linalg.cholesky(fs.Gm)


def test_g_positive_definite_above_critical_frequency(grid64, profile_up):
    c = SlabConfig(mu=0.5, g=1.0, k0=6.0, k1=6.0, L=1.0)
    assert c.mu < critical_viscosity_closed_form(c)
    xi_c = critical_frequency(c, grid64)
    fs = assemble_forms(profile_up, c, grid64, 1.01 * xi_c)
    np.linalg.cholesky(fs.Gm)


def test_form_values_converge_under_doubling(profile_exp, default_config):
    vals = {}
    for n in (64, 128):
        g = build_grid(n)
        fs = assemble_forms(profile_exp, default_config, g, 2.0)
        psi = np.sin(np.pi * g.nodes) * np.exp(-g.nodes)
        v = psi[1:-1]
        vals[n] = (v @ fs.Gm @ v, v @ fs.Jm @ v, v @ fs.E2m @ v)
    for a, b in zip(vals[64], vals[128]):
        assert abs(b - a) <= 1e-8 * abs(b)


def test_c0_constant_cases():
    assert c0_constant(SlabConfig(mu=1.0, k0=0.0, k1=0.0)) == 0.0
    assert c0_constant(SlabConfig(mu=1.0, k0=1.0, k1=1.0)) == pytest.approx(3.0)
    assert c0_constant(SlabConfig(mu=2.0, k0=1.0, k1=0.0)) == pytest.approx(1.5)


def test_c0_matches_direct_maximum(rng):
    # oracle: dense scan of the quadratic over y
    ys = np.linspace(0, 1, 20001)
    for _ in range(25):
        k0, k1 = rng.uniform(-5, 5, size=2)
        mu = rng.uniform(0.05, 4.0)
        c = SlabConfig(mu=mu, k0=k0, k1=k1)
        direct = np.max(np.abs(k0 + k1) + ((k0 + k1) * ys - k0) ** 2 / mu)
        assert c0_constant(c) == pytest.approx(direct, rel=1e-7)


def test_only_frozen_sets_the_writeable_flag():
    # forms._frozen makes every cached array read-only
    src = Path(__file__).resolve().parent.parent / "src" / "slabrt"
    where = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        frozen = {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and fn.name == "_frozen" for n in ast.walk(fn)}
        where += [(path.name, id(n) in frozen) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "writeable"
                  and isinstance(n.ctx, ast.Store)]
    assert where == [("forms.py", True)]
