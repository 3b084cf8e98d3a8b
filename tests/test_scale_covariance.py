"""Scale covariance of the rates.

Rescaling time or density by a power of two is exact in floating point, so
every rate must follow it to roundoff:
- time, t = 2^e: (mu, g, k0, k1) -> (mu / t, g / t^2, k0 / t, k1 / t) sends
  each rate lam to lam / t;
- density, c = 2^e: (rho, rho', mu, k0, k1) -> c (rho, rho', mu, k0, k1)
  leaves each rate unchanged.
The exponents reach 2^460, where the pencil's entries pass 1e138 or fall
below 1e-138 and LAPACK starts scaling by factors that are not powers of two.
"""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from slabrt import (
    DensityProfile,
    SlabConfig,
    assemble_forms,
    build_grid,
    companion_oracle,
    fit_growth_rate,
    growth_rate,
    mode_initial_state,
    preset_profile,
    simulate,
)
from slabrt.cli import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RATE_TOL = 1e-12
GEEV_TOL = 1e-12
# dsyevr rescales a matrix near the ends of the float range by a factor that
# is not a power of two (1.9e-12 measured at |e| >= 300), and the error grows
# with |H| ~ n^4 (2.9e-11 measured at n = 64)
SYMMETRIC_TOL = 5e-12
SYMMETRIC_TOL_64 = 5e-11

# name -> (profile, slab, n, frequencies, the oracle's tolerance on its path)
PHYSICS = {
    "linear-up": (preset_profile("linear-up"), SlabConfig(mu=0.01), 32, (1.0, 2.0, 6.0),
                  SYMMETRIC_TOL),
    # above the coarse grid's 32 nodes, so the fixed point starts from its mode
    "linear-up-64": (preset_profile("linear-up"), SlabConfig(mu=0.01), 64, (1.0, 2.0, 6.0),
                     SYMMETRIC_TOL_64),
    "stable": (preset_profile("linear-down"), load_config(str(CONFIGS / "stable.ini")).slab(),
               32, (2.0,), GEEV_TOL),
    "slip-tanh": (preset_profile("tanh-layer"), SlabConfig(mu=0.02, k0=0.5, k1=1.0), 48,
                  (1.0, 4.0), SYMMETRIC_TOL),
    "indefinite": (preset_profile("linear-down"), SlabConfig(mu=0.5, k0=6.0, k1=6.0), 32,
                   (2.0, 5.0), GEEV_TOL),
}
SCALINGS = ([("time", s * e) for e in (1, 7, 150, 300, 460) for s in (1, -1)]
            + [("density", s * e) for e in (3, 100) for s in (1, -1)])


def _scaled(p: DensityProfile, c: SlabConfig, kind: str, e: int):
    """(p, c) rescaled, and the s with which its rates scale to lam 2^-s."""
    if kind == "time":
        return p, replace(c, mu=math.ldexp(c.mu, -e), g=math.ldexp(c.g, -2 * e),
                          k0=math.ldexp(c.k0, -e), k1=math.ldexp(c.k1, -e)), e
    k = math.ldexp(1.0, e)
    return (DensityProfile(lambda y: k * p.rho(y), lambda y: k * p.drho(y)),
            replace(c, mu=k * c.mu, k0=k * c.k0, k1=k * c.k1), 0)


def _rates(p, c, grid, xi):
    """growth_rate's and companion_oracle's rates at xi, None where nothing grows."""
    ms = growth_rate(p, c, grid, xi)
    oracle = companion_oracle(ms.forms if ms else assemble_forms(p, c, grid, xi))
    return (None if ms is None else ms.lam), (None if oracle is None else oracle[0])


@pytest.fixture(scope="module")
def grids():
    return {n: build_grid(n) for n in (32, 48, 64)}


@pytest.fixture(scope="module")
def unscaled(grids):
    return {(name, xi): _rates(p, c, grids[n], xi)
            for name, (p, c, n, xis, _) in PHYSICS.items() for xi in xis}


@pytest.mark.parametrize("kind, e", SCALINGS, ids=[f"{k}-2^{e}" for k, e in SCALINGS])
def test_rates_follow_power_of_two_scaling(grids, unscaled, kind, e):
    for name, (p, c, n, xis, oracle_tol) in PHYSICS.items():
        ps, cs, shift = _scaled(p, c, kind, e)
        for xi in xis:
            got = _rates(ps, cs, grids[n], xi)
            for what, lam, lam_s, tol in zip(("growth_rate", "companion_oracle"),
                                             unscaled[name, xi], got, (RATE_TOL, oracle_tol)):
                where = f"{what}, {name} at xi = {xi:g}"
                if lam is None:
                    assert lam_s is None, where
                else:
                    assert math.ldexp(lam_s, shift) == pytest.approx(lam, rel=tol, abs=0), where
    assert unscaled["stable", 2.0] == (None, None)


def _fitted_rate(p, c, grid, dt):
    ms = growth_rate(p, c, grid, 2.0)
    w0, sigma0 = mode_initial_state(ms)
    return fit_growth_rate(simulate(c, ms.forms, w0, sigma0, dt, 400 * dt).rows)


@pytest.fixture(scope="module")
def unscaled_fit(grids):
    p, c = PHYSICS["linear-up"][:2]
    dt = 1e-2 / growth_rate(p, c, grids[32], 2.0).lam
    return dt, _fitted_rate(p, c, grids[32], dt)


@pytest.mark.parametrize("kind, e", SCALINGS, ids=[f"{k}-2^{e}" for k, e in SCALINGS])
def test_crank_nicolson_fit_follows_power_of_two_scaling(grids, unscaled_fit, kind, e):
    # dt follows the time unit exactly: one ulp of dt moves the fit by 5e-13,
    # the rounding noise of the Crank-Nicolson solve
    ps, cs, shift = _scaled(*PHYSICS["linear-up"][:2], kind, e)
    dt, lam = unscaled_fit
    lam_s = _fitted_rate(ps, cs, grids[32], math.ldexp(dt, shift))
    assert math.ldexp(lam_s, shift) == pytest.approx(lam, rel=RATE_TOL, abs=0)
