"""Discrete quadratic forms for a fixed horizontal frequency.

All matrices act on interior node values: the essential conditions
psi(0) = psi(1) = 0 are imposed by deleting the endpoint degrees of freedom.
The slip boundary terms live inside the dissipation form via the endpoint
slope traces, so the remaining boundary conditions are natural and emerge
from minimization rather than being imposed.

Quadrature: integrands are resampled through the barycentric interpolation
matrix onto a doubled Clenshaw-Curtis rule, which integrates every
polynomial product appearing in the forms exactly.  Same-grid quadrature
aliases the highest modes and stalls the emergence of the natural boundary
conditions, which was measured to leave an O(0.1) defect in the strong-form
equation residual.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ZeroFrequency
from .grid import _COARSE_NODES, SpectralGrid
from .profiles import DensityProfile, SlabConfig


@dataclass(frozen=True, eq=False)
class FormSet:
    """Symmetric interior matrices of the quadratic pencil at frequency xi.

    For an interior vector v representing psi:
        v' E2m v = g xi^2 int rho' psi^2
        v' Gm  v = v' E0 v + xi^2 mu int (2 |psi'|^2 + xi^2 psi^2)
        v' Jm  v = int rho (xi^2 psi^2 + |psi'|^2)
    with E0 the xi-independent dissipation form of _slab_grams.
    slope_traces(grid) maps interior values to psi'(0) / psi'(1).
    The grid and rho, rho' at its nodes (read-only) serve diagnostics.
    """

    xi: float
    E2m: np.ndarray
    Gm: np.ndarray
    Jm: np.ndarray
    grid: SpectralGrid
    rho_nodes: np.ndarray
    drho_nodes: np.ndarray


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def _gram(grid: SpectralGrid, A: np.ndarray | None, weight=None) -> np.ndarray:
    """Interior Gram matrix of int weight(y) (A psi)(A phi) dy, A defaulting
    to the identity, evaluated on the grid's doubled rule."""
    FA = grid.resample if A is None else grid.resample @ A
    wq = grid.fine_w if weight is None else grid.fine_w * weight(grid.fine_nodes)
    return _sym((FA.T @ (wq[:, None] * FA))[1:-1, 1:-1])


def curvature_matrix(g: SpectralGrid) -> np.ndarray:
    """Interior matrix of int |psi''|^2 (D2 acts on the full grid first)."""
    return _gram(g, g.D2)


def gradient_matrix(g: SpectralGrid, weight=None) -> np.ndarray:
    """Interior matrix of int weight(y) |psi'|^2 (weight defaults to 1)."""
    return _gram(g, g.D1, weight)


def mass_matrix(g: SpectralGrid, weight=None) -> np.ndarray:
    """Interior matrix of int weight(y) psi^2."""
    return _gram(g, None, weight)


def slope_traces(g: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Row vectors producing psi'(0) and psi'(1) from interior values."""
    return g.D1[0, 1:-1].copy(), g.D1[-1, 1:-1].copy()


def wall_matrices(c: SlabConfig, g: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Interior matrices of the slip wall terms k0 |psi'(0)|^2 and k1 |psi'(1)|^2."""
    t0, t1 = slope_traces(g)
    return c.k0 * np.outer(t0, t0), c.k1 * np.outer(t1, t1)


def _frozen(*arrays: np.ndarray) -> tuple:
    """The arrays as a tuple, each made read-only in place."""
    for A in arrays:
        A.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=1)
def _slab_grams(c: SlabConfig, g: SpectralGrid) -> tuple:
    """Read-only forms of c on g that depend on neither xi nor the profile,
    kept for the latest pair (c hashes by value, g by identity): the
    dissipation form E0 of int mu |psi''|^2 - k1 |psi'(1)|^2 - k0 |psi'(0)|^2
    (inf where it overflows) and the interior gradient and mass Grams."""
    with np.errstate(over="ignore", invalid="ignore"):
        W0, W1 = wall_matrices(c, g)
        E0 = c.mu * curvature_matrix(g) - W1 - W0
        del W0, W1  # E0's temporaries go before any other Gram is built
    return _frozen(E0, gradient_matrix(g), mass_matrix(g))


def _coarse_and_latest(fn):
    """fn cached for its latest arguments twice over: once on grids of the
    coarse start's size and once on every other grid, so a scan that
    alternates between its coarse and fine grid builds each one's data once,
    while a new fine grid still evicts the last one's.  cache_clear empties both."""
    slots = [functools.lru_cache(maxsize=1)(fn) for _ in range(2)]

    @functools.wraps(fn)
    def cached(p, c, g):
        return slots[g.n == _COARSE_NODES](p, c, g)

    cached.cache_clear = lambda: [slot.cache_clear() for slot in slots]
    return cached


@_coarse_and_latest
def _grams(p: DensityProfile, c: SlabConfig, g: SpectralGrid) -> tuple:
    """Read-only xi-independent data of (p, c) on g, kept for the latest triple
    (p and g hash by identity, c by value) on the coarse grid and on any other:
    the forms of _slab_grams, built first, the interior Grams rho-weighted
    gradient, rho-weighted mass, rho'-weighted mass, then rho and rho' at the
    nodes (copies: freezing them leaves p's arrays alone)."""
    return _slab_grams(c, g) + _frozen(
        gradient_matrix(g, p.rho), mass_matrix(g, p.rho), mass_matrix(g, p.drho),
        np.array(p.rho(g.nodes), dtype=float), np.array(p.drho(g.nodes), dtype=float))


def assemble_forms(p: DensityProfile, c: SlabConfig, g: SpectralGrid, xi: float) -> FormSet:
    """The pencil's three forms at frequency xi; rejects xi = 0, overflow and a subnormal g xi^2."""
    if xi == 0.0:
        raise ZeroFrequency("quadratic forms require xi != 0")
    E0, K1, M, K1r, Mr, Mdr, rho, drho = _grams(p, c, g)
    with np.errstate(over="ignore", invalid="ignore"):
        xi2 = xi * xi
        gxi2 = c.g * xi2
        E2m = gxi2 * Mdr
        Jm = K1r + xi2 * Mr
        Gm = E0 + xi2 * (c.mu * (2.0 * K1 + xi2 * M))
    if not all(np.isfinite(A).all() for A in (Gm, Jm, E2m)):
        raise ValueError(f"quadratic forms at xi = {xi:g} overflow")
    if c.g > 0.0 and gxi2 < np.finfo(float).tiny:
        raise ValueError(f"quadratic forms at xi = {xi:g} underflow: g xi^2 = {gxi2:g}")
    return FormSet(xi=float(xi), E2m=E2m, Gm=Gm, Jm=Jm, grid=g, rho_nodes=rho, drho_nodes=drho)


def c0_constant(c: SlabConfig) -> float:
    """max over [0, 1] of |k0 + k1| + ((k0 + k1) y - k0)^2 / mu.

    The quadratic attains its maximum at an endpoint, so the value is
    |k0 + k1| + max(k0^2, k1^2) / mu.
    """
    return abs(c.k0 + c.k1) + max(c.k0 * c.k0, c.k1 * c.k1) / c.mu
