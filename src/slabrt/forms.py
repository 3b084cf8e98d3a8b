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

from dataclasses import dataclass

import numpy as np

from .errors import ZeroFrequency
from .grid import (
    SpectralGrid,
    _interpolation_matrix,
    chebyshev_lobatto_nodes,
    clenshaw_curtis_weights,
    lobatto_barycentric_weights,
)
from .profiles import DensityProfile, SlabConfig


@dataclass(frozen=True, eq=False)
class FormSet:
    """Symmetric interior matrices of the five quadratic forms at frequency xi.

    For an interior vector v representing psi:
        v' E0m v = int mu |psi''|^2 - k1 |psi'(1)|^2 - k0 |psi'(0)|^2
        v' E1m v = mu int (2 |psi'|^2 + xi^2 psi^2)
        v' E2m v = g xi^2 int rho' psi^2
        v' Jm  v = int rho (xi^2 psi^2 + |psi'|^2)
        Gm = E0m + xi^2 E1m
    trace_d1_0 / trace_d1_1 map interior values to psi'(0) / psi'(1).
    The grid and sampled density are kept for downstream diagnostics.
    """

    xi: float
    E0m: np.ndarray
    E1m: np.ndarray
    E2m: np.ndarray
    Gm: np.ndarray
    Jm: np.ndarray
    trace_d1_0: np.ndarray
    trace_d1_1: np.ndarray
    grid: SpectralGrid
    rho_nodes: np.ndarray
    drho_nodes: np.ndarray


class _FineRule:
    """Doubled Clenshaw-Curtis rule plus the coarse-to-fine resampling map."""

    def __init__(self, grid: SpectralGrid):
        n = grid.n
        m = 2 * n
        self.nodes = chebyshev_lobatto_nodes(m)
        self.w = clenshaw_curtis_weights(m)
        self.R = _interpolation_matrix(grid.nodes, lobatto_barycentric_weights(n), self.nodes)


_FINE_RULES: dict[int, _FineRule] = {}


def _fine_rule(grid: SpectralGrid) -> _FineRule:
    rule = _FINE_RULES.get(grid.n)
    if rule is None:
        rule = _FineRule(grid)
        _FINE_RULES[grid.n] = rule
    return rule


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def _gram(grid: SpectralGrid, A: np.ndarray | None, weight=None) -> np.ndarray:
    """Interior Gram matrix of int weight(y) (A psi)(A phi) dy, A defaulting
    to the identity, evaluated on the fine rule."""
    rule = _fine_rule(grid)
    FA = rule.R if A is None else rule.R @ A
    wq = rule.w if weight is None else rule.w * weight(rule.nodes)
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


def _dissipation_matrix(c: SlabConfig, g: SpectralGrid) -> np.ndarray:
    """Interior matrix E0m of int mu |psi''|^2 - k1 |psi'(1)|^2 - k0 |psi'(0)|^2."""
    t0, t1 = slope_traces(g)
    return _sym(c.mu * curvature_matrix(g) - c.k1 * np.outer(t1, t1) - c.k0 * np.outer(t0, t0))


def assemble_forms(p: DensityProfile, c: SlabConfig, g: SpectralGrid, xi: float) -> FormSet:
    """Assemble all five forms for frequency xi (xi = 0 is rejected)."""
    if xi == 0.0:
        raise ZeroFrequency("quadratic forms require xi != 0")
    xi2 = xi * xi

    t0, t1 = slope_traces(g)
    E0m = _dissipation_matrix(c, g)
    K1 = gradient_matrix(g)
    M = mass_matrix(g)
    E1m = _sym(c.mu * (2.0 * K1 + xi2 * M))
    E2m = c.g * xi2 * mass_matrix(g, p.drho)
    Jm = _sym(gradient_matrix(g, p.rho) + xi2 * mass_matrix(g, p.rho))
    Gm = E0m + xi2 * E1m

    return FormSet(
        xi=float(xi),
        E0m=E0m, E1m=E1m, E2m=E2m, Gm=Gm, Jm=Jm,
        trace_d1_0=t0, trace_d1_1=t1,
        grid=g,
        rho_nodes=np.asarray(p.rho(g.nodes), dtype=float),
        drho_nodes=np.asarray(p.drho(g.nodes), dtype=float),
    )


def c0_constant(c: SlabConfig) -> float:
    """max over [0, 1] of |k0 + k1| + ((k0 + k1) y - k0)^2 / mu.

    The quadratic attains its maximum at an endpoint, so the value is
    |k0 + k1| + max(k0^2, k1^2) / mu.
    """
    return abs(c.k0 + c.k1) + max(c.k0 * c.k0, c.k1 * c.k1) / c.mu
