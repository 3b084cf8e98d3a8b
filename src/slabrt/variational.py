"""Constrained minimization of the frozen-rate energy and the critical numbers.

The energy of a vertical velocity shape psi with the growth rate frozen at
s > 0 is E(psi, s) = s G(psi) - E2(psi), minimized over the weighted sphere
J(psi) = 1.  Discretely that infimum is the smallest eigenvalue of the pencil

    (s Gm - E2m) v = theta Jm v,

reduced to a standard symmetric problem through the Cholesky factor of Jm
(positive definite because the density has a positive lower bound).
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceFailure, EigensolveFailure, NoRTPoint, NoSignChange
from .forms import (
    FormSet,
    _dissipation_matrix,
    assemble_forms,
    c0_constant,
    curvature_matrix,
    gradient_matrix,
    mass_matrix,
    slope_traces,
)
from .grid import SpectralGrid
from .profiles import DensityProfile, SlabConfig, evaluation_points, validate_profile

BISECT_TOL = 1e-10
BISECT_CAP = 200


@dataclass(frozen=True)
class CriticalNumbers:
    """Critical viscosity and frequency plus the bound constants and band."""

    mu_c: float
    xi_c: float
    C0: float
    C1: float | None
    C2: float | None
    frakS: float | None
    band: tuple[float, float]


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def _bisect(below, lo: float, hi: float, tol: float, what: str):
    """Root of a monotone predicate: below(s) holds exactly for s < root.

    No a-priori bracket is assumed: while below(hi) holds, lo moves up to hi
    and hi doubles.  The bracket is then halved until its width is at most
    tol * max(1, hi), a tolerance that scales with the root so a width
    below the endpoint spacing cannot stall the midpoint.  Returns
    (root, steps) with steps the number of halvings.
    """
    grow = 0
    while below(hi):
        lo, hi = hi, 2.0 * hi
        grow += 1
        if grow > 60:
            raise ConvergenceFailure(f"could not bracket the {what}")
    it = 0
    while hi - lo > tol * max(1.0, hi):
        it += 1
        if it > BISECT_CAP:
            raise ConvergenceFailure(f"{what} bisection exceeded {BISECT_CAP} steps")
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), it


class _ReducedPencil:
    """The pencil (s A1 - A0) v = theta B v with B positive definite,
    reduced once through B = L L' to standard symmetric problems in
    L^{-1} (s A1 - A0) L^{-T}.  Without A0 the pencil is A1 v = theta B v."""

    def __init__(self, B: np.ndarray, A1: np.ndarray, A0: np.ndarray | None = None):
        try:
            self.L = sla.cholesky(B, lower=True)
        except sla.LinAlgError as exc:
            raise EigensolveFailure(f"pencil mass matrix is not positive definite: {exc}") from exc
        self.B = B
        self.A1t = self._congruence(A1)
        self.A0t = None if A0 is None else self._congruence(A0)

    def _congruence(self, A: np.ndarray) -> np.ndarray:
        """L^{-1} A L^{-T} for symmetric A."""
        Y = sla.solve_triangular(self.L, A, lower=True)
        Z = sla.solve_triangular(self.L, Y.T, lower=True)
        return 0.5 * (Z + Z.T)

    def _at(self, s: float) -> np.ndarray:
        return self.A1t if self.A0t is None else s * self.A1t - self.A0t

    def value(self, s: float) -> float:
        """Smallest eigenvalue at s, without eigenvectors."""
        return float(sla.eigh(self._at(s), subset_by_index=[0, 0], eigvals_only=True)[0])

    def pair(self, s: float = 1.0, largest: bool = False):
        """Extreme eigenpair at s with v' B v = 1 and a deterministic sign
        (largest-magnitude component positive)."""
        At = self._at(s)
        idx = At.shape[0] - 1 if largest else 0
        vals, vecs = sla.eigh(At, subset_by_index=[idx, idx])
        v = sla.solve_triangular(self.L, vecs[:, 0], lower=True, trans="T")
        v = v / np.sqrt(v @ self.B @ v)
        return float(vals[0]), _fix_sign(v)


def pencil_extreme(A: np.ndarray, B: np.ndarray, largest: bool = False):
    """Extreme eigenpair of A v = theta B v with B positive definite.

    Returns (theta, v) with v normalized to v' B v = 1 and a deterministic
    sign (largest-magnitude component positive).
    """
    return _ReducedPencil(B, A).pair(largest=largest)


def alpha(fs: FormSet, s: float):
    """Minimum of E(psi, s) over J(psi) = 1 and its minimizer.

    Returns (value, v) where v holds interior node values with v' Jm v = 1.
    Raises EigensolveFailure when Jm is not positive definite (which signals
    an invalid density profile).
    """
    return _ReducedPencil(fs.Jm, fs.Gm, fs.E2m).pair(s)


def critical_viscosity_closed_form(c: SlabConfig) -> float:
    """Threshold viscosity above which the slip terms cannot win:
    max(0, ((k0 + k1) + sqrt(k0^2 + k1^2 - k0 k1)) / 6).

    Derivation: the quotient's maximizers solve psi'''' = 0, so the
    supremum is attained on cubics.  Parametrized by the endpoint slopes
    (p, q) = (psi'(0), psi'(1)), the curvature integral of a cubic vanishing
    at both walls is 4 (p^2 + p q + q^2), and the supremum of
    (k0 p^2 + k1 q^2) / (4 (p^2 + p q + q^2)) is the larger root of
    12 m^2 - 4 (k0 + k1) m + k0 k1 = 0, clamped at zero.  The clamp engages
    exactly when both coefficients are nonpositive.
    """
    k0, k1 = c.k0, c.k1
    root = ((k0 + k1) + np.sqrt(k0 * k0 + k1 * k1 - k0 * k1)) / 6.0
    return max(0.0, float(root))


def critical_viscosity_numerical(c: SlabConfig, grid: SpectralGrid) -> float:
    """Supremum of the boundary-slip quotient over curvature, clamped at 0.

    The numerator is the rank-<=2 trace form k1 |psi'(1)|^2 + k0 |psi'(0)|^2
    and the denominator is int |psi''|^2; the discrete sup is the largest
    eigenvalue of the corresponding pencil.
    """
    t0, t1 = slope_traces(grid)
    N = 0.5 * (c.k1 * np.outer(t1, t1) + c.k0 * np.outer(t0, t0))
    N = N + N.T
    val, _ = pencil_extreme(N, curvature_matrix(grid), largest=True)
    return max(0.0, val)


def critical_frequency(c: SlabConfig, grid: SpectralGrid) -> float:
    """Lower edge of the frequency band on which the dissipation form wins.

    Returns 0 when mu >= mu_c.  Otherwise solves the self-referential
    supremum for xi_c^2: with h(t) the largest eigenvalue of the pencil
    (-E0) v = theta * mu (2 K1 + t M) v, h is strictly decreasing, so the
    unique fixed point h(t*) = t* is found by bisection and xi_c = sqrt(t*).
    """
    if c.mu >= critical_viscosity_closed_form(c):
        return 0.0
    negE0 = -_dissipation_matrix(c, grid)
    K1 = gradient_matrix(grid)
    M = mass_matrix(grid)

    def h(t: float) -> float:
        val, _ = pencil_extreme(negE0, c.mu * (2.0 * K1 + t * M), largest=True)
        return val

    t_star, _ = _bisect(lambda t: h(t) > t, 0.0, 1.0, BISECT_TOL, "critical frequency")
    return float(np.sqrt(t_star))


def bump_values(y: np.ndarray, center: float, width: float) -> np.ndarray:
    """Smooth compactly supported bump: exp(1 - 1/(1 - (2r/width)^2))."""
    if width <= 0.0:
        raise ValueError("bump width must be positive")
    r = np.asarray(y, dtype=float) - center
    u = (2.0 * r / width) ** 2
    out = np.zeros_like(u)
    inside = u < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside]))
    return out


def _bump_center(p: DensityProfile) -> float:
    """Interior point with rho' > 0, chosen nearest mid-channel.

    The sampled argmax of rho' can sit on a wall (constant or monotone
    gradients), where no interior bump fits; any heavy-over-light point is
    admissible for the bound construction, so maximize wall clearance.
    """
    ys = evaluation_points()
    d = np.asarray(p.drho(ys), dtype=float)
    ok = (d > 0.0) & (ys > 0.0) & (ys < 1.0)
    if not np.any(ok):
        raise NoRTPoint("density derivative is nowhere positive inside (0, 1)")
    cand = ys[ok]
    return float(cand[int(np.argmin(np.abs(cand - 0.5)))])


def upper_bound_constants(p: DensityProfile, c: SlabConfig, grid: SpectralGrid,
                          band: tuple[float, float],
                          width: float | None = None) -> tuple[float, float]:
    """Constants C1, C2 with alpha(s) <= s C2 - C1 on the whole band.

    A bump test function centred at a heavy-over-light point is sampled on
    the grid; C1 is its gravity quotient with the band edges substituted
    unfavourably (a^2 in the numerator, b^2 in the denominator) and C2 its
    dissipation quotient with the substitution the other way round.  Since
    both constants are evaluated with the same discrete forms used by alpha,
    the bound holds exactly at the discrete level for every s > 0.

    The default width min(y0, 1 - y0) is halved until the bump sees a
    positive density gradient, which must happen by continuity.
    """
    report = validate_profile(p)
    if not report.rt_condition:
        raise NoRTPoint("density derivative is nowhere positive")
    y0 = _bump_center(p)
    a, b = band

    Mdr = mass_matrix(grid, p.drho)
    Mr = mass_matrix(grid, p.rho)
    K1r = gradient_matrix(grid, p.rho)
    K2 = curvature_matrix(grid)
    K1 = gradient_matrix(grid)
    M = mass_matrix(grid)
    t0, t1 = slope_traces(grid)

    delta = width if width is not None else min(y0, 1.0 - y0)
    for _ in range(60):
        v = bump_values(grid.nodes, y0, delta)[1:-1]
        num1 = c.g * a * a * float(v @ Mdr @ v)
        if num1 > 0.0 and float(v @ M @ v) > 0.0:
            break
        delta *= 0.5
    else:
        raise NoRTPoint("no bump width with positive gravity quotient")

    C1 = num1 / float(v @ (b * b * Mr + K1r) @ v)
    numG = (c.mu * float(v @ (K2 + 2.0 * b * b * K1 + b ** 4 * M) @ v)
            - c.k1 * float(t1 @ v) ** 2 - c.k0 * float(t0 @ v) ** 2)
    C2 = numG / float(v @ (a * a * Mr + K1r) @ v)
    return C1, C2


def frak_S(fs: FormSet, s_cap: float = 1e6) -> float:
    """Infimum of the rates at which the frozen-rate energy turns positive.

    Bisection on the sign of alpha(s): the lower end of the bracket starts
    at 0 (alpha < 0 there in the unstable regime), the upper end is found by
    doubling.  Returns 0 in the degenerate all-positive case and +inf (with
    a NoSignChange warning) when alpha stays negative up to s_cap.
    """
    red = _ReducedPencil(fs.Jm, fs.Gm, fs.E2m)
    if red.value(0.0) >= 0.0:
        return 0.0

    def below(s: float) -> bool:
        # the warning doubles as the signal that stops the doubling at s_cap
        if s > s_cap:
            raise NoSignChange(
                f"alpha stayed negative up to s = {s_cap:g}; threshold effectively infinite")
        return red.value(s) <= 0.0

    try:
        return _bisect(below, 0.0, 1.0, BISECT_TOL, "alpha sign change")[0]
    except NoSignChange as exc:
        warnings.warn(exc)
        return float("inf")


def compute_critical_numbers(p: DensityProfile, c: SlabConfig, grid: SpectralGrid,
                             b: float | None = None,
                             bump_width: float | None = None,
                             frak_at: float | None = None) -> CriticalNumbers:
    """Aggregate mu_c, xi_c, C0, C1, C2 and the admissible band (a, b).

    The band's lower edge is xi_c; the upper edge defaults to max(4a, 10).
    C1/C2 are None for profiles without a heavy-over-light point; when the
    band starts at 0 they are evaluated on the inset sub-band
    [min(1, b/10), b), since the gravity quotient degenerates as the lower
    edge goes to 0 and any positive inset is admissible.  frakS (the first
    rate at which the frozen-rate energy turns positive) depends on the
    frequency, so it is filled only when frak_at is given.
    """
    C0 = c0_constant(c)
    mu_c = critical_viscosity_closed_form(c)
    xi_c = 0.0 if c.mu >= mu_c else critical_frequency(c, grid)
    a = xi_c
    b_edge = float(b) if b is not None else max(4.0 * a, 10.0)
    a_bound = a if a > 0.0 else min(1.0, 0.1 * b_edge)
    try:
        C1, C2 = upper_bound_constants(p, c, grid, (a_bound, b_edge), width=bump_width)
    except NoRTPoint:
        C1, C2 = None, None
    S = frak_S(assemble_forms(p, c, grid, frak_at)) if frak_at is not None else None
    return CriticalNumbers(mu_c=mu_c, xi_c=xi_c, C0=C0, C1=C1, C2=C2,
                           frakS=S, band=(a, b_edge))
