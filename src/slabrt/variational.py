"""Constrained minimization of the frozen-rate energy and the critical numbers.

The energy of a vertical velocity shape psi with the growth rate frozen at
s > 0 is E(psi, s) = s G(psi) - E2(psi), minimized over the weighted sphere
J(psi) = 1.  Discretely that infimum is the smallest eigenvalue of the pencil

    (s Gm - E2m) v = theta Jm v,

reduced to a standard symmetric problem through the Cholesky factor of Jm
(positive definite because the density has a positive lower bound).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceFailure, EigensolveFailure, NoRTPoint, NoSignChange
from .forms import (
    FormSet,
    _slab_grams,
    assemble_forms,
    c0_constant,
    curvature_matrix,
    wall_matrices,
)
from .grid import SpectralGrid
from .profiles import DensityProfile, SlabConfig, evaluation_points, validate_profile

FIXED_POINT_TOL = 1e-13
RAYLEIGH_CAP = 50


@dataclass(frozen=True)
class CriticalNumbers:
    """Critical viscosity and frequency plus the bound constants and band."""

    mu_c: float
    xi_c: float
    C0: float
    C1: float | None
    C2: float | None
    band: tuple[float, float]


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def _rayleigh_root(a: float, b: float, e: float) -> float | None:
    """Larger root of a s^2 + b s - e = 0 with a > 0, or None when both
    roots are complex.  Each branch adds terms of one sign, so the root
    keeps full relative accuracy when |b| dwarfs a e."""
    D = b * b + 4.0 * a * e
    if D < 0.0:
        return None
    r = math.sqrt(D)
    return (r - b) / (2.0 * a) if b <= 0.0 else 2.0 * e / (b + r)


def _lapack(what: str, f, *args, **kw):
    """f(*args, **kw), f a scipy.linalg function or the name of a LAPACK routine,
    whose trailing info is checked and dropped; a LinAlgError, a non-zero info or
    scipy's ValueError for infs and NaNs raises EigensolveFailure(f"{what}: ...")."""
    try:
        if not isinstance(f, str):
            return f(*args, **kw)
        *out, info = sla.get_lapack_funcs(f, (args[0],))(*args, **kw)
    except (sla.LinAlgError, ValueError) as exc:
        raise EigensolveFailure(f"{what}: {exc}") from exc
    if info != 0:
        raise EigensolveFailure(f"{what}: {f} info = {info}")
    return out


class _ReducedPencil:
    """The pencil (s A1 - A0) v = theta B v with B positive definite,
    reduced once through B = L L' to standard symmetric problems in
    L^{-1} (s A1 - A0) L^{-T}.  Without A0 the pencil is A1 v = theta B v.
    L^{-1} comes from trtri and is not kept: products with it are faster than
    substitution and as stable (Du Croz & Higham, IMA J. Numer. Anal. 12 (1992) 1)."""

    def __init__(self, B: np.ndarray, A1: np.ndarray, A0: np.ndarray | None = None,
                 what: str = "pencil eigensolve"):
        self.what = what
        self.L = _lapack(what, sla.cholesky, B, lower=True)
        Li, = _lapack(what, "trtri", self.L, lower=1)
        self.B = B
        self.A1t = self._congruence(Li, A1)
        self.A0t = None if A0 is None else self._congruence(Li, A0)

    @staticmethod
    def _congruence(Li: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Li A Li' for symmetric A, symmetrized."""
        Z = Li @ A @ Li.T
        return 0.5 * (Z + Z.T)

    def _at(self, s: float) -> np.ndarray:
        return self.A1t if self.A0t is None else s * self.A1t - self.A0t

    def mode(self, u: np.ndarray) -> np.ndarray:
        """Eigenvector L^{-T} u of a reduced one u, B-normalized and signed by _fix_sign.
        L and u come from checked LAPACK calls, so the solve checks no input."""
        v = _lapack(self.what, sla.solve_triangular, self.L, u, lower=True, trans="T",
                    check_finite=False)
        return _fix_sign(v / np.sqrt(v @ self.B @ v))

    def pair(self, s: float = 1.0, largest: bool = False):
        """Extreme eigenpair at s, the vector as from mode."""
        At = self._at(s)
        idx = At.shape[0] - 1 if largest else 0
        vals, vecs = _lapack(self.what, sla.eigh, At, subset_by_index=[idx, idx])
        return float(vals[0]), self.mode(vecs[:, 0])

    def rayleigh_coefficients(self, s: float):
        """(1, u' A1 u, u' A0 u) for the unit minimizer u at s: the coefficients
        of the Rayleigh functional s^2 + (u' A1 u) s - u' A0 u.  The solve is
        kept as solved = (theta, u)."""
        vals, vecs = _lapack(self.what, sla.eigh, self._at(s), subset_by_index=[0, 0])
        u = vecs[:, 0]
        self.solved = (float(vals[0]), u)
        return 1.0, float(u @ self.A1t @ u), float(u @ self.A0t @ u)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite pencil fails by name in _lapack
def _rayleigh_fixed_point(coefficients, what: str, t0: float = 0.0):
    """Growing root t* of a quadratic eigenproblem with a min-max
    characterization, by safeguarded iteration on its Rayleigh functional.

    coefficients(t) returns (a, b, e), a > 0, for the extreme eigenvector
    at t; the next t is the growing root of a t^2 + b t - e = 0.  By the
    min-max property that root lies at or below t*, so from a start t0
    below t* the iterates rise monotonically, converge quadratically and
    need no bracket (Voss & Werner, Math. Meth. Appl. Sci. 4 (1982) 415).
    The iteration stops once the next point exceeds t by at most
    FIXED_POINT_TOL of itself, however small the root, which includes the
    stall at the roundoff floor; the test relies on the start lying below
    the root, since from above the first step would fall and stop at a mere
    lower bound.  Returns (root, steps), steps the number of eigensolves and
    root the last point solved at, t; (None, 1) when the start is not below
    a root: a t0^2 + b t0 - e >= 0, which at t0 = 0 reads e <= 0 and means
    no growing root where the functional increases on t >= 0.  A next point
    that over- or underflows raises ConvergenceFailure, not a false stop.
    """
    t = t0
    for steps in range(1, RAYLEIGH_CAP + 1):
        a, b, e = coefficients(t)
        if steps == 1 and a * t * t + b * t - e >= 0.0:
            return None, steps
        nxt = _rayleigh_root(a, b, e)
        if nxt is None:  # only roundoff at the root can make it complex
            return t, steps
        if not 0.0 < nxt < math.inf:  # b * b overflowed, or the root underflowed
            raise ConvergenceFailure(f"{what}: the Rayleigh root over- or underflows to {nxt:g}")
        if nxt - t <= FIXED_POINT_TOL * nxt:
            return t, steps
        t = nxt
    raise ConvergenceFailure(f"{what} did not converge in {RAYLEIGH_CAP} steps")


def pencil_extreme(A: np.ndarray, B: np.ndarray):
    """Largest eigenpair of A v = theta B v with B positive definite.

    Returns (theta, v) with v normalized to v' B v = 1 and a deterministic
    sign (largest-magnitude component positive).
    """
    return _ReducedPencil(B, A).pair(largest=True)


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

    The numerator is the rank-<=2 trace form k1 |psi'(1)|^2 + k0 |psi'(0)|^2,
    the sum of the wall matrices that E0 subtracts, and the denominator is
    int |psi''|^2; the discrete sup is the largest eigenvalue of that pencil.
    """
    W0, W1 = wall_matrices(c, grid)
    val, _ = pencil_extreme(W1 + W0, curvature_matrix(grid))
    return max(0.0, val)


def critical_frequency(c: SlabConfig, grid: SpectralGrid) -> float:
    """Lower edge of the frequency band on which the dissipation form wins.

    Returns 0 when mu >= mu_c.  Otherwise solves the self-referential
    supremum for xi_c^2: with h(t) the largest eigenvalue of the pencil
    (-E0) v = theta * mu (2 K1 + t M) v, h is strictly decreasing, and its
    fixed point h(t*) = t* is the growing root of the quadratic pencil
    mu M t^2 + 2 mu K1 t + E0, reached by the Rayleigh-functional iteration
    on the maximizer v from t = 0; xi_c = sqrt(t*), and 0 when h(0) <= 0.
    The pencil is not reduced by mu M: that reduction loses accuracy as n
    grows (relative fixed-point residuals up to 9e-8 at n = 256 on slip
    walls, against 3e-10 here).
    """
    if c.mu >= critical_viscosity_closed_form(c):
        return 0.0
    E0, K1, M = _slab_grams(c, grid)
    negE0, muK1, muM = -E0, c.mu * K1, c.mu * M

    def coefficients(t: float):
        _, v = pencil_extreme(negE0, 2.0 * muK1 + t * muM)
        return float(v @ muM @ v), 2.0 * float(v @ muK1 @ v), float(v @ negE0 @ v)

    t_star, _ = _rayleigh_fixed_point(coefficients, "critical frequency")
    return 0.0 if t_star is None else math.sqrt(t_star)


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
                          band: tuple[float, float]) -> tuple[float, float]:
    """Constants C1, C2 with alpha(s) <= s C2 - C1 on the whole band.

    A bump test function v centred at a heavy-over-light point is sampled
    on the grid; with the forms assembled at both band edges,
    C1 = v' E2m(a) v / v' Jm(b) v and C2 = v' Gm(b) v / v' Jm(a) v, the
    edges substituted unfavourably.  Since both constants are evaluated with
    the forms alpha uses, the bound holds exactly at the discrete level for
    every s > 0.  A band edge of 0 raises ZeroFrequency.

    The bump width starts at min(y0, 1 - y0) and is halved until the bump
    sees a positive density gradient, which must happen by continuity.
    """
    validate_profile(p)  # positivity; _bump_center raises NoRTPoint
    y0 = _bump_center(p)
    fa, fb = (assemble_forms(p, c, grid, xi) for xi in band)

    delta = min(y0, 1.0 - y0)
    for _ in range(60):
        v = bump_values(grid.nodes, y0, delta)[1:-1]
        num1 = float(v @ fa.E2m @ v)
        if num1 > 0.0:
            break
        delta *= 0.5
    else:
        raise NoRTPoint("no bump width with positive gravity quotient")
    return num1 / float(v @ fb.Jm @ v), float(v @ fb.Gm @ v) / float(v @ fa.Jm @ v)


def frak_S(fs: FormSet) -> float:
    """Infimum of the rates at which the frozen-rate energy turns positive.

    alpha(s) >= 0 exactly when s Gm - E2m is positive semidefinite, so with
    Gm positive definite the threshold is max(0, theta) for theta the
    largest eigenvalue of E2m v = theta Gm v.  Returns +inf (with a
    NoSignChange warning) when Gm is not positive definite, where alpha
    tends to -inf.
    """
    try:
        theta, _ = pencil_extreme(fs.E2m, fs.Gm)
    except EigensolveFailure:
        warnings.warn(NoSignChange("Gm is not positive definite, so alpha tends to -inf; "
                                   "threshold infinite"))
        return float("inf")
    return max(0.0, theta)


def compute_critical_numbers(p: DensityProfile, c: SlabConfig, grid: SpectralGrid,
                             b: float | None = None) -> CriticalNumbers:
    """Aggregate mu_c, xi_c, C0, C1, C2 and the admissible band (a, b).

    The band's lower edge is xi_c; the upper edge defaults to max(4a, 10).
    C1/C2 are None for profiles without a heavy-over-light point and on an
    empty band (b at or below its lower edge); when the band starts at 0
    they are evaluated on the inset sub-band [min(1, b/10), b), since the
    gravity quotient degenerates as the lower edge goes to 0 and any
    positive inset is admissible.
    """
    C0 = c0_constant(c)
    mu_c = critical_viscosity_closed_form(c)
    xi_c = critical_frequency(c, grid)
    a = xi_c
    b_edge = float(b) if b is not None else max(4.0 * a, 10.0)
    a_bound = a if a > 0.0 else min(1.0, 0.1 * b_edge)
    C1 = C2 = None
    if a_bound < b_edge:  # an empty band has no constants; the caller names it
        try:
            C1, C2 = upper_bound_constants(p, c, grid, (a_bound, b_edge))
        except NoRTPoint:
            pass
    return CriticalNumbers(mu_c=mu_c, xi_c=xi_c, C0=C0, C1=C1, C2=C2,
                           band=(a, b_edge))
