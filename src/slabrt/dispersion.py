"""Growth-rate fixed point, quadratic-pencil oracle, mode reconstruction,
band/lattice scans and the escape-time formula."""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceFailure, EmptyBand, NonPositiveHorizon
from .forms import FormSet, assemble_forms
from .grid import SpectralGrid
from .profiles import DensityProfile, SlabConfig
from .variational import (
    _fix_sign,
    _lapack,
    _rayleigh_fixed_point,
    _ReducedPencil,
    critical_viscosity_closed_form,
)

# discretization noise puts tiny imaginary parts on real eigenvalues
REAL_EIG_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """A growing normal mode of slab at frequency forms.xi.

    psi holds interior node values normalized to J(psi) = 1, and
    fixed_point_res = |alpha(lam) + lam^2| at psi.  phi, pi and residuals
    are built by one reconstruct_mode call on the first read of any of
    them: phi and pi are full-grid values, and residuals carries the
    fixed-point residual first, then the divergence, momentum,
    fourth-order-equation and natural boundary-condition diagnostics.
    """

    lam: float
    psi: np.ndarray
    fixed_point_res: float
    iters: int
    forms: FormSet
    slab: SlabConfig

    def psi_full(self) -> np.ndarray:
        return np.pad(self.psi, 1)

    @functools.cached_property
    def _reconstruction(self) -> tuple[np.ndarray, np.ndarray, dict]:
        return reconstruct_mode(self.forms, self.slab, self.lam, self.psi)

    @functools.cached_property
    def phi(self) -> np.ndarray:
        return self._reconstruction[0]

    @functools.cached_property
    def pi(self) -> np.ndarray:
        return self._reconstruction[1]

    @functools.cached_property
    def residuals(self) -> dict:
        return {"fixed_point_res": self.fixed_point_res, **self._reconstruction[2]}


@dataclass(frozen=True)
class DispersionPoint:
    xi: float
    lam: float
    alpha_residual: float
    iters: int


@dataclass(frozen=True, eq=False)
class DispersionResult:
    """Sampled growth-rate curve plus the lattice values and their supremum.

    samples mirrors the positive-frequency curve to negative frequencies
    (the rate is even in xi).  Lambda is the largest lattice rate and xi_star
    the smallest lattice frequency attaining it; both are None when no
    lattice frequency grows.
    """

    samples: list
    lattice: list
    Lambda: float | None
    xi_star: float | None


def growth_rate(p: DensityProfile, c: SlabConfig, grid: SpectralGrid,
                xi: float) -> ModeSolution | None:
    """Growth rate and mode shape at frequency xi, or None when a bound
    proves that no mode grows.

    The rate is the growing root of F(s) = s^2 + alpha(s), the extreme
    eigenvalue of the pencil s^2 Jm + s Gm - E2m.  F is the minimum over
    u' Jm u = 1 of the Rayleigh parabolas s^2 + s u' Gm u - u' E2m u, whose
    vertices lie at or below -gamma / 2, gamma the smallest eigenvalue of
    Gm reduced by Jm.  So F increases strictly on s >= max(0, -gamma / 2):
    from a start there with F < 0, the safeguarded Rayleigh-functional
    iteration _rayleigh_fixed_point rises to the one root above it, the
    largest; F >= 0 at the start proves that no mode grows faster.  The
    first eigensolve is at s = 0.  When F(0) >= 0 and mu >= mu_c, the slip
    terms cannot win, Gm is positive semidefinite and stability is proved
    without gamma.  Otherwise slip walls may have made Gm indefinite, and
    F can start positive, dip below zero and rise again.  One more
    eigensolve then gives gamma; alpha(s) >= s gamma + alpha(0), so None
    is returned when gamma >= 0 (as for xi >= xi_c) or
    gamma^2 / 4 < alpha(0), and else the iteration restarts at
    s0 = -gamma / 2.  F(s0) >= 0 there raises ConvergenceFailure rather
    than answering "stable": no mode grows faster than s0, but an
    oscillatory (complex) mode may grow on (0, s0).  The minimizer at the
    root is the mode shape, taken from the iteration's last eigensolve,
    which is at the root; iters counts every eigensolve.  phi, pi and
    residuals are reconstructed on first read (see ModeSolution), so a
    caller that keeps only the rate pays for no reconstruction.
    """
    what = f"growth-rate fixed point at xi = {xi:g}"
    fs = assemble_forms(p, c, grid, xi)
    red = _ReducedPencil(fs.Jm, fs.Gm, fs.E2m, what)
    lam, it = _rayleigh_fixed_point(red.rayleigh_coefficients, what)
    if lam is None:
        if c.mu >= critical_viscosity_closed_form(c):
            return None
        gamma = float(_lapack(what, sla.eigh, red.A1t, eigvals_only=True,
                              subset_by_index=[0, 0])[0])
        if gamma >= 0.0 or gamma * gamma / 4.0 < red.solved[0]:  # alpha(0), its one solve
            return None
        s0 = -0.5 * gamma
        lam, steps = _rayleigh_fixed_point(red.rayleigh_coefficients, what, s0)
        if lam is None:
            raise ConvergenceFailure(f"{what}: Gm is indefinite; no mode grows faster than "
                                     f"-gamma/2 = {s0:g}, but an oscillatory (complex) "
                                     f"mode may grow on (0, {s0:g})")
        it += 1 + steps
    aval, u = red.solved  # the iteration ends at the point it last solved at
    return ModeSolution(lam=lam, psi=red.mode(u), fixed_point_res=abs(aval + lam * lam),
                        iters=it, forms=fs, slab=c)


def _wnorm(w: np.ndarray, f: np.ndarray) -> float:
    """sqrt(w' f^2) with f scaled by 2^-e ~ 1 / max|f| first, which is exact, so no
    square overflows and a norm whose squares stay normal keeps every bit."""
    e = int(np.frexp(np.max(np.abs(f)))[1])
    fs = np.ldexp(f, -e)
    return float(np.ldexp(np.sqrt(w @ (fs * fs)), e))


@np.errstate(over="ignore", invalid="ignore")
def reconstruct_mode(fs: FormSet, c: SlabConfig, lam: float,
                     psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """phi = -psi'/xi, pi and the residuals of the mode (lam, psi) at fs.xi.

    The horizontal velocity amplitude and the pressure follow from the
    divergence constraint and the horizontal momentum balance, so both are
    obtained by differentiating psi.  Residual diagnostics, inf or NaN where
    a norm overflows: divergence (machine zero by construction), both
    momentum components, the fourth-order equation and the natural BCs.
    """
    g = fs.grid
    xi = fs.xi
    xi2 = xi * xi
    psi_f = np.pad(psi, 1)
    rho, drho = fs.rho_nodes, fs.drho_nodes

    d1 = g.D1 @ psi_f
    d2 = g.D2 @ psi_f
    d3 = g.D3 @ psi_f
    d4 = g.D4 @ psi_f

    phi = -d1 / xi
    pi = -(lam * rho * d1 + c.mu * xi2 * d1 - c.mu * d3) / xi2

    div = xi * phi + d1
    div_res = float(np.max(np.abs(div)))

    wq = g.w[1:-1]

    # horizontal momentum: -lam^2 rho phi + lam xi pi - lam mu (xi^2 phi - phi'')
    phi_dd = g.D2 @ phi
    rx = -lam * lam * rho * phi + lam * xi * pi - lam * c.mu * (xi2 * phi - phi_dd)
    mom_x_res = _wnorm(wq, rx[1:-1]) / max(_wnorm(wq, (lam * lam * rho * phi)[1:-1]), 1e-300)

    # vertical momentum: lam^2 rho psi + lam pi' + lam mu (xi^2 psi - psi'') - g rho' psi
    pi_d1 = g.D1 @ pi
    ry = lam * lam * rho * psi_f + lam * pi_d1 + lam * c.mu * (xi2 * psi_f - d2) - c.g * drho * psi_f
    den_y = _wnorm(wq, (c.g * drho * psi_f)[1:-1])
    mom_y_res = _wnorm(wq, ry[1:-1]) / max(den_y, 1e-300)

    # fourth-order equation with (rho psi')' expanded by the product rule
    r14 = (lam * lam * (xi2 * rho * psi_f - drho * d1 - rho * d2)
           + lam * c.mu * (d4 - 2.0 * xi2 * d2 + xi2 * xi2 * psi_f)
           - c.g * xi2 * drho * psi_f)
    den14 = _wnorm(wq, (c.g * xi2 * drho * psi_f)[1:-1])
    ode_res = _wnorm(wq, r14[1:-1]) / max(den14, 1e-300)

    scale = max(1.0, float(np.max(np.abs(d2))))
    bc0 = abs(d2[0] + (c.k0 / c.mu) * d1[0]) / scale
    bc1 = abs(d2[-1] - (c.k1 / c.mu) * d1[-1]) / scale

    return phi, pi, dict(
        div_res=div_res,
        mom_x_res=mom_x_res,
        mom_y_res=mom_y_res,
        ode_res=ode_res,
        bc_res_0=bc0,
        bc_res_1=bc1,
    )


def companion_oracle(fs: FormSet):
    """Largest real eigenvalue of lam^2 Jm v + lam Gm v - E2m v = 0.

    An independent check on the variational fixed point: one dense
    eigensolve of _linearization's 2m matrix H, whose eigenvalues are the
    pencil's, sees the whole spectrum.  Where E2m is positive semidefinite to
    roundoff (rho' >= 0 at every node of the doubled rule) H is symmetric
    and all 2m eigenvalues are real: a symmetric eigensolve resolves the
    largest to 2 safmin, so it grows when positive, and its upper block x1
    gives the pencil's vector v = L^-T x1, the reduction's mode.  Elsewhere,
    where complex pairs can exist, a nonsymmetric eigensolve finds every
    eigenvalue; the largest real one above REAL_EIG_TOL * theta, with
    theta = sqrt(|E2m| / |Jm|), grows, and v is the pencil's null direction
    there.  Returns (lam, v) with v J-normalized, or None when no eigenvalue
    grows.  Raises EigensolveFailure naming xi when Jm has no Cholesky
    factor, a matrix is not finite or an eigensolve fails.
    """
    what = f"companion oracle at xi = {fs.xi:g}"
    H, symmetric, red = _linearization(fs, what)
    m = red.L.shape[0]
    if symmetric:
        # the largest eigenpair alone, bisected to abstol = 2 safmin: scipy's eigh
        # bisects to eps |H| absolute, 21 % off the rate at g = 1e-12 (linear-up, n = 32)
        vals, X, _, _ = _lapack(what, "syevr", H, range="I", il=2 * m, iu=2 * m, lower=1,
                                abstol=2 * np.finfo(float).tiny, overwrite_a=1)
        return (float(vals[0]), red.mode(X[:m, 0])) if vals[0] > 0.0 else None
    vals = _lapack(what, sla.eig, H, right=False, overwrite_a=True)
    real = np.abs(vals.imag) <= REAL_EIG_TOL * (1.0 + np.abs(vals.real))
    # Frobenius norms by BLAS nrm2, which scales rather than squares each entry
    theta = np.sqrt(sla.norm(fs.E2m.ravel()) / sla.norm(fs.Jm.ravel()))
    good = real & (vals.real > REAL_EIG_TOL * theta)
    if not np.any(good):
        return None
    lam = float(np.max(vals.real[good]))
    # at the largest real root P(lam) is positive semidefinite, so its
    # smallest eigenvector is the null direction
    P = lam * lam * fs.Jm + lam * fs.Gm - fs.E2m
    v = _lapack(what, sla.eigh, P, subset_by_index=[0, 0])[1][:, 0]
    return lam, _fix_sign(v / np.sqrt(v @ fs.Jm @ v))


def _linearization(fs: FormSet, what: str) -> tuple[np.ndarray, bool, _ReducedPencil]:
    """companion_oracle's H, whether it is symmetric, and the reduction of
    (Jm, Gm), failures named by what.  With E2m = Q diag(w) Q', Jm = L L',
    F = L^-1 Q diag(sqrt|w|), S = diag(sign w), H = [[-L^-1 Gm L^-T, F], [S F', 0]] has
    det(lam I - H) = det(lam^2 Jm + lam Gm - E2m), a first companion form
    (Tisseur & Meerbergen, SIAM Rev. 43 (2001) 235), and an eigenvector
    [x1; x2] of H gives the pencil's L^-T x1, the reduction's mode of x1.
    E2m counts as positive semidefinite, S = I and H symmetric, when w[0]
    is at least -10 m eps max|w|; w is then clipped at 0."""
    m = fs.Jm.shape[0]
    w, Q = _lapack(what, sla.eigh, fs.E2m, driver="evd")
    symmetric = bool(w[0] >= -10 * m * np.finfo(float).eps * np.max(np.abs(w)))
    red = _ReducedPencil(fs.Jm, fs.Gm, what=what)
    H = np.zeros((2 * m, 2 * m), order="F")
    np.negative(red.A1t, out=H[:m, :m])
    scale = np.sqrt(np.maximum(w, 0.0) if symmetric else np.abs(w))
    H[m:, :m] = _lapack(what, sla.solve_triangular, red.L, Q * scale, lower=True).T
    H[:m, m:] = H[m:, :m].T
    if not symmetric:
        H[m:, :m] *= np.sign(w)[:, None]
    return H, symmetric, red


def _lattice_frequencies(band: tuple[float, float], L: float) -> list[float]:
    a, b = band
    n_min = int(math.floor(a * L)) + 1
    n_max = int(math.ceil(b * L)) - 1
    return [n / L for n in range(max(1, n_min), n_max + 1) if a < n / L < b]


def scan_band(p: DensityProfile, c: SlabConfig, grid: SpectralGrid,
              band: tuple[float, float], n_samples: int) -> DispersionResult:
    """Sample the growth-rate curve over the band and take the lattice sup.

    n_samples frequencies are placed uniformly strictly inside (a, b), the
    lattice frequencies n/L inside the band are added, and only xi > 0 is
    solved; the curve is mirrored to negative xi since the rate is even.
    Raises EmptyBand when no lattice point exists, reporting the smallest
    period scale that would admit one.
    """
    a, b = band
    if not a < b:
        raise ValueError(f"invalid band ({a}, {b})")
    lattice_xis = _lattice_frequencies(band, c.L)
    if not lattice_xis:
        raise EmptyBand(
            f"no integer multiple of 1/L = {1.0 / c.L:g} lies in ({a:g}, {b:g}); "
            f"need L > {1.0 / b:.6g}"
        )
    uniform = [a + (b - a) * (i + 1) / (n_samples + 1) for i in range(n_samples)]
    all_xis = sorted(set(uniform) | set(lattice_xis))

    # keep only each rate's point: a mode holds its FormSet (three m x m matrices)
    growing = {}
    for x in all_xis:
        m = growth_rate(p, c, grid, x)
        if m is not None:
            growing[x] = DispersionPoint(x, m.lam, m.fixed_point_res, m.iters)
    pos = list(growing.values())
    mirrored = [DispersionPoint(-pt.xi, pt.lam, pt.alpha_residual, pt.iters)
                for pt in reversed(pos)]
    samples = mirrored + pos

    lattice = [growing[x] for x in lattice_xis if x in growing]
    if lattice:
        Lambda = max(pt.lam for pt in lattice)
        xi_star = min(pt.xi for pt in lattice if pt.lam == Lambda)
    else:
        Lambda = xi_star = None
    return DispersionResult(samples=samples, lattice=lattice, Lambda=Lambda, xi_star=xi_star)


def escape_time(Lambda: float, epsilon: float, m0: float, delta: float,
                variant: str = "A") -> float:
    """Time for a delta-scaled perturbation to provably reach order epsilon.

    Variant A: T = ln(2 epsilon / (m0 delta)) / Lambda.
    Variant B: T = ln(2 epsilon / delta) / Lambda (m0 is ignored).
    Raises NonPositiveHorizon when the logarithm argument is <= 1.
    """
    if Lambda <= 0 or epsilon <= 0 or delta <= 0:
        raise ValueError("Lambda, epsilon and delta must be positive")
    if variant == "A":
        if m0 <= 0:
            raise ValueError("m0 must be positive")
        arg = 2.0 * epsilon / (m0 * delta)
    elif variant == "B":
        arg = 2.0 * epsilon / delta
    else:
        raise ValueError(f"unknown escape-time variant {variant!r}")
    if arg <= 1.0:
        raise NonPositiveHorizon(f"log argument {arg:g} <= 1 gives no positive horizon")
    return math.log(arg) / Lambda
