"""Growth-rate fixed point, quadratic-pencil oracle, mode reconstruction,
band/lattice scans and the escape-time formula."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .errors import EigensolveFailure, EmptyBand, NonPositiveHorizon
from .forms import FormSet, assemble_forms
from .grid import SpectralGrid
from .profiles import DensityProfile, SlabConfig
from .variational import _ReducedPencil, _bisect, _fix_sign

FIXED_POINT_TOL = 1e-13
# discretization noise puts tiny imaginary parts on real eigenvalues
REAL_EIG_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """A growing normal mode at frequency xi.

    psi holds interior node values normalized to J(psi) = 1; phi and pi are
    full-grid values filled by reconstruct_mode.  residuals carries the
    fixed-point, divergence, momentum, fourth-order-equation and natural
    boundary-condition diagnostics.
    """

    xi: float
    lam: float
    psi: np.ndarray
    phi: np.ndarray | None
    pi: np.ndarray | None
    residuals: dict = field(default_factory=dict)
    iters: int = 0
    forms: FormSet | None = None

    def psi_full(self) -> np.ndarray:
        out = np.zeros(self.forms.grid.n)
        out[1:-1] = self.psi
        return out


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


@dataclass(frozen=True, eq=False)
class RealModeField:
    """Real-valued perturbation fields at t = 0 on an x-y tensor grid."""

    x: np.ndarray
    y: np.ndarray
    varrho: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    q: np.ndarray
    lambda_star: float
    xi: float


def growth_rate(p: DensityProfile, c: SlabConfig, grid: SpectralGrid,
                xi: float) -> ModeSolution | None:
    """Growth rate and mode shape at frequency xi, or None when stable.

    The rate is the unique root of the strictly increasing map
    F(s) = s^2 + alpha(s); F(0) = alpha(0) is negative exactly in the
    unstable regime.  The search starts from [0, sqrt(-alpha(0))], which
    brackets the root only while alpha stays nonnegative above
    sqrt(-alpha(0)); with slip walls below xi_c it does not, and the root
    finder expands the bracket by doubling.  The minimizer at the root is
    the mode shape; phi, pi and all residual diagnostics are filled in
    before returning.
    """
    fs = assemble_forms(p, c, grid, xi)
    red = _ReducedPencil(fs.Jm, fs.Gm, fs.E2m)
    alpha0 = red.value(0.0)
    if alpha0 >= 0.0:
        return None
    lam, it = _bisect(lambda s: s * s + red.value(s) < 0.0, 0.0, math.sqrt(-alpha0),
                      FIXED_POINT_TOL, "growth-rate fixed point")
    aval, v = red.pair(lam)
    ms = ModeSolution(
        xi=float(xi), lam=lam, psi=v, phi=None, pi=None,
        residuals={"fixed_point_res": abs(aval + lam * lam)},
        iters=it, forms=fs,
    )
    return reconstruct_mode(ms, p, c)


def _wnorm(w: np.ndarray, f: np.ndarray) -> float:
    return float(np.sqrt(w @ (f * f)))


def reconstruct_mode(ms: ModeSolution, p: DensityProfile, c: SlabConfig) -> ModeSolution:
    """Fill phi = -psi'/xi and pi from the mode shape; store all residuals.

    The horizontal velocity amplitude and the pressure follow from the
    divergence constraint and the horizontal momentum balance, so both are
    obtained by differentiating psi.  Residual diagnostics: divergence
    (machine zero by construction), both momentum components, the
    fourth-order equation, and the natural boundary conditions.
    """
    fs = ms.forms
    g = fs.grid
    xi, lam = ms.xi, ms.lam
    xi2 = xi * xi
    psi_f = ms.psi_full()
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

    residuals = dict(ms.residuals)
    residuals.update(
        div_res=div_res,
        mom_x_res=mom_x_res,
        mom_y_res=mom_y_res,
        ode_res=ode_res,
        bc_res_0=bc0,
        bc_res_1=bc1,
    )
    return replace(ms, phi=phi, pi=pi, residuals=residuals)


def companion_oracle(fs: FormSet):
    """Largest real eigenvalue of lam^2 Jm v + lam Gm v - E2m v = 0.

    First-companion linearization to the generalized problem
    [[-Gm, E2m], [I, 0]] z = lam diag(Jm, I) z with z = (lam v, v), solved
    by the QZ algorithm.  This is an independent check on the variational
    fixed point: a completely different factorization path produces the
    same rate.  Returns (lam, v) with v J-normalized, or None when no
    positive real eigenvalue exists.

    The eigenvalue parameter is rescaled before linearizing (lam =
    sqrt(|E2|/|J|) s, pencil normalized to unit leading norm): the raw
    blocks differ by many orders of magnitude and unbalanced QZ loses
    several digits of the small physical eigenvalues.  The returned
    eigenvector is the null direction of the symmetric pencil evaluated at
    the converged eigenvalue, which is far better conditioned than the
    companion's bottom block.
    """
    m = fs.Jm.shape[0]
    nJ = np.linalg.norm(fs.Jm)
    nG = np.linalg.norm(fs.Gm)
    nE = np.linalg.norm(fs.E2m)
    theta = np.sqrt(nE / nJ) if nE > 0 and nJ > 0 else 1.0
    delta = 2.0 / (nE + theta * nG + 1e-300)

    A2 = (delta * theta * theta) * fs.Jm
    A1 = (delta * theta) * fs.Gm
    A0 = -delta * fs.E2m
    A = np.zeros((2 * m, 2 * m))
    A[:m, :m] = -A1
    A[:m, m:] = -A0
    A[m:, :m] = np.eye(m)
    B = np.zeros((2 * m, 2 * m))
    B[:m, :m] = A2
    B[m:, m:] = np.eye(m)
    try:
        vals, _ = sla.eig(A, B)
    except sla.LinAlgError as exc:
        raise EigensolveFailure(f"companion eigensolve failed: {exc}") from exc
    vals = theta * vals

    real = np.abs(vals.imag) <= REAL_EIG_TOL * (1.0 + np.abs(vals.real))
    good = real & np.isfinite(vals.real) & (vals.real > 0.0)
    if not np.any(good):
        return None
    lam = float(np.max(vals.real[good]))

    # Rayleigh polish: QZ's absolute error can swamp small eigenvalues, so
    # alternate the symmetric null direction at lam with the exact growing
    # root of the quadratic Rayleigh functional (cubic local convergence).
    v = None
    for _ in range(3):
        P = lam * lam * fs.Jm + lam * fs.Gm - fs.E2m
        w, V = sla.eigh(P)
        v = V[:, int(np.argmin(np.abs(w)))]
        a = v @ fs.Jm @ v
        b = v @ fs.Gm @ v
        e2 = v @ fs.E2m @ v
        disc = b * b + 4.0 * a * e2
        if disc < 0.0:
            break
        lam_new = (-b + np.sqrt(disc)) / (2.0 * a)
        if lam_new <= 0.0:
            break
        done = abs(lam_new - lam) <= 1e-14 * lam
        lam = float(lam_new)
        if done:
            break
    return lam, _fix_sign(v / np.sqrt(v @ fs.Jm @ v))


def _lattice_frequencies(band: tuple[float, float], L: float) -> list[float]:
    a, b = band
    n_min = int(math.floor(a * L)) + 1
    n_max = int(math.ceil(b * L)) - 1
    return [n / L for n in range(max(1, n_min), n_max + 1) if a < n / L < b]


def scan_band(p: DensityProfile, c: SlabConfig, grid: SpectralGrid,
              band: tuple[float, float], n_samples: int,
              workers: int = 1) -> DispersionResult:
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

    def solve(x: float):
        return growth_rate(p, c, grid, x)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            modes = list(ex.map(solve, all_xis))
    else:
        modes = [solve(x) for x in all_xis]

    growing = {x: DispersionPoint(x, m.lam, m.residuals["fixed_point_res"], m.iters)
               for x, m in zip(all_xis, modes) if m is not None}
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


def real_fields(ms: ModeSolution, lambda_star: float, x_grid: np.ndarray) -> RealModeField:
    """Real perturbation fields at t = 0 from the +/- xi mode pair.

    The parity of the pair (phi odd, psi and pi even in xi) collapses the
    two-term sum into real formulas:
        varrho = -2 rho' psi cos(x xi)
        u      = 2 lambda_star (phi sin(x xi), psi cos(x xi))
        q      = 2 pi cos(x xi)
    """
    if ms.phi is None or ms.pi is None:
        raise ValueError("mode must be reconstructed before building real fields")
    fs = ms.forms
    x = np.asarray(x_grid, dtype=float)
    cos = np.cos(x[:, None] * ms.xi)
    sin = np.sin(x[:, None] * ms.xi)
    psi_f = ms.psi_full()
    varrho = -2.0 * cos * (fs.drho_nodes * psi_f)[None, :]
    u1 = 2.0 * lambda_star * sin * ms.phi[None, :]
    u2 = 2.0 * lambda_star * cos * psi_f[None, :]
    q = 2.0 * cos * ms.pi[None, :]
    return RealModeField(x=x, y=fs.grid.nodes, varrho=varrho, u1=u1, u2=u2, q=q,
                         lambda_star=lambda_star, xi=ms.xi)


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
