"""Linearized single-frequency initial-value solver.

The pressure is eliminated analytically before discretization: in one
horizontal Fourier mode the incompressibility constraint is absorbed into
the weighted mass operator, leaving the coupled linear system

    M dw/dt = -G w - g xi^2 sigma,      d sigma/dt = -rho' w,

where M is the operator v -> xi^2 rho v - (rho v')' (the J-form operator)
and G is the dissipation-form operator including the slip boundary terms.
Substituting w = psi e^{lam t}, sigma = -rho' psi e^{lam t} / lam turns the
system into the quadratic pencil lam^2 Jm + lam Gm - E2m = 0, i.e. exactly
the fourth-order eigenvalue problem solved by the dispersion module, which
is what makes the simulator an independent cross-check on the rates.

Time stepping is trapezoidal (Crank-Nicolson): unconditionally stable for
this linear system, second order, and with a natural per-step energy
balance whose defect measures the consistency order.  The implicit system
is solved once per (FormSet, dt) into a propagator, so a step is one
matrix-vector product; simulate chains (pre-sample, sample) pairs of states
with one product by the k-th power of the one-step map, evaluates their rows
in batches and ends in plain steps after a batch that is not finite.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InsufficientGrowth, SingularStep
from .forms import FormSet
from .grid import _binary_exponent
from .profiles import SlabConfig


@dataclass
class EvolveState:
    """State of one simulation: sigma and w on the interior nodes (both
    vanish at the walls).  Only the final state of a simulate run fills
    history, with the (t, amplitude) columns of its rows."""

    t: float
    sigma: np.ndarray
    w: np.ndarray
    history: list = field(default_factory=list)


class CrankNicolsonStepper:
    """Trapezoidal stepper for one (FormSet, dt) pair.  A is LU-factored
    once and the propagator K = A^-1 [B | -g xi^2 diag(w_int)] is built
    from the factors once, so each step is the one product K [w; sigma]
    followed by the sigma update."""

    def __init__(self, c: SlabConfig, fs: FormSet, dt: float):
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        self.dt = dt
        gx2 = c.g * fs.xi * fs.xi
        w_int = fs.grid.w[1:-1]
        drho_int = fs.drho_nodes[1:-1]
        self.half_dt_drho = dt * drho_int * 0.5
        D = np.diag(w_int * drho_int)
        A = fs.Jm / dt + 0.5 * fs.Gm - 0.25 * gx2 * dt * D
        B = fs.Jm / dt - 0.5 * fs.Gm + 0.25 * gx2 * dt * D
        lu = sla.lu_factor(A)
        if np.any(np.diag(lu[0]) == 0.0):
            raise SingularStep("implicit matrix is numerically singular")
        self.K = sla.lu_solve(lu, np.hstack([B, np.diag(-gx2 * w_int)]))

    def _update(self, Z: np.ndarray, W: np.ndarray) -> None:
        """Moves the states [w; sigma] in the columns of Z a step on in place, the
        columns of W = K Z holding their new velocities: sigma -= dt rho' (w + W) / 2, w = W."""
        m = len(W)
        Z[:m] += W
        Z[:m] *= self.half_dt_drho[:, None]
        Z[m:] -= Z[:m]
        Z[:m] = W

    def step(self, state: EvolveState) -> EvolveState:
        z = np.concatenate((state.w, state.sigma))
        w_new = self.K @ z
        if not np.isfinite(w_new).all():
            raise SingularStep(f"non-finite velocity at t = {state.t + self.dt:g}")
        self._update(z[:, None], w_new[:, None])
        return EvolveState(t=state.t + self.dt, sigma=z[len(w_new):], w=w_new)


def kinetic_energy(state: EvolveState, fs: FormSet) -> float:
    """Discrete energy (1/2) w' Jm w of the velocity amplitude."""
    return 0.5 * float(state.w @ fs.Jm @ state.w)


def _sampled_rows(t0, t1, P: np.ndarray, c: SlabConfig, fs: FormSet) -> list:
    """Rows (t, amplitude, energy, balance_residual) of the pairs of states
    [w; sigma] in P: P[b, 1] at time t1[b], one step after P[b, 0] at t0[b].
    balance_residual is the O(dt^2) defect of the kinetic-energy identity,
    with the dissipation and coupling terms averaged over the step's ends,
    normalized by the largest of its three terms."""
    m = P.shape[2] // 2
    gw = (c.g * fs.xi * fs.xi) * fs.grid.w[1:-1]

    def energy_and_rates(Z):
        # the energy, the dissipation w' Gm w and the coupling g xi^2 <sigma, w>
        W = Z[:, :m]
        return (0.5 * np.einsum("ij,ij->i", W @ fs.Jm, W),
                np.array([np.einsum("ij,ij->i", W @ fs.Gm, W),
                          np.einsum("ij,ij->i", Z[:, m:] * gw, W)]))

    (e0, r0), (e1, r1) = energy_and_rates(P[:, 0]), energy_and_rates(P[:, 1])
    t0, t1 = np.asarray(t0), np.asarray(t1)
    terms = np.vstack([(e1 - e0) / (t1 - t0), 0.5 * (r1 + r0)])
    scale = np.abs(terms).max(axis=0)
    bal = np.divide(np.abs(terms.sum(axis=0)), scale, out=np.zeros_like(scale),
                    where=scale != 0.0)
    return list(zip(t1.tolist(), np.sqrt(2.0 * e1).tolist(), e1.tolist(), bal.tolist()))


def _checked(rows: list, steps) -> list:
    """rows, unless SingularStep names the step and t of the first whose energy overflows."""
    for (t, _, e, _), step in zip(rows, steps):
        if not math.isfinite(e):
            raise SingularStep(f"amplitude overflows at step {step}, t = {t:g}")
    return rows


def _propagator_power(stepper: CrankNicolsonStepper, steps: int) -> np.ndarray:
    """The 2m x 2m map [w; sigma] -> [w; sigma] of `steps` steps, built by
    running the stepper's own arithmetic on the columns of the identity."""
    Z = np.eye(stepper.K.shape[1])
    W = stepper.K.copy()  # K times the identity
    stepper._update(Z, W)
    for _ in range(steps - 1):
        stepper._update(Z, np.matmul(stepper.K, Z, out=W))
    return Z


@dataclass
class SimulationResult:
    state: EvolveState
    rows: list  # (t, amplitude, energy, balance_residual) at sampled steps


# chained samples evaluated together
_ROW_BATCH = 64


def simulate(c: SlabConfig, fs: FormSet, w0: np.ndarray, sigma0: np.ndarray,
             dt: float, t_end: float, sample_every: int = 10) -> SimulationResult:
    """Run from t = 0 to t_end, sampling amplitude/energy every k =
    sample_every steps and at the last step.

    k plain steps reach the first sample and the state one step before it.
    That pair of states then runs as a chain: each next pair is its product
    with R = P^k (P the one-step map), and the rows of up to 64 pairs are
    evaluated together.  A batch of pairs that holds a non-finite value is
    dropped and the run ends in plain steps, so a non-finite velocity names
    the same step as a per-step loop; a sampled energy that overflows, row
    0's included, raises SingularStep naming step and t.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValueError("t_end must be positive and finite")
    stepper = CrankNicolsonStepper(c, fs, dt)
    state = EvolveState(t=0.0, sigma=np.asarray(sigma0, dtype=float).copy(),
                        w=np.asarray(w0, dtype=float).copy())
    nsteps = max(1, round(t_end / dt))
    k, m = sample_every, len(state.w)
    with np.errstate(over="ignore", invalid="ignore"):
        e = kinetic_energy(state, fs)
        rows = [(0.0, math.sqrt(2.0 * e), e, 0.0)]
        if np.isfinite(state.w).all():  # else step 1 names the non-finite velocity
            _checked(rows, [0])
        R = _propagator_power(stepper, k) if 1 < k and 2 * k <= nsteps else None
        # Z[b]: the states [w; sigma] one step before and at the b-th sample
        # of a batch; Z[0] holds the last pair taken
        Z = np.empty((_ROW_BATCH + 1, 2, 2 * m))
        i = 0
        while i < nsteps:
            nb = min(_ROW_BATCH, (nsteps - i) // k)  # full intervals
            if R is not None and i and nb:  # plain steps take the first pair
                pairs = Z[1:nb + 1]
                for b in range(1, nb + 1):
                    np.matmul(Z[b - 1], R.T, out=Z[b])
                if np.isfinite(pairs).all():
                    ts = [state.t]
                    for _ in range(nb * k):
                        ts.append(ts[-1] + dt)  # as the steps sum it, so the t column is the same
                    rows += _checked(_sampled_rows(ts[k - 1::k], ts[k::k], pairs, c, fs),
                                     range(i + k, nsteps + 1, k))
                    Z[0] = Z[nb]
                    state = EvolveState(t=ts[-1], sigma=Z[0, 1, m:].copy(), w=Z[0, 1, :m].copy())
                    i += nb * k
                    continue
                R = None  # plain steps from the last sample name the failure
            j = min(i + k, nsteps)
            prev = state
            for _ in range(j - i - 1):
                prev = stepper.step(prev)
            state, i = stepper.step(prev), j
            Z[0] = [np.concatenate((s.w, s.sigma)) for s in (prev, state)]
            rows += _checked(_sampled_rows([prev.t], [state.t], Z[:1], c, fs), [i])
    state.history = [row[:2] for row in rows]
    return SimulationResult(state=state, rows=rows)


def mode_initial_state(ms):
    """Initial data 1e-6 times a computed mode: w = lam psi, sigma = -rho' psi; where (1e-6 lam)^2
    is not a normal float, 2^-20 / lam times it, so that the energy does not underflow."""
    if (1e-6 * ms.lam) ** 2 >= np.finfo(float).tiny:
        return ms.lam * ms.psi * 1e-6, -ms.forms.drho_nodes[1:-1] * ms.psi * 1e-6
    return ms.psi * 2.0**-20, -ms.forms.drho_nodes[1:-1] * ms.psi * 2.0**-20 / ms.lam


def fit_growth_rate(history) -> float:
    """Least-squares slope of log(amplitude) over the final half of a history.

    Requires at least 10 samples whose amplitudes span an e-fold of change
    (growth or decay); zero or negative amplitudes are rejected outright.
    """
    hist = list(history)
    if len(hist) < 10:
        raise InsufficientGrowth(f"need at least 10 samples, got {len(hist)}")
    t = np.array([h[0] for h in hist], dtype=float)
    a = np.array([h[1] for h in hist], dtype=float)
    if np.any(a <= 0.0):
        raise InsufficientGrowth("amplitude history touches zero")
    if a.max() / a.min() < np.e:
        raise InsufficientGrowth("amplitude changed by less than one e-fold")
    k = len(hist) // 2
    e = _binary_exponent(t[k:])  # t 2^-e is exact, and polyfit's t^2 stays finite
    slope, _ = np.polyfit(np.ldexp(t[k:], -e), np.log(a[k:]), 1)
    return float(np.ldexp(slope, -e))
