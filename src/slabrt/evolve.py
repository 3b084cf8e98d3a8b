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
matrix-vector product; simulate advances a whole sample interval with one
product by a power of the one-step map and one step, and evaluates the
sampled rows in batches.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InsufficientGrowth, SingularStep
from .forms import FormSet
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

    def step(self, state: EvolveState) -> EvolveState:
        w_new = self.K @ np.concatenate((state.w, state.sigma))
        if not np.isfinite(w_new).all():
            raise SingularStep(f"non-finite velocity at t = {state.t + self.dt:g}")
        sigma_new = state.sigma - self.half_dt_drho * (state.w + w_new)
        return EvolveState(t=state.t + self.dt, sigma=sigma_new, w=w_new)


def kinetic_energy(state: EvolveState, fs: FormSet) -> float:
    """Discrete energy (1/2) w' Jm w of the velocity amplitude."""
    return 0.5 * float(state.w @ fs.Jm @ state.w)


def energy_balance_residual(before: EvolveState, after: EvolveState,
                            c: SlabConfig, fs: FormSet) -> float:
    """Defect of the discrete kinetic-energy identity over one step.

    The rate of change of (1/2) w' Jm w must balance the dissipation
    w' Gm w and the gravity coupling g xi^2 <sigma, w>; both are evaluated
    by the trapezoidal average of their endpoint values, so the defect is
    O(dt^2), matching the scheme's consistency order.  Returns the defect
    normalized by the largest of the three terms.
    """
    return _sampled_rows([(before, after)], c, fs)[0][3]


def _sampled_rows(pairs: list, c: SlabConfig, fs: FormSet) -> list:
    """Rows (t, amplitude, energy, balance_residual) of the `after` states of
    (before, after) step pairs, with one product by Jm and one by Gm."""
    states = [s for pair in pairs for s in pair]
    W = np.array([s.w for s in states])
    t = np.array([s.t for s in states])
    e = 0.5 * np.einsum("ij,ij->i", W @ fs.Jm, W)
    S = np.array([s.sigma for s in states]) * ((c.g * fs.xi * fs.xi) * fs.grid.w[1:-1])
    # per state the dissipation w' Gm w and the coupling g xi^2 <sigma, w>
    rates = np.array([np.einsum("ij,ij->i", W @ fs.Gm, W), np.einsum("ij,ij->i", S, W)])
    terms = np.vstack([(e[1::2] - e[::2]) / (t[1::2] - t[::2]),
                       0.5 * (rates[:, 1::2] + rates[:, ::2])])
    scale = np.abs(terms).max(axis=0)
    bal = np.divide(np.abs(terms.sum(axis=0)), scale, out=np.zeros_like(scale),
                    where=scale != 0.0)
    e = e[1::2]
    return list(zip(t[1::2].tolist(), np.sqrt(2.0 * e).tolist(), e.tolist(), bal.tolist()))


def _propagator_power(stepper: CrankNicolsonStepper, steps: int) -> np.ndarray:
    """The 2m x 2m map [w; sigma] -> [w; sigma] of `steps` steps, built by
    running the stepper's own arithmetic on the columns of the identity."""
    m = stepper.K.shape[0]
    Z = np.eye(2 * m)
    h = stepper.half_dt_drho[:, None]
    for _ in range(steps):
        W = stepper.K @ Z
        Z[:m] += W
        Z[:m] *= h
        Z[m:] -= Z[:m]
        Z[:m] = W
    return Z


@dataclass
class SimulationResult:
    state: EvolveState
    rows: list  # (t, amplitude, energy, balance_residual) at sampled steps


# 0.5 |Jm|_inf |w|^2 below this bounds the sampled energy far from overflow
_ENERGY_SAFE = 1e300
# sampled step pairs whose rows are evaluated together
_ROW_BATCH = 64


def simulate(c: SlabConfig, fs: FormSet, w0: np.ndarray, sigma0: np.ndarray,
             dt: float, t_end: float, sample_every: int = 10) -> SimulationResult:
    """Run from t = 0 to t_end, sampling amplitude/energy every k =
    sample_every steps and at the last step.  A full interval is one product
    with Q = P^(k-1) (P the one-step map) and one step; a non-finite product
    is replayed step by step, so a non-finite velocity names the same step,
    and a sampled energy that overflows raises SingularStep naming step and t."""
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    stepper = CrankNicolsonStepper(c, fs, dt)
    state = EvolveState(t=0.0, sigma=np.asarray(sigma0, dtype=float).copy(),
                        w=np.asarray(w0, dtype=float).copy())
    e = kinetic_energy(state, fs)
    rows = [(0.0, math.sqrt(2.0 * e), e, 0.0)]
    nsteps = max(1, round(t_end / dt))
    k, m = sample_every, len(state.w)
    Q = _propagator_power(stepper, k - 1) if 1 < k <= nsteps else None
    half_jnorm = 0.5 * np.linalg.norm(fs.Jm, np.inf)
    pending, i = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        while i < nsteps:
            j = min(i + k, nsteps)
            prev = None
            if Q is not None and j - i == k:
                z = Q @ np.concatenate((state.w, state.sigma))
                if np.isfinite(z).all():
                    t = state.t
                    for _ in range(k - 1):
                        t += dt  # as the steps sum it, so the t column is the same
                    prev = EvolveState(t=t, sigma=z[m:], w=z[:m])
            if prev is None:  # sample_every = 1, a partial interval or a replay
                prev = state
                for _ in range(j - i - 1):
                    prev = stepper.step(prev)
            state, i = stepper.step(prev), j
            pending.append((prev, state))
            if not half_jnorm * float(state.w @ state.w) < _ENERGY_SAFE:
                if not math.isfinite(kinetic_energy(state, fs)):
                    raise SingularStep(f"amplitude overflows at step {i}, t = {state.t:g}")
            if len(pending) == _ROW_BATCH or i == nsteps:
                rows += _sampled_rows(pending, c, fs)
                pending = []
    state.history = [row[:2] for row in rows]
    return SimulationResult(state=state, rows=rows)


def mode_initial_state(ms, amplitude_scale: float = 1e-6):
    """Initial data proportional to a computed mode: w = lam psi, sigma = -rho' psi."""
    w0 = ms.lam * ms.psi * amplitude_scale
    sigma0 = -ms.forms.drho_nodes[1:-1] * ms.psi * amplitude_scale
    return w0, sigma0


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
    slope, _ = np.polyfit(t[k:], np.log(a[k:]), 1)
    return float(slope)
