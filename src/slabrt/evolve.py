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
balance whose defect measures the consistency order.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InsufficientGrowth, SingularStep
from .forms import FormSet
from .profiles import SlabConfig


@dataclass
class EvolveState:
    """State of one simulation: sigma on all nodes, w on interior nodes."""

    xi: float
    t: float
    sigma: np.ndarray
    w: np.ndarray
    dt: float
    history: list = field(default_factory=list)


class CrankNicolsonStepper:
    """Prefactored trapezoidal stepper for one (FormSet, dt) pair."""

    def __init__(self, c: SlabConfig, fs: FormSet, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.c = c
        self.fs = fs
        self.dt = dt
        self.gx2 = c.g * fs.xi * fs.xi
        self.w_int = fs.grid.w[1:-1]
        self.drho_int = fs.drho_nodes[1:-1]
        D = np.diag(self.w_int * self.drho_int)
        A = fs.Jm / dt + 0.5 * fs.Gm - 0.25 * self.gx2 * dt * D
        self.B = fs.Jm / dt - 0.5 * fs.Gm + 0.25 * self.gx2 * dt * D
        try:
            self.lu = sla.lu_factor(A)
        except sla.LinAlgError as exc:
            raise SingularStep(f"implicit matrix factorization failed: {exc}") from exc
        if np.any(np.diag(self.lu[0]) == 0.0):
            raise SingularStep("implicit matrix is numerically singular")

    def step(self, state: EvolveState) -> EvolveState:
        rhs = self.B @ state.w - self.gx2 * (self.w_int * state.sigma[1:-1])
        w_new = sla.lu_solve(self.lu, rhs)
        if not np.all(np.isfinite(w_new)):
            raise SingularStep(f"non-finite velocity at t = {state.t + self.dt:g}")
        sigma_new = state.sigma.copy()
        sigma_new[1:-1] -= self.dt * self.drho_int * 0.5 * (state.w + w_new)
        return EvolveState(xi=state.xi, t=state.t + self.dt, sigma=sigma_new,
                           w=w_new, dt=self.dt, history=state.history)


def kinetic_energy(state: EvolveState, fs: FormSet) -> float:
    """Discrete energy (1/2) w' Jm w of the velocity amplitude."""
    return 0.5 * float(state.w @ fs.Jm @ state.w)


def amplitude(state: EvolveState, fs: FormSet) -> float:
    return float(np.sqrt(state.w @ fs.Jm @ state.w))


def energy_balance_residual(before: EvolveState, after: EvolveState,
                            c: SlabConfig, fs: FormSet) -> float:
    """Defect of the discrete kinetic-energy identity over one step.

    The rate of change of (1/2) w' Jm w must balance the dissipation
    w' Gm w and the gravity coupling g xi^2 <sigma, w>; both are evaluated
    by the trapezoidal average of their endpoint values, so the defect is
    O(dt^2), matching the scheme's consistency order.  Returns the defect
    normalized by the largest of the three terms.
    """
    dt = after.t - before.t
    gx2 = c.g * fs.xi * fs.xi
    w_int = fs.grid.w[1:-1]
    dE = (kinetic_energy(after, fs) - kinetic_energy(before, fs)) / dt
    diss = 0.5 * (float(after.w @ fs.Gm @ after.w) + float(before.w @ fs.Gm @ before.w))
    coup = 0.5 * gx2 * (float((w_int * after.sigma[1:-1]) @ after.w)
                        + float((w_int * before.sigma[1:-1]) @ before.w))
    r = dE + diss + coup
    scale = max(abs(dE), abs(diss), abs(coup))
    if scale == 0.0:
        return 0.0
    return abs(r) / scale


@dataclass
class SimulationResult:
    state: EvolveState
    rows: list  # (t, amplitude, energy, balance_residual) at sampled steps


def simulate(c: SlabConfig, fs: FormSet, w0: np.ndarray, sigma0: np.ndarray,
             dt: float, t_end: float, sample_every: int = 10) -> SimulationResult:
    """Run from t = 0 to t_end, sampling amplitude/energy every few steps."""
    stepper = CrankNicolsonStepper(c, fs, dt)
    state = EvolveState(xi=fs.xi, t=0.0, sigma=np.asarray(sigma0, dtype=float).copy(),
                        w=np.asarray(w0, dtype=float).copy(), dt=dt)
    a0 = amplitude(state, fs)
    state.history.append((0.0, a0))
    rows = [(0.0, a0, kinetic_energy(state, fs), 0.0)]
    nsteps = max(1, round(t_end / dt))
    for i in range(1, nsteps + 1):
        prev = state
        state = stepper.step(state)
        if i % sample_every == 0 or i == nsteps:
            bal = energy_balance_residual(prev, state, c, fs)
            a = amplitude(state, fs)
            state.history.append((state.t, a))
            rows.append((state.t, a, kinetic_energy(state, fs), bal))
    return SimulationResult(state=state, rows=rows)


def mode_initial_state(ms, amplitude_scale: float = 1e-6):
    """Initial data proportional to a computed mode: w = lam psi, sigma = -rho' psi."""
    fs = ms.forms
    psi_f = ms.psi_full()
    w0 = ms.lam * ms.psi * amplitude_scale
    sigma0 = -fs.drho_nodes * psi_f * amplitude_scale
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
