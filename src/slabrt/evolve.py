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
matrix-vector product.
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
    return _balance_defect(before, after, kinetic_energy(before, fs),
                           kinetic_energy(after, fs), c, fs)


def _balance_defect(before: EvolveState, after: EvolveState, e_before: float,
                    e_after: float, c: SlabConfig, fs: FormSet) -> float:
    """energy_balance_residual given both states' kinetic energies."""
    dt = after.t - before.t
    gx2 = c.g * fs.xi * fs.xi
    w_int = fs.grid.w[1:-1]
    dE = (e_after - e_before) / dt
    diss = 0.5 * (float(after.w @ fs.Gm @ after.w) + float(before.w @ fs.Gm @ before.w))
    coup = 0.5 * gx2 * (float((w_int * after.sigma) @ after.w)
                        + float((w_int * before.sigma) @ before.w))
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
    """Run from t = 0 to t_end, sampling amplitude/energy every few steps;
    a sampled energy that overflows raises SingularStep naming step and t."""
    stepper = CrankNicolsonStepper(c, fs, dt)
    state = EvolveState(t=0.0, sigma=np.asarray(sigma0, dtype=float).copy(),
                        w=np.asarray(w0, dtype=float).copy())
    e = kinetic_energy(state, fs)
    rows = [(0.0, math.sqrt(2.0 * e), e, 0.0)]
    nsteps = max(1, round(t_end / dt))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, nsteps + 1):
            prev = state
            state = stepper.step(state)
            if i % sample_every == 0 or i == nsteps:
                e = kinetic_energy(state, fs)
                if not math.isfinite(e):
                    raise SingularStep(f"amplitude overflows at step {i}, t = {state.t:g}")
                bal = _balance_defect(prev, state, kinetic_energy(prev, fs), e, c, fs)
                rows.append((state.t, math.sqrt(2.0 * e), e, bal))
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
