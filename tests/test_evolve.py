import numpy as np
import pytest

from slabrt import (
    CrankNicolsonStepper,
    EvolveState,
    SlabConfig,
    assemble_forms,
    energy_balance_residual,
    fit_growth_rate,
    kinetic_energy,
    mode_initial_state,
    simulate,
)
from slabrt.errors import InsufficientGrowth


def test_zero_initial_data_stays_zero(profile_up, default_config, grid64):
    fs = assemble_forms(profile_up, default_config, grid64, 2.0)
    state = EvolveState(xi=2.0, t=0.0, sigma=np.zeros(grid64.n),
                        w=np.zeros(grid64.n - 2), dt=1e-3)
    stepper = CrankNicolsonStepper(default_config, fs, state.dt)
    for _ in range(5):
        state = stepper.step(state)
    assert np.all(state.w == 0.0)
    assert np.all(state.sigma == 0.0)


def test_mode_substitution_solves_discrete_system(default_mode):
    # w = lam psi, sigma = -rho' psi turns the system into the quadratic
    # pencil; the computed mode satisfies it by construction
    fs = default_mode.forms
    lam = default_mode.lam
    v = default_mode.psi
    r = lam * lam * (fs.Jm @ v) + lam * (fs.Gm @ v) - fs.E2m @ v
    den = (lam * lam * np.linalg.norm(fs.Jm, 2) + lam * np.linalg.norm(fs.Gm, 2)
           + np.linalg.norm(fs.E2m, 2))
    assert np.linalg.norm(r) / den <= 1e-10


def test_mode_initialized_growth(default_mode, default_config):
    # rate fit over ~4 e-folds matches the eigenvalue to much better
    # than the 1e-3 contract
    fs = default_mode.forms
    lam = default_mode.lam
    w0, s0 = mode_initial_state(default_mode)
    sim = simulate(default_config, fs, w0, s0, 1e-3 / lam, 4.0 / lam)
    lam_fit = fit_growth_rate(sim.state.history)
    assert abs(lam_fit - lam) / lam <= 1e-3


def test_pure_dissipation_energy_monotone(profile_up, grid64, rng):
    # g = 0 decouples the density; nonpositive slip makes every step lossy
    c = SlabConfig(mu=0.01, g=0.0, k0=-1.0, k1=-0.5, L=1.0)
    fs = assemble_forms(profile_up, c, grid64, 2.0)
    w0 = rng.standard_normal(grid64.n - 2)
    sim = simulate(c, fs, w0, np.zeros(grid64.n), 1e-3, 0.5, sample_every=1)
    energies = [row[2] for row in sim.rows]
    for a, b in zip(energies, energies[1:]):
        assert b <= a * (1.0 + 1e-13)


def test_balance_residual_zero_state(profile_up, default_config, grid64):
    fs = assemble_forms(profile_up, default_config, grid64, 2.0)
    z = EvolveState(xi=2.0, t=0.0, sigma=np.zeros(grid64.n),
                    w=np.zeros(grid64.n - 2), dt=1e-3)
    z2 = CrankNicolsonStepper(default_config, fs, z.dt).step(z)
    assert energy_balance_residual(z, z2, default_config, fs) == 0.0


def test_balance_residual_small_at_fine_step(default_mode, default_config):
    fs = default_mode.forms
    w0, s0 = mode_initial_state(default_mode)
    sim = simulate(default_config, fs, w0, s0, 1e-4, 0.02, sample_every=1)
    assert max(row[3] for row in sim.rows[1:]) <= 1e-6


def test_balance_residual_second_order(default_mode, default_config):
    # Richardson check above the cancellation floor: halving dt divides the
    # defect by ~4
    fs = default_mode.forms
    w0, s0 = mode_initial_state(default_mode, amplitude_scale=1e-3)
    res = {}
    for dt in (8e-3, 4e-3, 2e-3):
        sim = simulate(default_config, fs, w0, s0, dt, 0.4, sample_every=1)
        res[dt] = max(row[3] for row in sim.rows[1:])
    assert res[8e-3] / res[4e-3] == pytest.approx(4.0, abs=1.0)
    assert res[4e-3] / res[2e-3] == pytest.approx(4.0, abs=1.0)


def test_fit_exact_exponential():
    t = np.linspace(0.0, 3.0, 40)
    hist = list(zip(t, np.exp(2.0 * t)))
    assert fit_growth_rate(hist) == pytest.approx(2.0, abs=1e-12)


def test_fit_perturbed_exponential():
    t = np.linspace(0.0, 6.0, 80)
    hist = list(zip(t, np.exp(t) * (1.0 + 0.01 * np.sin(t))))
    assert fit_growth_rate(hist) == pytest.approx(1.0, abs=0.01)


def test_fit_decay_is_negative():
    t = np.linspace(0.0, 3.0, 40)
    hist = list(zip(t, np.exp(-1.5 * t)))
    assert fit_growth_rate(hist) == pytest.approx(-1.5, abs=1e-12)


def test_fit_rejects_flat_history():
    t = np.linspace(0.0, 3.0, 40)
    with pytest.raises(InsufficientGrowth):
        fit_growth_rate(list(zip(t, np.full_like(t, 2.0))))


def test_fit_rejects_zero_amplitudes():
    t = np.linspace(0.0, 3.0, 40)
    with pytest.raises(InsufficientGrowth):
        fit_growth_rate(list(zip(t, np.zeros_like(t))))


def test_fit_rejects_short_history():
    with pytest.raises(InsufficientGrowth):
        fit_growth_rate([(0.0, 1.0), (1.0, 10.0)])


def test_generic_initial_data_converges_to_dominant_mode(profile_up, default_config,
                                                         grid64, rng):
    # after the transient the fitted rate matches the dominant eigenvalue
    # regardless of (generic) initial data
    from slabrt import companion_oracle

    fs = assemble_forms(profile_up, default_config, grid64, 2.0)
    lam_hat, _ = companion_oracle(fs)
    w0 = rng.standard_normal(grid64.n - 2) * 1e-6
    # the fit uses the final half of the history, so this leaves a
    # transient of 6 e-folding times for the subdominant modes to die
    sim = simulate(default_config, fs, w0, np.zeros(grid64.n), 1e-3 / lam_hat,
                   12.0 / lam_hat)
    lam_fit = fit_growth_rate(sim.state.history)
    assert abs(lam_fit - lam_hat) / lam_hat <= 1e-3


def test_stable_total_energy_monotone(profile_down, grid64, rng):
    # stratification-weighted energy is a discrete Lyapunov functional when
    # the density decreases with height and the dissipation form is PSD
    c = SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0)
    fs = assemble_forms(profile_down, c, grid64, 2.0)
    wq = grid64.w[1:-1]
    gx2 = c.g * 4.0

    def total_energy(s):
        buoy = 0.5 * gx2 * np.sum(wq * s.sigma[1:-1] ** 2 / (-fs.drho_nodes[1:-1]))
        return kinetic_energy(s, fs) + buoy

    state = EvolveState(xi=2.0, t=0.0, sigma=np.zeros(grid64.n),
                        w=rng.standard_normal(grid64.n - 2) * 1e-3, dt=1e-3)
    stepper = CrankNicolsonStepper(c, fs, 1e-3)
    prev = total_energy(state)
    for _ in range(1500):
        state = stepper.step(state)
        cur = total_energy(state)
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur


def test_stepper_rejects_bad_dt(profile_up, default_config, grid64):
    fs = assemble_forms(profile_up, default_config, grid64, 2.0)
    with pytest.raises(ValueError):
        CrankNicolsonStepper(default_config, fs, 0.0)
