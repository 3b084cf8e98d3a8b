import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

import slabrt.evolve
from slabrt import (
    CrankNicolsonStepper,
    EvolveState,
    SlabConfig,
    assemble_forms,
    build_grid,
    fit_growth_rate,
    growth_rate,
    kinetic_energy,
    mode_initial_state,
    preset_profile,
    simulate,
)
from slabrt.errors import InsufficientGrowth, SingularStep


def test_state_holds_only_time_fields_and_history():
    # xi belongs to the FormSet and dt to the stepper
    assert [f.name for f in dataclasses.fields(EvolveState)] == ["t", "sigma", "w", "history"]


def test_zero_initial_data_stays_zero(profile_up, default_config, grid64):
    fs = assemble_forms(profile_up, default_config, grid64, 2.0)
    state = EvolveState(t=0.0, sigma=np.zeros(grid64.n - 2), w=np.zeros(grid64.n - 2))
    stepper = CrankNicolsonStepper(default_config, fs, 1e-3)
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
    lam_fit = fit_growth_rate(sim.rows)
    assert abs(lam_fit - lam) / lam <= 1e-3


def test_pure_dissipation_energy_monotone(profile_up, grid64, rng):
    # g = 0 decouples the density; nonpositive slip makes every step lossy
    c = SlabConfig(mu=0.01, g=0.0, k0=-1.0, k1=-0.5, L=1.0)
    fs = assemble_forms(profile_up, c, grid64, 2.0)
    w0 = rng.standard_normal(grid64.n - 2)
    sim = simulate(c, fs, w0, np.zeros(grid64.n - 2), 1e-3, 0.5, sample_every=1)
    energies = [row[2] for row in sim.rows]
    for a, b in zip(energies, energies[1:]):
        assert b <= a * (1.0 + 1e-13)


def test_balance_residual_zero_state(profile_up, default_config, grid64):
    fs = assemble_forms(profile_up, default_config, grid64, 2.0)
    z = EvolveState(t=0.0, sigma=np.zeros(grid64.n - 2), w=np.zeros(grid64.n - 2))
    z2 = CrankNicolsonStepper(default_config, fs, 1e-3).step(z)
    assert slabrt.evolve._row(z, z2, default_config, fs)[3] == 0.0


def _per_step_rows(c, fs, w0, sigma0, dt, nsteps, sample_every):
    """simulate's rows and final state by a plain loop of stepper steps."""
    stepper = CrankNicolsonStepper(c, fs, dt)
    state = EvolveState(t=0.0, sigma=sigma0.copy(), w=w0.copy())
    e = kinetic_energy(state, fs)
    rows = [(0.0, np.sqrt(2.0 * e), e, 0.0)]
    for i in range(1, nsteps + 1):
        prev, state = state, stepper.step(state)
        if i % sample_every == 0 or i == nsteps:
            e = kinetic_energy(state, fs)
            rows.append((state.t, np.sqrt(2.0 * e), e,
                         slabrt.evolve._row(prev, state, c, fs)[3]))
    return rows, state


@pytest.mark.parametrize("sample_every", [1, 3, 10])
def test_simulate_matches_per_step_loop(profile_up, default_config, grid32, sample_every):
    # 4,005 steps leave a partial final interval for k = 10; the t column is
    # accumulated by the same additions, the rest agrees to rounding
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    y = grid32.nodes[1:-1]
    w0, sigma0 = 1e-3 * np.sin(np.pi * y), 1e-3 * np.cos(3.0 * y) * y * (1.0 - y)
    sim = simulate(default_config, fs, w0, sigma0, 1e-3, 4.005, sample_every=sample_every)
    rows, state = _per_step_rows(default_config, fs, w0, sigma0, 1e-3, 4005, sample_every)
    assert len(sim.rows) == len(rows) == 1 + -(-4005 // sample_every)
    got, ref = np.array(sim.rows), np.array(rows)
    assert np.array_equal(got[:, 0], ref[:, 0]) and sim.state.t == state.t
    assert np.allclose(got[:, 1:3], ref[:, 1:3], rtol=1e-9, atol=0.0)
    assert np.max(np.abs(got[:, 3] - ref[:, 3])) <= 1e-9
    assert np.allclose(sim.state.w, state.w, rtol=1e-9, atol=1e-9 * np.abs(state.w).max())
    assert sim.state.history == [row[:2] for row in sim.rows]


def test_chain_runs_through_the_batches(profile_up, default_config, grid32, monkeypatch):
    # 4,005 steps at k = 10: 10 steps reach the first pair of states, which
    # then runs through all 7 batches of 399 chained pairs; 5 steps end the run
    calls = []
    step = CrankNicolsonStepper.step
    monkeypatch.setattr(CrankNicolsonStepper, "step",
                        lambda self, state: calls.append(1) or step(self, state))
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w0 = 1e-3 * np.sin(np.pi * grid32.nodes[1:-1])
    sim = simulate(default_config, fs, w0, np.zeros_like(w0), 1e-3, 4.005)
    assert len(calls) == 15 and len(sim.rows) == 402


def test_non_finite_chain_falls_back_to_plain_steps(profile_up, default_config, grid32,
                                                     monkeypatch):
    # with one NaN in R every batch of pairs is dropped, so the run ends in
    # plain steps and still matches the per-step loop
    power = slabrt.evolve._propagator_power

    def nan_power(stepper, steps):
        R = power(stepper, steps)
        R[0, 0] = np.nan
        return R

    calls = []
    step = CrankNicolsonStepper.step
    monkeypatch.setattr(slabrt.evolve, "_propagator_power", nan_power)
    monkeypatch.setattr(CrankNicolsonStepper, "step",
                        lambda self, state: calls.append(1) or step(self, state))
    test_simulate_matches_per_step_loop(profile_up, default_config, grid32, 10)
    assert len(calls) == 2 * 4005  # simulate's steps, then the per-step loop's


def test_simulate_rejects_sample_every_below_one(profile_up, default_config, grid32):
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w0 = np.ones(grid32.n - 2)
    for k in (0, -3):
        with pytest.raises(ValueError, match="sample_every must be at least 1"):
            simulate(default_config, fs, w0, np.zeros_like(w0), 1e-3, 0.1, sample_every=k)


def test_simulate_rejects_non_finite_initial_velocity(profile_up, default_config, grid32):
    # the plain steps that reach the first pair fail at step 1
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w = np.ones(grid32.n - 2)
    w[3] = np.nan
    with pytest.raises(SingularStep, match=r"^non-finite velocity at t = 0\.001$"):
        simulate(default_config, fs, w, np.zeros_like(w), 1e-3, 0.1, sample_every=10)


def _first_failure(c, fs, w0, dt, nsteps, k):
    """simulate's first error by a plain loop of stepper steps that checks
    the exact energy of every k-th state, and the step where it happens."""
    stepper = CrankNicolsonStepper(c, fs, dt)
    state = EvolveState(t=0.0, sigma=np.zeros_like(w0), w=w0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, nsteps + 1):
            try:
                state = stepper.step(state)
            except SingularStep as exc:
                return str(exc), i
            if i % k == 0 and not np.isfinite(kinetic_energy(state, fs)):
                return f"amplitude overflows at step {i}, t = {state.t:g}", i
    return None, None


def _simulate_failure(c, fs, w0, dt, nsteps, k):
    with pytest.raises(SingularStep) as sampled:
        simulate(c, fs, w0, np.zeros_like(w0), dt, nsteps * dt, sample_every=k)
    return str(sampled.value)


def test_overflowing_interval_names_the_per_step_failure(profile_up, default_config,
                                                         grid32):
    # at dt = 4 the amplitude grows by 10^0.94 a step, so from an initial
    # energy far from overflow the velocity overflows inside the first
    # interval, in the steps that reach the first chain state
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w0 = 10.0 ** 139.6 * np.sin(np.pi * grid32.nodes[1:-1])
    message, step = _first_failure(default_config, fs, w0, 4.0, 1000, 200)
    assert message.startswith("non-finite velocity") and step == 180
    assert _simulate_failure(default_config, fs, w0, 4.0, 1000, 200) == message


@pytest.mark.parametrize("dt,k,log_amplitude,step", [
    (4.0, 200, -48.7, 380),   # velocity, inside the first chained interval
    (4.0, 200, -67.5, 400),   # velocity, at the first chained sample
    (1.0, 10, 41.2, 650),     # energy, sample 65: the last of the first batch of pairs
    (1.0, 10, 34.2, 690),     # energy, sample 69: the 4th of the second batch
    (1.0, 10, -69.0, 1280),   # energy, sample 128: the 63rd of the second batch
], ids=["chain", "sampled-step", "batch2-1st", "batch2-5th", "batch2-64th"])
def test_chain_failure_names_the_per_step_failure(profile_up, default_config, grid32, dt,
                                                  k, log_amplitude, step):
    # a velocity that overflows after the first sample must grow by ~10^154
    # in one interval (from a finite sampled energy to overflow), so at
    # k = 10 every later failure is a sampled energy, raised from a finite
    # batch of pairs; k = 200 at dt = 4 reaches the velocity failures, where
    # the batch is dropped and the plain steps name the failure.  The ids
    # count the samples in groups of 64.
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w0 = 10.0 ** log_amplitude * np.sin(np.pi * grid32.nodes[1:-1])
    nsteps = 1300 if k == 10 else 1000
    message, failed_at = _first_failure(default_config, fs, w0, dt, nsteps, k)
    assert failed_at == step
    assert message.startswith("non-finite velocity" if k == 200 else "amplitude overflows")
    assert _simulate_failure(default_config, fs, w0, dt, nsteps, k) == message


def test_overflowing_initial_energy_names_step_0(profile_up, default_config, grid32):
    # the suite turns RuntimeWarnings into errors, so row 0 is evaluated
    # under the same overflow guard as every other row
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w0 = 1e305 * np.sin(np.pi * grid32.nodes[1:-1])
    with pytest.raises(SingularStep, match=r"^amplitude overflows at step 0, t = 0$"):
        simulate(default_config, fs, w0, np.zeros_like(w0), 1.0, 40.0)


@pytest.mark.parametrize("t_end", [-5.0, 0.0, float("inf"), float("nan")])
def test_simulate_rejects_bad_t_end(profile_up, default_config, grid32, t_end):
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w0 = np.ones(grid32.n - 2)
    with pytest.raises(ValueError, match="t_end must be positive and finite"):
        simulate(default_config, fs, w0, np.zeros_like(w0), 1e-3, t_end)


def test_t_end_below_dt_runs_one_step(profile_up, default_config, grid32):
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w0 = np.ones(grid32.n - 2)
    sim = simulate(default_config, fs, w0, np.zeros_like(w0), 1e-3, 4e-4)
    assert [row[0] for row in sim.rows] == [0.0, 1e-3] and sim.state.t == 1e-3


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
    sim = simulate(default_config, fs, w0, np.zeros(grid64.n - 2), 1e-3 / lam_hat,
                   12.0 / lam_hat)
    lam_fit = fit_growth_rate(sim.rows)
    assert abs(lam_fit - lam_hat) / lam_hat <= 1e-3


def test_stable_total_energy_monotone(profile_down, grid64, rng):
    # stratification-weighted energy is a discrete Lyapunov functional when
    # the density decreases with height and the dissipation form is PSD
    c = SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0)
    fs = assemble_forms(profile_down, c, grid64, 2.0)
    wq = grid64.w[1:-1]
    gx2 = c.g * 4.0

    def total_energy(s):
        buoy = 0.5 * gx2 * np.sum(wq * s.sigma ** 2 / (-fs.drho_nodes[1:-1]))
        return kinetic_energy(s, fs) + buoy

    state = EvolveState(t=0.0, sigma=np.zeros(grid64.n - 2),
                        w=rng.standard_normal(grid64.n - 2) * 1e-3)
    stepper = CrankNicolsonStepper(c, fs, 1e-3)
    prev = total_energy(state)
    for _ in range(1500):
        state = stepper.step(state)
        cur = total_energy(state)
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur


def test_stepper_rejects_bad_dt(profile_up, default_config, grid64):
    fs = assemble_forms(profile_up, default_config, grid64, 2.0)
    for dt in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            CrankNicolsonStepper(default_config, fs, dt)


def _cn_case(profile_exp, profile_down, default_config, grid32, stable):
    # xi = 3 and rho' = e^y keep the products inexact, and dt = 0.1 with a
    # large sigma keeps the coupling term from vanishing, growing or decaying
    if stable:
        p, c = profile_down, SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0)
    else:
        p, c = profile_exp, default_config
    fs = assemble_forms(p, c, grid32, 3.0)
    y = grid32.nodes[1:-1]
    state = EvolveState(t=0.0, sigma=100.0 * np.cos(3.0 * y) * y * (1.0 - y),
                        w=np.sin(np.pi * y))
    return c, fs, CrankNicolsonStepper(c, fs, 0.1), state


def _cn_matrices(c, fs, dt):
    """The Crank-Nicolson equations A w_new = B w - g xi^2 (w_int sigma)."""
    gx2 = c.g * fs.xi * fs.xi
    w_int = fs.grid.w[1:-1]
    D = np.diag(w_int * fs.drho_nodes[1:-1])
    A = fs.Jm / dt + 0.5 * fs.Gm - 0.25 * gx2 * dt * D
    B = fs.Jm / dt - 0.5 * fs.Gm + 0.25 * gx2 * dt * D
    return A, B, gx2 * w_int


@pytest.mark.parametrize("stable", [False, True])
def test_step_is_one_product_with_the_propagator(profile_exp, profile_down, default_config,
                                                 grid32, stable):
    # each step is K [w; sigma] and the trapezoidal sigma update, exactly
    c, fs, stepper, state = _cn_case(profile_exp, profile_down, default_config, grid32, stable)
    ref = state
    for _ in range(50):
        state = stepper.step(state)
        w_new = stepper.K @ np.concatenate((ref.w, ref.sigma))
        sigma_new = ref.sigma - stepper.half_dt_drho * (ref.w + w_new)
        ref = EvolveState(t=ref.t + stepper.dt, sigma=sigma_new, w=w_new)
        assert state.t == ref.t
        assert np.array_equal(state.w, ref.w) and np.array_equal(state.sigma, ref.sigma)


@pytest.mark.parametrize("stable", [False, True])
def test_propagator_power_one_is_the_step_on_identity_columns(profile_exp, profile_down,
                                                              default_config, grid32, stable):
    # R = P^1 starts from K itself; column j is one step from the j-th unit state
    c, fs, stepper, _ = _cn_case(profile_exp, profile_down, default_config, grid32, stable)
    m = stepper.K.shape[0]
    cols = []
    for e in np.eye(2 * m):
        after = stepper.step(EvolveState(t=0.0, sigma=e[m:], w=e[:m]))
        cols.append(np.concatenate((after.w, after.sigma)))
    assert np.array_equal(slabrt.evolve._propagator_power(stepper, 1), np.array(cols).T)


@pytest.mark.parametrize("stable", [False, True])
def test_step_agrees_with_lu_solve_within_conditioning(profile_exp, profile_down,
                                                       default_config, grid32, stable):
    # from the same state, the propagator's step and a fresh LU solve of the
    # CN equations differ by no more than m eps cond(A), relative
    c, fs, stepper, state = _cn_case(profile_exp, profile_down, default_config, grid32, stable)
    A, B, gx2_w = _cn_matrices(c, fs, stepper.dt)
    lu = sla.lu_factor(A)
    bound = A.shape[0] * np.finfo(float).eps * np.linalg.cond(A)
    for _ in range(50):
        w_lu = sla.lu_solve(lu, B @ state.w - gx2_w * state.sigma)
        state = stepper.step(state)
        assert np.linalg.norm(state.w - w_lu) <= bound * np.linalg.norm(w_lu)


def test_trajectory_tracks_lu_solve_reference():
    # the crosscheck physics at n = 64: sampled amplitudes of a 4,000-step
    # growing run stay within 1e-6 relative of a per-step LU solve
    grid = build_grid(64)
    c = SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0)
    ms = growth_rate(preset_profile("tanh-layer", y_c=0.5, w=0.05), c, grid, 2.0)
    fs, dt = ms.forms, 1e-3 / ms.lam
    w, sigma = mode_initial_state(ms)
    sim = simulate(c, fs, w, sigma, dt, 4.0 / ms.lam)
    A, B, gx2_w = _cn_matrices(c, fs, dt)
    lu = sla.lu_factor(A)
    half_dt_drho = dt * fs.drho_nodes[1:-1] * 0.5
    ref = [np.sqrt(w @ fs.Jm @ w)]
    for i in range(1, 4001):
        w_new = sla.lu_solve(lu, B @ w - gx2_w * sigma)
        sigma = sigma - half_dt_drho * (w + w_new)
        w = w_new
        if i % 10 == 0:
            ref.append(np.sqrt(w @ fs.Jm @ w))
    amp = np.array([row[1] for row in sim.rows])
    assert len(amp) == len(ref) == 401
    assert np.max(np.abs(amp / ref - 1.0)) <= 1e-6


def test_step_rejects_non_finite_velocity(profile_up, default_config, grid32):
    fs = assemble_forms(profile_up, default_config, grid32, 2.0)
    w = np.ones(grid32.n - 2)
    w[3] = np.nan
    state = EvolveState(t=0.0, sigma=np.zeros_like(w), w=w)
    with pytest.raises(SingularStep, match=r"^non-finite velocity at t = 0\.001$"):
        CrankNicolsonStepper(default_config, fs, 1e-3).step(state)
