import gc
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slabrt import (
    SlabConfig,
    alpha,
    assemble_forms,
    build_grid,
    c0_constant,
    companion_oracle,
    constant_profile,
    critical_frequency,
    escape_time,
    growth_rate,
    preset_profile,
    reconstruct_mode,
    scan_band,
)
import slabrt.dispersion
import slabrt.forms
import slabrt.variational
from slabrt.cli import _scan, load_config
from slabrt.dispersion import _linearization
from slabrt.errors import ConvergenceFailure, EigensolveFailure, EmptyBand, NonPositiveHorizon
from slabrt.variational import _ReducedPencil

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("c", [
    SlabConfig(mu=0.01, g=1.0, k0=1e160, k1=0.0, L=1.0),  # rate about 1.6e164
    SlabConfig(mu=1e160, g=1.0, k0=0.0, k1=0.0, L=1.0),  # rate about 2.0794e-162
    SlabConfig(mu=1e160, g=1e-150, k0=0.0, k1=0.0, L=1.0),  # the root underflows
])
def test_growth_rate_out_of_float_range_raises(profile_up, grid32, c):
    # the Rayleigh root over- or underflows at the first step: no rate,
    # rather than lambda = 0
    with pytest.raises(ConvergenceFailure, match=r"^growth-rate fixed point at xi = 2: "
                                                 r"the Rayleigh root over- or underflows to "):
        growth_rate(profile_up, c, grid32, 2.0)


def test_subnormal_gravity_form_raises(profile_up, grid32):
    # g xi^2 below the normal range would leave E2m subnormal: no rate,
    # rather than one off in its last digits or a stability no bound proved
    c = SlabConfig(mu=1e8, g=1e-316, k0=0.0, k1=0.0, L=1.0)
    with pytest.raises(ValueError, match=r"^quadratic forms at xi = 2 underflow: "
                                         r"g xi\^2 = 4e-316$"):
        growth_rate(profile_up, c, grid32, 2.0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(top=st.floats(min_value=1e-150, max_value=1e150),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scaled_wnorm_is_the_plain_norm_bit_for_bit(grid32, top, seed):
    # scaling by a power of two is exact, so wherever the plain squares
    # neither overflow nor underflow the norm is the same float
    f = np.random.default_rng(seed).standard_normal(30)
    f *= top / np.max(np.abs(f))
    w = grid32.w[1:-1]
    assert slabrt.dispersion._wnorm(w, f) == np.sqrt(w @ (f * f))


def test_stable_profile_has_no_growing_mode(profile_down, grid64):
    c = SlabConfig(mu=0.5, g=1.0, k0=0.0, k1=0.0, L=1.0)
    for xi in (0.5, 2.0, 5.0):
        assert growth_rate(profile_down, c, grid64, xi) is None


# light over heavy, but slip walls with k0 = k1 = 6 > 3 mu make Gm
# indefinite below xi_c = 6.13, where F(s) = s^2 + alpha(s) starts at
# alpha(0) >= 0, dips below zero and rises again
INDEFINITE = SlabConfig(mu=0.5, g=1.0, k0=6.0, k1=6.0, L=1.0)
SLIP_BELOW_XI_C = SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0)


def test_growth_rate_finds_mode_where_gm_is_indefinite(profile_down, grid64):
    ms = growth_rate(profile_down, INDEFINITE, grid64, 2.0)
    lam_qz, _ = companion_oracle(ms.forms)
    assert ms.lam == pytest.approx(lam_qz, rel=1e-10)
    assert lam_qz == pytest.approx(43.19034068, rel=1e-9)
    assert ms.residuals["fixed_point_res"] <= 1e-8 * ms.lam * ms.lam


@pytest.mark.parametrize("mu, k0, k1", [(0.5, -1.0, -0.5), (3.5, 6.0, 6.0)])
def test_rejection_above_mu_c_costs_one_eigensolve(profile_down, grid64, monkeypatch,
                                                  mu, k0, k1):
    # mu >= mu_c (0 and 3 here) proves Gm positive semidefinite, so
    # rejecting a frequency needs no eigensolve beyond the one at s = 0
    eigh, calls = sla.eigh, []
    monkeypatch.setattr(sla, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    c = SlabConfig(mu=mu, g=1.0, k0=k0, k1=k1, L=1.0)
    assert growth_rate(profile_down, c, grid64, 2.0) is None
    assert len(calls) == 1


@pytest.mark.parametrize("xi, c", [(2.0, None), (0.5, None), (2.0, INDEFINITE)],
                         ids=["default", "default-unsolved-root", "indefinite-restart"])
def test_growth_rate_mode_is_its_last_counted_eigensolve(profile_up, profile_down,
                                                         default_config, grid64, monkeypatch,
                                                         xi, c):
    # the mode comes from the iteration's last eigensolve, which is at the
    # rate (at xi = 0.5 the last step rises by less than 1e-13 but by more
    # than 1e-13 of the rate, so the iteration solves once more at its end);
    # it is alpha's minimizer at the rate, bit for bit.  iters counts the
    # eigensolves of the frequency's own m x m pencil, not the coarse start's
    p, c = (profile_up, default_config) if c is None else (profile_down, c)
    eigh, calls = sla.eigh, []
    monkeypatch.setattr(sla, "eigh", lambda *a, **k: calls.append(a[0].shape[0]) or eigh(*a, **k))
    ms = growth_rate(p, c, grid64, xi)
    assert ms is not None and calls.count(grid64.n - 2) == ms.iters
    a, psi = alpha(ms.forms, ms.lam)
    assert np.array_equal(psi, ms.psi)
    assert abs(a + ms.lam * ms.lam) == ms.residuals["fixed_point_res"]


def test_growth_rate_at_tiny_gravity(profile_up, grid32):
    # a relative stopping test: the increase past the last point solved at
    # is at most 1e-13 of it, however small the rate.  At tiny g the rate
    # is linear in g, and the oracle's eigenvalue keeps its relative accuracy
    c = SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0)
    slopes = []
    for g in (1e-12, 1e-16, 1e-20):
        ms = growth_rate(profile_up, replace(c, g=g), grid32, 2.0)
        lam_hat, _ = companion_oracle(ms.forms)
        assert abs(ms.lam - lam_hat) / lam_hat <= 1e-9
        slopes.append(ms.lam / g)
    assert max(slopes) - min(slopes) <= 1e-9 * slopes[0]
    assert slopes[0] == pytest.approx(2.07937, rel=1e-5)


@pytest.mark.parametrize("g", [1e-8, 1e-4])
def test_oracle_at_small_gravity(profile_up, grid32, g):
    # where the rate is far below |H|, an eigenvalue bisected only to
    # eps |H| absolute would miss it by up to 5e-6 relative
    c = SlabConfig(mu=0.01, g=g, k0=0.0, k1=0.0, L=1.0)
    ms = growth_rate(profile_up, c, grid32, 2.0)
    lam_hat, _ = companion_oracle(ms.forms)
    assert abs(ms.lam - lam_hat) / lam_hat <= 1e-9


def test_default_scan_matches_oracle():
    # every rate of configs/default.ini's scan (69 frequencies, n = 128)
    cfg = load_config(str(CONFIGS / "default.ini"))
    p, c, grid = cfg.profile(), cfg.slab(), build_grid(cfg.n)
    _, res = _scan(cfg, cfg.n_samples)
    pos = [pt for pt in res.samples if pt.xi > 0]
    assert cfg.n == 128 and len(pos) == 69
    for pt in pos:
        lam_hat, _ = companion_oracle(assemble_forms(p, c, grid, pt.xi))
        assert abs(pt.lam - lam_hat) / lam_hat <= 1e-9


@pytest.mark.parametrize("n", [128, 256])
def test_reduction_by_inverse_matches_triangular_solves(profile_up, default_config, n):
    fs = assemble_forms(profile_up, default_config, build_grid(n), 2.0)
    red = _ReducedPencil(fs.Jm, fs.Gm, fs.E2m)
    L = sla.cholesky(fs.Jm, lower=True)
    for At, A in ((red.A1t, fs.Gm), (red.A0t, fs.E2m)):
        Y = sla.solve_triangular(L, A, lower=True)
        ref = sla.solve_triangular(L, Y.T, lower=True)
        ref = 0.5 * (ref + ref.T)
        assert np.array_equal(At, At.T)
        assert np.linalg.norm(At - ref) <= 1e-13 * np.linalg.norm(ref)


def test_growth_rate_stable_by_bound_where_gm_is_indefinite(profile_down, grid64):
    # strong stratification: alpha(0) exceeds gamma^2 / 4, so
    # alpha(s) >= s gamma + alpha(0) > -s^2 proves stability
    c = replace(INDEFINITE, g=1e4)
    fs = assemble_forms(profile_down, c, grid64, 6.12)
    assert np.linalg.eigvalsh(fs.Gm)[0] < 0.0
    assert growth_rate(profile_down, c, grid64, 6.12) is None
    assert companion_oracle(fs) is None


def test_growth_rate_never_answers_stable_without_proof(profile_down, grid64):
    # neither bound holds and F(-gamma/2) >= 0: growth above -gamma/2 is
    # ruled out, growth below it is not (a complex pair grows there, see
    # test_complex_pair_grows_where_gm_is_indefinite), so no rate and no "stable"
    with pytest.raises(ConvergenceFailure,
                       match=r"^growth-rate fixed point at xi = 6: Gm is indefinite; no mode "
                             r"grows faster than -gamma/2 = 0\.\d+, but an oscillatory "
                             r"\(complex\) mode may grow on \(0, 0\.\d+\)$"):
        growth_rate(profile_down, INDEFINITE, grid64, 6.0)


def test_growth_rate_fixed_point_residual(default_mode):
    assert default_mode.lam > 0.0
    assert default_mode.residuals["fixed_point_res"] <= 1e-8


def test_growth_rate_solution_is_j_normalized(default_mode):
    fs = default_mode.forms
    v = default_mode.psi
    assert v @ fs.Jm @ v == pytest.approx(1.0, abs=1e-10)


def test_growth_rate_matches_companion(default_mode):
    lam_hat, _ = companion_oracle(default_mode.forms)
    assert abs(lam_hat - default_mode.lam) / lam_hat <= 1e-6


def test_companion_eigenvector_residual(default_mode):
    # standard backward error of a quadratic eigenpair:
    # |P(lam) v| / ((lam^2 |J| + lam |G| + |E2|) |v|)
    fs = default_mode.forms
    lam, v = companion_oracle(fs)
    r = lam * lam * (fs.Jm @ v) + lam * (fs.Gm @ v) - fs.E2m @ v
    den = (lam * lam * np.linalg.norm(fs.Jm, 2) + lam * np.linalg.norm(fs.Gm, 2)
           + np.linalg.norm(fs.E2m, 2)) * np.linalg.norm(v)
    assert np.linalg.norm(r) / den <= 1e-6


def test_companion_none_for_dissipative_system(grid64):
    # rho = 1 kills the gravity form; with a positive-definite dissipation
    # form all eigenvalues sit in the left half plane
    c = SlabConfig(mu=0.3, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(constant_profile(1.0), c, grid64, 1.5)
    assert companion_oracle(fs) is None


def _qz_spectrum(fs):
    """Finite eigenvalues of the unshifted, theta-scaled companion by QZ."""
    m = fs.Jm.shape[0]
    theta = np.sqrt(np.linalg.norm(fs.E2m) / np.linalg.norm(fs.Jm))
    Z, eye = np.zeros((m, m)), np.eye(m)
    A = np.block([[-theta * fs.Gm, fs.E2m], [eye, Z]])
    B = np.block([[theta * theta * fs.Jm, Z], [Z, eye]])
    vals = sla.eig(A, B, right=False)
    return theta * vals[np.isfinite(vals)]


def _qz_reference(fs):
    """Largest real eigenvalue (or None) and largest real part of a complex
    eigenvalue (or None) of the pencil by QZ."""
    vals = _qz_spectrum(fs)
    real = np.abs(vals.imag) <= 1e-8 * (1.0 + np.abs(vals.real))
    growing = vals.real[real & (vals.real > 0.0)]
    rate = float(np.max(growing)) if growing.size else None
    cplx = float(np.max(vals.real[~real])) if np.any(~real) else None
    return rate, cplx


@pytest.mark.parametrize("name, c, xi", [
    ("linear-up", SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0), 2.0),
    ("linear-down", SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0), 2.0),
    ("tanh-layer", SLIP_BELOW_XI_C, 2.0),
    ("linear-down", INDEFINITE, 2.0),
    ("linear-down", INDEFINITE, 6.05),
])
def test_companion_matches_qz_reference(grid64, name, c, xi):
    fs = assemble_forms(preset_profile(name), c, grid64, xi)
    rate, cplx = _qz_reference(fs)
    oracle = companion_oracle(fs)
    assert (oracle is None) == (rate is None)
    if rate is None:
        # a complex pair may still grow where Gm is indefinite, but not
        # faster than -gamma/2, the bound growth_rate reports
        gamma = sla.eigh(fs.Gm, fs.Jm, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert cplx is None or cplx <= max(0.0, -0.5 * gamma)
        return
    assert oracle[0] == pytest.approx(rate, rel=1e-6)
    # the premise of a real-rate method: no complex mode outgrows the real one
    assert cplx is None or cplx <= rate


# cases where rho' >= 0, so E2m is positive semidefinite: the sharp layer's
# E2m is so only to roundoff (Cholesky fails on it), and exp with these
# slip walls makes Gm indefinite
DEFINITE_CASES = [
    ("linear-up", {}, SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0), 2.0),
    ("tanh-layer", {}, SLIP_BELOW_XI_C, 2.0),
    ("tanh-layer", {"w": 0.01}, SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0), 3.0),
    ("exp", {}, SlabConfig(mu=0.1, g=1.0, k0=2.0, k1=-1.0, L=1.0), 2.0),
]


def _count_solves(monkeypatch):
    """Counts of the sla.eigh, sla.eig and LAPACK syevr calls made from here on."""
    calls = {"eigh": 0, "eig": 0, "syevr": 0}

    def counted(name, f):
        def call(*a, **k):
            calls[name] += 1
            return f(*a, **k)
        return call

    for name in ("eigh", "eig"):
        monkeypatch.setattr(sla, name, counted(name, getattr(sla, name)))
    get = sla.get_lapack_funcs

    def get_counted(names, *a, **k):
        f = get(names, *a, **k)
        return counted(names, f) if names == "syevr" else f

    monkeypatch.setattr(sla, "get_lapack_funcs", get_counted)
    return calls


# cases where rho' < 0 somewhere, so E2m has a clearly negative eigenvalue
INDEFINITE_CASES = [
    ("linear-down", {}, SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0), 2.0),
    ("linear-down", {}, INDEFINITE, 2.0),
    ("linear-down", {}, INDEFINITE, 6.05),
]


@pytest.mark.parametrize("name, params, c, xi", DEFINITE_CASES + INDEFINITE_CASES)
def test_linearization_has_the_pencil_spectrum(grid64, name, params, c, xi):
    fs = assemble_forms(preset_profile(name, **params), c, grid64, xi)
    H, symmetric, _ = _linearization(fs, "test")
    assert symmetric == ((name, params, c, xi) in DEFINITE_CASES)
    qz = _qz_spectrum(fs)
    assert qz.size == 2 * fs.Jm.shape[0]
    if symmetric:
        assert np.array_equal(H, H.T)
        sym = sla.eigh(H, eigvals_only=True)
        scale = np.max(np.abs(sym))
        assert np.max(np.abs(qz.imag)) <= 1e-12 * scale
        assert np.max(np.abs(np.sort(qz.real) - sym)) <= 1e-11 * scale
        return
    vals = np.sort(sla.eig(H, right=False))
    assert np.max(np.abs(vals - np.sort(qz))) <= 1e-12 * np.max(np.abs(vals))
    if xi == 6.05:
        # the growing complex pair below xi_c (Baseline: 0.3396190413 -+ 0.5162408633i)
        for pair in (0.33962 + 0.51624j, 0.33962 - 0.51624j):
            assert np.min(np.abs(vals - pair)) <= 1e-5


@pytest.mark.parametrize("name, params, c, xi", DEFINITE_CASES)
def test_definite_path_matches_companion_path(grid64, monkeypatch, name, params, c, xi):
    # the nonsymmetric eigensolve on the same symmetric H gives the same
    # rate, and the null direction at it the same vector
    fs = assemble_forms(preset_profile(name, **params), c, grid64, xi)
    lam, v = companion_oracle(fs)
    linearization = slabrt.dispersion._linearization

    def as_companion(fs, what):
        H, _, red = linearization(fs, what)
        return H, False, red

    monkeypatch.setattr(slabrt.dispersion, "_linearization", as_companion)
    calls = _count_solves(monkeypatch)
    lam_c, v_c = companion_oracle(fs)
    assert calls["eig"] == 1
    assert lam == pytest.approx(lam_c, rel=1e-10)
    assert np.max(np.abs(v - v_c)) <= 1e-6 * np.max(np.abs(v))


@pytest.mark.parametrize("name, params, c, xi, companion", [
    *[(*case, False) for case in DEFINITE_CASES],
    ("linear-down", {}, SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0), 2.0, True),
    ("linear-down", {}, INDEFINITE, 6.05, True),
])
def test_oracle_runs_the_companion_only_where_e2m_is_indefinite(grid64, monkeypatch, name,
                                                                params, c, xi, companion):
    fs = assemble_forms(preset_profile(name, **params), c, grid64, xi)
    calls = _count_solves(monkeypatch)
    companion_oracle(fs)
    assert calls["eig"] == (1 if companion else 0)


@pytest.mark.parametrize("name, params, c, xi", DEFINITE_CASES)
def test_definite_oracle_takes_two_eigensolves(grid64, monkeypatch, name, params, c, xi):
    # E2m's eigensolve and H's largest eigenpair, whose vector block is the
    # pencil's vector: no null-vector eigensolve
    fs = assemble_forms(preset_profile(name, **params), c, grid64, xi)
    calls = _count_solves(monkeypatch)
    assert companion_oracle(fs) is not None
    assert calls == {"eigh": 1, "eig": 0, "syevr": 1}


@pytest.mark.parametrize("name, params, c, xi, n, counts", [
    # the definite path at a finer grid: still E2m's eigh and H's syevr
    ("linear-up", {}, SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0), 1.0, 256,
     {"eigh": 1, "eig": 0, "syevr": 1}),
    # the geev path: E2m's eigh and H's eigenvalues, then the null vector's
    # eigh where a real root grows (None at the stable linear-down and at
    # xi = 6.05, whose growing pair is complex)
    (*INDEFINITE_CASES[0], 64, {"eigh": 1, "eig": 1, "syevr": 0}),
    (*INDEFINITE_CASES[1], 64, {"eigh": 2, "eig": 1, "syevr": 0}),
    (*INDEFINITE_CASES[2], 64, {"eigh": 1, "eig": 1, "syevr": 0}),
])
def test_oracle_eigensolve_counts(monkeypatch, name, params, c, xi, n, counts):
    fs = assemble_forms(preset_profile(name, **params), c, build_grid(n), xi)
    calls = _count_solves(monkeypatch)
    companion_oracle(fs)
    assert calls == counts


def test_oracle_vector_matches_growth_rate_mode(profile_up, default_config, grid64):
    # H's eigenvector block is the pencil's vector:
    # the crosscheck physics, and linear-up on a fine grid
    crosscheck = (preset_profile("tanh-layer", y_c=0.5, w=0.05),
                  SlabConfig(mu=0.02, g=1.0, k0=0.5, k1=1.0, L=1.0))
    cases = [(*crosscheck, grid64, xi) for xi in (1.0, 2.0, 4.0, 8.0)]
    cases.append((profile_up, default_config, build_grid(256), 1.0))
    for p, c, grid, xi in cases:
        ms = growth_rate(p, c, grid, xi)
        _, v = companion_oracle(ms.forms)
        assert np.max(np.abs(v - ms.psi)) <= 1e-9 * np.max(np.abs(ms.psi))


def test_oracle_without_gravity_form_takes_symmetric_path(grid64, monkeypatch):
    # rho = 1: E2m = 0 is positive semidefinite, its m zero eigenvalues do
    # not count as growing, and with Gm positive definite the other m are
    # negative (with slip walls that make Gm indefinite, -gamma grows)
    c = SlabConfig(mu=0.3, g=1.0, k0=0.0, k1=0.0, L=1.0)
    fs = assemble_forms(constant_profile(1.0), c, grid64, 2.0)
    assert not np.any(fs.E2m)
    calls = _count_solves(monkeypatch)
    assert companion_oracle(fs) is None
    assert calls["eig"] == 0 and calls["syevr"] == 1


def _growth_rate(p, c):
    return lambda grid: growth_rate(p, c, grid, 2.0)


def _oracle(p, c, edit=lambda fs: fs):
    return lambda grid: companion_oracle(edit(assemble_forms(p, c, grid, 2.0)))


def _singular_jm(fs):
    # a singular Jm gives infinite eigenvalues; the Jm-reduced linearization
    # needs Jm's Cholesky factor, so it refuses the input as growth_rate does
    J = fs.Jm.copy()
    J[0, :] = J[:, 0] = 0.0
    return replace(fs, Jm=J)


def _infinite_e2m(fs):
    E = fs.E2m.copy()
    E[0, 0] = np.inf
    return replace(fs, E2m=E)


def _info(routine):
    """Patch under which the raw LAPACK routine reports info = 1."""
    def patch(monkeypatch):
        get = sla.get_lapack_funcs

        def failing(names, *args, **kw):
            f = get(names, *args, **kw)
            return (lambda *a, **k: (*f(*a, **k)[:-1], 1)) if names == routine else f

        monkeypatch.setattr(sla, "get_lapack_funcs", failing)
    return patch


def _raises(name):
    """Patch under which sla.<name> raises LinAlgError."""
    def failing(*args, **kw):
        raise sla.LinAlgError("did not converge")
    return lambda monkeypatch: monkeypatch.setattr(sla, name, failing)


UP = (preset_profile("linear-up"), SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0))
RATE = "growth-rate fixed point at xi = 2: "
ORACLE = "companion oracle at xi = 2: "
NOT_PD = r"\d+-th leading minor of the array is not positive definite"
NON_FINITE = "array must not contain infs or NaNs"


@pytest.mark.parametrize("run, patch, message", [
    # a negative density makes the J form indefinite, so the reduction fails
    pytest.param(_growth_rate(constant_profile(-1.0), UP[1]), None, RATE + NOT_PD,
                 id="growth-rate-cholesky"),
    pytest.param(_oracle(*UP, _singular_jm), None, ORACLE + NOT_PD, id="oracle-cholesky"),
    pytest.param(_growth_rate(*UP), _info("trtri"), RATE + "trtri info = 1",
                 id="growth-rate-trtri"),
    pytest.param(_oracle(*UP), _info("trtri"), ORACLE + "trtri info = 1", id="oracle-trtri"),
    pytest.param(_oracle(*UP), _info("syevr"), ORACLE + "syevr info = 1", id="oracle-syevr"),
    pytest.param(_growth_rate(*UP), _raises("eigh"), RATE + "did not converge",
                 id="growth-rate-eigh"),
    pytest.param(_oracle(*UP), _raises("eigh"), ORACLE + "did not converge", id="oracle-eigh"),
    pytest.param(_oracle(preset_profile("linear-down"), INDEFINITE), _raises("eig"),
                 ORACLE + "did not converge", id="oracle-eig"),
    # s A1t overflows in the fixed point's second step: the pencil is not finite
    pytest.param(_growth_rate(UP[0], replace(UP[1], k0=1e153)), None, RATE + NON_FINITE,
                 id="growth-rate-non-finite"),
    pytest.param(_oracle(*UP, _infinite_e2m), None, ORACLE + NON_FINITE, id="oracle-non-finite"),
])
def test_eigensolve_failure_names_stage_and_frequency(grid32, monkeypatch, run, patch, message):
    if patch is not None:
        patch(monkeypatch)
    with pytest.raises(EigensolveFailure, match=f"^{message}$"):
        run(grid32)


@pytest.mark.parametrize("mu, g", [(0.01, 1e-40), (0.01, 1e-150), (0.01, 1e155), (0.01, 1e300),
                                   (1e12, 1.0)])
def test_symmetric_oracle_answers_slow_and_fast_rates(profile_up, grid32, mu, g):
    # syevr resolves H's largest eigenvalue to 2 safmin, so its sign decides
    # growth: a threshold at REAL_EIG_TOL * sqrt(|E2m| / |Jm|) answered None
    # on each of these rates
    ms = growth_rate(profile_up, SlabConfig(mu=mu, g=g, k0=0.0, k1=0.0, L=1.0), grid32, 2.0)
    lam, v = companion_oracle(ms.forms)
    assert lam == pytest.approx(ms.lam, rel=1e-11)
    assert np.max(np.abs(v - ms.psi)) <= 1e-6 * np.max(np.abs(ms.psi))


def test_nonsymmetric_oracle_threshold_does_not_overflow(profile_down, grid32):
    # E2m's entries near 1e300 squared overflowed the Frobenius norm in the
    # threshold, a RuntimeWarning here; both paths answer None
    c = replace(INDEFINITE, g=1e300)
    assert companion_oracle(assemble_forms(profile_down, c, grid32, 2.0)) is None
    assert growth_rate(profile_down, c, grid32, 2.0) is None


def test_complex_pair_grows_where_gm_is_indefinite(profile_down, grid64):
    # just below xi_c no real eigenvalue grows, yet a complex pair does
    # (0.3396 +- 0.5162i, the same at n = 32 and 128), so the frequency
    # growth_rate refuses to call stable is in fact unstable
    fs = assemble_forms(profile_down, INDEFINITE, grid64, 6.05)
    rate, cplx = _qz_reference(fs)
    assert rate is None and companion_oracle(fs) is None
    assert cplx == pytest.approx(0.339619, rel=1e-5)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(["linear-up", "linear-down"]),
       k0=st.floats(0.0, 6.0), k1=st.floats(0.0, 6.0), mu=st.floats(0.05, 1.0),
       frac=st.floats(0.05, 0.95))
def test_growth_rate_agrees_with_qz_below_xi_c(grid32, name, k0, k1, mu, frac):
    # below xi_c slip walls may make Gm indefinite: a rate must be QZ's
    # largest real eigenvalue, None must mean none grows, and exit 4 is
    # allowed only where just a complex pair at or below -gamma/2 grows
    c = SlabConfig(mu=mu, g=1.0, k0=k0, k1=k1, L=1.0)
    xi_c = critical_frequency(c, grid32)
    assume(xi_c > 0.0)
    p = preset_profile(name)
    fs = assemble_forms(p, c, grid32, frac * xi_c)
    rate, cplx = _qz_reference(fs)
    try:
        ms = growth_rate(p, c, grid32, frac * xi_c)
    except ConvergenceFailure:
        gamma = sla.eigh(fs.Gm, fs.Jm, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert rate is None and (cplx is None or cplx <= max(0.0, -0.5 * gamma))
        return
    if ms is None:
        assert rate is None
    else:
        assert rate is not None and ms.lam == pytest.approx(rate, rel=1e-6)


def test_growth_rate_quadratic_bound(default_mode, profile_up, default_config):
    # lam^2 <= g sup|rho'/rho| + lam C0 sup(1/rho) + 1
    ys = np.linspace(0, 1, 4001)
    r1 = np.max(np.abs(profile_up.drho(ys)) / profile_up.rho(ys))
    r2 = np.max(1.0 / profile_up.rho(ys))
    lam = default_mode.lam
    assert lam * lam <= default_config.g * r1 + lam * c0_constant(default_config) * r2 + 1.0


def test_reconstruction_divergence_free(default_mode):
    fs = default_mode.forms
    div = fs.xi * default_mode.phi + fs.grid.D1 @ default_mode.psi_full()
    assert np.max(np.abs(div)) <= 1e-8
    assert default_mode.residuals["div_res"] <= 1e-8


def test_reconstruction_zero_mode(default_mode, default_config):
    phi, pi, _ = reconstruct_mode(default_mode.forms, default_config, default_mode.lam,
                                  np.zeros_like(default_mode.psi))
    assert np.all(phi == 0.0)
    assert np.all(pi == 0.0)


def test_momentum_residuals(default_mode):
    # direct substitution into both linearized momentum components
    assert default_mode.residuals["mom_x_res"] <= 1e-6
    assert default_mode.residuals["mom_y_res"] <= 1e-5


def test_fourth_order_equation_residual(default_mode):
    assert default_mode.residuals["ode_res"] <= 1e-5


def test_natural_bc_residuals_small(default_mode, default_config):
    r = default_mode.residuals
    assert r["bc_res_0"] <= 1e-4 and r["bc_res_1"] <= 1e-4


def test_natural_bc_residual_decreases_while_underresolved(profile_up, default_config):
    # convergence-under-refinement oracle, run where truncation dominates
    res = {}
    for n in (16, 32):
        ms = growth_rate(profile_up, default_config, build_grid(n), 2.0)
        res[n] = (ms.residuals["bc_res_0"], ms.residuals["bc_res_1"])
    assert res[32][0] < res[16][0]
    assert res[32][1] < res[16][1]


def _count_reconstructions(monkeypatch) -> list:
    """Frequencies of the calls made to dispersion.reconstruct_mode, the
    module attribute a tracer wraps."""
    calls, reconstruct = [], slabrt.dispersion.reconstruct_mode

    def counted(fs, c, lam, psi):
        calls.append(fs.xi)
        return reconstruct(fs, c, lam, psi)

    monkeypatch.setattr(slabrt.dispersion, "reconstruct_mode", counted)
    return calls


def test_mode_fields_reconstruct_once_on_first_read(profile_up, default_config, grid64,
                                                    monkeypatch):
    built = _count_reconstructions(monkeypatch)
    ms = growth_rate(profile_up, default_config, grid64, 2.0)
    assert built == []
    first, second = [(ms.phi, ms.pi, ms.residuals) for _ in range(2)]
    assert built == [2.0]
    assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("physics", ["default", "crosscheck-slip"])
def test_lazy_mode_fields_equal_explicit_reconstruction(profile_up, default_config,
                                                        physics, n):
    # fixed_point_res is the residual of alpha's minimizer at the rate
    p, c = ((profile_up, default_config) if physics == "default" else
            (preset_profile("tanh-layer", y_c=0.5, w=0.05), SLIP_BELOW_XI_C))
    grid = build_grid(n)
    for xi in (1.0, 2.0, 4.0, 8.0):
        ms = growth_rate(p, c, grid, xi)
        phi, pi, res = reconstruct_mode(ms.forms, c, ms.lam, ms.psi)
        a, _ = alpha(ms.forms, ms.lam)
        assert ms.residuals == {"fixed_point_res": abs(a + ms.lam * ms.lam), **res}
        assert next(iter(ms.residuals)) == "fixed_point_res"
        assert np.array_equal(ms.phi, phi) and np.array_equal(ms.pi, pi)


def test_slip_config_mode(profile_up, grid128):
    # generic slip configuration in its valid regime (mu above critical)
    c = SlabConfig(mu=0.5, g=1.0, k0=1.0, k1=0.5, L=1.0)
    ms = growth_rate(profile_up, c, grid128, 2.0)
    assert ms is not None
    assert ms.residuals["fixed_point_res"] <= 1e-8
    lam_hat, _ = companion_oracle(ms.forms)
    assert abs(lam_hat - ms.lam) / lam_hat <= 1e-6
    assert ms.residuals["bc_res_0"] <= 1e-4 and ms.residuals["bc_res_1"] <= 1e-4


@pytest.mark.parametrize("xi", [2.0, 4.0])
def test_growth_rate_expands_bracket_below_xi_c(grid64, xi):
    # slip walls below xi_c: alpha is negative again at sqrt(-alpha(0)), so
    # [0, sqrt(-alpha(0))] does not bracket the rate; the iteration needs none
    p, c = preset_profile("tanh-layer"), SLIP_BELOW_XI_C
    fs = assemble_forms(p, c, grid64, xi)
    s0 = np.sqrt(-alpha(fs, 0.0)[0])
    assert s0 * s0 + alpha(fs, s0)[0] < 0.0
    ms = growth_rate(p, c, grid64, xi)
    lam_hat, _ = companion_oracle(ms.forms)
    assert abs(lam_hat - ms.lam) / lam_hat <= 1e-6


@pytest.mark.parametrize("slip,n,xi", [(False, 64, 0.05), (False, 64, 2.0), (False, 64, 30.0),
                                       (True, 192, 0.5), (True, 192, 8.0), (True, 192, 20.0),
                                       (False, 512, 2.0)])
def test_growth_rate_iteration_matches_oracle(profile_up, default_config, slip, n, xi):
    p, c = (preset_profile("tanh-layer"), SLIP_BELOW_XI_C) if slip else (profile_up, default_config)
    ms = growth_rate(p, c, build_grid(n), xi)
    lam_hat, _ = companion_oracle(ms.forms)
    assert abs(lam_hat - ms.lam) / lam_hat <= 1e-9
    assert ms.iters <= 8


def test_scan_iterations_per_frequency(profile_up, default_config, grid64):
    # quadratic convergence: 4-6 eigensolves per point; a bound of 8 guards the count
    res = scan_band(profile_up, default_config, grid64, (0.0, 10.0), 64)
    assert len(res.samples) == 2 * 69  # every frequency grows
    assert max(pt.iters for pt in res.samples) <= 8


def test_scan_builds_the_dissipation_form_once(profile_up, default_config, grid64,
                                               monkeypatch):
    # E0 is cached with the Grams, so 69 frequencies build its curvature Gram
    # once on each grid: the coarse start's and the scan's
    calls = []
    build = slabrt.forms.curvature_matrix
    monkeypatch.setattr(slabrt.forms, "curvature_matrix", lambda g: calls.append(g.n) or build(g))
    slabrt.forms._grams.cache_clear()
    slabrt.forms._slab_grams.cache_clear()
    res = scan_band(profile_up, default_config, grid64, (0.0, 10.0), 64)
    assert len(res.samples) == 2 * 69
    assert sorted(calls) == [32, 64]


def _from_zero(p, c, grid, xi):
    """growth_rate's answer with its fixed point started at 0 on the same reduction."""
    fs = assemble_forms(p, c, grid, xi)
    red = _ReducedPencil(fs.Jm, fs.Gm, fs.E2m, f"growth-rate fixed point at xi = {xi:g}")
    return slabrt.dispersion._solve(fs, c, red)


@pytest.mark.parametrize("n", [64, 128])
def test_coarse_start_reaches_the_rate_from_zero(n):
    # every frequency of configs/default.ini's scan: the rate started from the
    # coarse grid's mode is the one started at 0, to the iteration's roundoff
    cfg = replace(load_config(str(CONFIGS / "default.ini")), n=n)
    p, c, grid = cfg.profile(), cfg.slab(), build_grid(n)
    _, res = _scan(cfg, cfg.n_samples)
    pos = [pt for pt in res.samples if pt.xi > 0]
    assert len(pos) == 69
    for pt in pos:
        lam0 = _from_zero(p, c, grid, pt.xi).lam
        assert abs(pt.lam - lam0) <= 1e-12 * lam0, pt.xi


def test_coarse_start_halves_the_scans_eigensolves(monkeypatch):
    # configs/default.ini's scan at n = 128 took 300 eigensolves of its
    # 126 x 126 pencils from the start at 0; from the coarse start about 2 each
    cfg = load_config(str(CONFIGS / "default.ini"))
    eigh, sizes = sla.eigh, []
    monkeypatch.setattr(sla, "eigh", lambda *a, **k: sizes.append(a[0].shape[0]) or eigh(*a, **k))
    rate, per_xi = slabrt.dispersion.growth_rate, []

    def counted(*args):
        before = sizes.count(cfg.n - 2)
        ms = rate(*args)
        per_xi.append(sizes.count(cfg.n - 2) - before)
        return ms

    monkeypatch.setattr(slabrt.dispersion, "growth_rate", counted)
    _scan(cfg, cfg.n_samples)
    assert len(per_xi) == 69
    assert sum(per_xi) <= 150 and max(per_xi) <= 3


@pytest.mark.parametrize("fallback", ["coarse-raises", "coarse-none", "start-above-root"])
def test_coarse_start_falls_back_to_the_start_at_zero(profile_up, default_config, grid64,
                                                      monkeypatch, fallback):
    # a failed coarse start gives the answer from 0, (lam, iters, psi) bit for bit
    if fallback == "coarse-raises":
        def coarse(*args):
            raise ConvergenceFailure("coarse")
        monkeypatch.setattr(slabrt.dispersion, "_coarse_mode", coarse)
    elif fallback == "coarse-none":
        monkeypatch.setattr(slabrt.dispersion, "_coarse_mode", lambda *args: None)
    else:  # F(t0) > 0 at a start 1e-3 above the Rayleigh root
        monkeypatch.setattr(slabrt.variational, "_COARSE_SHIFT", -1e-3)
    eigh, sizes = sla.eigh, []
    monkeypatch.setattr(sla, "eigh", lambda *a, **k: sizes.append(a[0].shape[0]) or eigh(*a, **k))
    ms = growth_rate(profile_up, default_config, grid64, 2.0)
    fine_solves = sizes.count(62)
    ref = _from_zero(profile_up, default_config, grid64, 2.0)
    assert (ms.lam, ms.iters) == (ref.lam, ref.iters)
    assert np.array_equal(ms.psi, ref.psi)
    # a start that fails its test costs one solve of the fine pencil, which iters leaves out
    assert fine_solves == ref.iters + (fallback == "start-above-root")


@pytest.mark.parametrize("physics", ["slip-below-mu-c", "stable", "coarse-sized-grid"])
def test_coarse_start_is_bypassed(profile_up, grid32, grid64, monkeypatch, physics):
    # mu < mu_c with rho' < 0 (Gm indefinite, modes grow through the restart
    # at -gamma / 2), rho' <= 0 at every node (rejected after one solve
    # anyway) and a grid no finer than the coarse one start at 0
    p, c, grid = {
        "slip-below-mu-c": (preset_profile("linear-down"), INDEFINITE, grid64),
        "stable": (preset_profile("linear-down"),
                   load_config(str(CONFIGS / "stable.ini")).slab(), grid64),
        "coarse-sized-grid": (profile_up, SlabConfig(mu=0.01), grid32),
    }[physics]
    called = []
    monkeypatch.setattr(slabrt.dispersion, "_coarse_mode", lambda *args: called.append(args))
    for xi in (1.0, 2.0, 4.0):
        ms = growth_rate(p, c, grid, xi)
        ref = _from_zero(p, c, grid, xi)
        assert (ms is None) == (ref is None) == (physics == "stable")
        assert ms is None or (ms.lam, ms.iters) == (ref.lam, ref.iters)
    assert called == []


@pytest.mark.parametrize("n", [64, 192])
def test_coarse_start_reaches_the_slip_rate_from_zero(n, monkeypatch):
    # the cross-check's slip walls (mu < mu_c) with rho' > 0 everywhere: E2m is
    # positive semidefinite, so the coarse start applies and reaches the rate
    # that the start at 0 reaches; at n = 192 the four frequencies took 17
    # eigensolves of their 190 x 190 pencils from 0
    p = preset_profile("tanh-layer", y_c=0.5, w=0.05)
    grid = build_grid(n)
    eigh, sizes = sla.eigh, []
    monkeypatch.setattr(sla, "eigh", lambda *a, **k: sizes.append(a[0].shape[0]) or eigh(*a, **k))
    modes = [growth_rate(p, SLIP_BELOW_XI_C, grid, xi) for xi in (1.0, 2.0, 4.0, 8.0)]
    fine_solves = sizes.count(n - 2)
    for ms in modes:
        lam0 = _from_zero(p, SLIP_BELOW_XI_C, grid, ms.forms.xi).lam
        assert abs(ms.lam - lam0) <= 1e-12 * lam0, ms.forms.xi
        assert ms.iters <= 3
    if n == 192:
        assert fine_solves <= 10


def test_a_new_fine_grid_frees_the_last_ones_forms(profile_up, default_config):
    # the Gram cache keeps the coarse grid's entry beside the latest fine
    # grid's, so the grid of one command (critical) and its Grams are freed
    # once the next command (dispersion) assembles forms on its own grid
    first = build_grid(64)
    assemble_forms(profile_up, default_config, first, 2.0)
    gone = weakref.ref(first)
    del first
    assemble_forms(profile_up, default_config, build_grid(64), 2.0)
    gc.collect()
    assert gone() is None


def test_scan_keeps_points_not_modes(profile_up, default_config, grid64):
    # each mode and its FormSet (three m x m matrices, about 92 kB at n = 64)
    # is freed once its point is taken, so 49 frequencies stay well under 2 MB
    growth_rate(profile_up, default_config, grid64, 1.0)  # warm the Gram cache
    tracemalloc.start()
    try:
        res = scan_band(profile_up, default_config, grid64, (0.0, 10.0), 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.samples) == 2 * 49
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("physics", ["default", "slip", "indefinite-restart"])
def test_scan_points_are_growth_rate_results(profile_up, profile_down, default_config,
                                             grid32, grid64, monkeypatch, physics):
    # one call per frequency through dispersion.growth_rate, the module
    # attribute a tracer wraps, and each point is that call's (lam,
    # fixed_point_res, iters) bit for bit; the scan reads no phi, pi or
    # residuals, so it reconstructs no mode
    p, c, grid, band = {
        "default": (profile_up, default_config, grid64, (0.0, 10.0)),
        "slip": (preset_profile("tanh-layer"), SLIP_BELOW_XI_C, grid64, (0.0, 10.0)),
        "indefinite-restart": (profile_down, INDEFINITE, grid32, (0.5, 5.9)),
    }[physics]
    built, modes = _count_reconstructions(monkeypatch), {}

    def counted(p, c, grid, xi):
        assert xi not in modes
        modes[xi] = growth_rate(p, c, grid, xi)
        return modes[xi]

    monkeypatch.setattr(slabrt.dispersion, "growth_rate", counted)
    res = scan_band(p, c, grid, band, 8)
    assert built == []
    pos = [pt for pt in res.samples if pt.xi > 0]
    assert [pt.xi for pt in pos] == sorted(modes) and all(modes.values())
    for pt in pos:
        ms = modes[pt.xi]
        assert (pt.lam, pt.alpha_residual, pt.iters) == (ms.lam, ms.fixed_point_res, ms.iters)
    if physics == "slip":
        # mu < mu_c, but rho' > 0 everywhere: each rate starts from the coarse grid's mode
        assert max(ms.iters for ms in modes.values()) <= 3
    if physics == "indefinite-restart":
        # F(0) = alpha(0) >= 0 everywhere, so every rate, and its iters,
        # includes the gamma eigensolve and the restart at -gamma / 2
        assert all(alpha(ms.forms, 0.0)[0] >= 0.0 for ms in modes.values())


def test_growth_rate_step_cap_names_stage_and_frequency(profile_up, default_config, grid64,
                                                        monkeypatch):
    monkeypatch.setattr("slabrt.variational.RAYLEIGH_CAP", 1)
    with pytest.raises(ConvergenceFailure,
                       match="growth-rate fixed point at xi = 2 did not converge in 1 steps"):
        growth_rate(profile_up, default_config, grid64, 2.0)


def test_grid_convergence_of_rate(profile_up, default_config):
    lam64 = growth_rate(profile_up, default_config, build_grid(64), 2.0).lam
    lam128 = growth_rate(profile_up, default_config, build_grid(128), 2.0).lam
    assert abs(lam64 - lam128) / lam128 <= 1e-8


def test_scan_rejects_an_invalid_band(profile_up, default_config, grid32):
    for band in ((2.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match=rf"^invalid band \({band[0]}, {band[1]}\)$"):
            scan_band(profile_up, default_config, grid32, band, 8)


def test_scan_lattice_arithmetic(profile_up, default_config, grid64):
    res = scan_band(profile_up, default_config, grid64, (1.0, 5.0), 4)
    assert [pt.xi for pt in res.lattice] == [2.0, 3.0, 4.0]


def test_scan_supremum_selection(profile_up, default_config, grid64):
    res = scan_band(profile_up, default_config, grid64, (1.0, 5.0), 8)
    lams = {pt.xi: pt.lam for pt in res.lattice}
    assert res.Lambda == max(lams.values())
    assert lams[res.xi_star] == res.Lambda
    # xi_star is the smallest maximizing lattice frequency
    assert all(lam < res.Lambda for xi, lam in lams.items() if xi < res.xi_star)


def test_scan_parity_mirroring(profile_up, default_config, grid64):
    res = scan_band(profile_up, default_config, grid64, (1.0, 4.0), 6)
    pos = {pt.xi: pt.lam for pt in res.samples if pt.xi > 0}
    neg = {pt.xi: pt.lam for pt in res.samples if pt.xi < 0}
    assert set(neg) == {-x for x in pos}
    for x, lam in pos.items():
        assert neg[-x] == lam  # bit-identical by the mirroring construction


def test_growth_rate_even_in_xi(profile_up, default_config, grid64):
    # the forms depend on xi^2 only, so direct solves agree bitwise
    a = growth_rate(profile_up, default_config, grid64, 2.0)
    b = growth_rate(profile_up, default_config, grid64, -2.0)
    assert a.lam == b.lam


def test_scan_empty_band(profile_up, default_config, grid64):
    with pytest.raises(EmptyBand) as exc:
        scan_band(profile_up, default_config, grid64, (1.0, 1.5), 4)
    assert "L >" in str(exc.value)


def test_scan_curve_continuity(profile_up, default_config, grid64):
    # refinement check: the maximum jump between adjacent samples shrinks
    def max_jump(n_samples):
        res = scan_band(profile_up, default_config, grid64, (1.5, 3.5), n_samples)
        pos = [(pt.xi, pt.lam) for pt in res.samples if pt.xi > 0]
        return max(abs(b[1] - a[1]) for a, b in zip(pos, pos[1:]))

    assert max_jump(32) < max_jump(8)


def test_scan_rates_satisfy_quadratic_bound(profile_up, default_config, grid64):
    # every rate in a scan obeys lam^2 <= g sup|rho'/rho| + lam C0 sup(1/rho) + 1
    ys = np.linspace(0, 1, 4001)
    r1 = np.max(np.abs(profile_up.drho(ys)) / profile_up.rho(ys))
    r2 = np.max(1.0 / profile_up.rho(ys))
    C0 = c0_constant(default_config)
    res = scan_band(profile_up, default_config, grid64, (1.0, 8.0), 10)
    assert res.samples
    for pt in res.samples:
        assert pt.lam**2 <= default_config.g * r1 + pt.lam * C0 * r2 + 1.0


def test_scan_stable_config_is_empty(profile_down, grid64):
    c = SlabConfig(mu=0.5, g=1.0, k0=-1.0, k1=-0.5, L=1.0)
    res = scan_band(profile_down, c, grid64, (0.5, 6.0), 6)
    assert res.samples == [] and res.lattice == []
    assert res.Lambda is None and res.xi_star is None


def test_escape_time_variant_a():
    # ln(100) / 2
    assert escape_time(2.0, 1.0, 1.0, 0.02, "A") == pytest.approx(np.log(100.0) / 2.0)


def test_escape_time_variant_b():
    # ln(100), m0 ignored
    assert escape_time(1.0, 0.5, 123.0, 0.01, "B") == pytest.approx(np.log(100.0))


def test_escape_time_boundary_flagged():
    with pytest.raises(NonPositiveHorizon):
        escape_time(1.0, 1.0, 1.0, 2.0, "A")
    with pytest.raises(NonPositiveHorizon):
        escape_time(1.0, 0.5, 1.0, 1.0, "B")


def test_escape_time_validates_inputs():
    with pytest.raises(ValueError):
        escape_time(-1.0, 1.0, 1.0, 0.1, "A")
    with pytest.raises(ValueError):
        escape_time(1.0, 1.0, 1.0, 0.1, "C")
