import numpy as np
import pytest

from slabrt import (
    SlabConfig,
    build_grid,
    constant_profile,
    preset_profile,
    profile_from_csv,
    tabulated_profile,
    validate_profile,
)
from slabrt.errors import NonPositiveDensity
from slabrt.profiles import DensityProfile, evaluation_points


def test_linear_up_report(profile_up):
    rep = validate_profile(profile_up)
    assert rep.positive and rep.rt_condition
    assert rep.y0_witness is not None and 0.0 < rep.y0_witness < 1.0


def test_linear_down_report(profile_down):
    rep = validate_profile(profile_down)
    assert rep.positive and not rep.rt_condition
    assert rep.y0_witness is None


def test_exp_report(profile_exp):
    rep = validate_profile(profile_exp)
    assert rep.positive and rep.rt_condition


def test_tanh_layer_profile():
    p = preset_profile("tanh-layer", y_c=0.4, w=0.15)
    rep = validate_profile(p)
    assert rep.rt_condition
    assert p.rho(evaluation_points()).min() > 0.9


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset_profile("step")


def test_preset_rejects_unread_parameter():
    # a misspelt width would otherwise fall back to w = 0.1
    with pytest.raises(ValueError, match="^preset 'tanh-layer' takes no parameter 'width'$"):
        preset_profile("tanh-layer", width=0.2)
    with pytest.raises(ValueError, match="^preset 'linear-down' takes no parameter 'w'$"):
        preset_profile("linear-down", w=0.2)


def test_preset_extrema_cached(profile_up):
    r = profile_up.rho(evaluation_points())
    assert r.min() == pytest.approx(1.0, abs=1e-12)
    assert r.max() == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("name", ["exp", "linear-up", "linear-down", "tanh-layer"])
def test_spectral_derivative_matches_analytic(name):
    # derivative of the interpolant vs the analytic derivative at n = 128
    p = preset_profile(name)
    g = build_grid(128)
    err = np.max(np.abs(g.D1 @ p.rho(g.nodes) - p.drho(g.nodes)))
    assert err <= 1e-10


def test_nonpositive_density_names_offender():
    p = constant_profile(1.0)
    bad = tabulated_profile(np.linspace(0, 1, 12),
                            1.0 - 1.2 * np.linspace(0, 1, 12) ** 2)
    with pytest.raises(NonPositiveDensity) as exc:
        validate_profile(bad)
    assert "rho(" in str(exc.value)
    # sanity: the good profile still validates
    assert validate_profile(p).positive


def test_nan_density_does_not_hide_negative():
    # argmin stops at the first NaN; the NaN itself must count as not positive
    ys = evaluation_points()
    y_nan = ys[np.argmin(np.abs(ys - 0.3))]

    def rho(y):
        r = np.where(y > 0.8, -0.5, 1.0 + y)
        return np.where(y == y_nan, np.nan, r)

    with pytest.raises(NonPositiveDensity, match=rf"rho\({y_nan:.6g}\) = nan"):
        validate_profile(DensityProfile(rho, np.ones_like))


def test_non_finite_slope_rejected():
    def drho(y):
        return np.where(y > 0.5, np.nan, 1.0)

    with pytest.raises(ValueError, match=r"density slope not finite: rho'\(0\.5"):
        validate_profile(DensityProfile(lambda y: 1.0 + y, drho))


def test_tabulated_requires_eight_nodes():
    y = np.linspace(0, 1, 6)
    with pytest.raises(ValueError):
        tabulated_profile(y, 1 + y)


def test_tabulated_requires_increasing_cover():
    y = np.linspace(0.1, 1, 10)
    with pytest.raises(ValueError):
        tabulated_profile(y, 1 + y)


def test_tabulated_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="^y and rho columns differ in length$"):
        tabulated_profile(np.linspace(0, 1, 10), np.ones(9))


def test_tabulated_interpolates_smooth_data():
    y = np.linspace(0, 1, 20)
    p = tabulated_profile(y, np.exp(y))
    xs = np.linspace(0, 1, 101)
    assert np.max(np.abs(p.rho(xs) - np.exp(xs))) <= 1e-10
    assert np.max(np.abs(p.drho(xs) - np.exp(xs))) <= 1e-7


def test_profile_from_csv(tmp_path):
    path = tmp_path / "profile.csv"
    y = np.linspace(0, 1, 16)
    lines = ["y,rho"] + [f"{yi},{1 + yi**2}" for yi in y]
    path.write_text("\n".join(lines) + "\n")
    p = profile_from_csv(path)
    assert np.max(np.abs(p.rho(y) - (1 + y**2))) <= 1e-12
    assert validate_profile(p).rt_condition


def test_profile_from_csv_skips_blank_rows(tmp_path):
    # an empty line, a blank y field and the header after blank lines are not data
    y = np.linspace(0, 1, 12)
    rows = [f"{yi},{1 + yi**2}" for yi in y]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("\n".join(["y,rho"] + rows) + "\n")
    spaced.write_text("\n".join(["", "  ,", "y,rho"] + rows[:6] + ["", " "] + rows[6:]) + "\n")
    xs = np.linspace(0, 1, 41)
    assert np.array_equal(profile_from_csv(spaced).rho(xs), profile_from_csv(plain).rho(xs))


def test_slab_config_invariants():
    with pytest.raises(ValueError):
        SlabConfig(mu=0.0)
    with pytest.raises(ValueError):
        SlabConfig(mu=1.0, L=-1.0)
    with pytest.raises(ValueError):
        SlabConfig(mu=np.inf)
