"""Steady density profiles on [0, 1]."""

import csv
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonPositiveDensity
from .grid import (
    MAX_NODES,
    barycentric_eval,
    barycentric_weights,
    chebyshev_lobatto_nodes,
    differentiation_matrix,
)

MIN_TABLE_NODES = 8

# 10x-oversampled uniform points on top of the collocation family: smooth
# profiles have their extrema either at Lobatto endpoints or captured by the
# oversampling.
_SAMPLE_N = 128


def evaluation_points() -> np.ndarray:
    return np.union1d(chebyshev_lobatto_nodes(_SAMPLE_N), np.linspace(0.0, 1.0, 10 * _SAMPLE_N + 1))


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Steady density rho(y) with derivative drho(y)."""

    rho: Callable[[np.ndarray], np.ndarray]
    drho: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ValidationReport:
    positive: bool
    rt_condition: bool
    y0_witness: float | None


@dataclass(frozen=True)
class SlabConfig:
    """Physical parameters: viscosity, gravity, slip coefficients, period scale."""

    mu: float
    g: float = 1.0
    k0: float = 0.0
    k1: float = 0.0
    L: float = 1.0

    def __post_init__(self):
        for nm in ("mu", "g", "k0", "k1", "L"):
            if not np.isfinite(getattr(self, nm)):
                raise ValueError(f"{nm} must be finite")
        if self.mu <= 0:
            raise ValueError("viscosity mu must be positive")
        if self.g < 0:
            raise ValueError("gravity g must be nonnegative")
        if self.L <= 0:
            raise ValueError("period scale L must be positive")


_PRESETS = {"exp": (), "linear-up": (), "linear-down": (), "tanh-layer": ("y_c", "w")}


def preset_profile(name: str, **params) -> DensityProfile:
    """Analytic presets: "exp", "linear-up", "linear-down", "tanh-layer".

    The tanh layer takes a centre y_c and width w (defaults 0.5 and 0.1);
    any other parameter is rejected by name.
    """
    for key in params:
        if name in _PRESETS and key not in _PRESETS[name]:
            raise ValueError(f"preset {name!r} takes no parameter {key!r}")
    if name == "exp":
        return DensityProfile(np.exp, np.exp)
    if name == "linear-up":
        return DensityProfile(
            lambda y: 1.0 + np.asarray(y, dtype=float),
            lambda y: np.ones_like(np.asarray(y, dtype=float)),
        )
    if name == "linear-down":
        return DensityProfile(
            lambda y: 2.0 - np.asarray(y, dtype=float),
            lambda y: -np.ones_like(np.asarray(y, dtype=float)),
        )
    if name == "tanh-layer":
        y_c = float(params.get("y_c", 0.5))
        w = float(params.get("w", 0.1))
        if w <= 0:
            raise ValueError("tanh-layer width w must be positive")
        return DensityProfile(
            lambda y: 2.0 + np.tanh((np.asarray(y, dtype=float) - y_c) / w),
            lambda y: (1.0 / np.cosh((np.asarray(y, dtype=float) - y_c) / w) ** 2) / w,
        )
    raise ValueError(f"unknown preset {name!r}")


def constant_profile(value: float = 1.0) -> DensityProfile:
    """Uniform density; the gravitational form vanishes identically."""
    return DensityProfile(
        lambda y: np.full_like(np.asarray(y, dtype=float), value),
        lambda y: np.zeros_like(np.asarray(y, dtype=float)),
    )


def tabulated_profile(y: np.ndarray, rho_values: np.ndarray) -> DensityProfile:
    """Global polynomial through tabulated (y, rho) nodes; derivative by
    spectral differentiation of the interpolant."""
    y = np.asarray(y, dtype=float)
    r = np.asarray(rho_values, dtype=float)
    if y.size < MIN_TABLE_NODES:
        raise ValueError(f"tabulated profile needs >= {MIN_TABLE_NODES} nodes, got {y.size}")
    if y.size > MAX_NODES:  # the interpolant builds dense rows x rows matrices
        raise ValueError(f"tabulated profile has {y.size} nodes, above the cap of {MAX_NODES}")
    if y.shape != r.shape:
        raise ValueError("y and rho columns differ in length")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(r))):
        raise ValueError("tabulated profile contains non-finite values")
    if np.any(np.diff(y) <= 0):
        raise ValueError("tabulated y values must be strictly increasing")
    if abs(y[0]) > 1e-12 or abs(y[-1] - 1.0) > 1e-12:
        raise ValueError("tabulated y values must cover [0, 1]")
    y = y.copy()
    y[0], y[-1] = 0.0, 1.0

    bw = barycentric_weights(y)
    dr = differentiation_matrix(y, bw) @ r

    return DensityProfile(functools.partial(barycentric_eval, y, bw, r),
                          functools.partial(barycentric_eval, y, bw, dr))


def profile_from_csv(path) -> DensityProfile:
    """Read "y,rho" rows; the first non-empty row is a header if its y is not a number."""
    ys, rs, nonempty = [], [], 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or not row[0].strip():
                continue
            nonempty += 1
            where = f"{path}, line {reader.line_num}"
            try:
                y = float(row[0])
            except ValueError:
                if nonempty == 1:
                    continue  # header row
                raise ValueError(f"{where}: y = {row[0]!r} is not a number") from None
            if len(row) < 2:
                raise ValueError(f"{where}: expected two fields y,rho")
            try:
                rs.append(float(row[1]))
            except ValueError:
                raise ValueError(f"{where}: rho = {row[1]!r} is not a number") from None
            ys.append(y)
    return tabulated_profile(np.array(ys), np.array(rs))


def validate_profile(p: DensityProfile) -> ValidationReport:
    """Positivity and the heavy-over-light condition.

    rt_condition is true iff rho' > 0 at some sampled point; the witness is
    the sampled argmax of rho'.  Raises NonPositiveDensity (naming the
    offending y) when a sampled rho is not positive (NaN included), and
    ValueError when a sampled rho' is not finite.
    """
    ys = evaluation_points()
    # the heavy-over-light condition concerns interior points only
    yi = ys[(ys > 0.0) & (ys < 1.0)]
    with np.errstate(all="ignore"):  # a sample that is NaN or inf is reported below
        r, d = np.asarray(p.rho(ys), dtype=float), np.asarray(p.drho(yi), dtype=float)
    i = int(np.argmin(r))  # the first NaN, if there is one
    if not r[i] > 0.0:
        raise NonPositiveDensity(f"density not positive: rho({ys[i]:.6g}) = {r[i]:.6g}")
    j = int(np.argmin(np.isfinite(d)))
    if not np.isfinite(d[j]):
        raise ValueError(f"density slope not finite: rho'({yi[j]:.6g}) = {d[j]:.6g}")
    rt = bool(np.any(d > 0.0))
    y0 = float(yi[int(np.argmax(d))]) if rt else None
    return ValidationReport(positive=True, rt_condition=rt, y0_witness=y0)

