"""Batch front-end: one config file, six commands, machine-readable outputs.

Outputs are deterministic: CSV files carry a mandatory header, LF line
endings and floats printed with 17 significant digits; JSON files are
sorted by key.  Exit codes: 0 success, 2 invalid input, 3 no growing mode,
4 convergence failure.
"""

import argparse
import configparser
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .dispersion import escape_time, growth_rate, scan_band
from .errors import (
    ConvergenceFailure,
    EigensolveFailure,
    InsufficientGrowth,
    SingularStep,
    SlabRTError,
)
from .evolve import fit_growth_rate, mode_initial_state, simulate
from .forms import assemble_forms
from .grid import MAX_NODES, build_grid
from .profiles import (
    SlabConfig,
    preset_profile,
    profile_from_csv,
    validate_profile,
)
from .variational import compute_critical_numbers, critical_viscosity_numerical

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_GROWING_MODE = 3
EXIT_NO_CONVERGENCE = 4

FORMATS = ("csv", "json", "svg")
VARIANTS = ("A", "B")
MAX_SAMPLES = 10000
MAX_STEPS = 1_000_000


def _formats(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _setting(default, section=None, parse=float, flag=None, key=None):
    """A RunConfig field read from [section] key (the key defaults to the
    field name) and from flag; no section means a flag only, no flag a file
    key only.  A parse that returns None sets nothing."""
    return field(default=default,
                 metadata={"section": section, "key": key, "parse": parse, "flag": flag})


@dataclass
class RunConfig:
    """Everything one run needs; flags override file values."""

    profile_csv: str | None = _setting(None, "profile", str, key="csv")
    # None (also from an empty "preset =") means linear-up unless csv is set
    preset: str | None = _setting(None, "profile", lambda s: s or None, "--preset")
    y_c: float | None = _setting(None, "profile")
    w: float | None = _setting(None, "profile")
    mu: float = _setting(0.01, "physics", flag="--mu")
    g: float = _setting(1.0, "physics", flag="--g")
    k0: float = _setting(0.0, "physics", flag="--k0")
    k1: float = _setting(0.0, "physics", flag="--k1")
    L: float = _setting(1.0, "physics", flag="--L")
    n: int = _setting(128, "grid", int, "--n")
    band_a: float | None = _setting(None, "band", key="a")
    band_b: float | None = _setting(None, "band", key="b")
    n_samples: int = _setting(64, "scan", int, "--n-samples")
    dt: float | None = _setting(None, "evolve")
    t_end: float | None = _setting(None, "evolve")
    epsilon: float | None = _setting(None, "escape", flag="--epsilon")
    m0: float | None = _setting(None, "escape", flag="--m0")
    delta: float | None = _setting(None, "escape", flag="--delta")
    variant: str = _setting("A", "escape", str, "--variant")
    Lambda: float | None = _setting(None, "escape", flag="--Lambda", key="lambda")
    out_dir: str = _setting("out", "output", str, "--out", key="dir")
    formats: tuple = _setting(("csv", "json"), "output", _formats, "--format")
    xi: float | None = _setting(None, flag="--xi")

    def slab(self) -> SlabConfig:
        return SlabConfig(mu=self.mu, g=self.g, k0=self.k0, k1=self.k1, L=self.L)

    def profile(self):
        params = {k: v for k, v in (("preset", self.preset), ("y_c", self.y_c), ("w", self.w))
                  if v is not None}
        if self.profile_csv:
            if params:
                raise ValueError(f"[profile] {next(iter(params))} is not read by the tabulated "
                                 f"profile of [profile] csv = {self.profile_csv!r}")
            return profile_from_csv(self.profile_csv)
        return preset_profile(params.pop("preset", "linear-up"), **params)


def load_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        found = cp.read(path)
    except configparser.Error as exc:  # malformed: the message names file and line
        raise ValueError(str(exc)) from None
    if not found:
        raise ValueError(f"cannot read config file {path!r}")
    if cp.defaults():
        raise ValueError(f"unknown config section [{cp.default_section}]")
    cfg = RunConfig()
    for sec in cp.sections():
        keys = {cp.optionxform(f.metadata["key"] or f.name): f
                for f in fields(RunConfig) if f.metadata["section"] == sec}
        if not keys:
            raise ValueError(f"unknown config section [{sec}]")
        for key, text in cp.items(sec):
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} in [{sec}]")
            v = keys[key].metadata["parse"](text)
            if v is not None:
                setattr(cfg, keys[key].name, v)
    _check(cfg)
    return cfg


def _check(cfg: RunConfig):
    for name, v in vars(cfg).items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{name} = {v} is not a finite number")
    for name in ("dt", "t_end"):
        v = getattr(cfg, name)
        if v is not None and v <= 0.0:
            raise ValueError(f"{name} = {v:g} must be positive")
    if cfg.n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if cfg.n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples = {cfg.n_samples} exceeds the cap of {MAX_SAMPLES}")
    if cfg.n > MAX_NODES:
        raise ValueError(f"n = {cfg.n} exceeds the cap of {MAX_NODES} nodes")
    bad = [f for f in cfg.formats if f not in FORMATS]
    if bad:
        raise ValueError(f"unknown output formats {bad}; choose from {FORMATS}")
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown escape-time variant {cfg.variant!r}; choose from {VARIANTS}")
    cfg.slab()  # physical-parameter invariants


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> str:
    try:  # NaN and Infinity are not JSON
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path} not written: {exc}") from None
    _write_text(path, text)
    return text


def _write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# plain-text SVG emission (display only, no plotting dependency)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _svg_plot(path: str, series: list, title: str, xlabel: str, ylabel: str):
    """series: list of (xs, ys, label) triples; draws axes plus polylines."""
    width, height, pad = 640, 420, 54
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="{px(xv):.1f}" y="{height - pad + 16}" text-anchor="middle" '
                     f'font-size="10">{xv:.4g}</text>')
        parts.append(f'<text x="{pad - 6}" y="{py(yv):.1f}" text-anchor="end" '
                     f'font-size="10">{yv:.4g}</text>')
    for i, (xs, ys, label) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{width - pad - 4}" y="{pad + 14 + 14 * i}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _model(cfg: RunConfig):
    p, slab, grid = cfg.profile(), cfg.slab(), build_grid(cfg.n)
    validate_profile(p)  # a non-positive density is bad input for every command
    return p, slab, grid


def _band(numbers, band_a=None) -> tuple:
    """(a, b): [band] a, or else xi_c, up to the critical numbers' upper edge;
    requires 0 <= a < b and names where a came from."""
    xi_c, b = numbers.band
    a, source = (xi_c, "critical frequency xi_c") if band_a is None else (band_a, "[band] a")
    if a < 0.0:
        raise ValueError(f"invalid band: {source} = {a:g} is negative")
    if not a < b:
        raise ValueError(f"invalid band: {source} = {a:g} is not below the upper edge b = {b:g}")
    return a, b


def _scan(cfg: RunConfig, n_samples: int):
    """(band, DispersionResult) over the band's lattice and n_samples uniform xi."""
    p, slab, grid = _model(cfg)
    a, b = band = _band(compute_critical_numbers(p, slab, grid, b=cfg.band_b), cfg.band_a)
    if (b - a) * cfg.L > MAX_SAMPLES:  # before the lattice n/L in (a, b) is listed
        raise ValueError(f"band ({a:g}, {b:g}) with L = {cfg.L:g} holds about "
                         f"{(b - a) * cfg.L:.6g} lattice frequencies, "
                         f"above the cap of {MAX_SAMPLES}")
    return band, scan_band(p, slab, grid, band, n_samples)


def cmd_check(cfg: RunConfig) -> int:
    report = validate_profile(cfg.profile())
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_critical(cfg: RunConfig) -> int:
    p, slab, grid = _model(cfg)
    numbers = compute_critical_numbers(p, slab, grid, b=cfg.band_b)
    _band(numbers)
    payload = {
        "mu_c_closed": numbers.mu_c,
        "mu_c_numerical": critical_viscosity_numerical(slab, grid),
        "xi_c": numbers.xi_c,
        "C0": numbers.C0,
        "C1": numbers.C1,
        "C2": numbers.C2,
        "band": list(numbers.band),
    }
    text = _write_json(os.path.join(cfg.out_dir, "critical.json"), payload)
    print(text, end="")
    return EXIT_OK


def cmd_dispersion(cfg: RunConfig) -> int:
    band, result = _scan(cfg, cfg.n_samples)

    rows = [(pt.xi, pt.lam, pt.alpha_residual, pt.iters) for pt in result.samples]
    _write_csv(os.path.join(cfg.out_dir, "dispersion.csv"),
               ["xi", "lambda", "alpha_residual", "iters"], rows)
    payload = {
        "Lambda": result.Lambda,
        "LambdaStar": result.Lambda,
        "xi_star": result.xi_star,
        "lattice": [[pt.xi, pt.lam] for pt in result.lattice],
        "band": list(band),
    }
    if result.Lambda is None:
        payload["note"] = "NoGrowingMode"
    _write_json(os.path.join(cfg.out_dir, "summary.json"), payload)
    if "svg" in cfg.formats and result.samples:
        xs = [pt.xi for pt in result.samples if pt.xi > 0]
        ys = [pt.lam for pt in result.samples if pt.xi > 0]
        _svg_plot(os.path.join(cfg.out_dir, "dispersion.svg"),
                  [(xs, ys, "growth rate")], "dispersion curve", "xi", "lambda")
    n_grow = len(result.samples)
    print(f"dispersion: {n_grow} growing samples; Lambda = {result.Lambda}")
    return EXIT_OK


def cmd_mode(cfg: RunConfig) -> int:
    if cfg.xi is None:
        raise ValueError("mode requires --xi")
    p, slab, grid = _model(cfg)
    ms = growth_rate(p, slab, grid, cfg.xi)
    if ms is None:
        print(f"no growing mode at xi = {cfg.xi:g}", file=sys.stderr)
        return EXIT_NO_GROWING_MODE
    payload = dict(ms.residuals)
    payload.update({"lambda": ms.lam, "xi": ms.forms.xi, "iters": ms.iters})
    _write_json(os.path.join(cfg.out_dir, "residuals.json"), payload)  # before mode.csv: a refusal writes nothing
    psi_f = ms.psi_full()
    rows = [(float(y), float(ps), float(ph), float(pv))
            for y, ps, ph, pv in zip(grid.nodes, psi_f, ms.phi, ms.pi)]
    _write_csv(os.path.join(cfg.out_dir, "mode.csv"), ["y", "psi", "phi", "pi"], rows)
    if "svg" in cfg.formats:
        y = grid.nodes
        _svg_plot(os.path.join(cfg.out_dir, "mode.svg"),
                  [(y, psi_f, "psi"), (y, ms.phi, "phi"), (y, ms.pi, "pi")],
                  f"mode shapes at xi = {cfg.xi:g}", "y", "amplitude")
    print(f"mode: lambda = {ms.lam:.12g} at xi = {cfg.xi:g}")
    return EXIT_OK


def cmd_evolve(cfg: RunConfig) -> int:
    if cfg.xi is None:
        raise ValueError("evolve requires --xi")
    p, slab, grid = _model(cfg)
    ms = growth_rate(p, slab, grid, cfg.xi)
    if ms is not None:
        fs, lam = ms.forms, ms.lam
        dt, t_end = 1e-3 / lam, 4.0 / lam
        w0, sigma0 = mode_initial_state(ms)
    else:
        fs, lam = assemble_forms(p, slab, grid, cfg.xi), None
        # long window: stable configs decay slowly once the viscous
        # transient has passed, and the fit needs the decaying tail
        dt, t_end = 1e-3, 30.0
        # deterministic smooth pulse for the stable (decay) diagnostic
        y = grid.nodes
        w_full = y * (1.0 - y) * np.sin(np.pi * y)
        w0 = 1e-3 * w_full[1:-1]
        sigma0 = np.zeros_like(w0)
    dt = cfg.dt if cfg.dt is not None else dt
    t_end = cfg.t_end if cfg.t_end is not None else t_end
    if t_end / dt > MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} time steps exceed the cap of {MAX_STEPS}")
    sim = simulate(slab, fs, w0, sigma0, dt, t_end)
    _write_csv(os.path.join(cfg.out_dir, "trajectory.csv"),
               ["t", "amplitude", "energy", "balance_residual"], sim.rows)
    try:
        lam_fit = fit_growth_rate(sim.rows)
    except InsufficientGrowth as exc:
        _write_json(os.path.join(cfg.out_dir, "fit.json"),
                    {"lambda_fit": None, "lambda_variational": lam,
                     "rel_diff": None, "note": str(exc)})
        print(f"evolve: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    rel = abs(lam_fit - lam) / abs(lam) if lam else None
    _write_json(os.path.join(cfg.out_dir, "fit.json"),
                {"lambda_fit": lam_fit, "lambda_variational": lam, "rel_diff": rel})
    print(f"evolve: fitted rate {lam_fit:.9g}" +
          (f" (variational {lam:.9g}, rel diff {rel:.2e})" if lam else ""))
    return EXIT_OK


def cmd_escape(cfg: RunConfig) -> int:
    for name in ("epsilon", "delta"):
        if getattr(cfg, name) is None:
            raise ValueError(f"escape requires {name}")
    if cfg.variant == "A" and cfg.m0 is None:
        raise ValueError("escape variant A requires m0")
    Lambda = cfg.Lambda
    if Lambda is None:
        _, result = _scan(cfg, 0)  # Lambda needs only the lattice
        if result.Lambda is None:
            print("error: no growing lattice mode; supply --Lambda explicitly",
                  file=sys.stderr)
            return EXIT_NO_GROWING_MODE
        Lambda = result.Lambda
    T = escape_time(Lambda, cfg.epsilon, cfg.m0 if cfg.m0 is not None else 1.0,
                    cfg.delta, cfg.variant)
    text = _write_json(os.path.join(cfg.out_dir, "escape.json"),
                       {"T": T, "Lambda": Lambda, "variant": cfg.variant})
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# main looks cmd_<name> up at call time, not through a table of function
# objects, so a wrapper installed on the module attribute (a profiler, a
# test) sees the call
COMMANDS = ("check", "critical", "dispersion", "mode", "evolve", "escape")


# built once per process: parse_args leaves the parser unchanged
@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slab-rt",
                                 description="Rayleigh-Taylor growth rates in a "
                                             "slip-walled slab")
    sub = ap.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", required=True)
        for f in fields(RunConfig):
            if f.metadata["flag"]:
                sp.add_argument(f.metadata["flag"], type=f.metadata["parse"], dest=f.name)
    return ap


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if f.metadata["flag"] and getattr(args, f.name) is not None}
    if "preset" in updates:
        updates["profile_csv"] = None
    cfg = replace(cfg, **updates)
    _check(cfg)
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return globals()[f"cmd_{args.command}"](cfg)
    except (ConvergenceFailure, EigensolveFailure, SingularStep, InsufficientGrowth) as exc:
        code, err = EXIT_NO_CONVERGENCE, exc
    except (SlabRTError, ValueError, OSError) as exc:
        code, err = EXIT_INVALID, exc
    print(f"error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
