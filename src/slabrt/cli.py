"""Batch front-end: one config file, six commands, machine-readable outputs.

Outputs are deterministic: CSV files carry a mandatory header, LF line
endings and floats printed with 17 significant digits; JSON files are
sorted by key.  Exit codes: 0 success, 2 invalid input, 3 no growing mode,
4 convergence failure.
"""

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .dispersion import escape_time, growth_rate, scan_band
from .errors import (
    ConvergenceFailure,
    EigensolveFailure,
    EmptyBand,
    InsufficientGrowth,
    NonPositiveDensity,
    SingularStep,
    SlabRTError,
)
from .evolve import fit_growth_rate, mode_initial_state, simulate
from .forms import assemble_forms
from .grid import build_grid
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


@dataclass
class RunConfig:
    """Everything one run needs; flags override file values."""

    preset: str | None = "linear-up"
    profile_csv: str | None = None
    preset_params: dict = field(default_factory=dict)
    mu: float = 0.01
    g: float = 1.0
    k0: float = 0.0
    k1: float = 0.0
    L: float = 1.0
    n: int = 128
    band_a: float | None = None
    band_b: float | None = None
    n_samples: int = 64
    dt: float | None = None
    t_end: float | None = None
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
    xi: float | None = None
    epsilon: float | None = None
    m0: float | None = None
    delta: float | None = None
    variant: str = "A"
    Lambda: float | None = None
    workers: int = 0  # 0 -> cpu count

    def slab(self) -> SlabConfig:
        return SlabConfig(mu=self.mu, g=self.g, k0=self.k0, k1=self.k1, L=self.L)

    def profile(self):
        if self.profile_csv:
            return profile_from_csv(self.profile_csv)
        return preset_profile(self.preset, **self.preset_params)


def load_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    if not cp.read(path):
        raise ValueError(f"cannot read config file {path!r}")
    cfg = RunConfig()

    def fget(sec, key, cast=float):
        if cp.has_option(sec, key):
            return cast(cp.get(sec, key))
        return None

    if cp.has_section("profile"):
        cfg.profile_csv = fget("profile", "csv", str)
        preset = fget("profile", "preset", str)
        if preset:
            cfg.preset = preset
        for k in ("y_c", "w"):
            v = fget("profile", k)
            if v is not None:
                cfg.preset_params[k] = v
    for k in ("mu", "g", "k0", "k1", "L"):
        v = fget("physics", k)
        if v is not None:
            setattr(cfg, k, v)
    v = fget("grid", "n", int)
    if v is not None:
        cfg.n = v
    cfg.band_a = fget("band", "a")
    cfg.band_b = fget("band", "b")
    v = fget("scan", "n_samples", int)
    if v is not None:
        cfg.n_samples = v
    cfg.dt = fget("evolve", "dt")
    cfg.t_end = fget("evolve", "t_end")
    for k in ("epsilon", "m0", "delta"):
        setattr(cfg, k, fget("escape", k))
    v = fget("escape", "variant", str)
    if v is not None:
        cfg.variant = v
    cfg.Lambda = fget("escape", "lambda")
    v = fget("output", "dir", str)
    if v is not None:
        cfg.out_dir = v
    v = fget("output", "formats", str)
    if v is not None:
        cfg.formats = tuple(s.strip() for s in v.split(",") if s.strip())
    _check(cfg)
    return cfg


def _check(cfg: RunConfig):
    if cfg.n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if cfg.workers < 0:
        raise ValueError("workers must be nonnegative (0 means one per CPU)")
    bad = [f for f in cfg.formats if f not in FORMATS]
    if bad:
        raise ValueError(f"unknown output formats {bad}; choose from {FORMATS}")
    cfg.slab()  # physical-parameter invariants


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
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


def _svg_plot(path: str, series: list, title: str, xlabel: str, ylabel: str,
              width: int = 640, height: int = 420):
    """series: list of (xs, ys, label) triples; draws axes plus polylines."""
    pad = 54
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
    return cfg.profile(), cfg.slab(), build_grid(cfg.n)


def _scan(cfg: RunConfig):
    """Scan the configured band (file values over the critical numbers'
    defaults) on one worker per CPU unless workers is set; returns
    (band, DispersionResult)."""
    p, slab, grid = _model(cfg)
    numbers = compute_critical_numbers(p, slab, grid, b=cfg.band_b)
    a = cfg.band_a if cfg.band_a is not None else numbers.band[0]
    b = cfg.band_b if cfg.band_b is not None else numbers.band[1]
    workers = cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)
    return (a, b), scan_band(p, slab, grid, (a, b), cfg.n_samples, workers=workers)


def cmd_check(cfg: RunConfig) -> int:
    report = validate_profile(cfg.profile())
    payload = {
        "positive": report.positive,
        "rt_condition": report.rt_condition,
        "y0_witness": report.y0_witness,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_critical(cfg: RunConfig) -> int:
    p, slab, grid = _model(cfg)
    numbers = compute_critical_numbers(p, slab, grid, b=cfg.band_b)
    xi_c, b = numbers.band
    if not xi_c < b:
        raise ValueError(f"invalid band: critical frequency xi_c = {xi_c:g} "
                         f"is not below the upper edge b = {b:g}")
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
    band, result = _scan(cfg)

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


def cmd_mode(cfg: RunConfig, xi: float) -> int:
    p, slab, grid = _model(cfg)
    ms = growth_rate(p, slab, grid, xi)
    if ms is None:
        print(f"no growing mode at xi = {xi:g}", file=sys.stderr)
        return EXIT_NO_GROWING_MODE
    psi_f = ms.psi_full()
    rows = [(float(y), float(ps), float(ph), float(pv))
            for y, ps, ph, pv in zip(grid.nodes, psi_f, ms.phi, ms.pi)]
    _write_csv(os.path.join(cfg.out_dir, "mode.csv"), ["y", "psi", "phi", "pi"], rows)
    payload = dict(ms.residuals)
    payload.update({"lambda": ms.lam, "xi": ms.xi, "iters": ms.iters})
    _write_json(os.path.join(cfg.out_dir, "residuals.json"), payload)
    if "svg" in cfg.formats:
        y = grid.nodes
        _svg_plot(os.path.join(cfg.out_dir, "mode.svg"),
                  [(y, psi_f, "psi"), (y, ms.phi, "phi"), (y, ms.pi, "pi")],
                  f"mode shapes at xi = {xi:g}", "y", "amplitude")
    print(f"mode: lambda = {ms.lam:.12g} at xi = {xi:g}")
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, xi: float) -> int:
    p, slab, grid = _model(cfg)
    ms = growth_rate(p, slab, grid, xi)
    fs = ms.forms if ms is not None else assemble_forms(p, slab, grid, xi)
    if ms is not None:
        lam = ms.lam
        dt = cfg.dt if cfg.dt is not None else 1e-3 / lam
        t_end = cfg.t_end if cfg.t_end is not None else 4.0 / lam
        w0, sigma0 = mode_initial_state(ms)
    else:
        lam = None
        dt = cfg.dt if cfg.dt is not None else 1e-3
        # long window: stable configs decay slowly once the viscous
        # transient has passed, and the fit needs the decaying tail
        t_end = cfg.t_end if cfg.t_end is not None else 30.0
        # deterministic smooth pulse for the stable (decay) diagnostic
        y = grid.nodes
        w_full = y * (1.0 - y) * np.sin(np.pi * y)
        w0 = 1e-3 * w_full[1:-1]
        sigma0 = np.zeros(grid.n)
    sim = simulate(slab, fs, w0, sigma0, dt, t_end)
    _write_csv(os.path.join(cfg.out_dir, "trajectory.csv"),
               ["t", "amplitude", "energy", "balance_residual"], sim.rows)
    try:
        lam_fit = fit_growth_rate(sim.state.history)
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
            print(f"error: escape requires {name}", file=sys.stderr)
            return EXIT_INVALID
    if cfg.variant == "A" and cfg.m0 is None:
        print("error: escape variant A requires m0", file=sys.stderr)
        return EXIT_INVALID
    Lambda = cfg.Lambda
    if Lambda is None:
        _, result = _scan(cfg)
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

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slab-rt",
                                 description="Rayleigh-Taylor growth rates in a "
                                             "slip-walled slab")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("check", "critical", "dispersion", "mode", "evolve", "escape"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--xi", type=float)
        sp.add_argument("--out")
        sp.add_argument("--format", dest="formats")
        sp.add_argument("--preset")
        sp.add_argument("--mu", type=float)
        sp.add_argument("--g", type=float)
        sp.add_argument("--k0", type=float)
        sp.add_argument("--k1", type=float)
        sp.add_argument("--L", type=float)
        sp.add_argument("--n", type=int)
        sp.add_argument("--n-samples", type=int, dest="n_samples")
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--m0", type=float)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--variant", choices=("A", "B"))
        sp.add_argument("--Lambda", type=float)
        sp.add_argument("--workers", type=int)
    return ap


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.formats is not None:
        updates["formats"] = tuple(s.strip() for s in args.formats.split(",") if s.strip())
    for name in ("preset", "mu", "g", "k0", "k1", "L", "n", "n_samples", "xi",
                 "epsilon", "m0", "delta", "variant", "Lambda", "workers"):
        v = getattr(args, name, None)
        if v is not None:
            updates[name] = v
    if "preset" in updates:
        updates["profile_csv"] = None
    cfg = replace(cfg, **updates)
    _check(cfg)
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "critical":
            return cmd_critical(cfg)
        if args.command == "dispersion":
            return cmd_dispersion(cfg)
        if args.command in ("mode", "evolve"):
            if cfg.xi is None:
                print(f"error: {args.command} requires --xi", file=sys.stderr)
                return EXIT_INVALID
            if args.command == "mode":
                return cmd_mode(cfg, cfg.xi)
            return cmd_evolve(cfg, cfg.xi)
        if args.command == "escape":
            return cmd_escape(cfg)
    except (NonPositiveDensity, EmptyBand, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ConvergenceFailure, EigensolveFailure, SingularStep, InsufficientGrowth) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except SlabRTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
