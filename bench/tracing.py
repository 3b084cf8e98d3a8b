"""In-memory span tracing from outside the program.

The tracer replaces public functions with timing wrappers at every module
attribute that binds them, records one span per call (name, start, end,
parent, thread) and restores the original bindings on removal.  Nothing in
the program is edited: spans are taken at the boundaries of its public
functions and of the scipy.linalg entry points it calls.
"""

import inspect
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass

# scipy.linalg entry points the program reaches through `sla.<name>`
LAPACK_ENTRY_POINTS = ("eigh", "eig", "cholesky", "solve_triangular", "lu_factor", "lu_solve")


@dataclass
class Span:
    id: int
    name: str
    thread: int
    parent: int | None
    start: float
    end: float
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the callables it patches; `remove` restores them."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrappers = {}  # id(original) -> wrapper
        self._patched = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """Timing wrapper around fn; info(args, result) annotates the span."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = Span(sid, name, threading.get_ident(), parent, t0, t1)
                self.spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attribute: str, name: str, info=None):
        original = getattr(owner, attribute)
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            wrapper = self._wrappers[id(original)] = self.wrap(name, original, info)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def remove(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        self._wrappers.clear()


def _eigh_info(args, result):
    return {"m": int(args[0].shape[0])}


def _growth_rate_info(args, result):
    if result is None:
        return {"grows": False}
    return {"grows": True, "iters": int(result.iters)}


INFO = {"lapack.eigh": _eigh_info, "dispersion.growth_rate": _growth_rate_info}


def install(tracer: Tracer):
    """Wrap every public function and public method of slabrt, at every
    module attribute that binds it, plus the scipy.linalg entry points."""
    import scipy.linalg

    prefix = "slabrt."
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "slabrt" or name.startswith(prefix))]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                name = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                tracer.patch(mod, attr, name, INFO.get(name))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        tracer.patch(obj, meth, f"{obj.__module__[len(prefix):]}."
                                                 f"{obj.__name__}.{meth}")
    for attr in LAPACK_ENTRY_POINTS:
        name = f"lapack.{attr}"
        tracer.patch(scipy.linalg, attr, name, INFO.get(name))
        for mod in modules:
            if vars(mod).get(attr) is getattr(scipy.linalg, attr).__wrapped__:
                tracer.patch(mod, attr, name)


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it covered by its child spans.

    Children are linked by parent id, which the tracer only sets within one
    thread, so work on another thread never reduces a span's self time.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


GRAM_FUNCTIONS = ("forms.curvature_matrix", "forms.gradient_matrix", "forms.mass_matrix")
CLI_COMMANDS = ("critical", "dispersion", "evolve")


def _percentile(values: list, p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(spans: list) -> dict:
    """Per-layer metric values (plain numbers) computed from one traced body."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def count(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum((s.duration for s in by_name.get(name, ())), 0.0)

    def self_total(pred):
        return sum((own[s.id] for s in spans if pred(s.name)), 0.0)

    def under(s, ancestor):
        p = s.parent
        while p is not None:
            a = by_id[p]
            if a.name == ancestor:
                return True
            p = a.parent
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    rates = by_name.get("dispersion.growth_rate", [])
    growing = [s for s in rates if s.info and s.info["grows"]]
    eighs = by_name.get("lapack.eigh", [])
    eigh_s = total("lapack.eigh")
    eigh_flop = sum(4.0 / 3.0 * s.info["m"] ** 3 for s in eighs if s.info)
    grams = [s for n in GRAM_FUNCTIONS for s in by_name.get(n, ())]
    steps = by_name.get("evolve.CrankNicolsonStepper.step", [])

    scans = by_name.get("dispersion.scan_band", [])
    scan_eff = 0.0
    if scans:
        busy = 0.0
        threads = set()
        wall = 0.0
        for scan in scans:
            inside = [s for s in rates if s.start >= scan.start and s.end <= scan.end]
            busy += sum(s.duration for s in inside)
            threads |= {s.thread for s in inside}
            wall += scan.duration
        scan_eff = ratio(busy, wall * max(1, len(threads)))

    durations_ms = [1e3 * s.duration for s in rates]
    metrics = {
        "variational.eigh_per_freq":
            ratio(sum(1 for s in eighs if under(s, "dispersion.growth_rate")), len(rates)),
        "dispersion.fixed_point_s": self_total(lambda n: n == "dispersion.growth_rate"),
        "forms.gram_calls_per_freq":
            ratio(sum(1 for s in grams if under(s, "forms.assemble_forms")),
                  count("forms.assemble_forms")),
        "forms.assemble_s": self_total(lambda n: n == "forms.assemble_forms"),
        "forms.gram_s": sum(s.duration for s in grams),
        "lapack.eigh_s": eigh_s,
        "lapack.eigh_gflop_per_s": ratio(eigh_flop, eigh_s) / 1e9,
        "lapack.eig_s": total("lapack.eig"),
        "lapack.trsm_s": total("lapack.solve_triangular"),
        "dispersion.scan_parallel_eff": scan_eff,
        "dispersion.oracle_s": total("dispersion.companion_oracle"),
        "dispersion.reconstruct_s": total("dispersion.reconstruct_mode"),
        "evolve.factor_s": total("lapack.lu_factor"),
        "evolve.steps": float(len(steps)),
        "evolve.step_us": ratio(1e6 * sum(s.duration for s in steps), len(steps)),
        "variational.critical_s": total("variational.compute_critical_numbers"),
        "variational.pencil_extreme_calls": float(count("variational.pencil_extreme")),
    }
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}_s"] = total(f"cli.cmd_{cmd}")
    metrics.update({
        "cli.self_s": self_total(lambda n: n.startswith("cli.")),
        "dispersion.growing_frac": ratio(len(growing), len(rates)),
        "dispersion.bisect_iters_mean":
            ratio(sum(s.info["iters"] for s in growing), len(growing)),
        "dispersion.growth_rate_p50_ms": _percentile(durations_ms, 50),
        "dispersion.growth_rate_p85_ms": _percentile(durations_ms, 85),
        "grid.build_s": total("grid.build_grid"),
    })
    return metrics


def span_table(spans: list) -> dict:
    """name -> {calls, total_s, self_s}, for the results file."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return table
