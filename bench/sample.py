"""One measurement in a fresh interpreter.

Usage: python3 bench/sample.py SPEC.json RESULT.json

SPEC["mode"] is one of
  "setup"  - import slabrt (and build the profile and grid of a library
             workload) and record the environment;
  "body"   - set up, then run the workload body once, timed; with
             SPEC["trace"] the body runs under the tracer;
  "oracle" - companion-oracle rates at SPEC["xis"] for a CLI config, used by
             the correctness gate outside any timed region.
"""

import ctypes
import gzip
import json
import os
import platform
import resource
import sys
import time

import workloads


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _openblas() -> list:
    """Each loaded OpenBLAS with its thread count, read through its own API."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in paths:
                paths.append(path)
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        rec = {"path": path, "threads": None, "config": None}
        for suffix in ("64_", "_64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None and rec["threads"] is None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    rec["threads"] = fn()
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if cfg is not None and rec["config"] is None:
                    cfg.argtypes, cfg.restype = [], ctypes.c_char_p
                    rec["config"] = cfg().decode()
        libs.append(rec)
    return libs


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")},
    }


def _library_setup(slabrt, inputs):
    profile = slabrt.preset_profile(inputs["preset"], y_c=inputs["y_c"], w=inputs["w"])
    slab = slabrt.SlabConfig(mu=inputs["mu"], g=inputs["g"], k0=inputs["k0"],
                             k1=inputs["k1"], L=inputs["L"])
    return profile, slab, slabrt.build_grid(inputs["n"])


def _oracle(spec) -> dict:
    import slabrt
    from slabrt.cli import load_config

    cfg = load_config(spec["ini"])
    profile, slab, grid = cfg.profile(), cfg.slab(), slabrt.build_grid(cfg.n)
    rates = []
    for xi in spec["xis"]:
        found = slabrt.companion_oracle(slabrt.assemble_forms(profile, slab, grid, xi))
        rates.append(None if found is None else found[0])
    return {"rates": rates}


def _run_cli(cli, argvs) -> tuple[list, dict]:
    """Exit code (or exception text) and wall time of each command."""
    codes, times = [], {}
    for argv in argvs:
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # recorded as a failed operation
            rc = repr(exc)
        times[argv[0]] = time.perf_counter() - t
        codes.append((argv[0], rc))
    return codes, times


def run(spec) -> dict:
    if spec["mode"] == "oracle":
        return _oracle(spec)
    workload, inputs = spec["workload"], spec["inputs"]
    t0 = time.perf_counter()
    import slabrt
    import slabrt.cli

    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup = None if workloads.is_cli(workload) else _library_setup(slabrt, inputs)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        out["env"] = environment()
        return out

    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    if setup is None:
        out["codes"], out["command_s"] = _run_cli(slabrt.cli, spec["commands"])
    else:
        out["ops"] = workloads.crosscheck_body(slabrt, inputs, *setup)
    out["wall_s"] = time.perf_counter() - t1
    out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.remove()
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["span_table"] = tracing.span_table(tracer.spans)
        with gzip.open(spec["spans_path"], "wt", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.id, s.name, s.thread, s.parent,
                                     s.start, s.end, s.info]) + "\n")
    return out


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
