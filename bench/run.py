"""slab-rt benchmark: time to solution on three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample runs in a fresh interpreter (bench/sample.py) against the
sources in src/.  The run repeats samples for about S seconds, checks the
program's outputs outside the timed region, writes a results file under
bench/results/ and prints one JSON line last: end-to-end metrics with
--trace 0, per-layer metrics from a separate traced body with --trace 1.
The metric names, units and directions come from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Fresh interpreters that only set up, at the start of every run: they fill
# the page and bytecode caches, record the environment and add to setup_s.
SETUP_RUNS = 1
# A run must end within 180 s; no child may outlive this.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """A sample process failed: the benchmark has no result."""


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read without running git (None outside a repo)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def summary(values: list) -> dict:
    """Median, quartiles and count of a list of samples."""
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One benchmark run: the sample processes of one workload and seed."""

    def __init__(self, workload: str, seed: int, n: int | None):
        self.workload = workload
        self.inputs = workloads.make_inputs(workload, seed, n)
        self.work = os.path.join(BENCH_DIR, "work", f"{workload}-{seed}-{os.getpid()}")
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.children = 0
        os.makedirs(self.work)
        self.ini = os.path.join(self.work, "config.ini")
        if workloads.is_cli(workload):
            with open(self.ini, "w", encoding="utf-8") as fh:
                fh.write(workloads.ini_text(self.inputs))

    def child(self, spec: dict) -> dict:
        """Run bench/sample.py on spec in a fresh interpreter; its result."""
        self.children += 1
        stem = os.path.join(self.work, f"child-{self.children}")
        with open(stem + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "sample.py"),
                 stem + ".spec.json", stem + ".result.json"],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=timeout, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{spec['mode']} sample exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{spec['mode']} sample exited {proc.returncode}:\n"
                             + proc.stderr.decode(errors="replace")[-4000:])
        with open(stem + ".result.json", encoding="utf-8") as fh:
            return json.load(fh)

    def setup_sample(self) -> dict:
        return self.child({"mode": "setup", "workload": self.workload, "inputs": self.inputs})

    def body_sample(self, index: int, traced: bool) -> dict:
        spec = {"mode": "body", "workload": self.workload, "inputs": self.inputs,
                "trace": traced}
        if workloads.is_cli(self.workload):
            out = os.path.join(self.work, f"out-{index}")
            spec["commands"] = workloads.commands(self.workload, self.ini, out)
        if traced:
            os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
            spec["spans_path"] = os.path.join(
                BENCH_DIR, "results", f"{self.workload}-spans.jsonl.gz")
        rec = self.child(spec)
        rec["traced"] = traced
        if workloads.is_cli(self.workload):
            rec["files"] = workloads.read_outputs(out)
        return rec

    def measure(self, seconds: float, trace: bool) -> list:
        """Body samples for about `seconds`: plain ones, alternating with
        traced ones when trace is set.  A sample starts only if the median
        sample so far still fits in the window."""
        samples, durations = [], []
        start = time.monotonic()
        while True:
            traced = trace and len(samples) % 2 == 1
            t = time.monotonic()
            samples.append(self.body_sample(len(samples), traced))
            durations.append(time.monotonic() - t)
            kinds = {s["traced"] for s in samples}
            done = kinds == ({False, True} if trace else {False})
            if done and time.monotonic() - start + statistics.median(durations) > seconds:
                return samples

    def verdicts(self, samples: list) -> tuple[list, int]:
        """Correctness gate: (failed operations, attempted operations).

        The first sample is checked in full; every later one must write
        byte-identical files (CLI) or pass the same checks (library).
        """
        if not workloads.is_cli(self.workload):
            per = [workloads.judge_crosscheck(s["ops"]) for s in samples]
        else:
            first = samples[0]
            oracle = None
            if self.workload == "scan-default" and all(rc == 0 for _, rc in first["codes"]):
                xis = workloads.scan_xis(self.workload, self.inputs, first["files"])
                rates = self.child({"mode": "oracle", "ini": self.ini, "xis": xis})["rates"]
                oracle = dict(zip(xis, rates))
            gated = workloads.judge_cli(self.workload, self.inputs, first["codes"],
                                        first["files"], oracle)
            per = [gated]
            for s in samples[1:]:
                if s["codes"] != first["codes"] or s["files"] != first["files"]:
                    per.append([(op, "outputs differ from the first sample")
                                for op, _ in gated])
                else:
                    per.append(gated)
        failed = [(i, op, reason) for i, v in enumerate(per) for op, reason in v if reason]
        return failed, sum(len(v) for v in per)

    def frequencies(self, sample: dict) -> int:
        """Frequencies one body sample solves, grown or rejected as stable."""
        if not workloads.is_cli(self.workload):
            return len(self.inputs["xis"])
        if "summary.json" not in sample["files"]:
            raise BenchError("the dispersion command wrote no summary.json")
        n = len(workloads.scan_xis(self.workload, self.inputs, sample["files"]))
        # stable-control's evolve command solves one more frequency
        return n + 1 if self.workload == "stable-control" else n


def end_to_end(setups: list, plain: list, n_freqs: int) -> dict:
    wall = [s["wall_s"] for s in plain]
    return {
        "wall_s": summary(wall),
        "cpu_s": summary([s["cpu_s"] for s in plain]),
        "freqs_per_s": summary([n_freqs / w for w in wall]),
        "setup_s": summary(setups),
        "peak_rss_mb": summary([s["peak_rss_mb"] for s in plain]),
    }


def per_layer(plain: list, traced: list) -> dict:
    layers = {name: summary([s["layers"][name] for s in traced])
              for name in traced[0]["layers"]}
    overhead = [t["wall_s"] / p["wall_s"] - 1.0 for p, t in zip(plain, traced)]
    layers["trace.overhead_frac"] = summary(overhead)
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--n", type=int, help="grid size override (self-test smoke runs)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        definition = json.load(fh)
    if not os.path.isdir(os.path.join(ROOT, "src", "slabrt")):
        print(f"error: no slabrt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.n)
    try:
        setups = [run.setup_sample() for _ in range(SETUP_RUNS)]
        samples = run.measure(args.seconds, bool(args.trace))
        failed, attempted = run.verdicts(samples)
        plain = [s for s in samples if not s["traced"]]
        traced = [s for s in samples if s["traced"]]
        n_freqs = run.frequencies(plain[0])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    stats = {"end_to_end": end_to_end([s["setup_s"] for s in setups + plain], plain, n_freqs)}
    if args.trace:
        stats["per_layer"] = per_layer(plain, traced)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": stats[kind][m["name"]]["median"], "unit": m["unit"]}
               for m in definition[kind]}

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": run.inputs, "commit": git_commit(ROOT),
        "env": setups[0]["env"], "frequencies_per_sample": n_freqs,
        "attempted": attempted, "failed": len(failed),
        "failed_ops_frac": len(failed) / attempted,
        "failed_ops": [{"sample": i, "op": op, "reason": r} for i, op, r in failed],
        **stats,
        "samples": [{k: v for k, v in s.items() if k not in ("files", "span_table")}
                    for s in samples],
        "span_table": traced[-1]["span_table"] if traced else None,
    }
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    grid = f"-n{args.n}" if args.n else ""
    path = os.path.join(BENCH_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}{grid}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
