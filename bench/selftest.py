"""Self-test of the benchmark harness.

Run from the repository root:  python3 bench/selftest.py
The smoke runs use n = 32 grids and take about half a minute in total.
"""

import configparser
import json
import os
import shutil
import subprocess
import sys
import types
import unittest

import tracing
import workloads
from tracing import Span, Tracer, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))


def definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [Span(0, "a", 1, None, 0.0, 10.0),
                 Span(1, "b", 1, 0, 1.0, 4.0),
                 Span(2, "c", 1, 1, 2.0, 3.0),
                 Span(3, "d", 1, 0, 6.0, 7.0)]
        self.assertEqual(self_times(spans), {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_two_threads(self):
        # a scan on thread 1 waits while two workers run; the workers' spans
        # have no parent on thread 1, so they do not reduce the scan's self time
        spans = [Span(0, "scan", 1, None, 0.0, 10.0),
                 Span(1, "rate", 2, None, 1.0, 9.0),
                 Span(2, "rate", 3, None, 1.0, 8.0),
                 Span(3, "eigh", 2, 1, 2.0, 5.0),
                 Span(4, "eigh", 3, 2, 4.0, 6.0)]
        self.assertEqual(self_times(spans), {0: 10.0, 1: 5.0, 2: 5.0, 3: 3.0, 4: 2.0})

    def test_children_clipped_and_merged(self):
        spans = [Span(0, "a", 1, None, 0.0, 4.0),
                 Span(1, "b", 1, 0, 1.0, 3.0),
                 Span(2, "b", 1, 0, 2.0, 5.0)]
        self.assertEqual(self_times(spans)[0], 1.0)


class WrapperTest(unittest.TestCase):
    def test_results_and_exceptions_pass_through(self):
        result = object()
        error = ValueError("boom")

        def ok(x, *, key=None):
            return result if key == "k" else x

        def fails():
            raise error

        ns = types.SimpleNamespace(ok=ok, fails=fails)
        tracer = Tracer()
        tracer.patch(ns, "ok", "ns.ok")
        tracer.patch(ns, "fails", "ns.fails")
        self.assertIs(ns.ok(1, key="k"), result)
        with self.assertRaises(ValueError) as caught:
            ns.fails()
        self.assertIs(caught.exception, error)
        self.assertEqual([s.name for s in tracer.spans], ["ns.ok", "ns.fails"])
        tracer.remove()
        self.assertIs(ns.ok, ok)
        self.assertIs(ns.fails, fails)

    def test_install_and_remove_on_slabrt(self):
        import scipy.linalg

        import slabrt
        import slabrt.cli

        def bindings():
            owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "slabrt"]
            owners += [c for m in list(owners) for c in vars(m).values()
                       if isinstance(c, type) and c.__module__.startswith("slabrt")]
            return {(id(o), k): v for o in owners + [scipy.linalg]
                    for k, v in list(vars(o).items())}

        before = bindings()
        tracer = Tracer()
        tracing.install(tracer)
        try:
            self.assertIs(slabrt.dispersion.growth_rate, slabrt.cli.growth_rate)
            self.assertIs(slabrt.growth_rate, slabrt.cli.growth_rate)
            self.assertIsNot(slabrt.cli.growth_rate, before[(id(slabrt.cli), "growth_rate")])
            self.assertIsNot(scipy.linalg.eigh, before[(id(scipy.linalg), "eigh")])
            step = vars(slabrt.evolve.CrankNicolsonStepper)["step"]
            self.assertIsNot(step, before[(id(slabrt.evolve.CrankNicolsonStepper), "step")])
            slabrt.build_grid(16)
            self.assertIn("grid.build_grid", {s.name for s in tracer.spans})
        finally:
            tracer.remove()
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_layer_metrics_cover_definition(self):
        names = set(tracing.layer_metrics([])) | {"trace.overhead_frac"}
        self.assertLessEqual({m["name"] for m in definition()["per_layer"]}, names)


class InputTest(unittest.TestCase):
    def test_seed_zero_repeats_the_configs(self):
        for workload, path in (("scan-default", "configs/default.ini"),
                               ("stable-control", "configs/stable.ini")):
            ref, gen = configparser.ConfigParser(), configparser.ConfigParser()
            ref.read(os.path.join(ROOT, path))
            gen.read_string(workloads.ini_text(workloads.make_inputs(workload, 0)))
            for section in ("profile", "physics", "grid", "band", "scan"):
                self.assertEqual(dict(ref[section]).keys(), dict(gen[section]).keys())
                for key, value in ref[section].items():
                    if section == "profile":
                        self.assertEqual(gen[section][key], value)
                    else:
                        self.assertEqual(float(gen[section][key]), float(value), (path, key))

    def test_seeds_are_deterministic_and_in_range(self):
        for workload in workloads.WORKLOADS:
            base = workloads.BASE[workload]
            for seed in range(1, 30):
                inputs = workloads.make_inputs(workload, seed)
                self.assertEqual(inputs, workloads.make_inputs(workload, seed))
                self.assertNotEqual(inputs, base)
                lo, hi = workloads.MU_RANGE
                self.assertTrue(lo * base["mu"] <= inputs["mu"] <= hi * base["mu"])
                if "xis" in base:
                    lo, hi = workloads.XI_RANGE
                    for x, x0 in zip(inputs["xis"], base["xis"]):
                        self.assertTrue(lo * x0 <= x <= hi * x0)
                else:
                    lo, hi = workloads.B_RANGE
                    self.assertTrue(lo * base["b"] <= inputs["b"] <= hi * base["b"])

    def test_scan_frequencies(self):
        # four of the 64 uniform points fall on lattice points 2, 4, 6, 8
        self.assertEqual(len(workloads.scan_frequencies(0.0, 10.0, 64, 1.0)), 69)
        self.assertEqual(len(workloads.scan_frequencies(0.5, 6.0, 64, 1.0)), 69)


def run_bench(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout, check=False)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", str(trace), "--n", "32"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = definition()["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        return result["metrics"]

    def test_workloads(self):
        listed = {w["name"] for w in definition()["workloads"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                e2e = self.check(workload, 0)
                self.assertTrue(all(m["value"] > 0 for m in e2e.values()), e2e)
                layers = self.check(workload, 1)
                self.assertEqual(layers["forms.gram_calls_per_freq"]["value"], 6.0)
                if workload in listed:
                    # a time that reads 0 on every run would not be a measurement
                    zero = [k for k, m in layers.items()
                            if m["unit"] in ("s", "ms", "us") and m["value"] == 0.0]
                    self.assertEqual(zero, [])
                if workload == "stable-control":
                    self.assertEqual(layers["variational.eigh_per_freq"]["value"], 1.0)
                    self.assertEqual(layers["evolve.steps"]["value"], 30000.0)

    def test_fails_without_the_program(self):
        bare = os.path.join(BENCH_DIR, "work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.makedirs(os.path.join(bare, "bench"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for name in os.listdir(BENCH_DIR):
                if name.endswith((".py", ".md")):
                    shutil.copy(os.path.join(BENCH_DIR, name), os.path.join(bare, "bench"))
            proc = run_bench(["--workload", "scan-default", "--seed", "0", "--seconds", "1",
                              "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
