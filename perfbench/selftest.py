"""The benchmark's own checks.

    python3 perfbench/selftest.py            # all checks, a few minutes
    python3 perfbench/selftest.py -k Inputs  # one group

Not collected by the repository's pytest run: it starts full benchmark
runs in child processes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"


def run_benchmark(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600,
                          env=env)


class Inputs(unittest.TestCase):
    def test_same_seed_same_batch(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 5, str(SCRATCH))
            b = workloads.build(name, 5, str(SCRATCH))
            self.assertEqual([(o.label, o.args) for o in a.ops],
                             [(o.label, o.args) for o in b.ops])

    def test_seed_changes_inputs(self):
        a = workloads.build("sampled-large", 1, str(SCRATCH))
        b = workloads.build("sampled-large", 2, str(SCRATCH))
        self.assertNotEqual(a.q_values, b.q_values)
        a = workloads.build("cli-suites", 1, str(SCRATCH))
        b = workloads.build("cli-suites", 2, str(SCRATCH))
        self.assertNotEqual(a.cli_seeds, b.cli_seeds)

    def test_q_in_library_range(self):
        for seed in range(50):
            for text in workloads.build("sampled-large", seed, str(SCRATCH)).q_values:
                q = Fraction(text)
                self.assertLessEqual(abs(q.numerator), workloads.Q_BOUND)
                self.assertLessEqual(q.denominator, workloads.Q_BOUND)
                self.assertNotIn(q, (0, 1, -1))


class Failures(unittest.TestCase):
    def test_crash_is_a_failure(self):
        op = workloads.Op("scan at q=1", "scan", {"k": 2, "m": 2, "q": Fraction(1)})
        self.assertIn("ValueError", workloads.run(op))

    def test_wrong_check_count_is_a_failure(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        out = str(SCRATCH / "report.json")
        op = workloads.Op("cli", "cli", {"seed": 3, "out": out})
        self.assertIsNone(workloads.run(op))
        saved = workloads.EXPECTED_CHECKS["validate"]
        workloads.EXPECTED_CHECKS["validate"] = saved + 1
        try:
            why = workloads.run(op)
        finally:
            workloads.EXPECTED_CHECKS["validate"] = saved
        self.assertIn("checks, expected", why)

    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_benchmark("--workload", "cli-suites", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Tracing(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        from qorbits import hecke, identities, projectors, reps, tensor
        original = tensor.embed_on_legs
        tr = Tracer()
        tr.install()
        try:
            self.assertEqual(tr.unpatched_bindings(), [])
            for mod in (tensor, hecke, identities, projectors, reps):
                self.assertIsNot(mod.embed_on_legs, original)
        finally:
            tr.uninstall()
        for mod in (tensor, hecke, identities, projectors, reps):
            self.assertIs(mod.embed_on_legs, original)

    def test_self_time_within_span(self):
        tr = Tracer()
        tr.install()
        try:
            tr.begin_op()
            workloads.run(workloads.Op("closed", "closed_form", {"k_max": 2}))
        finally:
            tr.uninstall()
        for name, (calls, total, self_s) in tr.spans.items():
            self.assertGreater(calls, 0, name)
            self.assertLessEqual(self_s, total + 1e-9, name)
            self.assertGreaterEqual(self_s, -1e-6, name)
        top = sum(t for (parent, _), (_, t, _) in tr.edges.items() if parent == "op")
        self_total = sum(s for _, _, s in tr.spans.values())
        self.assertAlmostEqual(top, self_total, delta=1e-3 + 0.05 * top)
        self.assertGreater(tr.scalar_ops, 0)
        self.assertGreater(tr.requests, 0)


class Determinism(unittest.TestCase):
    """Two traced runs of one seed give identical counts."""

    def _counts(self, workload, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        proc = run_benchmark("--workload", workload, "--seed", "4",
                             "--seconds", "1", "--trace", "1", env=env)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] != "s"}

    def test_counts_repeat(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = self._counts(workload, 1)
                self.assertEqual(first, self._counts(workload, 2))


if __name__ == "__main__":
    unittest.main()
