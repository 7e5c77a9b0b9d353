"""Tiny-scale self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at ``--scale tiny`` for one second, untraced and
traced, and checks the output contract; checks that the benchmark refuses
to run without the repository's sources; and shows that its correctness
checks can fail (a wrong pinned signature, a corrupted product).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import WORKLOADS, Checks, Signatures, Workload  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ContractTest(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        for workload in WORKLOADS:
            for trace, declared in (("0", CONFIG["end_to_end"]), ("1", CONFIG["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                                "--trace", trace, "--scale", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True, proc.stdout[-3000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {entry["name"]: entry["unit"] for entry in declared},
                    )
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                    self.assertNotIn("CHECK FAIL", proc.stdout)

    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".perfbench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = _run("--workload", "paper_plane", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class ChecksCanFailTest(unittest.TestCase):
    def test_wrong_signature_fails(self):
        signatures = Signatures("tiny")
        key = next(iter(signatures.table))
        rounds, received, flops = signatures.table[key]
        checks = Checks()
        signatures.check(checks, key, rounds, received, flops)
        self.assertFalse(checks.failed)
        signatures.check(checks, key, rounds + 1, received, flops)
        self.assertTrue(checks.failed)

    def test_missing_signature_fails_instead_of_skipping(self):
        checks = Checks()
        Signatures("tiny").check(checks, "COSMA@1x1x1/p1/S1", 1, 1.0, 2)
        self.assertTrue(checks.failed)

    def test_probe_rejects_a_corrupted_product(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, (64, 48))
        b = rng.uniform(-1.0, 1.0, (48, 40))
        c = a @ b
        self.assertTrue(Workload._probe(a, b, c, np.random.default_rng(4)))
        c[5, 7] += 1e-3
        self.assertFalse(Workload._probe(a, b, c, np.random.default_rng(4)))


if __name__ == "__main__":
    unittest.main()
