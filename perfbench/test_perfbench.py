#!/usr/bin/env python3
"""The benchmark's own tests.

usage: python3 perfbench/test_perfbench.py   (from the root of a checkout)

The drift guard runs the driver and the shipped fig03_amplifier_counts
program at a tiny scale and requires the same census rows, unique-IP count
and recorded event stream, so the driver keeps measuring the pipeline the
figure programs run and not a copy of it that has drifted. The other tests
keep BENCHMARK.json and run.py's metric tables in step.
"""

import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = ["--scale", "400", "--quick"]


def fig03_output(bdir, seed, artifact):
    """fig03's table rows and unique-IP count at the tiny scale; its event
    stream is recorded to `artifact`."""
    out = subprocess.run(
        [os.path.join(bdir, "fig03_amplifier_counts"), *TINY,
         "--seed", str(seed), "--record", artifact],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout.splitlines()
    start = next(i for i, line in enumerate(out)
                 if line.split()[:2] == ["sample", "IPs"]) + 2
    rows = []
    for line in out[start:]:
        if not line.strip():
            break
        date, *counts = line.split()
        rows.append([date, *map(int, counts)])
    unique = int(re.search(r"unique amplifier IPs over all samples: (\d+)",
                           "\n".join(out)).group(1))
    return rows, unique


def driver_output(bdir, seed, jobs, tmp, artifact):
    out = subprocess.run(
        [os.path.join(bdir, "gorilla_perf"), "--shape", "study",
         "--pass", "live", *TINY, "--seed", str(seed), "--jobs", str(jobs),
         "--artifact", artifact, "--out", tmp],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    return report["census_rows"], report["unique_ips"]


class DriftGuard(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build()

    def test_census_matches_fig03(self):
        with tempfile.TemporaryDirectory(dir=self.bdir) as tmp:
            want_artifact = os.path.join(tmp, "fig03.gorcol")
            artifact = os.path.join(tmp, "driver.gorcol")
            for seed in (run.DEFAULT_SEED, 7):
                want_rows, want_unique = fig03_output(self.bdir, seed,
                                                      want_artifact)
                self.assertTrue(want_rows)
                for jobs in (1, 4):
                    with self.subTest(seed=seed, jobs=jobs):
                        rows, unique = driver_output(self.bdir, seed, jobs,
                                                     tmp, artifact)
                        self.assertEqual(rows, want_rows)
                        self.assertEqual(unique, want_unique)
                        # The whole event stream, not just the census.
                        self.assertTrue(filecmp.cmp(artifact, want_artifact,
                                                    shallow=False))


class RepeatedPasses(unittest.TestCase):
    """A process may repeat a pass; every repeat starts on empty consumers
    and must reproduce the results of the pass before it, or the driver
    exits non-zero."""

    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build()

    def test_live_then_repeated_replays_and_fanouts_agree(self):
        passes = ["live", "replay", "replay", "fanout", "fanout"]
        for shape in ("study", "regional"):
            with self.subTest(shape=shape), \
                    tempfile.TemporaryDirectory(dir=self.bdir) as tmp:
                cmd = [os.path.join(self.bdir, "gorilla_perf"), "--shape",
                       shape, *TINY, "--jobs", "2", "--artifact",
                       os.path.join(tmp, "a.gorcol"), "--out", tmp]
                for p in passes:
                    cmd += ["--pass", p]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                report = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual([p["pass"] for p in report["passes"]],
                                 passes)
                self.assertIn("collectors", report["fingerprints"])
                self.assertIn("detector", report["fingerprints"])


class MetricTables(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_end_to_end_names_and_units(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            run.END_TO_END)

    def test_per_layer_names_and_units(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]},
            run.per_layer_units())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
