#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the repository root:

    python3 perfbench/test_run.py

They build the benchmark like run.py does (first call: about a minute), then
check that the reply checker rejects bad replies, that the smoke mode touches
all four workloads and prints every metric of BENCHMARK.json with its unit,
and that run.py refuses a directory without sources and a non-Release build.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORK_DIR = os.path.join(ROOT, ".bench_out", "selftest")
SMOKE = {}


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def setUpModule():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True,
                          timeout=900)
    SMOKE.update(returncode=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)


class BenchmarkSelfTest(unittest.TestCase):
    def test_checker_rejects_bad_replies(self):
        proc = subprocess.run([os.path.join(build_dir(), "perfbench_measure"), "--self-test"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        for case in ("tampered witness rejected", "witness of length k-1 rejected",
                     "digest mismatch rejected", "ERROR reply rejected"):
            self.assertIn("ok   " + case, proc.stdout)

    def test_smoke_prints_every_metric_of_every_workload(self):
        self.assertEqual(SMOKE["returncode"], 0, SMOKE["stderr"][-2000:])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        metrics = spec["end_to_end"] + spec["per_layer"]
        sections = re.split(r"^perfbench: workload ", SMOKE["stdout"], flags=re.M)[1:]
        self.assertEqual([s.split("\n", 1)[0] for s in sections],
                         [w["name"] for w in spec["workloads"]])
        for section in sections:
            for m in metrics:
                pattern = r"^metric %s = \S+ %s$" % (re.escape(m["name"]), re.escape(m["unit"]))
                self.assertRegex(section, re.compile(pattern, re.M))
            self.assertRegex(section, re.compile(r"^metric failed_frac = 0.0 ratio", re.M))
        final = json.loads(SMOKE["stdout"].strip().splitlines()[-1])
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(final["correct"])
        self.assertEqual(final["failed"], 0)

    def test_refuses_a_directory_without_sources(self):
        bare = os.path.join(WORK_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve_hit",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)

    def test_refuses_a_non_release_build(self):
        debug = os.path.join(WORK_DIR, "debug_build")
        shutil.rmtree(debug, ignore_errors=True)
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", debug,
                        "-DCMAKE_BUILD_TYPE=Debug"], check=True, capture_output=True)
        env = dict(os.environ, CARGO_TARGET_DIR=debug)
        proc = subprocess.run([sys.executable, RUN, "--workload", "serve_hit", "--seconds", "1"],
                              env=env, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing", proc.stderr)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
