#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 gatebench/test_gatebench.py

- The correctness check fires: with one expected answer corrupted, every
  workload reports a failure and exits non-zero; without it, zero
  failures and exit 0.
- Percentile-gap guard: on the default seed and one other, the service
  times a few ranks below and above p50 and p95 differ by at most
  GAP_FACTOR, so no reported percentile sits on a gap between item
  classes (where it would jump between seeds).

Takes about three minutes: serve_socket pays the socket front's delayed-ACK
stall on every request.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["serve_socket", "frontier_dense", "frontier_orbit", "concepts_mix"]
GAP_FACTOR = 2.0
SEEDS = [1, 7]


def run(workload, seed, seconds, *extra):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT, timeout=600)
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    return completed.returncode, json.loads(lines[-2])["context"], json.loads(lines[-1])


class CorrectnessCheck(unittest.TestCase):
    def test_corrupted_answer_fails_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = run(workload, 1, 1, "--scale", "0.1", "--corrupt-expected")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_clean_slice_passes_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = run(workload, 1, 1, "--scale", "0.1")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)


class PercentileGaps(unittest.TestCase):
    def test_percentiles_do_not_sit_on_gaps(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    code, context, _ = run(workload, seed, 2)
                    self.assertEqual(code, 0)
                    self.assertGreaterEqual(context["samples_beyond_p95"], 10)
                    self.assertLessEqual(context["gap_p50"], GAP_FACTOR)
                    self.assertLessEqual(context["gap_p95"], GAP_FACTOR)


if __name__ == "__main__":
    unittest.main()
