#!/usr/bin/env python3
"""Command-line behaviour of the benchmark binary.

    python3 test_cli.py PATH/TO/perfbench PATH/TO/reference_digests.txt

Bad arguments exit 2 with a message and no result line; a digest that
differs from the reference exits 1 with "correct": false; the committed
reference holds for the default seed.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

BINARY = None
REFERENCE = None


def run(*args):
    return subprocess.run([BINARY, *args], capture_output=True, text=True, timeout=170)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ArgumentErrors(unittest.TestCase):
    def assert_rejected(self, args, message):
        proc = run(*args)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn(message, proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_unknown_workload(self):
        self.assert_rejected(["--workload", "fat_tree"], "unknown workload")

    def test_bad_seeds(self):
        for seed in ["abc", "-3", "1e3", "4294967296"]:
            self.assert_rejected(["--workload", "churn", "--seed", seed], "--seed")

    def test_shards_above_cpu_count(self):
        self.assert_rejected(["--workload", "leaf_spine_sharded", "--shards",
                              str(len(os.sched_getaffinity(0)) + 1)], "--shards")


class OutputChecks(unittest.TestCase):
    def test_digest_mismatch_fails_the_run(self):
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            wrong = os.path.join(tmp, "wrong.txt")
            with open(wrong, "w") as out:
                out.write("paper_sweep 1 0000000000000000\n")
            proc = run("--workload", "paper_sweep", "--seconds", "1", "--reference", wrong)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = result_line(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("differs from the committed paper_sweep reference", proc.stdout)

    def test_committed_reference_holds(self):
        proc = run("--workload", "paper_sweep", "--seconds", "1", "--reference", REFERENCE)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_line(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIn("setup_s", result["metrics"])


if __name__ == "__main__":
    BINARY, REFERENCE = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
