#!/usr/bin/env python3
"""The benchmark times the production path, not a copy of it.

    python3 perfbench/test_equivalence.py

At a small scale, each workload's call sequence (perfbench_workload) must
print the same dataset hash as the CLI command it is named after, built from
the same sources. study_default must also write byte-identical CSVs and
report.json, the streamed workloads the same durable row count, and the two
streamed workloads (4 threads vs 1) the same hash.
"""

import json
import re
import shutil
import subprocess
import unittest

import run

SCALE = "600x150"
HASH_LINE = re.compile(r"dataset-hash sc=(\w+) atlas=(\w+) combined=(\w+)")
ROWS_LINE = re.compile(r"streamed (\d+) task rows")

# The CLI command of each workload; run_paper's `run` implies --stream, a
# store under cloudrtt-out/ and --dataset-hash. stream_paper_t1's command
# prints no hash, so --dataset-hash is added to read one.
CLI = {
    "study_default": ["study", "--dataset-hash", "--threads", "4",
                      "--out", "cli-out"],
    "run_paper": ["run", "--threads", "4"],
    "stream_paper_t1": ["study", "--stream", "--threads", "1",
                        "--checkpoint-dir", "cli-store", "--dataset-hash"],
}


class EquivalenceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(("perfbench_workload", "cloudrtt"))
        cls.work = cls.build / "equivalence"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def run_both(self, workload):
        cwd = self.work / workload
        cwd.mkdir()
        cli = subprocess.run(
            [str(self.build / "cloudrtt"), *CLI[workload], "--scale", SCALE,
             "--quiet"],
            cwd=cwd, check=True, capture_output=True, text=True).stdout
        bench = subprocess.run(
            [str(self.build / "perfbench_workload"), "--workload", workload,
             "--scale", SCALE, "--out", "bench-out", "--check-hash"],
            cwd=cwd, check=True, capture_output=True, text=True).stdout
        report = json.loads(bench.strip().splitlines()[-1])
        self.assertEqual(report["errors"], [])
        sc, atlas, combined = HASH_LINE.search(cli).groups()
        self.assertEqual(report["hash"],
                         {"sc": sc, "atlas": atlas, "combined": combined})
        return cwd, cli, report

    def test_study_default(self):
        cwd, _, _ = self.run_both("study_default")
        for name in ("pings.csv", "traceroutes.csv", "report.json"):
            self.assertEqual((cwd / "cli-out" / name).read_bytes(),
                             (cwd / "bench-out" / name).read_bytes(), name)

    def test_streamed_workloads_agree(self):
        hashes = []
        for workload in ("run_paper", "stream_paper_t1"):
            _, cli, report = self.run_both(workload)
            rows = int(ROWS_LINE.search(cli).group(1))
            self.assertEqual(report["counters"]["store_rows"], rows)
            hashes.append(report["hash"])
        self.assertEqual(hashes[0], hashes[1])


if __name__ == "__main__":
    unittest.main()
