#!/usr/bin/env python3
"""Contract of bench_cell --time and bench_runner.py --host.

Checks that bench_cell's count flags (--nprocs, --jobs, --time) reject
malformed values with exit 2 and a message naming the flag, that --time
refuses every output mode that attaches an observer, and that
bench_runner.py --host writes a HOST document whose makespans equal the
untimed bench_cell rows of the same cells.

Usage: bench_host_test.py BENCH_CELL

Stdlib only; registered with ctest from tools/CMakeLists.txt.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_RUNNER = os.path.join(TOOLS_DIR, "bench_runner.py")
BENCH_CELL = None

ROW = re.compile(r"(\S+) +(\S+) +p=\d+ +makespan +(\d+) cycles  checksum ok")


def bench_cell(*args):
    return subprocess.run([BENCH_CELL, *args], capture_output=True,
                          text=True, timeout=300)


def runner(*args):
    build_dir = os.path.dirname(os.path.dirname(BENCH_CELL))
    return subprocess.run(
        [sys.executable, BENCH_RUNNER, "--build-dir", build_dir, *args],
        capture_output=True, text=True, timeout=600)


class BenchCellFlags(unittest.TestCase):
    def test_bad_counts_exit_2_naming_the_flag(self):
        bad = ("99999999999999999999", "", "-1", "abc", "0")
        for flag in ("--nprocs", "--jobs", "--time"):
            for value in bad:
                proc = bench_cell("--benchmark=TreeAdd", "--tiny",
                                  f"{flag}={value}")
                self.assertEqual(proc.returncode, 2,
                                 f"{flag}={value}\n{proc.stderr}")
                self.assertIn(flag, proc.stderr)

    def test_time_refuses_observers(self):
        with tempfile.TemporaryDirectory() as tmp:
            for mode in (f"--stats-json={tmp}/s.json",
                         f"--trace-bin={tmp}/t.bin", f"--trace={tmp}/t.json",
                         f"--profile={tmp}/p.json", "--sample=65536:4096",
                         "--breakdown"):
                proc = bench_cell("--benchmark=TreeAdd", "--tiny",
                                  "--time=1", mode)
                self.assertEqual(proc.returncode, 2, f"{mode}\n{proc.stderr}")
                self.assertIn("--time", proc.stderr)

    def test_timed_rows_extend_the_untimed_ones(self):
        plain = bench_cell("--benchmark=TreeAdd", "--tiny")
        timed = bench_cell("--benchmark=TreeAdd", "--tiny", "--time=2",
                           "--jobs=2")
        self.assertEqual(plain.returncode, 0, plain.stderr)
        self.assertEqual(timed.returncode, 0, timed.stderr)
        plain_rows = plain.stdout.splitlines()
        timed_rows = timed.stdout.splitlines()
        self.assertEqual(len(plain_rows), 3, plain.stdout)
        self.assertEqual(len(timed_rows), 3, timed.stdout)
        for p, t in zip(plain_rows, timed_rows):
            self.assertRegex(t, re.escape(p) + r"  best \d+\.\d{3} ms$")


class BenchRunnerHost(unittest.TestCase):
    def test_host_document(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "HOST.json")
            proc = runner("--host", "--tiny", "--benchmarks", "TreeAdd,MST",
                          "--out", out)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            with open(out, encoding="utf-8") as f:
                doc = json.load(f)
        self.assertEqual(list(doc), [
            "host_bench_schema_version", "generator", "mode", "nprocs",
            "repeat", "jobs", "cells", "total_best_ms"])
        self.assertEqual(doc["host_bench_schema_version"], 1)
        self.assertEqual((doc["mode"], doc["nprocs"], doc["repeat"]),
                         ("tiny", 8, 3))
        cells = doc["cells"]
        self.assertEqual(len(cells), 6)
        untimed = {}
        for name in ("TreeAdd", "MST"):
            proc = bench_cell(f"--benchmark={name}", "--tiny")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            for m in map(ROW.fullmatch, proc.stdout.splitlines()):
                untimed[(m[1], m[2])] = int(m[3])
        self.assertEqual([(c["benchmark"], c["scheme"]) for c in cells],
                         list(untimed))
        for c in cells:
            self.assertEqual(sorted(c), ["benchmark", "best_ms",
                                         "makespan_cycles", "scheme"])
            self.assertGreater(c["best_ms"], 0)
            self.assertEqual(c["makespan_cycles"],
                             untimed[(c["benchmark"], c["scheme"])], c)
        self.assertAlmostEqual(doc["total_best_ms"],
                               sum(c["best_ms"] for c in cells), places=3)

    def test_host_refuses_trace_modes(self):
        for extra in (["--sample", "65536:4096"], ["--keep-traces", "x"],
                      ["--keep-profiles", "x"]):
            proc = runner("--host", "--tiny", *extra)
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn("--host", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    BENCH_CELL = sys.argv[1]
    unittest.main(argv=sys.argv[:1] + sys.argv[2:])
