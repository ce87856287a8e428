#!/usr/bin/env python3
"""Exit-code and output contract of the olden-analyze command line.

Runs the built binary on a tiny TreeAdd trace, profile and sampled stats
document written by bench_cell and checks the documented exit codes: 0
for a normal report, 2 for usage errors (a removed flag, a malformed
--top, no input), and 1 for a truncated trace, a malformed profile or
stats document, or an output file that cannot be written, stdout
included (bench_cell's too). The human report must print the critical
path's heaviest edges.

Usage: olden_analyze_cli_test.py OLDEN_ANALYZE BENCH_CELL

Stdlib only; registered with ctest from tools/CMakeLists.txt.
"""

import os
import subprocess
import sys
import tempfile
import unittest

ANALYZE = None
BENCH_CELL = None


def run(*args):
    return subprocess.run([ANALYZE, *args], capture_output=True, text=True,
                          timeout=120)


class OldenAnalyzeCli(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.trace = os.path.join(cls.tmp.name, "treeadd.trace.bin")
        cls.profile = os.path.join(cls.tmp.name, "treeadd.profile.json")
        subprocess.run([BENCH_CELL, "--benchmark=TreeAdd", "--tiny",
                        "--schemes=local,global", f"--trace-bin={cls.trace}",
                        f"--profile={cls.profile}"],
                       check=True, capture_output=True, timeout=300)
        cls.sampled = os.path.join(cls.tmp.name, "treeadd.sampled.json")
        subprocess.run([BENCH_CELL, "--benchmark=TreeAdd", "--tiny",
                        "--sample=4096:512", f"--stats-json={cls.sampled}"],
                       check=True, capture_output=True, timeout=300)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def expect_exit(self, code, *args):
        proc = run(*args)
        self.assertEqual(proc.returncode, code,
                         f"olden-analyze {' '.join(args)}\n{proc.stderr}")
        return proc

    def test_report_prints_heaviest_edges(self):
        out = self.expect_exit(0, "--trace-bin", self.trace).stdout
        self.assertIn("critical path:", out)
        table = out.split("  heaviest edges:\n", 1)
        self.assertEqual(len(table), 2, out)
        rows = table[1].splitlines()[:5]
        self.assertEqual(len(rows), 5, out)
        for row in rows:
            self.assertTrue(row.startswith("    "), row)
            self.assertIn(" -> ", row)
        self.assertIn(" @ proc ", table[1])

    def test_json_and_top(self):
        out = self.expect_exit(0, "--trace-bin", self.trace, "--json",
                               "--top", "3").stdout
        self.assertIn('"analysis_schema_version":1', out)

    def test_usage_errors_exit_2(self):
        self.expect_exit(2)
        self.expect_exit(2, "--trace-bin", self.trace, "--stream")
        for bad in ("abc", "-1", "3x", "", "99999999999999999999999"):
            proc = self.expect_exit(2, "--trace-bin", self.trace, "--top", bad)
            self.assertIn("--top", proc.stderr)

    def test_truncated_trace_exits_1(self):
        with open(self.trace, "rb") as f:
            body = f.read()
        cut = os.path.join(self.tmp.name, "cut.trace.bin")
        with open(cut, "wb") as f:
            f.write(body[:len(body) - 10])
        self.expect_exit(1, "--trace-bin", cut)

    def write_doc(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def test_sampled_stats_report(self):
        proc = self.expect_exit(0, "--sampled-stats", self.sampled)
        self.assertIn("sampled run: BENCH/TreeAdd/", proc.stdout)
        self.assertIn("schedule 4096:512:0", proc.stdout)

    def test_malformed_sampled_stats_exits_1(self):
        with open(self.sampled) as f:
            good = f.read()
        bad = {
            "v4.json": good.replace('"schema_version":5',
                                    '"schema_version":4', 1),
            "generator.json": good.replace('"generator":"olden-trace"',
                                           '"generator":"other"', 1),
            "nprocs.json": good.replace('"nprocs":', '"nprocs":-', 1),
            "truncated.json": good[:len(good) // 2],
        }
        for name, text in bad.items():
            self.assertNotEqual(text, good, name)
            self.expect_exit(1, "--sampled-stats", self.write_doc(name, text))

    def test_deep_nesting_exits_1(self):
        for name, unit in (("deep_arrays.json", "["),
                           ("deep_objects.json", '{"a":')):
            path = self.write_doc(name, unit * 100000)
            for mode in ("--profile", "--sampled-stats"):
                proc = self.expect_exit(1, mode, path)
                self.assertIn("nesting deeper than 64", proc.stderr)

    def test_reader_errors_name_the_file_once(self):
        with open(self.profile) as f:
            chopped = self.write_doc("chopped.profile.json", f.read()[:1000])
        missing = os.path.join(self.tmp.name, "missing.json")
        for args in (["--profile", chopped], ["--profile", missing],
                     ["--sampled-stats", chopped],
                     ["--sampled-stats", missing]):
            proc = self.expect_exit(1, *args)
            self.assertEqual(proc.stderr.count(args[1]), 1, proc.stderr)

    @unittest.skipUnless(os.path.exists("/dev/full"), "no /dev/full")
    def test_unwritable_output_exits_1(self):
        self.expect_exit(1, "--trace-bin", self.trace,
                         "--json-out", "/dev/full")
        self.expect_exit(1, "--diff", self.trace, self.trace,
                         "--json-out", "/dev/full")
        self.expect_exit(1, "--profile", self.profile,
                         "--feedback-out", "/dev/full")

    @unittest.skipUnless(os.path.exists("/dev/full"), "no /dev/full")
    def test_unwritable_stdout_exits_1(self):
        for args in (["--trace-bin", self.trace],
                     ["--trace-bin", self.trace, "--json"],
                     ["--diff", self.trace, self.trace],
                     ["--diff", self.trace, self.trace, "--json"]):
            with open("/dev/full", "w") as full:
                proc = subprocess.run([ANALYZE, *args], stdout=full,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=120)
            self.assertEqual(proc.returncode, 1, f"{args}\n{proc.stderr}")
            self.assertIn("stdout", proc.stderr)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([BENCH_CELL, "--benchmark=TreeAdd",
                                   "--tiny"], stdout=full,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=300)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("stdout", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    ANALYZE, BENCH_CELL = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1] + sys.argv[3:])
