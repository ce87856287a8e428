#!/usr/bin/env python3
"""Regression tests for bench_compare.py's failure-mode contract.

The comparison half is exercised by CI end-to-end; what needs pinning
here is the degradation contract around --traces-old/--traces-new: an
archive missing one cell's trace (an interrupted --keep-traces run), an
analyze binary emitting garbage, or a malformed diff document must each
degrade to a per-cell note — never a traceback, never an abort of the
whole attribution pass — while the documented exit codes (1/3/4/5) stay
exactly as advertised. HOST documents (bench_runner.py --host) get the
same contract: the fixed 2x gate per cell and on the total, missing
cells, malformed documents and HOST-vs-BENCH refusals.

Stdlib only; registered with ctest from tools/CMakeLists.txt.
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_COMPARE = os.path.join(TOOLS_DIR, "bench_compare.py")


def bench_doc(revision, makespans, sample=None, ci95=0):
    """A schema-valid BENCH document: {benchmark: (scheme, makespan)}.

    With sample="W:D[:OFFSET]" every cell is marked sampled with the
    given makespan_ci95, mirroring bench_runner.py --sample output."""
    cells = []
    for bench, (scheme, makespan) in makespans.items():
        nprocs = 4
        cell = {
            "benchmark": bench,
            "scheme": scheme,
            "nprocs": nprocs,
            "makespan_cycles": makespan,
            "buckets": {
                "compute": nprocs * makespan,
                "migration": 0,
                "cache_stall": 0,
                "coherence": 0,
                "idle": 0,
            },
            "counters": {},
            "miss_rate_percent": 1.0,
        }
        if sample is not None:
            cell["sampled"] = True
            cell["makespan_ci95"] = ci95
            cell["critical_path"] = None
        cells.append(cell)
    doc = {
        "bench_schema_version": 1,
        "generator": "bench_runner",
        "revision": revision,
        "mode": "tiny",
        "nprocs": 4,
        "cells": cells,
    }
    if sample is not None:
        doc["sample"] = sample
    return doc


DIFF_OK = {
    "diff_schema_version": 1,
    "diffs": [{
        "makespan_delta_cycles": 500,
        "makespan_delta_percent": 50.0,
        "buckets": [{"bucket": "compute", "delta": 500, "a": 1000,
                     "b": 1500}],
        "edges": {"top": []},
        "sites": {"top": []},
    }],
}


class BenchCompareTracesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.addCleanup(self.tmp.cleanup)
        self.dir = self.tmp.name

    def path(self, name):
        return os.path.join(self.dir, name)

    def write_json(self, name, doc):
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return p

    def write_stub_analyze(self, stdout, returncode=0):
        """A fake olden-analyze that prints `stdout` and exits."""
        p = self.path("fake_analyze.py")
        with open(p, "w", encoding="utf-8") as f:
            f.write("#!%s\nimport sys\nsys.stdout.write(%r)\n"
                    "sys.exit(%d)\n" % (sys.executable, stdout, returncode))
        os.chmod(p, os.stat(p).st_mode | stat.S_IXUSR)
        return p

    def make_traces(self, dirname, benches):
        d = self.path(dirname)
        os.makedirs(d, exist_ok=True)
        for bench in benches:
            with open(os.path.join(d, bench + ".trace.bin"), "wb") as f:
                f.write(b"OLDNTRC2 stub")
        return d

    def run_compare(self, *extra):
        old = self.write_json("old.json", bench_doc("seed", {
            "TreeAdd": ("local", 1000), "MST": ("local", 1000)}))
        new = self.write_json("new.json", bench_doc("head", {
            "TreeAdd": ("local", 1500), "MST": ("local", 1500)}))
        return subprocess.run(
            [sys.executable, BENCH_COMPARE, old, new, *extra],
            capture_output=True, text=True)

    def assert_no_traceback(self, proc):
        self.assertNotIn("Traceback", proc.stderr, proc.stderr)
        self.assertNotIn("Traceback", proc.stdout, proc.stdout)

    def test_incomplete_archive_degrades_per_cell(self):
        # OLD has both traces, NEW lost MST's (interrupted --keep-traces):
        # TreeAdd still gets its attribution (exit 5), MST degrades to a
        # "trace unavailable" note instead of aborting the pass.
        traces_old = self.make_traces("traces_old", ["TreeAdd", "MST"])
        traces_new = self.make_traces("traces_new", ["TreeAdd"])
        analyze = self.write_stub_analyze(json.dumps(DIFF_OK))
        proc = self.run_compare("--traces-old", traces_old,
                                "--traces-new", traces_new,
                                "--analyze", analyze)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 5, proc.stdout + proc.stderr)
        self.assertIn("TreeAdd/local/p=4: +500 cycles", proc.stdout)
        self.assertIn("MST/local/p=4: trace unavailable", proc.stdout)

    def test_fully_missing_archive_still_reports_the_regression(self):
        # Neither side has any trace (or the directory doesn't exist at
        # all): every cell degrades, no attribution attaches, and the
        # plain regression exit code 1 is preserved — not 5, not a crash.
        analyze = self.write_stub_analyze(json.dumps(DIFF_OK))
        proc = self.run_compare("--traces-old", self.path("nonexistent_old"),
                                "--traces-new", self.path("nonexistent_new"),
                                "--analyze", analyze)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("trace unavailable", proc.stdout)

    def test_malformed_diff_document_degrades_not_tracebacks(self):
        # The analyze binary runs fine but emits a diff document missing
        # the fields the report renders — per-cell note, exit 1.
        traces_old = self.make_traces("traces_old", ["TreeAdd", "MST"])
        traces_new = self.make_traces("traces_new", ["TreeAdd", "MST"])
        analyze = self.write_stub_analyze(
            json.dumps({"diff_schema_version": 1, "diffs": [{}]}))
        proc = self.run_compare("--traces-old", traces_old,
                                "--traces-new", traces_new,
                                "--analyze", analyze)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("no diff attribution", proc.stdout)

    def test_failing_analyze_binary_degrades(self):
        traces_old = self.make_traces("traces_old", ["TreeAdd", "MST"])
        traces_new = self.make_traces("traces_new", ["TreeAdd", "MST"])
        analyze = self.write_stub_analyze("", returncode=7)
        proc = self.run_compare("--traces-old", traces_old,
                                "--traces-new", traces_new,
                                "--analyze", analyze)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("no diff attribution", proc.stdout)

    def test_bad_input_file_exits_3(self):
        bad = self.path("garbage.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("not json at all")
        proc = subprocess.run(
            [sys.executable, BENCH_COMPARE, "--check", bad],
            capture_output=True, text=True)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 3, proc.stderr)

    def test_absent_cell_exits_4(self):
        proc = self.run_compare("--cell", "Power/bilateral/8")
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 4, proc.stdout + proc.stderr)

    def test_adaptive_is_a_valid_scheme(self):
        doc = self.write_json("adaptive.json", bench_doc("head", {
            "TreeAdd": ("adaptive", 1000)}))
        proc = subprocess.run(
            [sys.executable, BENCH_COMPARE, "--check", doc],
            capture_output=True, text=True)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class BenchCompareSampledTest(unittest.TestCase):
    """The sampled-cell contract: schema, exit 6, and --ci-gate gating."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.addCleanup(self.tmp.cleanup)
        self.dir = self.tmp.name

    def write_json(self, name, doc):
        p = os.path.join(self.dir, name)
        with open(p, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return p

    def compare(self, old_doc, new_doc, *extra):
        old = self.write_json("old.json", old_doc)
        new = self.write_json("new.json", new_doc)
        return subprocess.run(
            [sys.executable, BENCH_COMPARE, old, new, *extra],
            capture_output=True, text=True)

    def test_sampled_document_passes_check(self):
        doc = self.write_json("sampled.json", bench_doc(
            "head", {"TreeAdd": ("local", 1000)}, sample="1024:256"))
        proc = subprocess.run(
            [sys.executable, BENCH_COMPARE, "--check", doc],
            capture_output=True, text=True)
        self.assertNotIn("Traceback", proc.stderr, proc.stderr)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_ci95_on_exact_cell_is_schema_invalid(self):
        doc = bench_doc("head", {"TreeAdd": ("local", 1000)})
        doc["cells"][0]["makespan_ci95"] = 3
        path = self.write_json("bad.json", doc)
        proc = subprocess.run(
            [sys.executable, BENCH_COMPARE, "--check", path],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 3, proc.stdout + proc.stderr)
        self.assertIn("makespan_ci95 on an exact cell", proc.stderr)

    def test_sampled_vs_exact_exits_6_with_structured_message(self):
        proc = self.compare(
            bench_doc("seed", {"TreeAdd": ("local", 1000)}),
            bench_doc("head", {"TreeAdd": ("local", 1000)},
                      sample="1024:256"))
        self.assertNotIn("Traceback", proc.stderr, proc.stderr)
        self.assertEqual(proc.returncode, 6, proc.stdout + proc.stderr)
        self.assertIn("SAMPLED MISMATCH", proc.stdout)
        self.assertIn("OLD is exact, NEW is sampled", proc.stdout)
        self.assertIn("--ci-gate", proc.stdout)

    def test_mismatch_outranks_a_regression_elsewhere(self):
        # MST regresses hard, but TreeAdd's sampled-vs-exact mismatch
        # invalidates the comparison as a whole: exit 6, not 1.
        proc = self.compare(
            bench_doc("seed", {"TreeAdd": ("local", 1000),
                               "MST": ("local", 1000)}),
            {**bench_doc("head", {"MST": ("local", 2000)}),
             "cells": bench_doc("head", {"MST": ("local", 2000)})["cells"]
             + bench_doc("head", {"TreeAdd": ("local", 1000)},
                         sample="64:16")["cells"]})
        self.assertEqual(proc.returncode, 6, proc.stdout + proc.stderr)

    def test_ci_gate_authorizes_the_mix_and_passes_when_equal(self):
        # Sampled makespans are exact (virtual time is fully known), so a
        # gated sampled-vs-exact comparison of identical runs is clean.
        proc = self.compare(
            bench_doc("seed", {"TreeAdd": ("local", 1000)}),
            bench_doc("head", {"TreeAdd": ("local", 1000)},
                      sample="1024:256"),
            "--ci-gate")
        self.assertNotIn("Traceback", proc.stderr, proc.stderr)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_ci_gate_forgives_regressions_inside_the_interval(self):
        # +50% drift, but the new cell's CI covers the old value: the
        # intervals don't separate, so no regression is flagged.
        proc = self.compare(
            bench_doc("seed", {"TreeAdd": ("local", 1000)}),
            bench_doc("head", {"TreeAdd": ("local", 1500)},
                      sample="1024:256", ci95=600),
            "--ci-gate")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("drift", proc.stdout)

    def test_ci_gate_still_fails_when_intervals_separate(self):
        proc = self.compare(
            bench_doc("seed", {"TreeAdd": ("local", 1000)}),
            bench_doc("head", {"TreeAdd": ("local", 1500)},
                      sample="1024:256", ci95=100),
            "--ci-gate")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertIn("[ci95 0 -> 100]", proc.stdout)


def host_doc(best_ms, total=None, nprocs=8):
    """A schema-valid HOST document: {(benchmark, scheme): best_ms}."""
    cells = [{"benchmark": bench, "scheme": scheme, "best_ms": ms,
              "makespan_cycles": 1000}
             for (bench, scheme), ms in best_ms.items()]
    return {
        "host_bench_schema_version": 1,
        "generator": "bench_runner",
        "mode": "tiny",
        "nprocs": nprocs,
        "repeat": 3,
        "jobs": 1,
        "cells": cells,
        "total_best_ms": sum(best_ms.values()) if total is None else total,
    }


class BenchCompareHostTest(unittest.TestCase):
    """HOST documents: fixed 2x gate, missing cells, kind refusals."""

    BASE = {("TreeAdd", "local"): 10.0, ("MST", "local"): 10.0}

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.addCleanup(self.tmp.cleanup)
        self.dir = self.tmp.name

    def compare(self, old_doc, new_doc, *extra):
        paths = []
        for name, doc in (("old.json", old_doc), ("new.json", new_doc)):
            paths.append(os.path.join(self.dir, name))
            with open(paths[-1], "w", encoding="utf-8") as f:
                json.dump(doc, f)
        proc = subprocess.run(
            [sys.executable, BENCH_COMPARE, *paths, *extra],
            capture_output=True, text=True)
        self.assertNotIn("Traceback", proc.stderr, proc.stderr)
        return proc

    def expect(self, code, old_doc, new_doc, *extra):
        proc = self.compare(old_doc, new_doc, *extra)
        self.assertEqual(proc.returncode, code, proc.stdout + proc.stderr)
        return proc

    def test_within_2x_passes(self):
        self.expect(0, host_doc(self.BASE),
                    host_doc({("TreeAdd", "local"): 19.9,
                              ("MST", "local"): 5.0}))

    def test_one_cell_beyond_2x_fails(self):
        proc = self.expect(1, host_doc(self.BASE),
                           host_doc({("TreeAdd", "local"): 20.1,
                                     ("MST", "local"): 1.0}))
        self.assertIn("TreeAdd/local/p=8", proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    def test_total_beyond_2x_fails(self):
        proc = self.expect(1, host_doc(self.BASE),
                           host_doc(self.BASE, total=40.1))
        self.assertIn("REGRESSION", proc.stdout.split("TOTAL", 1)[1])

    def test_missing_cell_fails(self):
        proc = self.expect(1, host_doc(self.BASE),
                           host_doc({("TreeAdd", "local"): 10.0}))
        self.assertIn("MISSING CELL", proc.stdout)

    def test_missing_total_is_unusable(self):
        doc = host_doc(self.BASE)
        del doc["total_best_ms"]
        proc = self.expect(3, doc, host_doc(self.BASE))
        self.assertIn("total_best_ms", proc.stderr)

    def test_host_against_bench_is_refused(self):
        proc = self.expect(3, host_doc(self.BASE),
                           bench_doc("head", {"TreeAdd": ("local", 1000)}))
        self.assertIn("HOST", proc.stderr)

    def test_no_shared_cells_exits_4(self):
        self.expect(4, host_doc(self.BASE),
                    host_doc({("Power", "local"): 10.0}))

    def test_bench_only_options_are_usage_errors(self):
        self.expect(2, host_doc(self.BASE), host_doc(self.BASE),
                    "--threshold", "10")


if __name__ == "__main__":
    unittest.main()
