#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. It runs every workload run.py knows
(also tiny-suite, which BENCHMARK.json does not list) for one second,
untraced and traced, at seed 7, and checks that the last stdout line is the
result object, that every metric BENCHMARK.json names for that mode is
printed (in the JSON and as a "metric NAME VALUE UNIT" line) with its
declared unit, and that all checks passed.

It then runs tiny-suite at the default seed, where cells are also checked
against the committed bench/baselines/BENCH_seed.json, and checks that
exactly the cells in STALE_BASELINE fail. Last, it calls the perfbench
binary directly twice: once with one expected checksum corrupted, and
once at the default seed with one baseline makespan corrupted, and checks
that each corruption is counted as one more failed cell per pass and that
the exit status is non-zero. Exits 0 when everything holds, 1 otherwise.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SEED = 7
DEFAULT_SEED = 12345  # BenchConfig's default, the seed of BENCH_seed.json
TINY_CELLS = 40       # ten benchmarks x four schemes
# Cells whose committed BENCH_seed.json makespan differs from the
# simulator's (README.md, "Checks"). Empty this set when the baseline is
# regenerated.
STALE_BASELINE = {"Health/global", "Health/bilateral"}
# The cell whose baseline makespan the corruption case changes.
CORRUPT_CELL = ("TreeAdd", "local")


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def failed_cells(stderr):
    """Cells named by perfbench's 'check failed: BENCH/SCHEME: ...' lines."""
    return set(re.findall(r"check failed: (\S+/\S+):", stderr))


def run(workload, trace, seed=SEED):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return p.returncode, result_of(p.stdout), p.stdout.splitlines(), p.stderr


def run_binary(seed, extra, expect=BUILD / "out" / "expect.txt"):
    """tiny-suite on the end-to-end binary that run.py built."""
    cmd = [str(BUILD / "perfbench"), "--workload", "tiny-suite",
           "--seed", str(seed), "--seconds", "1", "--out-dir",
           str(BUILD / "out"), "--expect", str(expect), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return p.returncode, result_of(p.stdout), p.stderr


def per_pass(result):
    """Failed cells per tiny-suite pass."""
    return result["failed"] * TINY_CELLS / result["attempted"]


def check_counted(what, code, result, stderr, want_cells, problems):
    """The run failed exactly want_cells, once per pass, and exited 1."""
    if code != 1 or result is None or result["correct"]:
        problems.append(f"{what}: exit {code}, result {result}")
        return
    got = failed_cells(stderr)
    if got != want_cells or per_pass(result) != len(want_cells):
        problems.append(f"{what}: failed cells {sorted(got)} "
                        f"({per_pass(result)} per pass), want "
                        f"{sorted(want_cells)}\n{stderr}")
    else:
        print(f"ok   {what}: {sorted(got)} failed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            before = len(problems)
            code, result, lines, err = run(workload, trace)
            if result is None:
                problems.append(f"{where}: no result line (exit {code})\n{err}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if code != 0 or not result.get("correct") or result.get("failed"):
                problems.append(f"{where}: exit {code}, result {result}")
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            for m in spec[key]:
                got = result.get("metrics", {}).get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or unit "
                                    f"!= {m['unit']}: {got}")
                if printed.get(m["name"]) != m["unit"]:
                    problems.append(f"{where}: no 'metric {m['name']} ... "
                                    f"{m['unit']}' line")
            print(f"{'ok  ' if len(problems) == before else 'FAIL'} {where}")

    code, result, _, err = run("tiny-suite", 0, DEFAULT_SEED)
    if STALE_BASELINE:
        check_counted(f"tiny-suite --seed {DEFAULT_SEED}", code, result, err,
                      STALE_BASELINE, problems)
    elif code != 0 or result is None or result["failed"]:
        problems.append(f"tiny-suite --seed {DEFAULT_SEED}: exit {code}, "
                        f"result {result}\n{err}")

    code, result, err = run_binary(SEED, ["--corrupt-checksum"])
    check_counted("corrupted checksum", code, result, err,
                  {"/".join(CORRUPT_CELL)}, problems)

    expect = BUILD / "out" / "expect.txt"
    corrupted = BUILD / "out" / "expect-corrupted.txt"
    lines, hit = [], False
    for line in expect.read_text().splitlines():
        fields = line.split()
        if fields[:3] == ["tiny", *CORRUPT_CELL]:
            n = int(fields[3].removeprefix("makespan="))
            fields[3] = f"makespan={n + 1}"
            hit = True
        lines.append(" ".join(fields))
    corrupted.write_text("\n".join(lines) + "\n")
    if not hit:
        problems.append(f"no baseline cell {CORRUPT_CELL} in {expect}")
    else:
        code, result, err = run_binary(DEFAULT_SEED, [], corrupted)
        check_counted("corrupted baseline makespan", code, result, err,
                      STALE_BASELINE | {"/".join(CORRUPT_CELL)}, problems)
    corrupted.unlink()

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
