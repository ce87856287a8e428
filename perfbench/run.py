#!/usr/bin/env python3
"""Build and run the Olden host-time benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
simulator libraries and the two binaries (perfbench, perfbench_traced)
into .bench_build/perfbench with the repository's default build type;
later calls rebuild incrementally. Build output goes to stderr, so the
benchmark's last stdout line (one JSON object) stays the last line here.

--trace 0 runs perfbench, the end-to-end binary. --trace 1 first runs
perfbench for a quarter of the seconds, then perfbench_traced for the rest,
and prints the traced binary's output with span.overhead_s added: its
traced pass time minus the uncounted binary's pass_s. Both runs' cells
count in attempted and failed.

The committed tiny baseline (bench/baselines/BENCH_seed.json) is
flattened into an expect file that perfbench checks the default-seed cells
against.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("tiny-suite", "treeadd-traced", "paper-faults")
BASELINE = ROOT / "bench" / "baselines" / "BENCH_seed.json"


def build():
    """Configure once, then build both binaries; exit 1 on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # A configure that failed leaves a cache but no build system behind.
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench", "perfbench_traced"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def write_expect(path):
    """Flatten the committed tiny baseline cells into perfbench's format."""
    lines = []
    if BASELINE.exists():
        for cell in json.loads(BASELINE.read_text())["cells"]:
            fields = [f"makespan={cell['makespan_cycles']}"]
            fields += [f"{k}={v}" for k, v in sorted(cell["counters"].items())]
            lines.append(" ".join(["tiny", cell["benchmark"], cell["scheme"]]
                                  + fields))
    else:
        print(f"run.py: warning: {BASELINE} missing; default-seed cells are "
              "checked against references only", file=sys.stderr)
    path.write_text("\n".join(lines) + "\n")


def revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def result_of(stdout):
    """The result object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def run_traced(cmd, seconds):
    """Runs both binaries; prints the merged result and returns the status."""
    untraced_s = max(1, seconds // 4)
    runs = []
    for name, secs in (("perfbench", untraced_s),
                       ("perfbench_traced", max(1, seconds - untraced_s))):
        p = subprocess.run([str(BUILD / name), *cmd, "--seconds", str(secs)],
                           stdout=subprocess.PIPE, text=True)
        result = result_of(p.stdout)
        if p.returncode not in (0, 1) or result is None:
            sys.stderr.write(p.stdout)
            sys.exit(f"run.py: {name} exited {p.returncode} without a result")
        runs.append((p, result))
    (untraced, u), (traced, t) = runs
    sys.stderr.write(untraced.stdout)  # end-to-end lines, for the log
    t["attempted"] += u["attempted"]
    t["failed"] += u["failed"]
    t["correct"] = t["correct"] and u["correct"]
    overhead = (t["metrics"]["span.traced_pass_s"]["value"]
                - u["metrics"]["pass_s"]["value"])
    t["metrics"]["span.overhead_s"] = {"value": overhead, "unit": "s"}
    print("\n".join(traced.stdout.strip().splitlines()[:-1]))
    print(f"metric span.overhead_s {overhead:.6g} s")
    print(json.dumps(t))
    return 0 if t["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    out = BUILD / "out"
    out.mkdir(exist_ok=True)
    expect = out / "expect.txt"
    write_expect(expect)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--out-dir", str(out), "--expect", str(expect),
           "--revision", revision()]
    sys.stdout.flush()
    if args.trace == "1":
        return run_traced(cmd, args.seconds)
    return subprocess.run([str(BUILD / "perfbench"), *cmd,
                           "--seconds", str(args.seconds)]).returncode


if __name__ == "__main__":
    sys.exit(main())
