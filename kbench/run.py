#!/usr/bin/env python3
"""Build the kbench program from source and run one workload.

    python3 kbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the root of a kpath checkout. The default seed is part of the
command in BENCHMARK.json (--seed 1); a later --seed wins. The program
(kbench/main.exe) is built with dune into .bench_build/ and runs the
workload for S seconds (see kbench/NOTES.md). Its information lines
are passed through; the last line printed is one JSON object with the
keys correct, attempted, failed and metrics. Untraced runs report the
end-to-end metrics of BENCHMARK.json (peak RSS is measured here, from
the program's rusage); traced runs report its per-layer metrics and
leave the spans in .bench_build/kbench/. Any failure exits non-zero without
printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
PROGRAM = os.path.join(BUILD_DIR, "default", "kbench", "main.exe")
OUT_DIR = os.path.join(BUILD_DIR, "kbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(msg, code):
    print("kbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("kbench", "dune")):
        if not os.path.exists(need):
            fail("no %s here: run from the root of a kpath checkout" % need, 2)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet", "./kbench/main.exe"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed", 3)


def run_program(args):
    """Run main.exe; return its stdout and its peak RSS in KB."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "stdout-%s.txt" % args.workload)
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                fail("main.exe timed out", 5)
            time.sleep(0.05)
    code = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    if code != 0:
        sys.stdout.write(text)
        fail("main.exe exited with %d" % code, 5)
    return text, usage.ru_maxrss


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper-tables", "fanout-tcp", "filter-graph"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)

    build()
    text, maxrss_kb = run_program(args)
    lines = text.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(text)
        fail("main.exe printed no result", 4)
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": maxrss_kb / 1024.0, "unit": "MB"}
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or in the wrong unit" % m["name"], 4)
    if len(metrics) != len(expected):
        fail("main.exe printed metrics BENCHMARK.json does not list", 4)
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in expected}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
