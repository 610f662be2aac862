#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig1-grid --seed 1 --seconds 10 --trace 0

The first run configures and builds ``perfbench/`` (which pulls in ``src/``)
in Release mode under ``$CARGO_TARGET_DIR`` (default ``.bench_build``).
Each run prints the human-readable lines of ``ppf_perfbench``, then as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics (and writes the
benchmark's spans as a Chrome trace next to the build).

``setup_s`` is the median, over sixteen fresh processes, of the time from
spawning ``ppf_perfbench`` to its first timed operation: fifteen probe processes
that stop there, plus the measured run itself.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig1-grid", "long-run", "serve-mixed")
SETUP_PROBES = 15
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build ppf_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ppf_perfbench", "-j", "4"])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "ppf_perfbench")


def run_bench(cmd, timeout):
    """Run ppf_perfbench; returns (spawn time in monotonic ns, stdout, exit code)."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("ppf_perfbench timed out: " + " ".join(cmd))
    return t0, out, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sim-seed", type=int, default=42,
                    help="simulation seed; 42 is the tuned one, 7 is held out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    binary = build()
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--sim-seed", str(args.sim_seed)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            t0, out, rc = run_bench(base + ["--setup-probe"], 60)
            if rc != 0:
                fail("setup probe failed")
            setup.append((int(out.split()[-1]) - t0) / 1e9)

    cmd = base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-%d.json" % (args.workload, args.seed))]
    t0, out, rc = run_bench(cmd, RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if rc not in (0, 1) or not lines:
        fail("ppf_perfbench exited with status %d" % rc)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    for problem in result["problems"]:
        print("# check failed: " + problem)

    metrics = dict(result["metrics"])
    if not args.trace:
        setup.append((result["ready_ns"] - t0) / 1e9)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    missing = [n for n in wanted if n not in metrics]
    if missing:
        fail("ppf_perfbench did not report: " + ", ".join(missing))
    for name in wanted:
        if not math.isfinite(metrics[name]["value"]):
            fail("metric %s is not finite" % name)

    print(json.dumps({
        "correct": bool(result["correct"]) and rc == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: metrics[n] for n in wanted},
    }))
    sys.exit(rc)


if __name__ == "__main__":
    main()
