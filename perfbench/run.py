#!/usr/bin/env python3
"""Managed-interval benchmark of the Sinan reproduction.

Builds perfbench/ (a CMake project compiling ../src) and runs one
workload:

    python3 perfbench/run.py --workload solo-social --seed 1 \\
        --seconds 10 --trace 0

--trace 0 runs one untraced leg and reports the end-to-end metrics of
BENCHMARK.json, at the thread count E2E_THREADS gives the workload.
--trace 1 runs four legs of --seconds/2 each (untraced and traced, at
the default thread count and at 1 thread) and reports the per-layer
metrics: layer figures from the traced legs, end-to-end figures from
the untraced legs (suffix .t1 at 1 thread, .tdefault at the default
count), and the tracing overhead as the untraced leg's interval rate
over the traced one's. The last line
of stdout is the result as one JSON object; progress goes to stderr.
Every run also writes its full result, with the machine fingerprint, to
<build>/perfbench-results/ (or --results DIR); perfbench/compare.py
diffs two such directories.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solo-social", "fleet-mixed", "train-social")
# Thread count of the --trace 0 leg (0: the default). Batch-of-1
# decisions are slower at 4 threads than at 1, and their fan-out over the
# pool, like the fleet's lockstep phases, makes the figures follow the
# host's scheduler rather than the program. train-social keeps the
# default for training and runs its check runs at 1 thread itself.
# --trace 1 measures every workload at both counts.
E2E_THREADS = {"solo-social": 1, "fleet-mixed": 1, "train-social": 0}
# The whole run, build excluded, must end well inside three minutes.
RUN_BUDGET_S = 170.0
# Per-layer metrics taken from the untraced legs of a --trace 1 run:
# end-to-end figures that cannot carry a bound (see README).
UNTRACED_LAYER_METRICS = ("decide_p99_ms", "decide_samples",
                          "train_samples_per_s", "setup.first_s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected "
             "src/CMakeLists.txt); run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "sinan_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=840).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if rc != 0:
            fail("build step failed (exit %d): %s" % (rc, " ".join(cmd)))
    return os.path.join(out, "sinan_perfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_leg(binary, args, threads, trace, seconds, deadline):
    spans = os.path.join(build_dir(), "perfbench-spans",
                         "%s-seed%d-threads%d.tsv" % (
                             args.workload, args.seed, threads))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--threads", str(threads),
           "--trace", "1" if trace else "0",
           "--models", os.path.join(ROOT, "bench_cache")]
    if trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    log("perfbench: leg threads=%s trace=%d seconds=%g" % (
        threads or "default", trace, seconds))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before a leg could start", 1)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=remaining,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("leg exceeded the run's time budget", 1)
    if proc.returncode != 0:
        fail("benchmark binary exited with %d" % proc.returncode, 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark binary printed no result", 1)
    return json.loads(lines[-1])


def value(leg, name):
    return leg["metrics"][name]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="directory for the full result "
                    "(default <build>/perfbench-results)")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    spec = load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace == 0:
        legs = {"untraced": run_leg(binary, args,
                                    E2E_THREADS[args.workload], False,
                                    args.seconds, deadline)}
    else:
        half = args.seconds / 2.0
        legs = {}
        for key, threads, trace in (("untraced", 0, False),
                                    ("traced", 0, True),
                                    ("untraced.t1", 1, False),
                                    ("traced.t1", 1, True)):
            legs[key] = run_leg(binary, args, threads, trace, half, deadline)

    def pick(name):
        """Which leg, and which of its figures, a reported metric is."""
        if args.trace == 0:
            return legs["untraced"], name
        base, suffix = name, ""
        if name.endswith(".t1"):
            base, suffix = name[:-len(".t1")], ".t1"
        elif name.endswith(".tdefault"):
            base = name[:-len(".tdefault")]
        if base == "trace.overhead_pct":
            return None, base + suffix
        if base in e2e or base in UNTRACED_LAYER_METRICS:
            return legs["untraced" + suffix], base
        return legs["traced" + suffix], base

    wanted = e2e if args.trace == 0 else layers
    metrics = {}
    for name, unit in wanted.items():
        leg, figure = pick(name)
        if leg is None:
            suffix = ".t1" if name.endswith(".t1") else ""
            plain = value(legs["untraced" + suffix], "interval_rate")
            traced = value(legs["traced" + suffix], "interval_rate")
            v = 100.0 * (plain / traced - 1.0)
        else:
            got = leg["metrics"][figure]
            if got["unit"] != unit:
                fail("unit of %s is %s, BENCHMARK.json says %s" % (
                    name, got["unit"], unit), 1)
            v = got["value"]
        metrics[name] = {"value": v, "unit": unit}

    correct = all(leg["correct"] for leg in legs.values())
    attempted = sum(leg["attempted"] for leg in legs.values())
    failed = sum(leg["failed"] for leg in legs.values())
    for key, leg in legs.items():
        for msg in leg["failures"]:
            log("CHECK FAILED [%s]: %s" % (key, msg))
        for msg in leg["notes"]:
            log("failed operation [%s]: %s" % (key, msg))

    fp = legs["untraced"]["fingerprint"]
    print("workload %s  seed %d  seconds %g  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("machine: %d cores, %d threads, kernel %s, int8 kernel %s, "
          "build %s" % (fp["cores"], fp["threads"], fp["kernel_id"],
                        fp["int8_kernel_id"], fp["build_type"]))
    for name, m in metrics.items():
        print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print("operations: %d attempted, %d failed; outputs %s" % (
        attempted, failed, "correct" if correct else "INCORRECT"))

    results = args.results or os.path.join(build_dir(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "legs": legs}
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
