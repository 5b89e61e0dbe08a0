#!/usr/bin/env python3
"""Noise-aware diff of two sets of perfbench results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--layers]

Each directory holds the per-run result files perfbench/run.py writes
(<workload>-seed<N>-trace<T>.json; see --results). For every workload
and every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles over its runs, the change of the medians, and a
verdict:

  WORSE      the median moved the wrong way by more than the bound
  better     the median moved the right way by more than the bound
  unresolved the base's own quartile spread exceeds the bound, so a move
             within that spread cannot be told from noise
  ok         within the bound

It also compares the share of failed operations. --layers adds the
per-layer metrics of the traced runs (medians only; they have no
bound). Exit status 1 if any metric is WORSE or the failed share moved.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_set(directory):
    """{(workload, trace): [result, ...]} for one directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault((r["workload"], r["trace"]), []).append(r)
    if not runs:
        sys.exit("compare: no result files in %s" % directory)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--layers", action="store_true",
                    help="also print per-layer medians of traced runs")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_set(args.base), load_set(args.new)
    bad = False

    for (workload, trace) in sorted(set(base) & set(new)):
        b_runs, n_runs = base[(workload, trace)], new[(workload, trace)]
        if trace == 1 and not args.layers:
            continue
        print("%s (trace %d): %d base runs, %d new runs" % (
            workload, trace, len(b_runs), len(n_runs)))
        bf, nf = failed_share(b_runs), failed_share(n_runs)
        print("  failed share %.6f -> %.6f%s" % (
            bf, nf, "  MOVED" if bf != nf else ""))
        bad = bad or bf != nf
        metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
        for m in metrics:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs
                  if name in r["metrics"]]
            if not bv or not nv:
                continue
            b1, bmed, b3 = quartiles(bv)
            n1, nmed, n3 = quartiles(nv)
            change = (nmed - bmed) / bmed if bmed else 0.0
            verdict = ""
            if "bound" in m:
                bound = m["bound"]
                worse = change > bound if m["better"] == "lower" else \
                    change < -bound
                improved = change < -bound if m["better"] == "lower" else \
                    change > bound
                spread = (b3 - b1) / bmed if bmed else 0.0
                if worse:
                    verdict = "WORSE"
                    bad = True
                elif improved:
                    verdict = "better"
                elif spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print("  %-26s %12.5g [%.5g, %.5g] -> %12.5g [%.5g, %.5g] "
                  "%+7.1f%% %s %s" % (name, bmed, b1, b3, nmed, n1, n3,
                                      100.0 * change, m["unit"], verdict))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
