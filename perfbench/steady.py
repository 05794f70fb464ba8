#!/usr/bin/env python3
"""Steadiness check for the perfbench workloads.

Runs every workload repeatedly, alternating between workloads, each run
with another seed, and prints for each metric its median, quartiles and
spread (quartile distance as a share of the median) beside the bound
BENCHMARK.json fixes for it. Run from the root of the checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads dse_sweep --seconds 25
    python3 perfbench/steady.py --runs 3 --trace   # per-layer metrics

With --trace it also runs each workload untraced and reports, per
end-to-end metric, the traced run's median against the untraced one:
the tracing overhead. Without --trace it also prints the spread of the
readings a run prints on its [alt] lines: metrics without some of the
host-noise handling, so that each mechanism can be seen to narrow the
spread, and the served client's latencies.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    # the report's [end-to-end] table, for the traced-vs-untraced
    # comparison, and its [alt] readings
    e2e, alt, in_table = {}, {}, False
    for line in lines:
        if line.startswith("[alt] "):
            _, name, value = line.split()
            alt[name] = float(value)
        elif line.startswith("[end-to-end]"):
            in_table = True
        elif in_table and line.startswith("  "):
            name, value = line.split()[:2]
            e2e[name] = float(value)
        else:
            in_table = False
    return result, e2e, alt


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--verbose", action="store_true", help="print every run's metrics")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w: [] for w in args.workloads}
    untraced = {w: [] for w in args.workloads}
    for i in range(args.runs):
        for w in args.workloads:
            seed = args.first_seed + i
            res, e2e, alt = run_once(w, seed, args.seconds, args.trace)
            results[w].append((res, e2e, alt))
            if args.trace:
                untraced[w].append(run_once(w, seed, args.seconds, False)[1])
            share = res["failed"] / res["attempted"]
            print(f"run {i + 1}/{args.runs} {w} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} ({share:.6f})", flush=True)
            if args.verbose:
                print("   " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)

    worst = 0.0
    for w in args.workloads:
        print(f"\n{w}: {len(results[w])} runs")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        names = list(results[w][0][0]["metrics"])
        for name in names:
            vals = [r["metrics"][name]["value"] for r, _, _ in results[w]]
            med, q1, q3, s = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if s <= bound / 3 else ("WITHIN BOUND" if s <= bound else "OVER BOUND")
                worst = max(worst, s / bound)
            print(f"  {name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {s:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
        if not args.trace:
            print("  [alt] readings:")
            for name in results[w][0][2]:
                med, q1, q3, s = spread([a[name] for _, _, a in results[w]])
                print(f"    {name:40} {med:14.4f} {s:8.4f}")
        else:
            print("  tracing overhead (traced median / untraced median - 1):")
            for name in results[w][0][1]:
                t = statistics.median(e[name] for _, e, _ in results[w])
                u = statistics.median(e[name] for e in untraced[w])
                print(f"    {name:34} {100 * (t / u - 1):+7.2f}%")
    if not args.trace:
        print(f"\nlargest spread / bound over end-to-end metrics: {worst:.3f}")


if __name__ == "__main__":
    main()
