#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for every
metric, the median, the quartiles and the quartile spread as a share of the
median (Python's statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workloads initial,service --seeds 1-10

A spread above a third of its bound is marked; setup_s is reported but its
spread is not held to the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(cfg, workload, seed):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect result {res}")
    return res["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        cfg = json.load(f)
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    seeds = parse_seeds(args.seeds)
    # Seeds in the outer loop: the host's speed drifts over minutes, and
    # interleaving the workloads spreads that drift evenly over all of them
    # instead of loading it onto whichever ran during a slow stretch.
    values = {w: {} for w in workloads}
    for s in seeds:
        for w in workloads:
            for name, m in run(cfg, w, s).items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {s} done", file=sys.stderr, flush=True)
    steady = True
    for w in workloads:
        print(f"== {w} ({len(seeds)} seeds)")
        for name, vs in sorted(values[w].items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                mark = "  <-- above a third of the bound"
                steady = False
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:24s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}  bound {b}{mark}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
