#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range as a share of the median)
against the bounds in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --runs 1           # every workload once
    python3 perfbench/spread.py --runs 10 --first-seed 101
    python3 perfbench/spread.py --runs 5 --workloads db11_fault_sweep --seconds 10
    python3 perfbench/spread.py --runs 10 --record perfbench/out/record.json

A spread above a third of the metric's bound is flagged `WIDE`; above the
bound itself, `OVER`.  `setup_s` is reported but, like the acceptance rule,
its spread is not held to its bound.  `--record FILE` also makes one traced
run per workload (at the first seed) and writes everything as one JSON
record of the shape `BASELINE.json` collects.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    """One benchmark run: its result object, the `# perfbench` header
    fields, and how long it took."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    header = next(line for line in lines if line.startswith("# perfbench "))
    fields = dict(f.split("=", 1) for f in header.split()[2:] if "=" in f)
    return result, fields, elapsed


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    spread = (q3 - q1) / median if median else float("inf")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--record", help="write a baseline record here")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))

    samples = {w: {} for w in workloads}
    units = {}
    longest = 0.0
    for seed in seeds:
        for workload in workloads:
            result, fields, elapsed = run_once(bench["command"], workload,
                                               seed, seconds, 0)
            longest = max(longest, elapsed)
            for name, metric in result["metrics"].items():
                samples[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"# {workload} seed {seed}: {elapsed:.1f} s, "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  file=sys.stderr)

    summary = {}
    ok = True
    for workload in workloads:
        summary[workload] = {}
        for name, values in samples[workload].items():
            stats = summarize(values)
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if stats["spread"] > bound:
                    flag, ok = "OVER", False
                elif stats["spread"] > bound / 3:
                    flag, ok = "WIDE", False
            print(f"{workload:18} {name:18} median {stats['median']:<12.6g} "
                  f"{units[name]:6} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "")
                  + (f" {flag}" if flag else ""))
            if name == "cell_pass_ratio":
                failure = 1 - stats["median"]
                print(f"{workload:18} {'cell_failure_ratio':18} median "
                      f"{failure:<12.6g} ratio")
    print(f"# longest single run: {longest:.1f} s")

    if opts.record:
        record = {"git_rev": fields["git_rev"], "source_fnv": fields["source_fnv"],
                  "cores": int(fields["cores"]), "machine": platform.machine(),
                  "seeds": seeds, "run_seconds": seconds, "workloads": {}}
        for workload in workloads:
            traced, _, _ = run_once(bench["command"], workload, seeds[0],
                                    seconds, 1)
            record["workloads"][workload] = {
                "end_to_end": summary[workload],
                "per_layer_seed": seeds[0],
                "per_layer": {k: v["value"]
                              for k, v in traced["metrics"].items()},
            }
        with open(opts.record, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
