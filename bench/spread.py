#!/usr/bin/env python3
"""Measures the run-to-run spread behind BENCHMARK.json's bounds.

Runs the benchmark once per seed on each workload, back to back, exactly as
BENCHMARK.json's command runs it, and writes every run's summary line to a
JSON file. For each end-to-end metric it prints the median and the spread:
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. Run it from the repository root:

    python3 bench/spread.py --seeds 1-10 --out spread.json
    python3 bench/spread.py --seeds 11-20 --workloads serve-mixed --out s.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", required=True, help="file for every run's summary")
    args = ap.parse_args()

    runs = {}
    for w in args.workloads.split(","):
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}")
            r = json.loads(lines[-1])
            r.update(seed=s, elapsed_s=round(time.time() - t0, 1),
                     start=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t0)))
            runs.setdefault(w, []).append(r)
            print(w, s, r["elapsed_s"], r["correct"], r["failed"],
                  {k: round(v["value"], 4) for k, v in r["metrics"].items()}, flush=True)
            with open(args.out, "w") as f:
                json.dump(runs, f, indent=1)

    for w, rs in runs.items():
        print(w)
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            print(f"  {m['name']:18} median {med:12.6g}  spread {100 * (q[2] - q[0]) / med:5.1f}%"
                  f"  (bound {100 * m['bound']:.0f}%)")


if __name__ == "__main__":
    main()
