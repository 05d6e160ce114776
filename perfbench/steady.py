#!/usr/bin/env python3
"""Steadiness check for the ECO benchmark.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads tune_seq,serve_mixed]
        [--seeds 10] [--first-seed 1] [--seconds S]
        [--save set1.json] [--against set0.json]

Runs perfbench/run.py on each workload once per seed (seeds first-seed,
first-seed+1, ...), then prints for every end-to-end metric the median,
the first and third quartiles (statistics.quantiles(values, n=4)), the
spread (Q3 - Q1) as a share of the median, and the metric's bound from
BENCHMARK.json. A spread above a third of its bound is flagged "wide";
above the bound, "OVER".

--save writes the raw per-run values; --against compares this set's
medians with a saved set and flags any metric whose median got worse by
more than its bound. Exits 1 when a run fails, an output check fails, the
failed-operation share differs between runs, a spread exceeds its bound,
or a median regressed against --against.
"""

import argparse
import json
import statistics
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    previous = json.loads(Path(args.against).read_text()) \
        if args.against else {}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(workload, seed, args.seconds)
            if res is None or not res["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect: {res}")
                ok = False
                continue
            shares.add(f"{res['failed']}/{res['attempted']}")
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted {res['attempted']} "
                  f"failed {res['failed']} " + " ".join(
                      f"{n}={v[-1]:.4g}" for n, v in values.items()),
                  flush=True)
        raw[workload] = values
        ratios = {Fraction(*map(int, s.split("/"))) for s in shares}
        print(f"\n{workload}: {args.seeds} seeds from {args.first_seed}, "
              f"{args.seconds:g} s runs; failed/attempted: "
              f"{', '.join(sorted(shares))}")
        if len(ratios) > 1:
            print("  failed share differs between runs")
            ok = False
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag, ok = "OVER", False
            elif spread > bound / 3:
                flag = "wide"
            old = previous.get(workload, {}).get(name)
            if old:
                old_med = statistics.median(old)
                worse = (med - old_med) / old_med if better[name] == "lower" \
                    else (old_med - med) / old_med
                flag += f" vs saved {worse:+.3f}"
                if worse > bound:
                    flag += " REGRESSED"
                    ok = False
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound:>6} "
                  f"{flag}")
        print(flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
