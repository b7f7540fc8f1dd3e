#!/usr/bin/env python3
"""Steadiness check for the plan-server benchmark.

    python3 planbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--save FILE] [--against FILE]

Runs every workload (or the listed ones) --runs times through
planbench/run.py, each run with the next seed, and prints for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json.  A spread above a third of its bound is flagged, as is
a failed-operation share that differs between runs.  --save writes the
raw figures; --against compares this set's medians with a saved set
and flags a metric whose median is worse by more than its bound.
Run from the repository root; runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_config():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "planbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def worse(metric, base, new):
    """Relative worsening of [new] against [base] in the metric's direction."""
    change = (new - base) / base
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    config = load_config()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]
    previous = json.load(open(args.against)) if args.against else {}
    raw = {}
    ok = True
    for name in names:
        results = []
        for k in range(args.runs):
            r = one_run(name, args.first_seed + k, config["run_seconds"])
            results.append(r)
            print(f"  {name} seed {args.first_seed + k}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
        raw[name] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        wrong = sum(1 for r in results if not r["correct"])
        print(f"{name}: {args.runs} runs, {wrong} incorrect, failed shares {sorted(shares)}")
        ok &= wrong == 0 and len(shares) == 1
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  SPREAD > bound/3"
                ok = False
            line = (f"  {m['name']:<24} median {med:12.6g} {m['unit']:<4} q1 {q1:12.6g} q3 {q3:12.6g} "
                    f"spread {spread:7.2%} bound {m['bound']:.0%}{flag}")
            if name in previous:
                old = [r["metrics"][m["name"]]["value"] for r in previous[name]]
                w = worse(m, statistics.quantiles(old, n=4)[1], med)
                line += f"  vs saved {w:+.2%}" + ("  WORSE > bound" if w > m["bound"] else "")
                ok &= w <= m["bound"]
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    print("steady: all spreads within a third of their bounds" if ok else "steady: NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
