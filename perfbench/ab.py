#!/usr/bin/env python3
"""Same-machine A/B of the benchmark: a base commit against the working tree.

Run from the repository root:

    python3 perfbench/ab.py --base <commit> [--workload NAME ...] [--pairs 10]
                            [--seconds S] [--seed 9001]

The base commit is checked out into a git worktree under .bench_build/,
and the head's benchmark (perfbench/ and BENCHMARK.json) is copied over it,
so both sides run identical benchmark code and settings. The script then
runs the pairs, alternating which side goes first, each pair on its own
seed counted up from --seed. Keep that seed away from the ones used while
the change was written; the default is one no tuning run uses.

For each end-to-end metric it prints both sides' median and quartiles, how
many pairs the head won (ties count for neither side), and a verdict:

  gain        the head won at least 9 of 10 pairs and the medians differ by
              more than the base's own quartile spread;
  regression  the head's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the base's own spread is wider than the bound, and not every
              head run reads better than every base run;
  no change   otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
WORKTREE = os.path.join(ROOT, ".bench_build", "ab-base")


def run(cmd, cwd, check=True):
    return subprocess.run(cmd, cwd=cwd, check=check, text=True, capture_output=True)


def bench(cwd, workload, seed, seconds):
    p = run(["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"], cwd, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{cwd}: {workload} seed {seed} failed (exit {p.returncode}):\n{p.stderr}")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    bound = metric.get("bound")
    wins = losses = 0
    for b, h in zip(base, head):
        if h != b:
            if (h < b) == lower:
                wins += 1
            else:
                losses += 1
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    worse = (hmed - bmed) if lower else (bmed - hmed)
    all_better = max(head) < min(base) if lower else min(head) > max(base)
    if wins * 10 >= 9 * len(base) and abs(hmed - bmed) > (bq3 - bq1):
        v = "gain"
    elif bound is not None and bmed and worse / abs(bmed) > bound:
        v = "regression"
    elif bound is not None and bmed and (bq3 - bq1) / abs(bmed) > bound and not all_better:
        v = "unresolved"
    else:
        v = "no change"
    return wins, losses, v


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="base commit to compare against")
    ap.add_argument("--workload", action="append", help="workload to run (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=9001, help="first held-out seed")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    if os.path.exists(WORKTREE):
        run(["git", "worktree", "remove", "--force", WORKTREE], ROOT, check=False)
    run(["git", "worktree", "add", "--detach", WORKTREE, args.base], ROOT)
    try:
        shutil.rmtree(os.path.join(WORKTREE, "perfbench"), ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(WORKTREE, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), WORKTREE)
        for w in workloads:
            base, head = [], []
            for i in range(args.pairs):
                seed = args.seed + i
                sides = [(WORKTREE, base), (ROOT, head)]
                if i % 2:
                    sides.reverse()
                for cwd, out in sides:
                    out.append(bench(cwd, w, seed, seconds))
                print(f"{w}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
            print(f"\n{w} ({args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, {seconds}s runs)")
            print(f"  {'metric':24s} {'base q1/med/q3':>36s} {'head q1/med/q3':>36s}  wins  verdict")
            for m in spec["end_to_end"]:
                b = [r["metrics"][m["name"]]["value"] for r in base]
                h = [r["metrics"][m["name"]]["value"] for r in head]
                wins, losses, v = verdict(m, b, h)
                fb = "/".join(f"{x:.4g}" for x in quartiles(b))
                fh = "/".join(f"{x:.4g}" for x in quartiles(h))
                print(f"  {m['name']:24s} {fb:>36s} {fh:>36s}  {wins:2d}-{losses:<2d} {v}")
            fails = sum(r["failed"] for r in head) - sum(r["failed"] for r in base)
            print(f"  failed operations, head minus base: {fails}")
    finally:
        run(["git", "worktree", "remove", "--force", WORKTREE], ROOT, check=False)


if __name__ == "__main__":
    main()
