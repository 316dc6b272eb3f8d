#!/usr/bin/env python3
"""Compare two benchmark result sets (parent vs change) metric by metric.

    python3 perfbench/compare.py PARENT_LEDGER CHANGE_LEDGER [--commits PARENT CHANGE]
    python3 perfbench/compare.py --drive PARENT_CHECKOUT CHANGE_CHECKOUT [--pairs 10]

A ledger is the .bench_build/out/ledger.jsonl that run.py appends to (or a
directory holding one). Only its untraced, full-size rows of BENCHMARK.json's
run_seconds are read, and of those the latest row for each (workload, seed).
A ledger keeps every commit ever run in its checkout: when the rows left
come from more than one commit, name the one to read with --commits (a
prefix of the stamp is enough). With --drive the comparator runs the pairs
itself at run_seconds, alternating which checkout goes first, each pair on
its own seed.

For every (workload, end-to-end metric) row it prints each side's median
and quartiles, the fraction of same-seed pairs the change wins (ties count
for neither), and a verdict against the bounds in BENCHMARK.json:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread
  unresolved  the parent's spread is wider than the bound, and not every
              change run beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  no worse    otherwise

setup_s is judged on its medians alone (never unresolved): a run sets up
only a few times, so its spread is not gated, but a median worse by more
than the bound still reads regressed.

Rows stamped with a different CPU, core count, GOMAXPROCS or Go version are
refused: numbers from different boxes are not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARABLE = ("cpu_model", "nproc", "gomaxprocs", "go_version")


def load_bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def read_ledger(path, run_seconds, commit):
    """The ledger's comparable rows of one commit: untraced, full size,
    run_seconds long."""
    if os.path.isdir(path):
        path = os.path.join(path, "ledger.jsonl")
    rows = []
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if not row["trace"] and not row["tiny"] and row["seconds"] == run_seconds:
                rows.append(row)
    commits = sorted({r["commit"] for r in rows})
    if commit:
        commits = [c for c in commits if c.startswith(commit)]
    if len(commits) != 1:
        sys.exit(f"compare.py: {path}: need rows of exactly one commit, found {commits or 'none'}; "
                 "choose with --commits")
    return [r for r in rows if r["commit"] == commits[0]]


def by_seed(rows):
    """{workload: {seed: metrics}}, keeping each seed's latest row."""
    out = {}
    for row in rows:
        out.setdefault(row["workload"], {})[row["seed"]] = row["metrics"]
    return out


def check_comparable(a_rows, b_rows):
    stamps = {tuple(r.get(k) for k in COMPARABLE) for r in a_rows + b_rows}
    if len(stamps) > 1:
        sys.exit("compare.py: rows come from different machines or settings (%s): %s"
                 % (", ".join(COMPARABLE), sorted(stamps, key=str)))


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(a, b, better, bound, gate_spread=True):
    """Verdict for one metric given paired parent (a) and change (b) values."""
    sign = 1 if better == "lower" else -1  # sign * (b - a) > 0 means worse
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    q1a, meda, q3a = quartiles(a)
    medb = statistics.median(b)
    spread = (q3a - q1a) / abs(meda) if meda else float("inf")
    worse = sign * (medb - meda) / abs(meda) if meda else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if len(a) and wins >= 0.9 * len(a) and abs(medb - meda) > (q3a - q1a) and worse < 0:
        v = "improved"
    elif gate_spread and spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "no worse"
    return wins, v


def report(a_by, b_by, bench):
    metrics = bench["end_to_end"]
    regressed = False
    print(f"{'workload':<20} {'metric':<14} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>7}  verdict")
    for w in (wl["name"] for wl in bench["workloads"]):
        seeds = sorted(set(a_by.get(w, {})) & set(b_by.get(w, {})))
        if not seeds:
            continue
        for m in metrics:
            a = [a_by[w][s][m["name"]]["value"] for s in seeds]
            b = [b_by[w][s][m["name"]]["value"] for s in seeds]
            wins, v = verdict(a, b, m["better"], m["bound"], m["name"] != "setup_s")
            regressed = regressed or v == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:<20} {m['name']:<14} {fmt(qa):>32} {fmt(qb):>32} {wins:>3}/{len(seeds):<3}  {v}")
    return regressed


def run(checkout, workload, seed, seconds):
    res = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=900)
    line = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
    if res.returncode != 0 or not line:
        sys.exit(f"compare.py: {workload} seed {seed} failed in {checkout} (exit {res.returncode})")
    return json.loads(line)["metrics"]


def drive(parent, change, pairs, first_seed, bench):
    a_by, b_by = {}, {}
    for wl in bench["workloads"]:
        w = wl["name"]
        for i in range(pairs):
            seed = first_seed + i
            order = [(parent, a_by), (change, b_by)]
            if i % 2:
                order.reverse()
            for checkout, into in order:
                into.setdefault(w, {})[seed] = run(checkout, w, seed, bench["run_seconds"])
            print(f"{w}: pair {i + 1}/{pairs} done", file=sys.stderr)
    return a_by, b_by


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--drive", action="store_true", help="arguments are checkouts; run the pairs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--commits", nargs=2, metavar=("PARENT", "CHANGE"), default=(None, None),
                    help="ledger mode: the commit stamp (or a prefix) to read from each ledger")
    args = ap.parse_args()
    bench = load_bench()
    if args.drive:
        a_by, b_by = drive(args.parent, args.change, args.pairs, args.first_seed, bench)
    else:
        a_rows = read_ledger(args.parent, bench["run_seconds"], args.commits[0])
        b_rows = read_ledger(args.change, bench["run_seconds"], args.commits[1])
        check_comparable(a_rows, b_rows)
        a_by, b_by = by_seed(a_rows), by_seed(b_rows)
    return 1 if report(a_by, b_by, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
