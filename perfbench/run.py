#!/usr/bin/env python3
"""Build mcoptd and the perfbench program from this checkout, then run one
benchmark workload (or all of them) and pass its result line through.

    python3 perfbench/run.py --workload svc-nola-tempering --seed 3 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a checkout. Everything it builds or writes stays under
.bench_build/ in the checkout (Go build cache included). The last line of
standard output is perfbench's JSON result; the exit code is non-zero when
the build fails or any output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
OUT = os.path.join(BUILD, "out")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),  # go telemetry state
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    return env


def source_digest():
    """A content hash of the checkout's Go sources."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def revision():
    """The git commit when the checkout is the root of a repository (marked
    dirty, with a source hash, when tracked files changed), else a content
    hash of the Go sources, so ledger rows of different code never share a
    stamp."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.split() if out.returncode == 0 else None
    try:
        head = git("rev-parse", "--show-toplevel", "HEAD")
        if head and len(head) == 2 and os.path.realpath(head[0]) == os.path.realpath(ROOT):
            if git("status", "--porcelain", "--untracked-files=no"):
                return f"{head[1]}-dirty-{source_digest()[:12]}"
            return head[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree-" + source_digest()[:16]


def build():
    """Build both binaries; Go's build cache under .bench_build makes an
    unchanged build a no-op. Returns False (after printing why) when the
    build fails."""
    os.makedirs(BIN, exist_ok=True)
    env = go_env()
    steps = [
        (["go", "build", "-o", os.path.join(BIN, "mcoptd"), "./cmd/mcoptd"], ROOT),
        (["go", "build", "-o", os.path.join(BIN, "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        try:
            res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.SubprocessError) as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return False
        if res.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed in {cwd}", file=sys.stderr)
            return False
    return True


def workloads():
    res = subprocess.run([os.path.join(BIN, "perfbench"), "-list"], stdout=subprocess.PIPE, text=True, timeout=30)
    return res.stdout.split()


def run_index(workload):
    path = os.path.join(OUT, "ledger.jsonl")
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        return sum(1 for line in f if f'"workload":"{workload}"' in line)


def run_one(workload, seed, seconds, trace, commit, extra):
    cmd = [os.path.join(BIN, "perfbench"),
           "-workload", workload, "-seed", str(seed), "-seconds", str(seconds), "-trace", str(trace),
           "-mcoptd", os.path.join(BIN, "mcoptd"),
           "-goldens", os.path.join(ROOT, "perfbench", "golden"),
           "-out", OUT, "-commit", commit, "-run-index", str(run_index(workload))] + extra
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=175)
    return res.returncode, res.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name (perfbench -list), or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="run length (default: BENCHMARK.json's run_seconds, %(default)s)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()
    if not build():
        return 1
    commit = revision()
    if args.workload != "all":
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace, commit, extra)
        sys.stdout.write(out)
        return code

    # Every workload in turn: one table of every end-to-end metric, plus the
    # workload-specific names (wall_s, done_p50_ms, ...) from the ledger.
    failed = False
    rows = []
    for w in workloads():
        code, out = run_one(w, args.seed, args.seconds, args.trace, commit, extra)
        lines = out.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{w}: no result line (exit {code})")
            failed = True
            continue
        failed = failed or code != 0 or not res["correct"]
        rows.append((w, res))
    named = {}
    with open(os.path.join(OUT, "ledger.jsonl")) as f:
        for line in f:
            row = json.loads(line)
            named[row["workload"]] = row["named"]
    for w, res in rows:
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in sorted(res["metrics"].items()):
            print(f"    {name:<40} {m['value']:>14.6g} {m['unit']}")
        for name, v in sorted(named.get(w, {}).items()):
            print(f"    {name:<40} {v:>14.6g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
