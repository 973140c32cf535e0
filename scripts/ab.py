#!/usr/bin/env python3
"""A/B harness: the working tree against a git revision, in alternating pairs.

Usage:
  ab.py REV [--pairs N (10)] [--suite [EXP ...]] [--workload W] [--seed S (1)]
            [--seconds T (10)]

Run from the root of the source tree.  REV is checked out into a
temporary `git worktree` (removed on exit, also on error or Ctrl-C) and
built there; the working tree, uncommitted changes included, is the
change side.

--suite [EXP ...] runs `bench/main.exe -perf-out` over the named
experiments (all of the default suite when none are named) at -j 1, once
per side per pair.  Each pair checks that stdout is byte-identical and
prints every experiment whose event count differs.

--workload W (lock-contend, io-load, wake-scale) runs each side's own
perfbench, built the way perfbench/run.py builds it (into the side's
.bench_build, dune cache off), for --seconds per run at --seed.  Each
pair checks that the simulated fingerprints are equal.

Without --suite or --workload, the suite runs.  Pairs alternate which
side goes first.  For every metric it prints the median and quartiles of
each side, the change/base ratio of the medians and how many pairs the
change won (higher or lower is better as BENCHMARK.json declares; the
suite's wall times are lower-is-better).

Exit status: 0 when stdout, event counts and fingerprints were equal in
every pair, 1 when any differed, 2 when a side could not be built or run.
"""

import argparse
import atexit
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

SUITE = ("t1 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 elock r1").split()
WORKLOADS = ["lock-contend", "io-load", "wake-scale"]
# Metrics that identify the simulated work rather than measure its cost.
IDENTITY = ("sim.fingerprint", "engine.events")


def fail(msg):
    print("ab: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, cwd, env=None, timeout=1800):
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def checked(cmd, cwd, env=None):
    proc = run(cmd, cwd, env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        fail("failed in %s: %s" % (cwd, " ".join(cmd)))
    return proc


def add_worktree(rev):
    tmp = tempfile.mkdtemp(prefix="ab-")
    tree = os.path.join(tmp, "base")

    def remove():
        subprocess.run(["git", "worktree", "remove", "--force", tree],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        subprocess.run(["git", "worktree", "prune"], stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)

    atexit.register(remove)
    checked(["git", "worktree", "add", "--detach", tree, rev], ".")
    return tree


class Side:
    def __init__(self, name, root):
        self.name, self.root = name, os.path.abspath(root)

    def build_suite(self):
        checked(["dune", "build", "--root", ".", "./bench/main.exe"], self.root)

    def suite(self, exps, out):
        """(stdout bytes, {id: perf record}, total wall) of one -j 1 run."""
        exe = os.path.join(self.root, "_build", "default", "bench", "main.exe")
        proc = checked([exe, "-perf-out", out] + exps, self.root)
        with open(out) as f:
            perf = json.load(f)
        recs = {r["id"]: r for r in perf["experiments"]}
        return proc.stdout, recs, perf["total_wall_s"]

    def build_perfbench(self):
        env = dict(os.environ, DUNE_CACHE="disabled")
        checked(["dune", "build", "--root", ".", "--build-dir", ".bench_build",
                 "./perfbench/perfbench.exe"], self.root, env)

    def perfbench(self, workload, seed, seconds):
        exe = os.path.join(self.root, ".bench_build", "default", "perfbench", "perfbench.exe")
        proc = run([exe, "--workload", workload, "--seed", str(seed), "--seconds",
                    str(seconds), "--trace", "0"], self.root)
        try:
            result = json.loads(proc.stdout.decode().splitlines()[-1])
        except (IndexError, ValueError):
            fail("no result line from %s's perfbench" % self.name)
        if proc.returncode != 0 or not result["correct"]:
            fail("%s's perfbench run failed (%d of %d ops)"
                 % (self.name, result["failed"], result["attempted"]))
        return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(samples, better):
    """samples: {metric: [(base, change), ...]}; better: metric -> 'higher', 'lower' or
    None (no direction known: no win count)."""
    print("%-24s %32s %32s %7s %6s" % ("metric", "base median [q1, q3]",
                                       "change median [q1, q3]", "ratio", "wins"))
    for metric, pairs in samples.items():
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        bq, cq = quartiles(base), quartiles(change)
        way = better(metric)
        wins = sum(1 for b, c in pairs if (c > b if way == "higher" else c < b))
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
        won = "%d/%d" % (wins, len(pairs)) if way else "-"
        print("%-24s %32s %32s %7.3f %6s" % (metric, fmt(bq), fmt(cq), ratio, won))


def suite_pairs(base, change, exps, pairs, scratch):
    same = True
    samples = {}
    for i in range(pairs):
        order = (base, change) if i % 2 == 0 else (change, base)
        got = {}
        for side in order:
            got[side.name] = side.suite(exps, os.path.join(scratch, side.name + ".json"))
        (bout, brec, bwall), (cout, crec, cwall) = got["base"], got["change"]
        line = "pair %d (%s first): stdout %s" % (
            i + 1, order[0].name, "identical" if bout == cout else "DIFFERS")
        same = same and bout == cout
        moved = ["%s %d -> %d (%+d)" % (e, brec[e]["events"], crec[e]["events"],
                                        crec[e]["events"] - brec[e]["events"])
                 for e in brec if crec[e]["events"] != brec[e]["events"]]
        print(line + "; events " + ("equal" if not moved else "differ: " + ", ".join(moved)))
        same = same and not moved
        samples.setdefault("suite.wall_s", []).append((bwall, cwall))
        for e in brec:
            samples.setdefault(e + ".wall_s", []).append((brec[e]["wall_s"], crec[e]["wall_s"]))
    summarize(samples, lambda _m: "lower")
    return same


def workload_pairs(base, change, workload, seed, seconds, pairs):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    same = True
    samples = {}
    for i in range(pairs):
        order = (base, change) if i % 2 == 0 else (change, base)
        got = {side.name: side.perfbench(workload, seed, seconds) for side in order}
        b, c = got["base"], got["change"]
        fp = b["sim.fingerprint"] == c["sim.fingerprint"]
        same = same and fp
        print("pair %d (%s first): fingerprint %s; engine.events %s" % (
            i + 1, order[0].name, "equal (%.0f)" % b["sim.fingerprint"] if fp
            else "DIFFERS (%.0f -> %.0f)" % (b["sim.fingerprint"], c["sim.fingerprint"]),
            "equal (%d)" % b["engine.events"] if b["engine.events"] == c["engine.events"]
            else "%d -> %d" % (b["engine.events"], c["engine.events"])))
        for m in b:
            if m not in IDENTITY and m in c:
                samples.setdefault(m, []).append((b[m], c[m]))
    # raw.M is M before host-speed normalisation; other extras show no wins.
    summarize(samples, lambda m: direction.get(m[len("raw."):] if m.startswith("raw.") else m))
    return same


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("rev")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--suite", nargs="*", metavar="EXP")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not os.path.exists("BENCHMARK.json"):
        fail("run from the root of the source tree")
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: sys.exit(2))
    run_suite = args.suite is not None or args.workload is None
    base = Side("base", add_worktree(args.rev))
    change = Side("change", ".")
    same = True
    if run_suite:
        exps = args.suite or SUITE
        for side in (base, change):
            side.build_suite()
        print("== suite at -j 1: %s (%s vs working tree)" % (" ".join(exps), args.rev))
        with tempfile.TemporaryDirectory(prefix="ab-perf-") as scratch:
            same = suite_pairs(base, change, exps, args.pairs, scratch) and same
    if args.workload:
        for side in (base, change):
            side.build_perfbench()
        print("== perfbench %s, seed %d, %g s per run (%s vs working tree)"
              % (args.workload, args.seed, args.seconds, args.rev))
        same = workload_pairs(base, change, args.workload, args.seed, args.seconds,
                              args.pairs) and same
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
