#!/usr/bin/env python3
"""A/B harness: the working tree against a git revision, in alternating pairs.

Usage:
  ab.py REV [--pairs N (10)] [--suite [EXP ...]] [--workload W] [--seed S (1)]
            [--seconds T (10)]

Run from the root of the source tree.  Both sides run from sibling
copies in one temporary directory (removed on exit, also on error or
Ctrl-C), never from the checkout, so that neither side gains or loses by
where it sits: REV is checked out there as a `git worktree`, and the
working tree's tracked and untracked files (uncommitted changes
included, ignored files left out) are copied beside it as the change
side.  When REV is the working tree's own commit and the tree is clean,
both sides run the same code and the run is printed as an A/A floor:
its ratios are the harness's own spread.

--suite [EXP ...] runs `bench/main.exe -perf-out` over the named
experiments, which both sides must know (each side's own default suite
when none are named), at -j 1, once per side per pair.  Each pair reports whether stdout is
byte-identical and every experiment whose events or minor words differ;
those facts are gated exactly by the goldens and the counts files in
test/golden, where an intended change is promoted, so here they are
reported only.  Beside each experiment's wall time it prints each
side's median minor and major collections, which tell GC work apart
from the experiment's own.  An experiment on one side only, or a base
perf file without minor words, is reported and not compared.  The suite
gates wall time: it fails when an experiment whose base median is at
least MIN_WALL_S has a change median more than MAX_SLOWDOWN times it.

--workload W (lock-contend, io-load, wake-scale) runs each side's own
perfbench, built the way perfbench/run.py builds it (into the side's
.bench_build, dune cache off), for --seconds per run at --seed.  Each
pair checks that the simulated fingerprints are equal.

Without --suite or --workload, the suite runs.  Pairs alternate which
side goes first.  For every metric it prints the median and quartiles of
each side, the change/base ratio of the medians and how many pairs the
change won (higher or lower is better as BENCHMARK.json declares; the
suite's wall times are lower-is-better).

Exit status: 0 when no experiment was slower than the bound and
fingerprints were equal in every pair, 1 otherwise, 2 when a side could
not be built or run.
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

WORKLOADS = ["lock-contend", "io-load", "wake-scale"]
# Metrics that identify the simulated work rather than measure its cost.
IDENTITY = ("sim.fingerprint", "engine.events")
# Both sides are timed on the same runner, so wall times need no
# normalisation.  Runs shorter than MIN_WALL_S time set-up and host noise;
# the counts files gate their events and words instead.
MAX_SLOWDOWN = 2.0
MIN_WALL_S = 0.05


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


def sibling_trees(rev):
    """(base, change): REV's worktree and a copy of the working tree, side
    by side in one temporary directory."""
    tmp = tempfile.mkdtemp(prefix="ab-")
    base, change = os.path.join(tmp, "base"), os.path.join(tmp, "change")

    def remove():
        subprocess.run(["git", "worktree", "remove", "--force", base],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        subprocess.run(["git", "worktree", "prune"], stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)

    atexit.register(remove)
    checked(["git", "worktree", "add", "--detach", base, rev], ".")
    listed = checked(["git", "ls-files", "-z", "--cached", "--others",
                      "--exclude-standard"], ".").stdout.decode()
    for path in filter(None, listed.split("\0")):
        if not os.path.lexists(path):  # deleted, not yet staged
            continue
        dest = os.path.join(change, path)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copy2(path, dest, follow_symlinks=False)
    return base, change


def same_code(rev):
    """Whether REV is the working tree's commit and the tree is clean."""
    def commit(r):
        return checked(["git", "rev-parse", "--verify", r + "^{commit}"], ".").stdout.strip()
    dirty = checked(["git", "status", "--porcelain"], ".").stdout.strip()
    return commit(rev) == commit("HEAD") and not dirty


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


def summarize(samples, better, notes=None):
    """samples: {metric: [(base, change), ...]}; better: metric -> 'higher', 'lower' or
    None (no direction known: no win count); notes: {metric: text printed after
    its row}."""
    notes = notes or {}
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
        print("%-24s %32s %32s %7.3f %6s%s" % (metric, fmt(bq), fmt(cq), ratio, won,
                                               notes.get(metric, "")))


def collections(pairs):
    """'  gc minor B/C major B/C': each side's median collections over the
    pairs ('-' where a perf file has none)."""
    def med(side, key):
        xs = [rec[side].get(key) for rec in pairs]
        return "-" if None in xs else "%g" % statistics.median(xs)
    return "  gc minor %s/%s major %s/%s" % (
        med(0, "minor_collections"), med(1, "minor_collections"),
        med(0, "major_collections"), med(1, "major_collections"))


def compare(brec, crec, key):
    """How key compares across the experiments both perf files hold."""
    if any(key not in r for r in brec.values()):
        return key + " not in base's perf file"
    moved = ["%s %d -> %d (%+d)" % (e, brec[e][key], crec[e][key],
                                    crec[e][key] - brec[e][key])
             for e in brec if e in crec and crec[e][key] != brec[e][key]]
    return key + (" equal" if not moved else " differ: " + ", ".join(moved))


def suite_pairs(base, change, exps, pairs, scratch):
    totals, walls, recs = [], {}, {}
    for i in range(pairs):
        order = (base, change) if i % 2 == 0 else (change, base)
        got = {}
        for side in order:
            got[side.name] = side.suite(exps, os.path.join(scratch, side.name + ".json"))
        (bout, brec, bwall), (cout, crec, cwall) = got["base"], got["change"]
        notes = ["stdout " + ("identical" if bout == cout else "differs")]
        notes += ["%s on the %s side only" % (e, "base" if e in brec else "change")
                  for e in sorted(set(brec) ^ set(crec))]
        notes += [compare(brec, crec, "events"), compare(brec, crec, "minor_words")]
        print("pair %d (%s first): %s" % (i + 1, order[0].name, "; ".join(notes)))
        totals.append((bwall, cwall))
        for e in brec:
            if e in crec:
                walls.setdefault(e, []).append((brec[e]["wall_s"], crec[e]["wall_s"]))
                recs.setdefault(e, []).append((brec[e], crec[e]))
    samples = {"suite.wall_s": totals}
    samples.update((e + ".wall_s", ws) for e, ws in walls.items())
    summarize(samples, lambda _m: "lower",
              {e + ".wall_s": collections(rs) for e, rs in recs.items()})
    fast = True
    for e, ws in walls.items():
        b, c = (statistics.median(side) for side in zip(*ws))
        if b >= MIN_WALL_S and c > MAX_SLOWDOWN * b:
            print("ab: %s median wall time %.3g s is %.2fx the base's %.3g s (bound %gx)"
                  % (e, c, c / b, b, MAX_SLOWDOWN))
            fast = False
    return fast


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
    floor = same_code(args.rev)
    base_root, change_root = sibling_trees(args.rev)
    base, change = Side("base", base_root), Side("change", change_root)
    if floor:
        print("== A/A floor: %s is the working tree's commit and the tree is clean, so both"
              " sides run the same code; the ratios below are the harness's own spread"
              % args.rev)
    ok = True
    if run_suite:
        exps = args.suite or []
        for side in (base, change):
            side.build_suite()
        print("== suite at -j 1: %s (%s vs a copy of the working tree)"
              % (" ".join(exps) or "default", args.rev))
        with tempfile.TemporaryDirectory(prefix="ab-perf-") as scratch:
            ok = suite_pairs(base, change, exps, args.pairs, scratch) and ok
    if args.workload:
        for side in (base, change):
            side.build_perfbench()
        print("== perfbench %s, seed %d, %g s per run (%s vs a copy of the working tree)"
              % (args.workload, args.seed, args.seconds, args.rev))
        ok = workload_pairs(base, change, args.workload, args.seed, args.seconds,
                            args.pairs) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
