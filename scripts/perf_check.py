#!/usr/bin/env python3
"""Perf gates over bench/main.exe -perf-out files (BENCH_pr*.json).

Usage:
  perf_check.py smoke BASELINE.json CURRENT.json [MAX_SLOWDOWN]
  perf_check.py trajectory [REPO_DIR]

smoke: fails (exit 1) if any experiment in CURRENT regressed in events/s
by more than MAX_SLOWDOWN (default 5.0) against BASELINE.  The bound is
loose on purpose: CI runners are noisy and this gate exists to catch
accidental quadratic blowups in the engine hot paths, not scheduler
jitter.  Every experiment in CURRENT must exist in BASELINE: an unknown
id is a hard error, not a skip, otherwise a typo in the CI experiment
list (or a new experiment never added to the baseline) runs forever
unchecked.  Experiments in BASELINE but absent from CURRENT are fine;
CI smokes a subset of the full committed suite.

trajectory: loads every BENCH_pr<N>.json in REPO_DIR (default: cwd) in
PR order and checks, per experiment, that the LATEST committed file
never regresses more than MAX_REGRESSION (25%) below the best events/s
any earlier PR recorded.  The committed numbers are best-of-N on the
author's machine, so unlike the smoke gate this bound can be tight.
Experiments the latest file covers are checked against every
historical file that also has them AND ran the same workload.  The
simulator is deterministic, so the recorded event count fingerprints
the workload exactly: an engine change never moves it, growing an
experiment always does.  Historical entries with a different event
count are displayed (marked x) but excluded from the best; entries
missing an event count (pre-pr6 files) are compared unconditionally.
Also renders the thread-scaling microbench series (scaling:* kernels
from every committed MICRO_pr<N>.json) as a display-only table, since
ns/run is wall clock on the author's machine of the day.  Writes the
tables to $GITHUB_STEP_SUMMARY when set, and always prints them.

Both modes show but never gate experiments whose wall time is under
MIN_WALL_S: events/s on a sub-millisecond run is clock-granularity and
scheduler jitter, not engine throughput (e10's committed history spans
38x with a byte-identical workload).
"""

import glob
import json
import os
import re
import sys

MIN_WALL_S = 0.001
MAX_REGRESSION = 0.25  # latest must be >= 75% of the best historical


def events_per_s(rec):
    if rec.get("events_per_s"):
        return float(rec["events_per_s"])
    wall = float(rec.get("wall_s", 0.0))
    return float(rec.get("events", 0)) / wall if wall > 0 else 0.0


def wall(rec):
    return float(rec.get("wall_s", 0.0))


def experiments(path):
    with open(path) as f:
        return {rec["id"]: rec for rec in json.load(f).get("experiments", [])}


def numbered(repo, prefix):
    """(N, path) for every <prefix><N>.json in repo, in N order."""
    files = []
    for path in glob.glob(os.path.join(repo, prefix + "*.json")):
        m = re.search(re.escape(prefix) + r"(\d+)\.json$", path)
        if m:
            files.append((int(m.group(1)), path))
    return sorted(files)


def fmt(eps):
    return f"{eps:,.0f}" if eps else "—"


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def smoke(args):
    if len(args) < 2:
        sys.exit(__doc__.strip())
    baseline, current = experiments(args[0]), experiments(args[1])
    max_slowdown = float(args[2]) if len(args) > 2 else 5.0
    failed = False
    for exp_id, cur in sorted(current.items()):
        base = baseline.get(exp_id)
        if base is None:
            print(f"{exp_id}: FAIL — not in baseline {args[0]}; "
                  "add it to the committed perf file or fix the experiment list")
            failed = True
            continue
        base_eps, cur_eps = events_per_s(base), events_per_s(cur)
        if base_eps <= 0.0:
            print(f"{exp_id}: FAIL — baseline has no usable events/s")
            failed = True
            continue
        if cur_eps <= 0.0:
            print(f"{exp_id}: FAIL — current run has no usable events/s")
            failed = True
            continue
        slowdown = base_eps / cur_eps
        status = "ok"
        if wall(base) < MIN_WALL_S or wall(cur) < MIN_WALL_S:
            status = "noise (run < 1ms, not gated)"
        elif slowdown > max_slowdown:
            status = f"FAIL (>{max_slowdown:g}x regression)"
            failed = True
        print(
            f"{exp_id}: baseline {base_eps:,.0f} ev/s, current {cur_eps:,.0f} ev/s, "
            f"slowdown {slowdown:.2f}x — {status}"
        )
    return failed


def micro_table(repo):
    series = []
    for pr, path in numbered(repo, "MICRO_pr"):
        with open(path) as f:
            doc = json.load(f)
        recs = {r["name"]: float(r["ns_per_run"])
                for r in doc.get("results", []) if r["name"].startswith("scaling:")}
        if recs:
            series.append((pr, recs))
    if not series:
        return None
    names = sorted({name for _, recs in series for name in recs},
                   key=lambda n: (n.rsplit("n=", 1)[0], int(n.rsplit("n=", 1)[-1])))
    return table(["kernel (ns/run)"] + [f"pr{pr}" for pr, _ in series],
                 [[name] + [fmt(recs.get(name, 0.0)) for _, recs in series]
                  for name in names])


def trajectory(args):
    repo = args[0] if args else "."
    history = [(pr, experiments(path)) for pr, path in numbered(repo, "BENCH_pr")]
    if len(history) < 2:
        sys.exit("need at least two BENCH_pr*.json files to check a trajectory")
    latest_pr, latest = history[-1]

    def comparable(exp_id, recs):
        # Same recorded event count = same workload (the sim is
        # deterministic); either side missing a count = legacy file,
        # compared unconditionally.
        a, b = latest[exp_id].get("events"), recs.get(exp_id, {}).get("events")
        return not a or not b or int(a) == int(b)

    def eps(recs, exp_id):
        return events_per_s(recs[exp_id]) if exp_id in recs else 0.0

    rows = []
    failed = False
    workload_changed = False
    for exp_id in sorted(latest, key=lambda e: (len(e), e)):
        cur = eps(latest, exp_id)
        best_hist = max((eps(recs, exp_id) for _, recs in history[:-1]
                         if comparable(exp_id, recs)), default=0.0)
        any_hist = max((eps(recs, exp_id) for _, recs in history[:-1]), default=0.0)
        best = max(best_hist, cur)
        if wall(latest[exp_id]) < MIN_WALL_S:
            status = "noise (run < 1ms, not gated)"
        elif best_hist > 0 and cur < (1.0 - MAX_REGRESSION) * best_hist:
            status = f"FAIL (<{100 * (1 - MAX_REGRESSION):.0f}% of best)"
            failed = True
        elif best_hist == 0.0 and any_hist > 0.0:
            status = "workload changed (new baseline)"
        else:
            status = "ok"
        cells = []
        for pr, recs in history:
            cell = fmt(eps(recs, exp_id))
            if eps(recs, exp_id) and pr != latest_pr and not comparable(exp_id, recs):
                cell += " ×"
                workload_changed = True
            cells.append(cell)
        ratio = f"{cur / best:.2f}" if best > 0 else "—"
        rows.append([exp_id] + cells + [fmt(best), ratio, status])

    header = (["experiment"] + [f"pr{pr}" for pr, _ in history]
              + ["best", "latest/best", "status"])
    ttable = table(header, rows)
    print(f"Perf trajectory (events/s), latest = pr{latest_pr}:")
    print(ttable)
    if workload_changed:
        print("(× = different event count than the latest file: the workload "
              "changed, so the entry is shown but not compared)")
    mtable = micro_table(repo)
    if mtable:
        print("\nThread-scaling microbench series (display only, not gated):")
        print(mtable)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(f"## Perf trajectory (events/s, latest = pr{latest_pr})\n\n")
            f.write(ttable + "\n")
            if mtable:
                f.write("\n## Thread-scaling microbench series (not gated)\n\n")
                f.write(mtable + "\n")
    if failed:
        print(f"FAIL: pr{latest_pr} regressed more than "
              f"{100 * MAX_REGRESSION:.0f}% below the best historical events/s")
    return failed


def main():
    modes = {"smoke": smoke, "trajectory": trajectory}
    if len(sys.argv) < 2 or sys.argv[1] not in modes:
        sys.exit(__doc__.strip())
    sys.exit(1 if modes[sys.argv[1]](sys.argv[2:]) else 0)


if __name__ == "__main__":
    main()
