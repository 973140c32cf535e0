#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload lock-contend --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe with dune into .bench_build,
runs one workload in one process, passes its report through, and prints
as its last line one JSON object with the keys correct, attempted, failed
and metrics.  The metrics are those BENCHMARK.json declares: end_to_end
with --trace 0, per_layer with --trace 1.  Every run's simulated
fingerprint is also kept in .bench_build, keyed by the benchmark binary,
workload and seed; a later run of the same binary and seed that disagrees
fails.

--self-test checks the benchmark itself: perfbench/metrics.json maps every
declared per-layer metric, deterministic counts repeat in two processes at
one seed and change at another, and an io-load run under a NIC DMA-drop
fault plan reports failed ops and exits non-zero.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
FINGERPRINTS = os.path.join(BUILD_DIR, "perfbench-fingerprints.json")
WORKLOADS = ["lock-contend", "io-load", "wake-scale"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("BENCHMARK.json", "dune-project", "lib"):
        if not os.path.exists(need):
            fail("%s not found; run from the root of the source tree" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def run_exe(args):
    """Run the benchmark binary; return (exit code, report lines, result)."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out: " + " ".join(args))
    lines = proc.stdout.decode(errors="replace").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line from: " + " ".join(args))
    return proc.returncode, lines[:-1], result


def exe_digest():
    with open(EXE, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_fingerprint(key, value):
    """Record a run's fingerprint; return False if it contradicts an earlier run."""
    try:
        with open(FINGERPRINTS) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        return seen[key] == value
    seen[key] = value
    tmp = FINGERPRINTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, FINGERPRINTS)
    return True


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def bench(args):
    build()
    exe_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, report, result = run_exe(exe_args)
    for line in report:
        print(line)
    metrics = result["metrics"]
    key = "%s:%s:%d" % (exe_digest(), args.workload, args.seed)
    if not check_fingerprint(key, metrics["sim.fingerprint"]["value"]):
        print("FAILED sim.fingerprint differs from an earlier run of this binary and seed")
        result["correct"] = False
        result["failed"] = result["attempted"]
    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("benchmark did not report " + ", ".join(missing))
    result["metrics"] = {n: metrics[n] for n in names}
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


def self_test(args):
    build()
    ok = True

    def check(cond, what):
        nonlocal ok
        print("%s  %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    with open("BENCHMARK.json") as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    with open(os.path.join("perfbench", "metrics.json")) as f:
        mapped = set(json.load(f)["per_layer"])
    check(declared == mapped, "perfbench/metrics.json maps every per-layer metric")
    secs = str(args.seconds)
    for w in WORKLOADS:
        runs = []
        for seed in (1, 1, 2):
            code, _, result = run_exe(["--workload", w, "--seed", str(seed), "--seconds", secs,
                                       "--trace", "0"])
            check(code == 0 and result["correct"], "%s seed %d runs correct" % (w, seed))
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        for name in ("engine.events", "alloc_words_per_op", "peak_heap_mb", "sim.fingerprint"):
            check(runs[0][name] == runs[1][name],
                  "%s %s repeats at one seed (%r)" % (w, name, runs[0][name]))
        for name in ("engine.events", "alloc_words_per_op", "sim.fingerprint"):
            check(runs[0][name] != runs[2][name],
                  "%s %s changes with the seed (%r -> %r)" % (w, name, runs[0][name], runs[2][name]))
    code, _, result = run_exe(["--workload", "io-load", "--seed", "1", "--seconds", secs,
                               "--trace", "0", "--fault", "seed=7,nic.dma_drop=0.05"])
    check(code != 0 and not result["correct"] and result["failed"] > 0,
          "io-load under nic.dma_drop=0.05: error_rate %d/%d, exit %d"
          % (result["failed"], result["attempted"], code))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
