#!/usr/bin/env python3
"""End-to-end benchmark of the DART reproduction.

Run from the repository root:

    python3 e2ebench/run.py --workload ns_dy_d4 --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test
    python3 e2ebench/run.py --pin 1-30

A run builds the benchmark package (and with it the engine crates) from
source, runs one workload to its verdict repeatedly for --seconds, pinned
to one core and timed in nominal seconds (see src/calib.rs), checks
every verdict against ground truth, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics. See README.md.

--pin measures the deterministic work counts of every workload at the
given seeds and writes them to pinned_work.json; a run prints any
difference from them beside its timings.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
PINNED = os.path.join(HERE, "pinned_work.json")
WORKLOADS = ["ns_dy_d4", "ns_dy_d4_gen_fixed", "osip_sweep", "ns_random_d2"]
# DartConfig::default() reads these; any of them would make a run measure
# a different program than the one the benchmark defines.
ENGINE_ENV = ["DART_SOLVE_THREADS", "DART_EXEC_TIER", "DART_PORTFOLIO"]


def build():
    """Builds the benchmark in release mode; returns the binary's path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("e2ebench: build failed")
    return os.path.join(target, "release", "dart-e2ebench")


def pin_to_one_core():
    """Keeps the benchmark on one core, where its host-speed sampler
    thread takes turns with the timed work (see src/calib.rs)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_pinned(argv):
    """Runs the binary on one core; returns (exit code, stdout lines)."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, preexec_fn=pin_to_one_core)
    return proc.returncode, proc.stdout.splitlines()


def work_changes(workload, seed, lines):
    """Compares the run's work counts with the pinned ones."""
    work = next((json.loads(l[5:]) for l in lines if l.startswith("work {")), None)
    try:
        with open(PINNED) as f:
            pinned = json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        pinned = None
    if work is None or pinned is None:
        return f"work vs pinned: no pinned counts for {workload} at seed {seed}"
    changed = [f"{k} {pinned[k]} -> {work.get(k)}" for k in pinned if pinned[k] != work.get(k)]
    if not changed:
        return "work vs pinned: unchanged"
    return "WORK CHANGED vs pinned (the search did different work): " + ", ".join(changed)


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--pin", metavar="SEEDS", help="seed range to pin, e.g. 1-10")
    args = p.parse_args()

    stray = [v for v in ENGINE_ENV if v in os.environ]
    if stray:
        sys.exit(f"e2ebench: refusing to run with {', '.join(stray)} set: "
                 "the benchmark measures the engine's own defaults")

    exe = build()
    if args.self_test:
        sys.exit(subprocess.run([exe, "selftest"], preexec_fn=pin_to_one_core).returncode)
    if args.pin:
        pinned = {}
        for workload in WORKLOADS:
            for seed in parse_seeds(args.pin):
                out = subprocess.run([exe, "work", "--workload", workload, "--seed", str(seed)],
                                     stdout=subprocess.PIPE, text=True, check=True).stdout
                pinned.setdefault(workload, {})[str(seed)] = json.loads(out)
                print(workload, seed, out.strip())
        with open(PINNED, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")
        return
    if not args.workload:
        p.error("--workload is required")

    argv = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(os.path.dirname(exe), f"spans-{args.workload}-{args.seed}.tsv")
        argv += ["--spans", spans]
    code, lines = run_pinned(argv)
    if code != 0 or not lines:
        sys.exit(f"e2ebench: the benchmark exited with code {code}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(work_changes(args.workload, args.seed, lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
