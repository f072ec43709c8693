#!/usr/bin/env python3
"""Build and run the RowHammer simulator benchmark.

One run of one workload (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 25 --trace 0

builds `rh-cli` and the benchmark binary from source (release profile of the
root manifest, into $CARGO_TARGET_DIR, default `.bench_build`), runs the
workload, checks every job's output and prints every metric with its unit.
The last line of standard output is the result object; the line before it
is the run's metadata.

Steadiness report (K sets of N runs of one workload, seeds SEED,
SEED+1, ...):

    python3 perfbench/run.py --workload sweep-ddr4 --seconds 25 --steadiness 10 --sets 2

prints, per set and end-to-end metric, the median, the quartiles, and the
spread (max-min) and the interquartile range as shares of the median. It
flags a metric whose spread exceeds its bound in BENCHMARK.json, and marks
one whose interquartile range exceeds a third of its bound. Then it compares
each later set's medians with the first set's and flags a median worse by
more than the bound.

Trace repeat check (two traced runs of one seed, the first one's report
printed; their counts must agree exactly):

    python3 perfbench/run.py --workload sweep-default --seed 1 --check-trace
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("engine.acts_per_device_call", "engine.bypass_frac", "tables.count")

# In-process sweep jobs run cold, as each `rh-cli sweep` invocation does: a
# fixed mmap threshold makes every slab and table allocation fresh pages, so
# first-touch lands inside each job instead of reusing the previous job's
# heap. The service the serve workload starts runs warm (the binary removes
# this variable from its environment).
COLD_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def release_profile_flags():
    """`--config` flags mirroring the root manifest's [profile.release]."""
    flags, in_section = [], False
    with open(os.path.join(ROOT, "Cargo.toml")) as manifest:
        for raw in manifest:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                in_section = line == "[profile.release]"
            elif in_section and "=" in line:
                key, value = (part.strip() for part in line.split("=", 1))
                flags += ["--config", f"profile.release.{key}={value}"]
    return flags


def build():
    """Build both binaries; return (benchmark, rh-cli, target dir) paths."""
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"{needed} not found in {ROOT}: run this from a checkout "
                             "of the simulator")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    quiet = ["--release", "--offline", "--quiet"]
    subprocess.run(["cargo", "build", *quiet, "--bin", "rh-cli"],
                   cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    subprocess.run(["cargo", "build", *quiet, "--manifest-path",
                    os.path.join(HERE, "Cargo.toml"), *release_profile_flags()],
                   cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    release = os.path.join(target, "release")
    return os.path.join(release, "rh-perfbench"), os.path.join(release, "rh-cli"), target


def run_once(binaries, workload, seed, seconds, trace, echo=True):
    """Run the benchmark binary once; return its result object."""
    bench, rh_cli, target = binaries
    spans = os.path.join(target, f"perfbench-spans-{workload}-{seed}.jsonl")
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--rh-cli", rh_cli]
    if trace:
        cmd += ["--spans-out", spans]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **COLD_ENV),
                          stdout=subprocess.PIPE, text=True, check=False)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_report(values, bounds):
    """Print each end-to-end metric's median, quartiles and spreads; return
    "unsteady" if a spread, (max-min)/median, exceeds its bound, else
    "marginal" if an interquartile range exceeds a third of its bound,
    else "steady"."""
    print(f"{'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'range/med':>9} {'iqr/med':>8} {'bound':>6}  verdict")
    worst = "steady"
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        rng = (max(vals) - min(vals)) / med if med else float("inf")
        iqr = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        if rng > bound:
            verdict, worst = "SPREAD EXCEEDS BOUND", "unsteady"
        elif iqr > bound / 3:
            verdict = "iqr above a third of bound"
            worst = "marginal" if worst == "steady" else worst
        else:
            verdict = "ok"
        print(f"{name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{rng:>9.4f} {iqr:>8.4f} {bound:>6}  {verdict}")
    return worst


def steadiness(binaries, args):
    """Run one workload in sets of N runs, report each end-to-end metric's
    spread per set, and compare every later set's medians with the first's:
    a median worse than the first by more than the metric's bound fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    sets, failed, worst = [], 0, "steady"
    for k in range(args.sets):
        values = {}
        for i in range(args.steadiness):
            seed = args.seed + k * args.steadiness + i
            result = run_once(binaries, args.workload, seed, args.seconds, 0, echo=False)
            failed += result["failed"] + (0 if result["correct"] else 1)
            line = []
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                line.append(f"{name}={metric['value']:.6g}")
            print(f"seed {seed}: " + " ".join(line), flush=True)
        print(f"\n{args.workload} set {k + 1}: {args.steadiness} runs of {args.seconds}s, "
              f"{failed} failed jobs or incorrect runs so far")
        verdict = spread_report(values, bounds)
        if verdict == "unsteady" or (verdict == "marginal" and worst == "steady"):
            worst = verdict
        sets.append(values)
    for k, values in enumerate(sets[1:], start=2):
        print(f"\nset {k} against set 1: share by which the median is worse")
        for name, vals in values.items():
            first, now = statistics.median(sets[0][name]), statistics.median(vals)
            higher = bounds[name]["better"] == "higher"
            worse = ((first - now) if higher else (now - first)) / first if first else 0.0
            bound = bounds[name]["bound"]
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            if worse > bound:
                worst = "unsteady"
            print(f"{name:<12} {first:>12.6g} {now:>12.6g} {worse:>8.4f} {bound:>6}  {verdict}")
    print(json.dumps({"workload": args.workload, "runs": args.steadiness,
                      "seconds": args.seconds, "verdict": worst, "sets": sets}))
    return 0 if worst != "unsteady" and failed == 0 else 1


def check_trace(binaries, args):
    """Two traced runs of one seed must agree exactly on every count."""
    first = run_once(binaries, args.workload, args.seed, args.seconds, 1)
    second = run_once(binaries, args.workload, args.seed, args.seconds, 1, echo=False)
    names = [n for n in first["metrics"]
             if n in EXACT_COUNTS or n.endswith(".refresh_per_kact")]
    differ = [n for n in names
              if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    for name in names:
        print(f"{name:<40} {first['metrics'][name]['value']!r:>22} "
              f"{second['metrics'][name]['value']!r:>22}")
    ok = not differ and first["correct"] and second["correct"]
    print("counts repeat exactly" if ok else f"MISMATCH: {differ or 'incorrect run'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run N times and report each metric's spread")
    parser.add_argument("--sets", type=int, default=1, metavar="K",
                        help="with --steadiness: run K sets and compare their medians")
    parser.add_argument("--check-trace", action="store_true",
                        help="run the traced run twice and compare its counts")
    args = parser.parse_args()
    binaries = build()
    if args.steadiness:
        return steadiness(binaries, args)
    if args.check_trace:
        return check_trace(binaries, args)
    run_once(binaries, args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
