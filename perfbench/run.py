#!/usr/bin/env python3
"""Builds and runs the gopim benchmark. Run from the repository root.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload run-cold --seed 1 --seconds 45 --trace 0

builds pimsim and perfbench's gopimbench into .bench_build/ (with the Go
build cache there too), runs the workload and passes its stdout through:
the last line is the JSON result, the line before it the host fingerprint
and raw samples.

Every workload, summarized:

    python3 perfbench/run.py --all --seed 1 [--runs R] [--seconds S] [--trace 0|1]

runs each workload R times (seeds N..N+R-1) and prints, per metric, its
unit, median, quartiles and sample count. It exits 1 if any operation
failed or any output differed from its oracle.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["run-cold", "explore-store", "serve-mix"]
# serve-mix is not in BENCHMARK.json: its job_p50_s spread across seeds is
# wider than the largest bound BENCHMARK.json may set (see layers.json).
UNGATED = {"serve-mix"}
BUILD = ".bench_build"

# Summary names for metrics whose meaning depends on the workload.
ALIASES = {("explore-store", "throughput_per_s"): "configs_per_s"}


def build():
    """Builds both binaries; returns their paths or exits 1."""
    build_dir = os.path.abspath(BUILD)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
    )
    bench = os.path.join(build_dir, "bin", "gopimbench")
    pimsim = os.path.join(build_dir, "bin", "pimsim")
    for cmd, cwd in (
        (["go", "build", "-o", bench, "."], "perfbench"),
        (["go", "build", "-o", pimsim, "./cmd/pimsim"], "."),
    ):
        try:
            rc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode
        except OSError as err:
            print(f"run.py: {err}", file=sys.stderr)
            rc = 1
        if rc != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(1)
    return bench, pimsim


def run_one(bench, pimsim, workload, seed, seconds, trace, capture):
    cmd = [bench, "--pimsim", pimsim, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd).returncode, None
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        return p.returncode or 1, None
    return p.returncode, (json.loads(lines[-2]), json.loads(lines[-1]))


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(args, bench, pimsim):
    ok = True
    for workload in WORKLOADS:
        values, samples, fp = {}, {}, None
        attempted = failed = 0
        for r in range(args.runs):
            rc, out = run_one(bench, pimsim, workload, args.seed + r, args.seconds, args.trace, True)
            if out is None:
                print(f"{workload}: run with seed {args.seed + r} printed no result (exit {rc})")
                ok = False
                continue
            side, res = out
            fp = side["fingerprint"]
            ok = ok and rc == 0 and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            for name, xs in side.get("samples", {}).items():
                samples.setdefault(name, []).extend(xs)
            for d in side.get("dropped") or []:
                print(f"{workload}: dropped: {d}")
        gate = " (not gated)" if workload in UNGATED else ""
        print(f"== {workload}{gate} (seeds {args.seed}..{args.seed + args.runs - 1}, "
              f"failed_frac {failed / max(attempted, 1):.4f} of {attempted} attempts)")
        if fp:
            print("   host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
        print(f"   {'metric':36} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
        # Samples with no metric of their own (job latencies, say) get a row.
        for name, xs in samples.items():
            if name not in values:
                values[name] = ("s" if name.endswith("_s") else "", xs)
        for name in sorted(values):
            unit, xs = values[name]
            # One run: the samples inside it; several: one value per run.
            if args.runs == 1 and len(samples.get(name, [])) > 1:
                xs = samples[name]
            q1, q3 = spread(xs)
            label = ALIASES.get((workload, name), name)
            print(f"   {label:36} {unit:6} {statistics.median(xs):12.6g} {q1:12.6g} {q3:12.6g} {len(xs):4d}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, default=1)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    bench, pimsim = build()
    if args.all:
        sys.exit(summarize(args, bench, pimsim))
    rc, _ = run_one(bench, pimsim, args.workload, args.seed, args.seconds, args.trace, False)
    sys.exit(rc)


if __name__ == "__main__":
    main()
