#!/usr/bin/env python3
"""Repeat benchmark runs and report how steady they are.

Run every workload on a range of seeds (results go to a JSONL file):

    python3 perfbench/steady.py run --out .bench_results/a.jsonl \
        --seeds 1-10 [--workloads skew_local,tcp_pair] [--trace 0]

Report median, quartiles and run count per (workload, metric), with the
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json:

    python3 perfbench/steady.py report .bench_results/a.jsonl

Compare two sets of runs (say, parent and change, or two back-to-back
sets of one commit). A metric whose median moved the wrong way by more
than its bound fails; sets from different host fingerprints only warn:

    python3 perfbench/steady.py report a.jsonl b.jsonl

Exit status: 0 when every spread is within its bound and no metric
regressed (or the fingerprints differ), 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fingerprint fields that make two hosts comparable. git_sha and the
# source digest name the code under test, not the host.
HOST_FIELDS = ("nproc", "cpu_model", "compiler", "build_type")
# Runs during which the hypervisor took at least this share of CPU time
# are named in the report: their figures say more about the host.
STEAL_NOTE = 0.05


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_run(args):
    bench = load_bench()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace),
                   "--results", os.path.abspath(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed={seed} exit={proc.returncode} {last[0][:160]}",
                  flush=True)
            if proc.returncode != 0:
                return 1
    return 0


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(runs, trace):
    """(workload, metric) -> list of values, in run order."""
    series = {}
    for r in runs:
        if r["trace"] != trace:
            continue
        for name, m in r["metrics"].items():
            series.setdefault((r["workload"], name), []).append(m["value"])
    return series


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def host_of(runs):
    return {tuple((k, r["fingerprint"].get(k)) for k in HOST_FIELDS)
            for r in runs}


def cmd_report(args):
    bench = load_bench()
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: dict(m, bound=None) for m in bench["per_layer"]})
    sets = [load_runs(p) for p in args.files]
    trace = args.trace
    ok = True

    comparable = True
    if len(sets) == 2:
        ha, hb = host_of(sets[0]), host_of(sets[1])
        if ha != hb:
            comparable = False
            print("WARNING: the two sets come from different host fingerprints;")
            print(f"  A: {sorted(ha)}\n  B: {sorted(hb)}")
            print("  medians are shown but not gated.")

    for r in (r for s in sets for r in s if r["trace"] == trace):
        if not r["correct"] or r["failed"]:
            print(f"INCORRECT: {r['workload']} seed={r['seed']} "
                  f"correct={r['correct']} failed={r['failed']}")
            ok = False
        steal = r["metrics"].get("host.steal_frac", {}).get("value", 0.0)
        if steal >= STEAL_NOTE:
            print(f"note: {r['workload']} seed={r['seed']} ran while the host "
                  f"stole {steal:.0%} of CPU time")

    summaries = [summarize(s, trace) for s in sets]
    keys = sorted(set().union(*summaries),
                  key=lambda k: (k[0], k[1] not in specs, k[1]))
    header = (f"{'workload':11} {'metric':32} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    if len(sets) == 2:
        header += f" {'median B':>12} {'n':>3} {'spread B':>8} {'change':>7}"
    print(header)
    for key in keys:
        workload, name = key
        spec = specs.get(name)
        if spec is None and not args.all:
            continue
        bound = spec.get("bound") if spec else None
        row = f"{workload:11} {name:32}"
        cols = []
        verdict = ""
        for summary in summaries:
            values = summary.get(key, [])
            if not values:
                cols.append(None)
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            cols.append((len(values), med, q1, q3, spread))
            if bound is not None and spread > bound:
                verdict += " SPREAD>BOUND"
                ok = False
        a = cols[0]
        if a is None:
            row += f" {'-':>3} {'-':>12} {'-':>12} {'-':>12} {'-':>7}"
        else:
            row += (f" {a[0]:3d} {a[1]:12.6g} {a[2]:12.6g} {a[3]:12.6g} "
                    f"{a[4]:7.3f}")
        row += f" {bound if bound is not None else '-':>6}"
        if len(sets) == 2:
            b = cols[1]
            if b is None:
                row += f" {'-':>12} {'-':>3} {'-':>8} {'-':>7}"
            else:
                change = (b[1] - a[1]) / a[1] if a and a[1] else 0.0
                row += f" {b[1]:12.6g} {b[0]:3d} {b[4]:8.3f} {change:+7.3f}"
                worse = change if spec and spec["better"] == "lower" else -change
                if bound is not None and worse > bound:
                    if comparable:
                        verdict += " REGRESSED"
                        ok = False
                    else:
                        verdict += " (worse, hosts differ)"
        print(row + verdict)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run workloads over seeds")
    run.add_argument("--out", required=True)
    run.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,9")
    run.add_argument("--workloads", default="")
    run.add_argument("--seconds", type=float, default=0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep = sub.add_parser("report", help="steadiness of one or two run sets")
    rep.add_argument("files", nargs="+")
    rep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep.add_argument("--all", action="store_true",
                     help="also list metrics not in BENCHMARK.json")
    args = ap.parse_args()
    if args.cmd == "report" and len(args.files) > 2:
        ap.error("report takes one or two result files")
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
