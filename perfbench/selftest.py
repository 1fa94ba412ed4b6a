#!/usr/bin/env python3
"""Self-tests of the repo benchmark.

    python3 perfbench/selftest.py

Checks, with short runs (1 s of measurement each):
  * every workload, with --trace 0 and --trace 1, prints every metric
    BENCHMARK.json names, with its unit, and passes its correctness check;
  * the correctness check rejects a perturbed expected slate map;
  * failed counts an injected refused publish.
Exits 0 when all pass.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".bench_results", "selftest.jsonl")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "99", "--seconds", "1",
           "--trace", str(trace), "--results", RESULTS, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    checks = []

    def check(name, cond, detail=""):
        checks.append(cond)
        print(f"{'PASS' if cond else 'FAIL'} {name}{': ' + detail if detail and not cond else ''}",
              flush=True)

    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            check(f"{w} trace={trace} emits every metric with its unit",
                  got == want, f"missing/extra/unit: {set(want.items()) ^ set(got.items())}")
            check(f"{w} trace={trace} correct, no failures",
                  r["correct"] is True and r["failed"] == 0 and r["attempted"] > 0,
                  json.dumps({k: r[k] for k in ('correct', 'attempted', 'failed')}))

    first = bench["workloads"][0]["name"]
    r = run(first, 0, "--perturb-expected")
    check("correctness check rejects a perturbed expected slate",
          r["correct"] is False, json.dumps(r["correct"]))
    r = run(first, 0, "--inject-refused-publish")
    check("failed counts an injected refused publish",
          r["failed"] == 1 and r["correct"] is True,
          json.dumps({k: r[k] for k in ('correct', 'attempted', 'failed')}))

    print(f"{sum(checks)}/{len(checks)} checks passed")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
