#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload skew_local --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds perfbench/ (and the
muppet library from src/) into $CARGO_TARGET_DIR, default .bench_build.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Every full result, with
the seed, the host fingerprint and sample counts, is also appended to
--results (default .bench_results/results.jsonl) for steady.py.
"""
import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("src/ is missing: run.py needs a full checkout")
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """Digest of the measured sources: identifies the build where no git
    checkout is available."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(build_info):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results",
                    default=os.path.join(ROOT, ".bench_results", "results.jsonl"))
    # Self-test hooks (selftest.py).
    ap.add_argument("--perturb-expected", action="store_true")
    ap.add_argument("--inject-refused-publish", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # The binary knows every workload, including ones BENCHMARK.json does
    # not gate (README.md); it rejects an unknown name.
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    binary = build()
    workdir = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.perturb_expected:
        cmd.append("--perturb-expected")
    if args.inject_refused_publish:
        cmd.append("--inject-refused-publish")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode} without a result")
    result = json.loads(lines[-1][len("RESULT "):])

    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise RuntimeError(f"metric {spec['name']} missing or not in "
                               f"{spec['unit']}: {got}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}

    record = dict(result)
    record["fingerprint"] = fingerprint(result.get("build", {}))
    record["time"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} check={json.dumps(result['check'])}")
    print(f"# fingerprint={json.dumps(record['fingerprint'], sort_keys=True)}")
    for name, m in sorted(result["metrics"].items()):
        samples = f" samples={m['samples']}" if "samples" in m else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{samples}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
