#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-table1|cold-check|daemon \
        --seed N --seconds S --trace 0|1

Builds the measuring program (`perfbench/`, a cargo package of its own that
depends on the repository's crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs each measurement in a fresh process with
every `AMLE_*` variable removed from its environment and one malloc arena:
the expression interner is process-global and only grows, peak memory is per
process, and the library's default configuration reads `AMLE_*` settings.

`--trace 0` runs the workload untraced and reports the end-to-end metrics of
BENCHMARK.json. `--trace 1` runs it untraced and then traced, each in its own
process, and reports the per-layer metrics, including the tracing overhead
(traced wall time over untraced wall time, minus one). Spans of the traced
run are written to `perfbench/spans/`.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Any failure
exits non-zero without printing that object.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-table1", "cold-check", "daemon")
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMLE_")}
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    # glibc gives threads their own malloc arenas, so a multi-threaded run's
    # peak RSS depended on scheduling: one daemon seed measured 29.8, 37.2
    # and 31.3 MiB in three runs, and 19.6 and 19.5 MiB with one arena.
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("building the benchmark failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "amle-perfbench")


def measure(binary, env, args, trace, started):
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(HERE, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans", spans]
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def show(label, result):
    print(f"# {label}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, value in result["info"].items():
        print(f"#   {key} = {value}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")


def pick(metrics, names):
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"the run did not report {', '.join(missing)}")
    return {n: metrics[n] for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be non-negative and --seconds in (0, 60]")
    end_to_end, per_layer = declared_metrics()
    env = clean_env()
    binary = build(env)
    started = time.monotonic()
    plain = measure(binary, env, args, False, started)
    show(f"{args.workload} untraced", plain)
    if not args.trace:
        result = dict(plain, metrics=pick(plain["metrics"], end_to_end))
    else:
        traced = measure(binary, env, args, True, started)
        show(f"{args.workload} traced", traced)
        metrics = dict(traced["metrics"])
        overhead = metrics["trace.wall_s"]["value"] / plain["metrics"]["wall_s"]["value"] - 1.0
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "share"}
        print(f"trace.overhead_share = {overhead} share")
        result = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": pick(metrics, per_layer),
        }
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
