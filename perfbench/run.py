#!/usr/bin/env python3
"""Build and run one workload of the Hare end-to-end benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The driver and the library sources it links
(src/) are built optimized into the directory named by CARGO_TARGET_DIR
(default .bench_build); later runs rebuild only what changed. Build output
goes to stderr. The driver's result, one JSON object, is the last line of
stdout; with --trace 0 it holds BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics. The exit code is 0 only when the build
succeeded, every output check passed and the metric set matches
BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver exits on its own well within this; the limit only guarantees
# the benchmark never outlives a stuck child.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_driver"],
        check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [driver, "--workload", args.workload, "--seconds",
           str(args.seconds), "--trace", args.trace]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: driver printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (ValueError, KeyError, TypeError):
        print("perfbench: driver's last line is not a result", file=sys.stderr)
        return proc.returncode or 1
    got = {name: m["unit"] for name, m in metrics.items()}
    want = expected_metrics(spec, args.trace == "1")
    if got != want:
        print("perfbench: driver metrics do not match BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"unexpected {sorted(set(got) - set(want))}, units differ on "
              f"{sorted(k for k in set(got) & set(want) if got[k] != want[k])}",
              file=sys.stderr)
        return 3
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
