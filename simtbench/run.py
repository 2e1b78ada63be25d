#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 simtbench/run.py --workload {serve|serve-storm|kernels|multicore} \
        --seed N --seconds S --trace {0|1}

Run from the repository root. The simulator and the simtbench program are
built from source (Release) into $CARGO_TARGET_DIR, default .bench_build;
build output goes to stderr. simtbench's last stdout line is the result
JSON, checked here against the metric lists in BENCHMARK.json. A traced
run also leaves a Chrome trace-event file in the build directory.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release", *gen],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    exe = os.path.join(build_dir, "simtbench")
    res = subprocess.run([exe, *args, "--trace-dir", build_dir],
                         stdout=subprocess.PIPE, text=True)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    if res.returncode:
        sys.exit(res.returncode)
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail("no result line")
    got = list(json.loads(lines[-1])["metrics"])
    want = expected_metrics(trace)
    if sorted(got) != sorted(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")


if __name__ == "__main__":
    main()
