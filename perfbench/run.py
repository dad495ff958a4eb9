#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_single --seed 1 --seconds 20 --trace 0

The first call configures and compiles the benchmark binary (an optimized,
unsanitized build of the serenade libraries plus perfbench/src) under
.bench_build/; later calls only rebuild what changed. The binary starts the
fleet in-process, drives it, checks every response, and prints the metrics.
This wrapper adds a provenance line and passes the binary's result object
through as the last line of standard output. BENCHMARK.json lists the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no serenade source tree next to perfbench/ (src/CMakeLists.txt)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def cache_value(name):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_revision():
    """The git commit when the checkout is a repository, else a digest of the
    sources the binary is built from (a checkout need not carry .git)."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(directory, name) for name in names]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "sources:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    build_type = cache_value("CMAKE_BUILD_TYPE")
    sanitize = cache_value("SERENADE_SANITIZE")
    if build_type.lower() not in ("release", "relwithdebinfo") or sanitize:
        fail(f"refusing to measure a {build_type or 'unoptimized'} build"
             f"{' with sanitizer ' + sanitize if sanitize else ''}", code=3)

    work_dir = os.path.join(build_dir(), f"work-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    for line in lines[:-1] if result else lines:
        print(line)
        if run.returncode != 0:
            # A failing run also gives its account on standard error.
            print(line, file=sys.stderr)
    provenance = {
        "revision": source_revision(),
        "build_type": build_type,
        "sanitizer": sanitize or "none",
        "compiler": cache_value("CMAKE_CXX_COMPILER"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }
    print("provenance: " + json.dumps(provenance))
    if result is None:
        fail(f"benchmark exited with code {run.returncode} and no result")
    print(result, flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
