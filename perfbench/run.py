#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload paper_methods --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds an
optimized tree of its own under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls rebuild incrementally. Build
output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Results, traces and page files land in .bench_out/.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_methods", "scan_service", "read_write")
OPTIMIZED = ("Release", "RelWithDebInfo")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr) == 0


def cached_build_type(build):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            cache = f.read()
    except OSError:
        return None, ""
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    flags = " ".join(re.findall(r"^CMAKE_(?:CXX|EXE_LINKER)_FLAGS:\w+=(.*)$", cache, re.M))
    return (m.group(1) if m else None), flags


def build():
    """Configures (once) and builds; None on failure, else the build dir."""
    build = build_dir()
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["ninja", "--version"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return None
    build_type, flags = cached_build_type(build)
    if build_type not in OPTIMIZED or "sanitize" in flags:
        print("perfbench: refusing to run from a %r build (flags %r); "
              "timings need Release or RelWithDebInfo without sanitizers"
              % (build_type, flags), file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", build, "-j", jobs]):
        return None
    return build


def provenance_env():
    env = dict(os.environ)
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        env["PERFBENCH_COMMIT"] = (commit.stdout.strip() if commit.returncode == 0
                                   else "not a git checkout")
    except (OSError, subprocess.SubprocessError):
        env["PERFBENCH_COMMIT"] = "not a git checkout"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    env["PERFBENCH_SOURCE_DIGEST"] = digest.hexdigest()[:16]
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed non-negative")

    build_path = build()
    if build_path is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if args.selftest:
        return subprocess.call([os.path.join(build_path, "perfbench_selftest")],
                               cwd=ROOT, timeout=170)
    cmd = [os.path.join(build_path, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return subprocess.call(cmd, cwd=ROOT, env=provenance_env(), timeout=170)


if __name__ == "__main__":
    sys.exit(main())
