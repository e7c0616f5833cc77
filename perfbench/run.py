#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --test        # the benchmark's own tests

Workloads: fleet_sync, app_locks and immunity. The first call configures
and builds the C++ benchmark and the program's sources with CMake into
$CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild only what changed.
Build output goes to stderr, so the last line of standard output is the
benchmark's JSON result. Run files go to .bench_out/.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build(target):
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", target])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(3)
    return os.path.join(bdir, target)


def source_digest():
    """Digest of the program sources: identifies the code measured even
    where the checkout carries no version-control metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: run from the repository root "
                         "(no src/ here)\n")
        return 2
    if argv[:1] == ["--test"]:
        binary = build("perfbench_tests")
        return subprocess.run([binary] + argv[1:]).returncode
    binary = build("perfbench")
    cmd = [binary] + argv + ["--meta", "commit=" + git_commit(),
                             "--meta", "source_digest=" + source_digest()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
