#!/usr/bin/env python3
"""Build and run the ppcloud benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seconds <s>   # every workload in turn
    python3 perfbench/run.py --selftest

The checkout is the directory above this script. The first call configures
and builds the benchmark and the repository's libraries from source into
.bench_build/ (a few minutes); later calls rebuild only what changed. Build
output goes to stderr. The benchmark's own stdout follows: a fingerprint line, one line per
metric, and the result object as the last line. A traced run (--trace 1)
also writes its spans, loadable in Perfetto, to
.bench_build/traces/<workload>-seed<n>.json.

Exit status: the benchmark's (0 = every correctness gate held, 1 = a gate
failed), or 2 when the sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("campaign", "classic_small", "classic_1mb", "shuffle")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit when the checkout has one, plus a digest of src/ and
    perfbench/ so a tree without git history is still identified."""
    sha = "nogit"
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head_path):
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", head[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    sha = f.read().strip()[:12]
        else:
            sha = head[:12]
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src-%s" % (sha, digest.hexdigest()[:12])


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found under %s" % os.path.join(ROOT, "src"))
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description="ppcloud benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    build(["perfbench"])
    revision = source_revision()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--revision", revision]
        if args.trace:
            trace_dir = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-file",
                    os.path.join(trace_dir, "%s-seed%d.json" % (workload, args.seed))]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
