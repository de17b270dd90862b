#!/usr/bin/env python3
"""Build the mlec++ benchmark from source and run one workload.

    python3 perfbench/run.py --workload <paper-sweep|crosscheck|daemon|repair> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is its own CMake project
(perfbench/CMakeLists.txt) built against the checkout's src/ libraries into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
configures and builds, later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Daemon state dirs and trace dumps go to <build dir>/work, inside the
checkout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    try:
        # The ceiling keeps git from searching directories above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no mlec++ sources at %s/src; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return 3
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    sys.stdout.flush()
    cmd = [os.path.join(build, "mlec_perfbench")] + sys.argv[1:] + [
        "--root", ROOT, "--work-dir", os.path.join(build_root, "work")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
