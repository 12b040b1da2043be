#!/usr/bin/env python3
"""Build and run the MarQSim repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt builds the library from src/ through the
root CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench-<tag>, or
.bench_build/perfbench-<tag> when the variable is unset, where <tag> names
the checkout; later calls only re-check the build. Build output goes to
stderr. The benchmark's caches live in work-<hash> under the build
directory, where <hash> covers src/ and perfbench/src/, so a source change
never reuses state that older code computed.
The benchmark's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    # One build tree per checkout, so checkouts sharing CARGO_TARGET_DIR
    # never build each other's sources.
    tag = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + tag)


def source_hash():
    """Hash of every file under src/ and perfbench/src/, names included."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def work_dir(out):
    """The cache directory for the current sources; drops older ones."""
    name = "work-" + source_hash()
    for old in os.listdir(out):
        if old.startswith("work-") and old != name:
            shutil.rmtree(os.path.join(out, old), ignore_errors=True)
    return os.path.join(out, name)


def build(out):
    """Configures (once) and builds; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "SimulationService.cpp")):
        print("error: no MarQSim sources under %s/src" % ROOT,
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("error: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    a = p.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    if a.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")],
                              cwd=ROOT).returncode
    if a.workload is None or a.seed is None or a.seconds is None \
            or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")

    cmd = [os.path.join(out, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", work_dir(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
