#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload soak-1core --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One workload: the benchmark's own output, whose last stdout line is the
result object.  `--workload all` runs every workload of BENCHMARK.json
in its own process and prints each metric by name with its unit.

The executable is built with dune into $CARGO_TARGET_DIR (default
`.bench_build`) under the checkout; nothing is written outside it.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Build perfbench/main.exe; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("the repository's sources (dune-project, lib/) are not in " + ROOT)
    bdir = build_dir()
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", bdir, "--profile", "release",
           "--display", "quiet", os.path.join("perfbench", "main.exe")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)
    return os.path.join(bdir, "default", "perfbench", "main.exe")


def run(exe, args, capture):
    """Run the benchmark executable; wait for it even on timeout."""
    work = os.path.join(build_dir(), "perfbench-work")
    proc = subprocess.Popen([exe, "--work-dir", work] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, (out.decode() if capture else "")


def run_all(exe, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    status = 0
    for w in bench["workloads"]:
        code, out = run(exe, ["--workload", w["name"]] + args, capture=True)
        lines = out.strip().splitlines()
        if not lines:
            fail("%s printed no result" % w["name"])
        result = json.loads(lines[-1])
        print("== %s  correct=%s attempted=%d failed=%d"
              % (w["name"], result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-40s %20.6g %s" % (name, m["value"], m["unit"]))
        status = status or code
    return status


def main():
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        i = args.index("--workload")
        exe = build()
        sys.exit(run_all(exe, args[:i] + args[i + 2:]))
    exe = build()
    code, _ = run(exe, args, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
