#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The script builds
perfbench/lcmbench.exe (and the simulator libraries it links) with dune,
then runs one workload in its own process and relays its output; the
last line of stdout is the benchmark's JSON result.  With --trace 1 the
traced run's spans are also written to perfbench/out/ as Chrome trace
JSON.

Exit codes: 0 on success; 2 when the checkout or toolchain is missing;
1 when the build or the run fails, or the run's last line is not a
result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("paper-figures", "bus-scaling", "verify-chaos")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die(2, "--seconds must be at least 1")

    root = os.getcwd()
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, need)):
            die(2, "%s not found: run from the root of a source checkout" % need)
    if shutil.which("dune") is None:
        die(2, "dune not found on PATH")

    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/lcmbench.exe"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(1, "build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        die(1, "build failed")

    exe = os.path.join(root, "_build", "default", "perfbench", "lcmbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(os.path.join(root, "perfbench", "out"), exist_ok=True)
        cmd += ["--trace-out", "perfbench/out/%s-seed%d.trace.json"
                % (args.workload, args.seed)]

    t0 = time.time()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(1, "%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    text = out.decode(errors="replace")
    lines = text.rstrip("\n").split("\n")
    # Everything but the result line is the human-readable report.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write("wall %.1f s for the whole run\n" % (time.time() - t0))
    if proc.returncode != 0:
        die(1, "lcmbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        die(1, "the run's last line is not a result: %r" % lines[-1][:200])
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
