#!/usr/bin/env python3
"""FM-Bench runner: builds the benchmark from source and runs one workload.

    python3 fmbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The build lands in .bench_build/fmbench; a
traced run also writes its span file (Chrome trace JSON) to .bench_out/.
The last stdout line is the result object; `--workload all` runs every
workload in turn. See fmbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fmbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "fmbench")
WORKLOADS = ["pingpong", "stream", "serve_net", "serve_shared_core"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("fmbench: build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", "fmbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def run_one(args, workload, src):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", src]
    if args.corrupt_every:
        cmd += ["--corrupt-every", str(args.corrupt_every)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, "spans_%s_%d.json" % (workload, args.seed))]
    # Own process group, so a timeout also stops the forked net ranks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("fmbench: %s timed out" % workload)
        return None
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        log("fmbench: %s exited with %d" % (workload, proc.returncode))
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("fmbench: %s printed no result" % workload)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("fmbench: %s printed a malformed result" % workload)
        return None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-every", type=int, default=0,
                    help="self-test: corrupt every Nth echo")
    args = ap.parse_args()
    if not build():
        return 1
    src = source_id()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in names:
        r = run_one(args, w, src)
        if r is None:
            return 1
        results.append(r)
    for r in results:
        print(json.dumps(r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
