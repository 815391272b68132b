#!/usr/bin/env python3
"""FM-Bench self-test: short runs of every workload must emit every metric
BENCHMARK.json names and pass their checks, and a deliberately corrupted
echo must be counted as a failed op (not abort, not pass).

    python3 fmbench/selftest.py        # from the repository root; ~15 s
"""
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    cmd += list(extra)
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    out.returncode, out.stderr))
    return json.loads(out.stdout.strip().split("\n")[-1])


def check_metrics(result, specs, what):
    got = result["metrics"]
    for spec in specs:
        name = spec["name"]
        assert name in got, "%s: metric %s missing" % (what, name)
        assert got[name]["unit"] == spec["unit"], \
            "%s: %s has unit %s, BENCHMARK.json says %s" % (
                what, name, got[name]["unit"], spec["unit"])
    extra = set(got) - {s["name"] for s in specs}
    assert not extra, "%s: metrics not in BENCHMARK.json: %s" % (what, extra)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    gated = [x["name"] for x in bench["workloads"]]
    assert set(gated) <= set(WORKLOADS), "unknown workload in BENCHMARK.json"
    # Every workload run.py offers, including diagnostic ones that
    # BENCHMARK.json does not gate.
    for w in WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            what = "%s trace=%d" % (w, trace)
            try:
                r = run(w, trace)
                check_metrics(r, specs, what)
                assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, \
                    "%s: checks failed: %s" % (what, r)
                if trace == 0:
                    for spec in specs:
                        assert r["metrics"][spec["name"]]["value"] > 0, \
                            "%s: %s is 0" % (what, spec["name"])
                print("ok   %s (%d ops)" % (what, r["attempted"]))
            except AssertionError as e:
                failures += 1
                print("FAIL %s" % e)
    # A corrupted echo is a failed op on both echo paths (FM handler reply
    # and serve method reply).
    for w in ("pingpong", "serve_net"):
        what = "%s corrupted echo" % w
        try:
            r = run(w, 0, ["--corrupt-every", "97"])
            assert r["failed"] > 0 and not r["correct"], \
                "%s: corruption not counted: %s" % (what, r)
            print("ok   %s (%d of %d ops failed)" % (what, r["failed"],
                                                    r["attempted"]))
        except AssertionError as e:
            failures += 1
            print("FAIL %s" % e)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
