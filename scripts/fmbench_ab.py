#!/usr/bin/env python3
"""Same-host FM-Bench A/B: interleaved pairs of one workload on two trees.

    python3 scripts/fmbench_ab.py --base ../base --change ../change \\
        --workload serve_net --pairs 10 --seconds 6 --claim ops_per_s

Builds each tree's fmbench with the build step of that tree's own
fmbench/run.py, then runs N pairs through each tree's fmbench/run.py. Pair
i runs both sides back to back with the same seed; odd pairs run the change
first, even pairs the base, so slow drift on the host lands on both sides
alike. For every end-to-end metric it prints each
side's median and quartiles and how many pairs the change won, and it
reports every failed op, every run that fmbench marked incorrect and every
run that printed no result: a faster run that got answers wrong is not
faster. With --claim, the last line says
whether the change won at least 9 pairs in 10 and moved the median by more
than the base's interquartile range. It writes nothing under fmbench/.
"""
import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys

RUN_TIMEOUT_S = 200


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(tree):
    """Builds tree's fmbench through the build() of its own run.py."""
    sys.dont_write_bytecode = True  # leave the tree's fmbench/ untouched
    path = os.path.join(tree, "fmbench", "run.py")
    spec = importlib.util.spec_from_file_location("fmbench_run", path)
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    return run_py.build()


def run(tree, args, seed):
    """One run of tree's fmbench/run.py; its result object, or None."""
    cmd = [sys.executable, os.path.join(tree, "fmbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    try:
        p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("fmbench_ab: %s timed out" % tree)
        return None
    lines = p.stdout.strip().split("\n")
    if p.returncode != 0 or not lines[-1].startswith("{"):
        log("fmbench_ab: %s exited with %d" % (tree, p.returncode))
        log(p.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def usable(r):
    """A run that printed a result and that fmbench judged correct: its
    `correct` is also false when a rank exited uncleanly with no failed op
    counted."""
    return r is not None and r["correct"]


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty list."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def metrics_of(tree):
    """The end-to-end metrics BENCHMARK.json declares, with their direction."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="the parent tree")
    ap.add_argument("--change", required=True, help="the tree under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--claim", help="metric the change claims to improve")
    args = ap.parse_args()
    trees = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not build(tree):
            return 2
    results = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ["change", "base"] if i % 2 else ["base", "change"]
        for side in order:
            r = run(trees[side], args, args.seed)
            results[side].append(r)
            log("pair %d %s: %s" % (i, side, "no result" if r is None else
                                    json.dumps(r["metrics"])))
    metrics = metrics_of(trees["change"])
    summary = {"workload": args.workload, "pairs": args.pairs, "metrics": {}}
    print("%-12s %30s %30s %6s" % ("metric", "base p50 [q1, q3]",
                                   "change p50 [q1, q3]", "won"))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(results["base"], results["change"])
                 if usable(b) and usable(c)
                 and name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        won = sum(1 for b, c in pairs if (c > b if higher else c < b))
        row = {side: [quantile(xs, q) for q in (0.25, 0.5, 0.75)]
               for side, xs in (("base", base), ("change", change))}
        row["won"] = won
        row["n"] = len(pairs)
        summary["metrics"][name] = row
        fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
        print("%-12s %30s %30s %3d/%-2d" % (name, fmt(row["base"]),
                                            fmt(row["change"]), won,
                                            len(pairs)))
    for side in ("base", "change"):
        rs = results[side]
        missing = sum(1 for r in rs if r is None)
        failed = sum(r["failed"] for r in rs if r is not None)
        incorrect = sum(1 for r in rs if r is not None and not usable(r))
        summary[side + "_failed_ops"] = failed
        summary[side + "_incorrect_runs"] = incorrect
        summary[side + "_missing_runs"] = missing
        print("%s: %d failed ops, %d incorrect runs, %d runs without a "
              "result" % (side, failed, incorrect, missing))
    ok = all(summary[side + k] == 0 for side in ("base", "change")
             for k in ("_failed_ops", "_incorrect_runs", "_missing_runs"))
    if args.claim:
        row = summary["metrics"].get(args.claim)
        if row is None:
            print("claim %s: no data" % args.claim)
            ok = False
        else:
            iqr = row["base"][2] - row["base"][0]
            delta = abs(row["change"][1] - row["base"][1])
            higher = next(m["better"] == "higher" for m in metrics
                          if m["name"] == args.claim)
            better = (row["change"][1] > row["base"][1]) == higher
            # A pair with an incorrect or missing run is left out of the
            # table, and the claim cannot hold over it.
            holds = (ok and better and delta > iqr and
                     row["won"] * 10 >= 9 * row["n"])
            summary["claim"] = {"metric": args.claim, "holds": holds,
                                "median_delta": delta, "base_iqr": iqr}
            print("claim %s: %s (won %d/%d, median moved %.4g, base IQR "
                  "%.4g)" % (args.claim, "holds" if holds else "fails",
                             row["won"], row["n"], delta, iqr))
            ok = ok and holds
    print(json.dumps(summary), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
