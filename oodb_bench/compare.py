#!/usr/bin/env python3
"""Compares two result sets of the benchmark.

    python3 oodb_bench/compare.py <set A> <set B> [--same-code] [--all]

A result set is a directory of files, each holding the stdout of one
`oodb_bench/run.py` run (its detail line and its result line). For every
workload and end-to-end metric the tool prints each side's median and
quartiles (Python's statistics.quantiles, n=4), each side's spread (the
interquartile distance as a share of its median), and a verdict against
the metric's bound in BENCHMARK.json:

  within   B's median is not worse than A's by more than the bound, and
           both sides' spreads stay within the bound;
  outside  otherwise.

setup_s is held to its bound on the medians only. Its spread is printed
but not judged: set-up time follows the host's speed from one minute to
the next, which repeating set-ups inside a run does not average out.

With --same-code the two sets come from the same code, so they must agree
both ways: B's median may differ from A's by at most the bound, better or
worse.

Traced runs contribute the per-layer metrics, printed with --all and
without a verdict (they have no bound). Exits 1 when any verdict is
"outside", so the tool can gate a script.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory):
    """Returns {(workload, trace): {metric: [values]}}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        detail, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "detail" in obj:
                    detail = obj["detail"]
                elif "metrics" in obj:
                    result = obj
        if detail is None or result is None:
            print("skipping %s: no result" % path, file=sys.stderr)
            continue
        key = (detail["workload"], int(detail["trace"]))
        per = runs.setdefault(key, {})
        for metric, m in result["metrics"].items():
            per.setdefault(metric, []).append(float(m["value"]))
        per.setdefault("_failed", []).append(float(result["failed"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("set_a")
    ap.add_argument("set_b")
    ap.add_argument("--same-code", action="store_true",
                    help="require the medians to agree in both directions")
    ap.add_argument("--all", action="store_true",
                    help="also print the per-layer metrics of traced runs")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    a, b = load_set(args.set_a), load_set(args.set_b)

    outside = 0
    fmt = "%-16s %-22s %6s %12s %12s %12s %7s %7s %8s  %s"
    print(fmt % ("workload", "metric", "side", "q1", "median", "q3",
                 "spread", "bound", "delta", "verdict"))
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            ra, rb = a.get((workload, trace)), b.get((workload, trace))
            if ra is None or rb is None:
                if trace == 0:
                    print("%-16s missing from one side" % workload)
                    outside += 1
                continue
            if trace == 1 and not args.all:
                continue
            names = [n for n in ra if n in rb and not n.startswith("_")]
            for name in names:
                qa, qb = quartiles(ra[name]), quartiles(rb[name])
                verdict, bound_txt, delta_txt = "", "", ""
                if trace == 0 and name in bounds:
                    m = bounds[name]
                    bound = m["bound"]
                    sign = 1 if m["better"] == "lower" else -1
                    delta = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                    ok = (abs(delta) if args.same_code else delta) <= bound
                    if name != "setup_s":
                        ok = ok and spread(ra[name]) <= bound
                        ok = ok and spread(rb[name]) <= bound
                    verdict = "within" if ok else "outside"
                    outside += 0 if ok else 1
                    bound_txt = "%.3f" % bound
                    delta_txt = "%+.3f" % delta
                for side, q, vals in (("A", qa, ra[name]), ("B", qb, rb[name])):
                    print(fmt % (workload, name, "%s n=%d" % (side, len(vals)),
                                 "%.4g" % q[0], "%.4g" % q[1], "%.4g" % q[2],
                                 "%.3f" % spread(vals), bound_txt,
                                 delta_txt if side == "B" else "",
                                 verdict if side == "B" else ""))
            for side, r in (("A", ra), ("B", rb)):
                failed = sum(r.get("_failed", []))
                if failed:
                    print("%-16s side %s: %d failed ops" % (workload, side,
                                                              failed))
                    outside += 1
    print("verdicts outside bound: %d" % outside)
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
