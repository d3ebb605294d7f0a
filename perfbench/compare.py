#!/usr/bin/env python3
"""Compare two benchmark result sets, e.g. parent and change.

Usage:
  python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

Each file holds the records `perfbench/run.py --record FILE` appends, one
JSON object per line. For every workload and end-to-end metric the tool
prints each side's median and quartiles, the fraction of pairs the change
won (pairs matched by seed, else by order; ties count for neither side) and
a verdict under the metric's bound from BENCHMARK.json:

  improved    every change run beats every base run, or the change wins at
              least 9 of 10 pairs and the medians differ by more than the
              base runs' own quartile distance
  unresolved  either side's quartile distance, as a share of its median,
              is wider than the bound
  regressed   the change's median is worse than the base median by more
              than the bound
  no worse    otherwise

Traced records (--trace 1) add per-layer medians for reference, without a
verdict. Result sets from different hosts or builds are refused, because
their timings are not comparable. Exit status: 0, 1 when any metric
regressed, 2 when the sets cannot be compared.
"""
import argparse
import json
import os
import statistics
import sys

# The current clock (cpu_mhz) is left out: it moves with frequency scaling.
HOST_KEYS = ("cpu_model", "cpu_flags_sha", "nproc", "build_type",
             "march_native")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, change):
    """(base value, change value) pairs: by seed where both sides ran the
    same seeds, else in recorded order."""
    bs = {r["seed"]: r for r in base}
    cs = {r["seed"]: r for r in change}
    common = sorted(set(bs) & set(cs))
    if len(common) == min(len(base), len(change)):
        return [(bs[s], cs[s]) for s in common]
    return list(zip(base, change))


def verdict(metric, base_vals, change_vals, pair_vals):
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    bq1, bmed, bq3 = quartiles(base_vals)
    cq1, cmed, cq3 = quartiles(change_vals)
    wins = sum(1 for b, c in pair_vals if sign * (c - b) < 0)
    won = wins / len(pair_vals) if pair_vals else 0.0
    worse = sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if all(sign * (c - b) < 0 for b in base_vals for c in change_vals):
        v = "improved"
    elif spread > bound:
        v = "unresolved"
    elif won >= 0.9 and abs(cmed - bmed) > (bq3 - bq1) and worse < 0:
        v = "improved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "no worse"
    return (bq1, bmed, bq3), (cq1, cmed, cq3), won, worse, v


def host_of(rec):
    fp = rec.get("fingerprint", {})
    return tuple((k, fp.get(k)) for k in HOST_KEYS)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--spec", default=os.path.join(os.path.dirname(here),
                                                  "BENCHMARK.json"))
    opts = p.parse_args()
    with open(opts.spec) as f:
        spec = json.load(f)
    base, change = load(opts.base), load(opts.change)
    if not base or not change:
        print("compare: a result set is empty", file=sys.stderr)
        return 2
    hosts = {host_of(r) for r in base + change}
    if len(hosts) != 1:
        print("compare: refusing to compare across hosts or builds:",
              file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in h), file=sys.stderr)
        return 2
    print("host: " + ", ".join("%s=%s" % kv for kv in hosts.pop()))
    for side, recs in (("base", base), ("change", change)):
        shas = sorted({r["fingerprint"].get("git_sha", "?") for r in recs})
        steal = [r["fingerprint"].get("steal_share", 0.0) for r in recs]
        mhz = [r["fingerprint"].get("cpu_mhz", 0) for r in recs]
        print("%-6s sha %s  runs %d  max steal share %.3f  MHz %g-%g" %
              (side, ",".join(s[:12] for s in shas), len(recs), max(steal),
               min(mhz), max(mhz)))

    regressed = False
    workloads = [w["name"] for w in spec["workloads"]]
    print("\n%-14s %-15s %-32s %-32s %7s %5s  %s" %
          ("workload", "metric", "base median [q1, q3]",
           "change median [q1, q3]", "worse", "won", "verdict"))
    for w in workloads:
        b = [r for r in base if r["workload"] == w and r["trace"] == 0]
        c = [r for r in change if r["workload"] == w and r["trace"] == 0]
        if not b or not c:
            continue
        incorrect = sum(1 for r in b + c if not r["correct"])
        for m in spec["end_to_end"]:
            name = m["name"]
            if any(name not in r["metrics"] for r in b + c):
                print("%-14s %-15s missing from some records" % (w, name))
                continue
            bv = [r["metrics"][name]["value"] for r in b]
            cv = [r["metrics"][name]["value"] for r in c]
            pv = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                  for x, y in pairs(b, c)]
            bq, cq, won, worse, v = verdict(m, bv, cv, pv)
            regressed = regressed or v == "regressed"
            print("%-14s %-15s %-32s %-32s %+6.1f%% %5.2f  %s" %
                  (w, name, "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                   "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                   100 * worse, won, v))
        if incorrect:
            print("%-14s %d run(s) reported incorrect results" %
                  (w, incorrect))
            regressed = True

    for w in workloads:
        b = [r for r in base if r["workload"] == w and r["trace"] == 1]
        c = [r for r in change if r["workload"] == w and r["trace"] == 1]
        if not b or not c:
            continue
        print("\nper-layer medians, %s (%d vs %d traced runs)" %
              (w, len(b), len(c)))
        for m in spec["per_layer"]:
            if any(m["name"] not in r["metrics"] for r in b + c):
                continue
            bv = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            cv = statistics.median(r["metrics"][m["name"]]["value"] for r in c)
            if bv or cv:
                print("  %-28s %-12.5g %-12.5g %s" % (m["name"], bv, cv,
                                                      m["unit"]))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
