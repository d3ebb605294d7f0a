#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload,
check its results, print every metric and end with one JSON result line.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N [--seconds S]
      --trace 0|1 [--record FILE] [--trace-file FILE]
  python3 perfbench/run.py --self-test

--trace 0 runs the closed-loop timed mode and reports the end-to-end metrics
of BENCHMARK.json; --trace 1 runs the traced stage-by-stage rebuild and
reports the per-layer metrics, writing a Chrome trace-event file (Perfetto,
chrome://tracing). --record appends the full result set (metrics, harness
details, host and build fingerprint) as one JSON line; perfbench/compare.py
compares two such files. --seconds defaults to run_seconds of
BENCHMARK.json, the run length its bounds were set for.

Every run is pinned to the library's built-in tuning defaults: any
calibration named by TBSVD_TUNE_FILE or found in the user cache is hidden
from the harness, and the harness refuses to run if one still gets loaded.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (a no-op when cached) and build incrementally; the build
    output goes to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def pinned_env():
    """The environment with every route to a persisted calibration closed:
    TBSVD_TUNE_FILE unset and the cache root moved to an empty directory."""
    env = dict(os.environ)
    env.pop("TBSVD_TUNE_FILE", None)
    cache = os.path.join(BUILD, "no-tune-cache")
    os.makedirs(cache, exist_ok=True)
    if os.path.exists(os.path.join(cache, "tbsvd", "tune.json")):
        raise RuntimeError("unexpected calibration file in " + cache)
    env["XDG_CACHE_HOME"] = cache
    return env


def cpu_times():
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def cpu_info():
    model, mhz, flags = "unknown", 0.0, ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key, val = key.strip(), val.strip()
                if key == "model name" and model == "unknown":
                    model = val
                elif key == "cpu MHz" and mhz == 0.0:
                    mhz = float(val)
                elif key == "flags" and not flags:
                    flags = val
    except OSError:
        pass
    return model, mhz, flags


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def library_native_flag():
    """Whether the built library's compile flags carry -march=native (a
    stale cache can drop it silently)."""
    path = os.path.join(BUILD, "tbsvd", "CMakeFiles", "tbsvd.dir",
                        "flags.make")
    try:
        with open(path) as f:
            return "-march=native" in f.read()
    except OSError:
        return False


def fingerprint(info, steal_share):
    model, mhz, flags = cpu_info()
    return {
        "cpu_model": model,
        "cpu_mhz": round(mhz / 100.0) * 100,
        "cpu_flags_sha": hashlib.sha1(flags.encode()).hexdigest()[:12],
        "nproc": os.cpu_count(),
        "build_type": info.get("build_type"),
        "march_native": library_native_flag(),
        "git_sha": git_sha(),
        "steal_share": steal_share,
    }


def run_harness(args, env):
    cmd = [HARNESS, "--workload", args["workload"], "--seed",
           str(args["seed"]), "--seconds", str(args["seconds"]),
           "--mode", args["mode"]]
    for flag in ("tiny", "perturb"):
        if args.get(flag):
            cmd.append("--" + flag)
    if args.get("trace_out"):
        cmd += ["--trace-out", args["trace_out"]]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("harness failed with exit code %d" %
                           proc.returncode)
    return json.loads(lines[-1])


def check_metrics(result, expected):
    """The harness must report exactly the metrics BENCHMARK.json names,
    each with its unit."""
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise RuntimeError("metric set mismatch: missing %s, extra %s, "
                           "wrong unit %s" % (missing, extra, wrong))


def print_summary(result, trace):
    info = result["info"]
    print("workload %s  seed %d  mode %s  threads %d  tuning %s" %
          (info["workload"], info["seed"], info["mode"], info["threads"],
           json.dumps(info["tuning"])))
    for name, m in result["metrics"].items():
        extra = ""
        if name == "solve_tail_s":
            extra = "  (p%g of %d calls, %d beyond)" % (
                info["tail_percentile"], info["calls"],
                info["calls_beyond_tail"])
        print("  %-28s %-14.6g %s%s" % (name, m["value"], m["unit"], extra))
    if trace:
        print("  stage share of the traced total: " +
              ", ".join("%s %.1f%%" % (k, 100 * v)
                        for k, v in sorted(info["stage_share"].items(),
                                           key=lambda kv: -kv[1])))
        print("  tracing overhead: traced total %.6g s vs untraced p50 "
              "%.6g s" % (info["traced_total_s"], info["untraced_p50_s"]))
    else:
        print("  failed_frac %.6g  sv_max_relerr %.3g" %
              (info["failed_frac"], info["sv_max_relerr"]))
    print("  attempted %d  failed %d  thread-count bitwise %s%s" %
          (result["attempted"], result["failed"], info.get("thread_bitwise"),
           "  rebuild bitwise %s" % info["rebuild_bitwise"] if trace else ""))


def bench(opts):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload not in names:
        raise RuntimeError("unknown workload %r (have %s)" %
                           (opts.workload, ", ".join(names)))
    build()
    env = pinned_env()
    args = {"workload": opts.workload, "seed": opts.seed,
            "seconds": opts.seconds,
            "mode": "traced" if opts.trace else "timed"}
    if opts.trace:
        args["trace_out"] = opts.trace_file or os.path.join(
            BUILD, "traces", "%s-seed%d.trace.json" % (opts.workload,
                                                       opts.seed))
        os.makedirs(os.path.dirname(os.path.abspath(args["trace_out"])),
                    exist_ok=True)
    steal0, total0 = cpu_times()
    result = run_harness(args, env)
    steal1, total1 = cpu_times()
    check_metrics(result, spec["per_layer" if opts.trace else "end_to_end"])
    steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    fp = fingerprint(result["info"], steal)
    if not fp["march_native"]:
        log("perfbench: warning: the library was built without "
            "-march=native")
    print_summary(result, opts.trace)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if opts.trace:
        print("chrome trace: " + result["info"].get("trace_file", ""))
    if opts.record:
        rec = {"workload": opts.workload, "seed": opts.seed,
               "seconds": opts.seconds, "trace": int(opts.trace),
               "correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": result["metrics"],
               "info": result["info"], "fingerprint": fp,
               "time": time.time()}
        with open(opts.record, "a") as f:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))


def self_test():
    """At tiny sizes, every workload emits every named metric with its unit
    in both modes, and a deliberately perturbed result is counted as
    failed (timed) or breaks the bitwise rebuild (traced)."""
    spec = load_spec()
    build()
    env = pinned_env()
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            base = {"workload": w, "seed": 7, "seconds": 0.3, "tiny": True,
                    "mode": "traced" if trace else "timed"}
            clean = run_harness(base, env)
            try:
                check_metrics(clean, spec[kind])
            except RuntimeError as e:
                problems.append("%s trace=%d: %s" % (w, trace, e))
            if not clean["correct"] or clean["failed"] != 0:
                problems.append("%s trace=%d: clean run failed %d of %d" %
                                (w, trace, clean["failed"],
                                 clean["attempted"]))
            bad = run_harness(dict(base, perturb=True), env)
            if bad["correct"] or bad["failed"] < 1:
                problems.append("%s trace=%d: perturbed result not counted "
                                "as failed" % (w, trace))
            else:
                if not trace:
                    frac = 1.0 - bad["metrics"]["ok_frac"]["value"]
                    if abs(frac - bad["failed"] / bad["attempted"]) > 1e-12:
                        problems.append("%s: ok_frac disagrees with failed"
                                        % w)
            print("self-test %-14s trace=%d  clean %d/%d failed, perturbed "
                  "%d/%d failed" % (w, trace, clean["failed"],
                                    clean["attempted"], bad["failed"],
                                    bad["attempted"]))
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file")
    p.add_argument("--record")
    p.add_argument("--self-test", action="store_true")
    opts = p.parse_args()
    try:
        if opts.self_test:
            return self_test()
        if not opts.workload:
            p.error("--workload is required")
        if opts.seconds is None:
            opts.seconds = load_spec()["run_seconds"]
        bench(opts)
        return 0
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
