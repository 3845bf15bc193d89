#!/usr/bin/env python3
"""Runs one workload of dynsched's benchmark and prints its metrics.

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call in a checkout builds perfbench (CMakeLists.txt next to this
file) and dynsched's libraries into .bench_build/perfbench; later calls
rebuild only what changed. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Every metric is also printed by name with its unit on the lines
before. README.md describes the workloads and every metric.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("study", "dynp-sim", "serve-mix")
LAYERS = ("trace", "sim", "core", "tip", "mip", "lp", "analysis", "serve",
          "util")
# The program gets this long per run; a run must end within 180 s.
RUN_TIMEOUT_S = 170
# serve-mix: an answer later than this after its due time counts as failed.
ON_TIME_MS = 2000.0
# serve-mix: a run whose generator sent its p99 request later than this
# after its due time did not hold the open loop, and is rejected.
MAX_GENERATOR_LAG_MS = 250.0
# study: the pinned scenario whose totals BENCH_exact.json records.
STUDY_CONFIG = {"traceJobs": 700, "seed": 44, "steps": 3, "maxNodes": 600}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the perfbench target; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no dynsched sources at %s" % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            except OSError as err:
                fail("cannot run %s: %s" % (step[0], err))
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                fail("build failed (%s)" % " ".join(step))
    return BUILD / "perfbench"


def measure(binary, args):
    """Runs the program in a scratch directory and returns its result."""
    run_dir = BUILD / "runs" / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    command = [str(binary), args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", "result.json"]
    try:
        done = subprocess.run(command, cwd=run_dir, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            fail("%s exited with %d" % (args.workload, done.returncode))
        with open(run_dir / "result.json") as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench_exact_mismatch(info):
    """Compares the study's node-capped totals with BENCH_exact.json; returns
    a description of the difference, or None."""
    try:
        ref = json.loads((ROOT / "BENCH_exact.json").read_text())
    except (OSError, ValueError) as err:
        return "cannot read BENCH_exact.json: %s" % err
    config = {key: ref["config"].get(key) for key in STUDY_CONFIG}
    if config != STUDY_CONFIG:
        return "BENCH_exact.json pins %s, the study runs %s" % (
            config, STUDY_CONFIG)
    totals = ref["totals"]
    got = (info["ilpNodes"], info["exactNodes"], info["avgScaledLossPct"])
    want = (totals["ilpNodes"], totals["exactNodes"],
            totals["avgScaledLossPct"])
    if got[:2] != want[:2] or abs(got[2] - want[2]) > 1e-8:
        return "ilpNodes/exactNodes/avgScaledLossPct %s != %s" % (got, want)
    return None


def serve_samples(result):
    """Open-loop view of serve-mix: latency from the due time, generator lag,
    wait, and which requests were traced."""
    s = result["samples"]
    latency, lag = stats.open_loop(s["due_ms"], s["send_ms"], s["done_ms"])
    wait = [done - send - solve
            for send, done, solve in zip(s["send_ms"], s["done_ms"],
                                         s["solve_ms"])
            if solve >= 0]
    return latency, lag, wait, s["ok"], s["traced"]


def headline(result, workload, checks):
    """The workload's end-to-end numbers, measured with tracing off, as
    {name: (value, unit, note)}, plus the attempted and failed counts."""
    attempted, failed = result["attempted"], result["failed"]
    op = result["op_ms"]
    info = result["info"]
    out = {}
    if workload == "serve-mix":
        latency, lag, _, ok, traced = serve_samples(result)
        op = [v for v, t in zip(stats.fastest(latency, info["cycles"]), traced)
              if not t]
        late = sum(1 for v, good in zip(latency, ok)
                   if not good or v > ON_TIME_MS)
        attempted += len(latency)
        failed += late
        lag_label, lag_value = stats.tail(lag)
        if lag_value > MAX_GENERATOR_LAG_MS:
            checks.append("serve.generator_lag: %s %.1f ms > %.1f ms" % (
                lag_label, lag_value, MAX_GENERATOR_LAG_MS))
        out["serve_ok_share"] = (1 - stats.ratio(late, len(latency)), "share",
                                 "Ok and on time / attempted at %g/s" %
                                 info["rate"])
    if not op:
        checks.append("no timed operations")
        return out, attempted, failed
    # dynp-sim and serve-mix time each step or request by its fastest round
    # (perfbench.cpp and stats.fastest); study's steps are few and slow.
    p50, (label, tail) = stats.median(op), stats.tail(op)
    n = {"study": "over %d step solves" % len(op),
         "dynp-sim": "over %d steps, each its fastest of %s rounds" % (
             len(op), info.get("rounds")),
         "serve-mix": "over %d requests, each its fastest of %s cycles" % (
             len(op), info.get("cycles"))}[workload]
    out["setup_s"] = (stats.median(result["setup_s"]), "s",
                      "median of %d set-ups" % len(result["setup_s"]))
    out["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MB", "")
    out["op_p50_ms"] = (p50, "ms", n)
    out["op_tail_ms"] = (tail, "ms", "%s, %s" % (label, n))
    out["throughput"] = (result["throughput"], "1/s", {
        "study": "B&B nodes per second of study_s",
        "dynp-sim": "simulated jobs per second",
        "serve-mix": "saturation answers per second"}[workload])
    if workload == "study":
        out["study_s"] = (stats.median(info["study_s"]), "s",
                          "median of %d passes" % len(info["study_s"]))
        out["ilp_sldwa"] = (info["ilp_sldwa"], "sldwa", "")
        out["optimal_share"] = (info["optimal_share"], "share", "")
    elif workload == "dynp-sim":
        out["sim_jobs_per_s"] = (info["sim_jobs_per_s"], "1/s",
                                 "%d segments, each its fastest of %d "
                                 "rounds" % (len(info["segment_s"]),
                                             info["rounds"]))
        out["policy_step_us_p50"] = (1e3 * p50, "us", n)
        out["policy_step_us_" + label] = (1e3 * tail, "us", n)
    else:
        out["serve_p50_ms"] = (p50, "ms", "from the due time, %s" % n)
        out["serve_%s_ms" % label] = (tail, "ms", "from the due time, %s" % n)
        out["serve_saturation_rps"] = (result["throughput"], "1/s",
                                       "fastest of %d closed-loop bursts of "
                                       "%d requests, 2 clients" % (
                                           info["cycles"],
                                           info["burst_requests"]))
    return out, attempted, failed


def per_layer(result, workload):
    """Per-layer metrics from the traced run's spans; every other per-layer
    metric is a counter of the run, 0 where the workload has none."""
    spans = result["spans"]
    counters = result["counters"]

    def total_s(name):
        return sum(stats.durations(spans, name)) / 1e6

    def mean_us(name):
        d = stats.durations(spans, name)
        return sum(d) / len(d) if d else 0.0

    def median_ms(name):
        return stats.median(stats.durations(spans, name)) / 1e3

    def counter(name):
        return counters.get(name, 0)

    m = dict(counters)
    steps = stats.durations(spans, "core.self_tuning_step")
    m.update({
        "trace.generate_s": total_s("trace.generate"),
        "sim.run_s": total_s("sim.run"),
        "core.self_tuning_step_us_p50": stats.median(steps),
        "core.self_tuning_step_us_p99": stats.tail(steps)[1] if steps else 0,
        "core.plan_us": mean_us("core.plan"),
        "core.evaluate_us": mean_us("core.evaluate"),
        "tip.make_instance_s": total_s("tip.make_instance"),
        "tip.build_model_s": total_s("tip.build_model"),
        "tip.compaction_s": total_s("tip.compaction"),
        "tip.supervised_s": total_s("tip.supervised"),
        "tip.request_snapshot_s": total_s("tip.request_snapshot"),
        "tip.order_bnb_s": total_s("tip.order_bnb"),
        "mip.solve_s": total_s("mip.solve"),
        "mip.iterations_per_node": stats.ratio(counter("mip.lp_iterations"),
                                               counter("mip.nodes")),
        "lp.root_s": total_s("lp.solve_root"),
        "analysis.validate_s": total_s("analysis.validate"),
        "serve.codec_us": mean_us("serve.codec"),
        "serve.fingerprint_us": mean_us("serve.fingerprint"),
        "serve.handle_hit_ms": median_ms("serve.handle_hit"),
        "serve.handle_solve_ms": median_ms("serve.handle_solve"),
        "serve.solve_ms": median_ms("serve.solve"),
        "serve.cache_hit_ratio": stats.ratio(
            counter("serve.cache_hits"),
            counter("serve.accepted") + counter("serve.cache_hits")),
        "util.read_journal_s": total_s("util.read_journal"),
        "trace.spans": len(spans),
    })
    layer_self = stats.layer_self_times(spans)
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self.get(layer, 0.0) / 1e6
    m["serve.wait_ms"] = 0.0
    m["serve.generator_lag_ms"] = 0.0
    m["overhead.serve_p50_ms"] = 0.0
    if workload == "serve-mix":
        latency, lag, wait, _, traced = serve_samples(result)
        fastest = stats.fastest(latency, result["info"]["cycles"])
        m["serve.wait_ms"] = stats.median(wait)
        m["serve.generator_lag_ms"] = stats.tail(lag)[1]
        m["overhead.serve_p50_ms"] = (
            stats.median([v for v, t in zip(fastest, traced) if t]) -
            stats.median([v for v, t in zip(fastest, traced) if not t]))
    return m


def self_test():
    suite = unittest.defaultTestLoader.discover(str(HERE), "test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the self-tests of the benchmark arithmetic")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure(build(), args)
    checks = ["%s: %s" % (name, detail)
              for name, detail in result["failed_checks"]]
    if args.workload == "study":
        mismatch = bench_exact_mismatch(result["info"])
        if mismatch:
            checks.append("study.bench_exact: " + mismatch)

    build_info = result["build"]
    print("dynsched perfbench: workload %s, seed %d, %d s, trace %d; "
          "build %s, DYNSCHED_AUDIT %s; %d checks run" % (
              args.workload, args.seed, args.seconds, args.trace,
              build_info["type"], "ON" if build_info["audit"] else "OFF",
              result["checks_run"]))
    numbers, attempted, failed = headline(result, args.workload, checks)
    for name, (value, unit, note) in numbers.items():
        print("  %-28s %14.6g %-6s %s" % (name, value, unit, note))

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(result, args.workload)
        print("per layer (traced run; 0 where the workload does not reach "
              "the layer):")
    else:
        wanted = spec["end_to_end"]
        values = {name: v[0] for name, v in numbers.items()}
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"], 0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            checks.append("metric %s is not a number" % metric["name"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if args.trace:
            print("  %-32s %14.6g %s" % (metric["name"], value,
                                         metric["unit"]))
        elif value <= 0:
            checks.append("end-to-end metric %s is %g" % (metric["name"],
                                                          value))

    for check in checks:
        print("CHECK FAILED " + check, file=sys.stderr)
    correct = not checks
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics if correct else {}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
