#!/usr/bin/env python3
"""Compare a fresh bench_exact_solvers JSON report against the committed
baseline (BENCH_exact.json) and fail on regressions.

Usage: bench_check.py BASELINE CURRENT [CURRENT...] [--tolerance 0.20]
                                       [--time-tolerance 0.50]
       bench_check.py --serve BASELINE CURRENT [--time-tolerance 0.50]
       bench_check.py --self-test

With --serve the reports come from bench_serve_throughput (BENCH_serve.json)
and the gate switches to the serving-layer invariants:
  * zero errors, server-side and client-side;
  * every issued request reached exactly one final outcome
    (issued == ok + shedFinal + errorsFinal);
  * answer accounting balances (completed == accepted + cacheHits);
  * the shed rate stays under the report's own thresholds.maxShedRate;
  * p99 latency is gated (absolute threshold + growth vs the baseline)
    only when the host block matches — cross-host timings are skipped
    loudly, the invariants above still gate.

What is gated, and why:
  * Deterministic counters (total B&B nodes for the scaled ILP and the order
    B&B, LP rows/columns) must not grow by more than --tolerance relative to
    the baseline. For a pinned scenario and node cap these are
    bit-reproducible on every host, so any growth is a real algorithmic
    regression, not noise. Shrinking is reported as an improvement (rerun
    the baseline to bank it), never failed. The node LPs' basis
    factorizations (ilpRefactorizations) gate the same way whenever both
    reports carry them.
  * Allocation counters (allocCount/allocBytes/peakBytes, schema v2) gate
    the same way when BOTH reports were produced with allocation tracking
    (allocTracking true). A baseline without them (schema v1) is accepted
    with a note; a current report without tracking skips the allocation
    gate loudly.
  * Solution quality (avgScaledLossPct / avgTrueLossPct) must match to a
    tight tolerance — the counters moving is suspicious, the answer moving
    is wrong.
  * Wall-clock seconds are compared only when the host block (cpu count +
    compiler) matches the baseline's, with the looser --time-tolerance;
    cross-host timing comparisons are meaningless and are skipped loudly.

Several CURRENT reports are replays of the same scenario. The wall-clock
gate then takes the fastest replay's seconds (a shared host only ever slows
a run down), the counter gates read the first, and the replays must agree
on every deterministic counter and quality value — a counter that moves
between identical runs is a bug, whatever the baseline says. peakBytes is
left out of that agreement: it moves by a few bytes with the size of the
process environment.

The two reports must come from the same pinned scenario (config block);
comparing different scenarios is a usage error (exit 2), not a pass. All
usage errors — unreadable file, malformed JSON, non-object report, a
schemaVersion newer than this script understands — are reported as one
structured line on stderr (`bench_check: ERROR <what>: <detail>`) with
exit 2, never a traceback.

Exit codes: 0 ok, 1 regression, 2 usage/config mismatch.
"""

import argparse
import json
import sys

COUNTERS = ("ilpNodes", "exactNodes", "lpRows", "lpColumns")
# Gated like COUNTERS, but only when both reports carry them (a baseline
# may predate them).
OPTIONAL_COUNTERS = ("ilpRefactorizations",)
ALLOC_COUNTERS = ("allocCount", "allocBytes", "peakBytes")
VALUES = ("avgScaledLossPct", "avgTrueLossPct")
SECONDS = ("ilpSeconds", "exactSeconds")
# What replays of one scenario must reproduce exactly (see the docstring).
REPLAY_INVARIANTS = (COUNTERS + OPTIONAL_COUNTERS + ("allocCount", "allocBytes")
                     + VALUES)
VALUE_TOLERANCE = 1e-4  # quality values are deterministic; allow fp dust
MAX_SCHEMA_VERSION = 2  # v1 reports predate the alloc counters


class UsageError(Exception):
    """Structured exit-2 failure: `what` names the stage, `detail` the cause."""

    def __init__(self, what, detail):
        super().__init__(f"{what}: {detail}")
        self.what = what
        self.detail = detail


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise UsageError(f"cannot read {path}", error.strerror or str(error))
    try:
        report = json.loads(text)
    except ValueError as error:
        raise UsageError(f"malformed JSON in {path}", str(error))
    if not isinstance(report, dict):
        raise UsageError(f"malformed report {path}",
                         f"expected a JSON object, got {type(report).__name__}")
    version = report.get("schemaVersion", 1)
    if not isinstance(version, int) or version < 1:
        raise UsageError(f"malformed report {path}",
                         f"schemaVersion must be a positive int, got {version!r}")
    if version > MAX_SCHEMA_VERSION:
        raise UsageError(
            f"unsupported schema in {path}",
            f"schemaVersion {version} is newer than this script "
            f"(max {MAX_SCHEMA_VERSION}); update scripts/bench_check.py")
    return report


def compare(base, replays, tolerance, time_tolerance):
    """Gates one or more replays of the baseline's scenario. Returns
    (failures, notes); raises UsageError on config mismatch."""
    for cur in replays:
        if base.get("config") != cur.get("config"):
            raise UsageError(
                "config mismatch",
                f"baseline {base.get('config')} vs current "
                f"{cur.get('config')}; rerun the bench with the baseline's "
                "pinned scenario")

    cur = replays[0]
    base_totals = base.get("totals", {})
    cur_totals = cur.get("totals", {})
    failures = []
    notes = []

    if len(replays) > 1:
        disagreed = False
        for key in REPLAY_INVARIANTS:
            seen = [replay.get("totals", {}).get(key) for replay in replays]
            if any(value != seen[0] for value in seen):
                disagreed = True
                failures.append(f"{key}: replays disagree {seen} — a "
                                "deterministic counter moved between "
                                "identical runs")
        if not disagreed:
            notes.append(f"{len(replays)} replays agree on every "
                         "deterministic counter")

    if base_totals.get("steps") != cur_totals.get("steps"):
        failures.append(
            f"steps solved changed: {base_totals.get('steps')} -> "
            f"{cur_totals.get('steps')}")

    def gate_counter(key, required):
        old, new = base_totals.get(key), cur_totals.get(key)
        if old is None or new is None:
            if required:
                failures.append(f"{key}: missing from report")
            return
        if old == 0:
            if new != 0:
                failures.append(f"{key}: baseline 0, current {new}")
            return
        rel = (new - old) / old
        line = f"{key}: {old} -> {new} ({rel:+.1%})"
        if rel > tolerance:
            failures.append(line + f" exceeds +{tolerance:.0%}")
        elif rel < -tolerance:
            notes.append(line + " — improvement; rerun scripts/check.sh "
                                "--rebaseline-bench to bank it")
        else:
            notes.append(line)

    for key in COUNTERS:
        gate_counter(key, required=True)
    for key in OPTIONAL_COUNTERS:
        gate_counter(key, required=False)

    base_tracked = bool(base.get("allocTracking"))
    cur_tracked = bool(cur.get("allocTracking"))
    if base_tracked and cur_tracked:
        for key in ALLOC_COUNTERS:
            gate_counter(key, required=True)
    elif base_tracked:
        notes.append("current report lacks allocation tracking "
                     "(build with -DDYNSCHED_ALLOC_TRACK=ON) — "
                     "allocation gate skipped")
    elif cur_tracked:
        notes.append("baseline predates allocation tracking — allocation "
                     "counters reported but not gated; rebaseline to arm them")
    else:
        notes.append("allocation tracking off in both reports — "
                     "allocation gate skipped")

    for key in VALUES:
        old, new = base_totals.get(key), cur_totals.get(key)
        if old is None or new is None:
            failures.append(f"{key}: missing from report")
            continue
        if abs(new - old) > VALUE_TOLERANCE * max(1.0, abs(old)):
            failures.append(f"{key}: {old} -> {new} — solution quality moved")
        else:
            notes.append(f"{key}: {old} -> {new}")

    if base.get("host") == cur.get("host"):
        for key in SECONDS:
            old = base_totals.get(key)
            times = [replay.get("totals", {}).get(key) for replay in replays]
            if not old or None in times:
                continue
            new = min(times)
            rel = (new - old) / old
            line = f"{key}: {old:.2f}s -> {new:.2f}s ({rel:+.1%})"
            if len(replays) > 1:
                line += f", fastest of {len(replays)} replays"
            if rel > time_tolerance:
                failures.append(line + f" exceeds +{time_tolerance:.0%}")
            else:
                notes.append(line)
    else:
        notes.append(f"host differs ({base.get('host')} vs {cur.get('host')})"
                     " — wall-clock comparison skipped, counters still gate")

    return failures, notes


def serve_compare(base, cur, time_tolerance):
    """Serving-layer gate (--serve). Returns (failures, notes); raises
    UsageError on config/bench mismatch."""
    for report, name in ((base, "baseline"), (cur, "current")):
        if report.get("bench") != "bench_serve_throughput":
            raise UsageError(
                f"wrong bench in {name} report",
                f"expected bench_serve_throughput, got {report.get('bench')!r}")
    if base.get("config") != cur.get("config"):
        raise UsageError(
            "config mismatch",
            f"baseline {base.get('config')} vs current {cur.get('config')}; "
            "rerun the bench with the baseline's pinned scenario")

    totals = cur.get("totals", {})
    thresholds = cur.get("thresholds", {})
    failures = []
    notes = []

    def total(key):
        value = totals.get(key)
        if value is None:
            failures.append(f"{key}: missing from report")
            return 0
        return value

    issued = total("issued")
    ok = total("ok")
    shed_final = total("shedFinal")
    errors_final = total("errorsFinal")
    accepted = total("accepted")
    completed = total("completed")
    cache_hits = total("cacheHits")
    errors = total("errors")

    if errors or errors_final:
        failures.append(
            f"errors: server {errors}, client-final {errors_final} — the "
            "serve path must be error-free")
    if issued != ok + shed_final + errors_final:
        failures.append(
            f"outcome accounting: issued {issued} != ok {ok} + shed "
            f"{shed_final} + errors {errors_final} — a request was dropped "
            "or double-counted")
    else:
        notes.append(f"outcomes: {issued} issued -> {ok} ok, "
                     f"{shed_final} shed, {errors_final} errors")
    if not errors and completed != accepted + cache_hits:
        failures.append(
            f"answer accounting: completed {completed} != accepted "
            f"{accepted} + cacheHits {cache_hits}")
    else:
        notes.append(f"answers: {accepted} solved + {cache_hits} replayed "
                     f"= {completed} completed")

    shed_rate = cur.get("shedRate", 0.0)
    max_shed = thresholds.get("maxShedRate")
    if max_shed is None:
        failures.append("thresholds.maxShedRate: missing from report")
    elif shed_rate > max_shed:
        failures.append(f"shedRate {shed_rate:.3f} exceeds the report's "
                        f"maxShedRate {max_shed:.3f}")
    else:
        notes.append(f"shedRate {shed_rate:.3f} (max {max_shed:.3f})")

    if base.get("host") == cur.get("host"):
        p99 = cur.get("latency", {}).get("p99Ms", 0.0)
        base_p99 = base.get("latency", {}).get("p99Ms", 0.0)
        max_p99 = thresholds.get("maxP99Ms")
        if max_p99 is not None and p99 > max_p99:
            failures.append(f"p99 {p99:.1f}ms exceeds maxP99Ms {max_p99:.1f}ms")
        elif base_p99 and (p99 - base_p99) / base_p99 > time_tolerance:
            failures.append(
                f"p99 {base_p99:.1f}ms -> {p99:.1f}ms exceeds "
                f"+{time_tolerance:.0%}")
        else:
            notes.append(f"p99 {base_p99:.1f}ms -> {p99:.1f}ms")
    else:
        notes.append(f"host differs ({base.get('host')} vs {cur.get('host')})"
                     " — latency gate skipped, invariants still gate")

    return failures, notes


# --- self-test ---------------------------------------------------------------

def _report(counters=None, alloc=None, config="pinned", host="h1",
            schema=None, tracking=None):
    totals = {"steps": 3, "ilpNodes": 100, "exactNodes": 50, "lpRows": 10,
              "lpColumns": 20, "avgScaledLossPct": 0.5, "avgTrueLossPct": 0.25,
              "ilpSeconds": 1.0, "exactSeconds": 2.0}
    totals.update(counters or {})
    report = {"config": config, "host": host, "totals": totals}
    if alloc is not None:
        report["allocTracking"] = True
        totals.update(alloc)
    if tracking is not None:
        report["allocTracking"] = tracking
    if schema is not None:
        report["schemaVersion"] = schema
    return report


def _serve_report(totals=None, shed_rate=0.0, p99=500.0, host="h1",
                  thresholds=None):
    base_totals = {"issued": 30, "ok": 30, "shedFinal": 0, "errorsFinal": 0,
                   "accepted": 15, "completed": 30, "cacheHits": 15,
                   "shed": 2, "errors": 0, "seconds": 10.0,
                   "requestsPerSecond": 3.0}
    base_totals.update(totals or {})
    return {"bench": "bench_serve_throughput", "schemaVersion": 1,
            "config": {"requests": 30}, "host": host, "totals": base_totals,
            "latency": {"p50Ms": 100.0, "p99Ms": p99},
            "rungHistogram": [15, 0, 0, 0], "shedRate": shed_rate,
            "thresholds": thresholds or {"maxShedRate": 0.25,
                                         "maxP99Ms": 60000}}


def self_test():
    import copy
    import os
    import tempfile

    checks = []

    def check(name, condition):
        status = "PASSED" if condition else "FAILED"
        checks.append((name, condition))
        print(f"bench_check self-test: {name} ... {status}")

    base = _report()
    check("identical reports pass",
          compare(base, [copy.deepcopy(base)], 0.20, 0.50)[0] == [])

    grown = _report(counters={"ilpNodes": 130})
    check("counter growth past tolerance fails",
          any("ilpNodes" in f for f in compare(base, [grown], 0.20, 0.50)[0]))

    shrunk = _report(counters={"ilpNodes": 50})
    failures, notes = compare(base, [shrunk], 0.20, 0.50)
    check("counter shrink is an improvement note, not a failure",
          failures == [] and any("improvement" in n for n in notes))

    alloc_base = _report(alloc={"allocCount": 1000, "allocBytes": 8000,
                                "peakBytes": 4000}, schema=2)
    alloc_grown = _report(alloc={"allocCount": 1300, "allocBytes": 8000,
                                 "peakBytes": 4000}, schema=2)
    check("allocCount growth past tolerance fails",
          any("allocCount" in f
              for f in compare(alloc_base, [alloc_grown], 0.20, 0.50)[0]))

    untracked = _report(schema=2, tracking=False)
    failures, notes = compare(alloc_base, [untracked], 0.20, 0.50)
    check("untracked current skips the allocation gate with a note",
          failures == [] and any("allocation gate skipped" in n for n in notes))

    failures, notes = compare(base, [alloc_grown], 0.20, 0.50)
    check("v1 baseline accepts v2 current without gating allocs",
          failures == [] and any("rebaseline" in n for n in notes))

    moved = _report(counters={"avgTrueLossPct": 0.30})
    check("solution-quality drift fails",
          any("quality moved" in f for f in compare(base, [moved], 0.20, 0.50)[0]))

    try:
        compare(base, [_report(config="other")], 0.20, 0.50)
        check("config mismatch raises", False)
    except UsageError:
        check("config mismatch raises", True)

    refac_base = _report(counters={"ilpRefactorizations": 100})
    refac_grown = _report(counters={"ilpRefactorizations": 130})
    check("ilpRefactorizations growth past tolerance fails",
          any("ilpRefactorizations" in f
              for f in compare(refac_base, [refac_grown], 0.20, 0.50)[0]))
    failures, notes = compare(base, [refac_grown], 0.20, 0.50)
    check("a baseline without ilpRefactorizations does not gate it",
          failures == [] and not any("ilpRefactorizations" in n
                                     for n in notes))

    slow, fast = (_report(counters={"ilpSeconds": t}) for t in (1.8, 1.2))
    failures, notes = compare(base, [slow, fast, slow], 0.20, 0.50)
    check("the fastest replay gates the wall clock",
          failures == [] and any("fastest of 3" in n for n in notes))
    check("every replay past the time tolerance fails",
          any("ilpSeconds" in f
              for f in compare(base, [slow, slow, slow], 0.20, 0.50)[0]))

    failures, notes = compare(base, [base, _report(counters={"ilpNodes": 101}),
                                     base], 0.20, 0.50)
    check("replays that disagree on a counter fail",
          any("replays disagree" in f and "ilpNodes" in f for f in failures))
    failures, notes = compare(
        alloc_base, [alloc_base,
                     _report(alloc={"allocCount": 1000, "allocBytes": 8000,
                                    "peakBytes": 4008}, schema=2)],
        0.20, 0.50)
    check("replays may differ in peakBytes",
          failures == [] and any("replays agree" in n for n in notes))

    with tempfile.TemporaryDirectory() as tmp:
        missing = os.path.join(tmp, "missing.json")
        try:
            load(missing)
            check("missing file is a structured error", False)
        except UsageError as error:
            check("missing file is a structured error",
                  "cannot read" in error.what)

        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        try:
            load(bad)
            check("malformed JSON is a structured error", False)
        except UsageError as error:
            check("malformed JSON is a structured error",
                  "malformed JSON" in error.what)

        future = os.path.join(tmp, "future.json")
        with open(future, "w", encoding="utf-8") as handle:
            json.dump(_report(schema=99), handle)
        try:
            load(future)
            check("future schemaVersion is a structured error", False)
        except UsageError as error:
            check("future schemaVersion is a structured error",
                  "unsupported schema" in error.what)

    serve_base = _serve_report()
    check("serve: healthy report passes",
          serve_compare(serve_base, copy.deepcopy(serve_base), 0.50)[0] == [])

    erred = _serve_report(totals={"errors": 1})
    check("serve: server errors fail",
          any("error-free" in f
              for f in serve_compare(serve_base, erred, 0.50)[0]))

    dropped = _serve_report(totals={"ok": 29})
    check("serve: a dropped request fails outcome accounting",
          any("outcome accounting" in f
              for f in serve_compare(serve_base, dropped, 0.50)[0]))

    unbalanced = _serve_report(totals={"cacheHits": 14})
    check("serve: answer accounting imbalance fails",
          any("answer accounting" in f
              for f in serve_compare(serve_base, unbalanced, 0.50)[0]))

    shedding = _serve_report(shed_rate=0.40)
    check("serve: shed rate above threshold fails",
          any("maxShedRate" in f
              for f in serve_compare(serve_base, shedding, 0.50)[0]))

    slow = _serve_report(p99=900.0)
    check("serve: p99 growth on a matching host fails",
          any("p99" in f for f in serve_compare(serve_base, slow, 0.50)[0]))

    other_host = _serve_report(p99=900.0, host="h2")
    failures, notes = serve_compare(serve_base, other_host, 0.50)
    check("serve: host mismatch skips the latency gate with a note",
          failures == [] and any("latency gate skipped" in n for n in notes))

    try:
        serve_compare(serve_base, _report(), 0.50)
        check("serve: a non-serve report raises", False)
    except UsageError:
        check("serve: a non-serve report raises", True)

    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"bench_check self-test: {len(failed)}/{len(checks)} FAILED",
              file=sys.stderr)
        return 1
    print(f"bench_check self-test: {len(checks)} checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="bench_exact_solvers baseline regression gate")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="*",
                        help="one report, or several replays of the "
                             "scenario (not with --serve)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative counter growth (default 0.20)")
    parser.add_argument("--time-tolerance", type=float, default=0.50,
                        help="allowed relative wall-clock growth on a "
                             "matching host (default 0.50)")
    parser.add_argument("--serve", action="store_true",
                        help="gate bench_serve_throughput reports instead")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if (not args.baseline or not args.current
            or (args.serve and len(args.current) != 1)):
        print("bench_check: ERROR usage: bench_check.py BASELINE CURRENT "
              "[CURRENT...] (one CURRENT with --serve; or --self-test)",
              file=sys.stderr)
        return 2

    try:
        base = load(args.baseline)
        replays = [load(path) for path in args.current]
        if args.serve:
            failures, notes = serve_compare(base, replays[0],
                                            args.time_tolerance)
        else:
            failures, notes = compare(base, replays, args.tolerance,
                                      args.time_tolerance)
    except UsageError as error:
        print(f"bench_check: ERROR {error.what}: {error.detail}",
              file=sys.stderr)
        return 2

    for note in notes:
        print(f"bench_check: {note}")
    for failure in failures:
        print(f"bench_check: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print("bench_check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
