#!/usr/bin/env bash
# Correctness driver: runs the full ctest suite under ASan/UBSan and TSan
# with the schedule audit enabled, builds src/ under the curated .clang-tidy
# gate and under Clang's -Wthread-safety capability analysis, runs the
# dynsched-lint project-rule linter (including the DSL1xx hot-path
# performance rules), fuzzes the parser harnesses for a fixed 30-second
# budget each, and replays the pinned bench_exact_solvers scenario three
# times — with allocation tracking compiled in — against the committed
# BENCH_exact.json baseline, counters and allocation totals both (the
# replays must agree on every counter; the fastest gates the wall clock).
# Exits non-zero on any
# failure; missing required tools fail fast instead of silently skipping a
# gate.
#
# The serve leg drives the dynsched-server daemon end to end: a reference
# run with a graceful SIGTERM drain, a journal-resume replay that must diff
# byte-identical, a five-kind fault soak that must still answer every
# request, a kill matrix (SIGKILL-equivalent exit 137 right after answer N,
# then resume), and a 10-second run of the benchmark's serve-mix workload
# (perfbench/run.py), which must pass every check and fail no operation.
#
# Usage: scripts/check.sh [--jobs N] [--rebaseline-bench]
#          [--skip asan|tsan|tidy|wsafety|lint|fuzz|faults|kill|serve|bench]...
#
# --rebaseline-bench copies the fastest bench replay over BENCH_exact.json,
# the one committed baseline; the serve leg has none to refresh.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
FUZZ_SECONDS=30
SKIP=""
REBASELINE_BENCH=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --skip) SKIP="$SKIP $2"; shift 2 ;;
    --rebaseline-bench) REBASELINE_BENCH=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

skip() { [[ " $SKIP " == *" $1 "* ]]; }

# Tool preflight: a gate whose tool is absent must fail loudly, not produce
# a green run that never executed. Opting out is explicit via --skip.
if ! skip tidy && ! command -v clang-tidy > /dev/null 2>&1; then
  echo "check.sh: clang-tidy not found but the tidy gate is enabled." >&2
  echo "  install it (e.g. 'apt-get install clang-tidy') or pass" >&2
  echo "  '--skip tidy' to opt out explicitly." >&2
  exit 2
fi
if ! skip wsafety && ! command -v clang++ > /dev/null 2>&1; then
  echo "check.sh: clang++ not found but the -Wthread-safety gate is" >&2
  echo "  enabled (the capability annotations only mean something to" >&2
  echo "  Clang). Install clang or pass '--skip wsafety' explicitly." >&2
  exit 2
fi

# Every audited code path validates its schedules during these runs.
export DYNSCHED_AUDIT=1
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

run_mode() {
  local name="$1"; shift
  local dir="build-$name"
  echo "=== [$name] configure + build ==="
  cmake -B "$dir" -S . -DDYNSCHED_WERROR=ON "$@" > "$dir.cmake.log" 2>&1 || {
    cat "$dir.cmake.log"; return 1;
  }
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

FAILED=""

# build-plain doubles as the bench build; allocation tracking is compiled in
# so the replayed scenario carries the alloc counters the baseline gates on.
PLAIN_FLAGS=(-DDYNSCHED_WERROR=ON -DDYNSCHED_ALLOC_TRACK=ON)

if ! skip lint; then
  # dynsched-lint first: it is the cheapest gate and its findings (a raw
  # std::mutex, an unguarded write) usually explain later failures. The
  # linter deliberately links nothing from src/, so this builds even when
  # the tree under scan does not. The layer contract is always on here, and
  # the resolved module graph is emitted as JSON + dot on every run.
  echo "=== [lint] dynsched-lint over src/ and tools/ ==="
  cmake -B build-plain -S . "${PLAIN_FLAGS[@]}" > build-plain.cmake.log 2>&1 \
    || { cat build-plain.cmake.log; FAILED="$FAILED lint"; }
  if [[ " $FAILED " != *" lint "* ]]; then
    cmake --build build-plain -j "$JOBS" --target dynsched_lint \
      && build-plain/tools/dynsched_lint --layers tools/lint/layers.txt \
           --graph-json build-plain/module_graph.json \
           --graph-dot build-plain/module_graph.dot src tools \
      || FAILED="$FAILED lint"
  fi
  if [[ " $FAILED " != *" lint "* ]]; then
    # The rule tables in DESIGN.md must list exactly the shipped catalog.
    echo "=== [lint] rule catalog vs DESIGN.md ==="
    python3 scripts/lint_rules_check.py build-plain/tools/dynsched_lint \
      || FAILED="$FAILED lint"
  fi
fi

if ! skip asan; then
  run_mode asan -DDYNSCHED_SANITIZE="address,undefined" || FAILED="$FAILED asan"
fi

if ! skip tsan; then
  # Allocation tracking is compiled in here so TSan watches the counting
  # hooks too (alloc_tracker_test's ThreadPool test races them on purpose).
  run_mode tsan -DDYNSCHED_SANITIZE=thread -DDYNSCHED_ALLOC_TRACK=ON \
    || FAILED="$FAILED tsan"
fi

if ! skip faults; then
  # Fault matrix: each DYNSCHED_FAULTS kind forces a different rung of the
  # supervised degradation ladder; the FaultMatrix suite asserts that the
  # study still completes with a feasible schedule on every step. Runs
  # against the ASan build so a fault-path bug also trips the sanitizers.
  if [[ ! -x build-asan/tests/supervised_test ]]; then
    echo "=== [faults] building supervised_test (asan) ==="
    cmake -B build-asan -S . -DDYNSCHED_WERROR=ON \
        -DDYNSCHED_SANITIZE="address,undefined" > build-asan.cmake.log 2>&1 \
      || { cat build-asan.cmake.log; FAILED="$FAILED faults"; }
    [[ " $FAILED " == *" faults "* ]] \
      || cmake --build build-asan -j "$JOBS" --target supervised_test \
      || FAILED="$FAILED faults"
  fi
  if [[ " $FAILED " != *" faults "* ]]; then
    for fault in deadline-now oom-at-estimate lp-numerical-failure \
                 lp-numerical-failure=1 fail-at-node=1 fail-at-step=0 \
                 fail-at-step=all; do
      echo "=== [faults] DYNSCHED_FAULTS=$fault ==="
      DYNSCHED_FAULTS="$fault" build-asan/tests/supervised_test \
          --gtest_filter='FaultMatrix.*' \
        || { FAILED="$FAILED faults"; break; }
    done
  fi
fi

if ! skip kill; then
  # Kill matrix: run a small journaled study, hard-kill the process right
  # after it persists row N (DYNSCHED_FAULTS=kill-at-step=N, exit 137), then
  # resume from the journal. The canonical (timing-free) report must be
  # byte-identical to an uninterrupted journal-free run for N in {first,
  # mid, last}. A stale journal written by an incompatible format version
  # must fail fast with a structured error, not be misread; a bare header
  # (a process killed before its meta record) must resume as a fresh run.
  if [[ ! -x build-asan/bench/bench_table1 ]]; then
    echo "=== [kill] building bench_table1 (asan) ==="
    cmake -B build-asan -S . -DDYNSCHED_WERROR=ON \
        -DDYNSCHED_SANITIZE="address,undefined" > build-asan.cmake.log 2>&1 \
      || { cat build-asan.cmake.log; FAILED="$FAILED kill"; }
    [[ " $FAILED " == *" kill "* ]] \
      || cmake --build build-asan -j "$JOBS" --target bench_table1 \
      || FAILED="$FAILED kill"
  fi
  if [[ " $FAILED " != *" kill "* ]]; then
    KILL_DIR="$(mktemp -d)"
    # Node-limited (not time-limited) solves: wall-clock cutoffs are not
    # reproducible, a node budget is, and byte-identical resume needs
    # deterministic solves.
    BENCH=(build-asan/bench/bench_table1 --trace-jobs 400 --rows 4
           --max-waiting 12 --time-limit 900 --max-nodes 300 --threads 1)
    echo "=== [kill] reference run (no journal) ==="
    "${BENCH[@]}" --report "$KILL_DIR/reference.txt" > /dev/null \
      || FAILED="$FAILED kill"
    # 4 rows -> kill after persisting the first (0), a middle (2), and the
    # last (3) row; the resumed run must reproduce the reference exactly.
    for step in 0 2 3; do
      [[ " $FAILED " == *" kill "* ]] && break
      echo "=== [kill] kill-at-step=$step -> resume ==="
      rc=0
      DYNSCHED_FAULTS="kill-at-step=$step" "${BENCH[@]}" \
          --journal "$KILL_DIR/step$step.journal" > /dev/null 2>&1 || rc=$?
      if [[ "$rc" -ne 137 ]]; then
        echo "kill-at-step=$step: expected exit 137, got $rc" >&2
        FAILED="$FAILED kill"
        break
      fi
      "${BENCH[@]}" --journal "$KILL_DIR/step$step.journal" --resume \
          --report "$KILL_DIR/step$step.txt" > /dev/null \
        || { FAILED="$FAILED kill"; break; }
      cmp "$KILL_DIR/reference.txt" "$KILL_DIR/step$step.txt" \
        || { echo "kill-at-step=$step: resumed report differs" >&2
             FAILED="$FAILED kill"; break; }
    done
    if [[ " $FAILED " != *" kill "* ]]; then
      echo "=== [kill] stale journal format version fails fast ==="
      printf 'DSJRNL1\n\x02\x00\x00\x00\x00\x00\x00\x00' \
        > "$KILL_DIR/stale.journal"
      rc=0
      "${BENCH[@]}" --journal "$KILL_DIR/stale.journal" --resume \
          > /dev/null 2> "$KILL_DIR/stale.err" || rc=$?
      if [[ "$rc" -eq 0 ]] \
          || ! grep -q "incompatible format version" "$KILL_DIR/stale.err"; then
        echo "stale journal: expected a structured version error, got" \
             "exit $rc:" >&2
        cat "$KILL_DIR/stale.err" >&2
        FAILED="$FAILED kill"
      fi
    fi
    if [[ " $FAILED " != *" kill "* ]]; then
      echo "=== [kill] bare-header journal resumes as a fresh run ==="
      # The exact 16 bytes JournalWriter::create writes before the meta record.
      printf 'DSJRNL1\n\x01\x00\x00\x00\x42\x6b\x46\xfe' \
        > "$KILL_DIR/bare.journal"
      "${BENCH[@]}" --journal "$KILL_DIR/bare.journal" --resume \
          --report "$KILL_DIR/bare.txt" > /dev/null \
        || { echo "bare-header journal: resume failed" >&2
             FAILED="$FAILED kill"; }
      [[ " $FAILED " == *" kill "* ]] \
        || cmp "$KILL_DIR/reference.txt" "$KILL_DIR/bare.txt" \
        || { echo "bare-header journal: resumed report differs" >&2
             FAILED="$FAILED kill"; }
    fi
    rm -rf "$KILL_DIR"
  fi
fi

if ! skip serve; then
  # Serving layer end to end. All requests are node-limited (never
  # wall-clock-limited) — same determinism rationale as the kill matrix:
  # replayed and re-solved answers must diff byte-identical.
  echo "=== [serve] build server and client ==="
  cmake -B build-plain -S . "${PLAIN_FLAGS[@]}" > build-plain.cmake.log 2>&1 \
    || { cat build-plain.cmake.log; FAILED="$FAILED serve"; }
  if [[ " $FAILED " != *" serve "* ]]; then
    cmake --build build-plain -j "$JOBS" --target \
        dynsched_server dynsched_client \
      || FAILED="$FAILED serve"
  fi
  if [[ " $FAILED " != *" serve "* ]]; then
    SERVE_DIR="$(mktemp -d)"
    SOCK="$SERVE_DIR/dynsched.sock"
    SERVER=(build-plain/tools/dynsched_server --socket "$SOCK")
    CLIENT=(build-plain/tools/dynsched_client --socket "$SOCK" --count 6
            --seed 7 --max-nodes 300 --retries 6 --timeout-ms 60000)
    serve_stop() {  # serve_stop PID EXPECTED_RC LABEL
      local rc=0
      kill -TERM "$1" 2> /dev/null || true
      wait "$1" || rc=$?
      if [[ "$rc" -ne "$2" ]]; then
        echo "serve: $3: expected exit $2, got $rc" >&2
        return 1
      fi
    }

    echo "=== [serve] reference run + graceful drain ==="
    "${SERVER[@]}" --journal "$SERVE_DIR/a.journal" 2> "$SERVE_DIR/a.log" &
    SERVER_PID=$!
    timeout 300 "${CLIENT[@]}" > "$SERVE_DIR/reference.txt" \
      || FAILED="$FAILED serve"
    serve_stop "$SERVER_PID" 0 "graceful drain" || FAILED="$FAILED serve"

    if [[ " $FAILED " != *" serve "* ]]; then
      echo "=== [serve] journal resume replays byte-identical ==="
      "${SERVER[@]}" --journal "$SERVE_DIR/a.journal" --resume \
          2> "$SERVE_DIR/b.log" &
      SERVER_PID=$!
      timeout 300 "${CLIENT[@]}" > "$SERVE_DIR/replay.txt" \
        || FAILED="$FAILED serve"
      cmp "$SERVE_DIR/reference.txt" "$SERVE_DIR/replay.txt" \
        || { echo "serve: resumed replay differs from the reference" >&2
             FAILED="$FAILED serve"; }
      timeout 60 "${CLIENT[@]}" --health > "$SERVE_DIR/health.txt" \
        || FAILED="$FAILED serve"
      grep -q "recovered 6 answers" "$SERVE_DIR/health.txt" \
        || { echo "serve: expected 6 recovered answers in:" >&2
             cat "$SERVE_DIR/health.txt" >&2; FAILED="$FAILED serve"; }
      serve_stop "$SERVER_PID" 0 "resume drain" || FAILED="$FAILED serve"
    fi

    if [[ " $FAILED " != *" serve "* ]]; then
      # Every injected serve fault must surface as a structured, retryable
      # client outcome: the full stream still answers Ok on every request.
      echo "=== [serve] fault soak (all five serve-path kinds) ==="
      scripts/serve_soak.sh build-plain/tools || FAILED="$FAILED serve"
    fi

    if [[ " $FAILED " != *" serve "* ]]; then
      # Kill matrix: exit 137 right after persisting answer N, resume from
      # the journal, re-send the stream — byte-identical to the reference.
      for step in 0 2; do
        echo "=== [serve] kill-at-step=$step -> resume ==="
        DYNSCHED_FAULTS="kill-at-step=$step" \
            "${SERVER[@]}" --journal "$SERVE_DIR/kill$step.journal" \
            2> "$SERVE_DIR/kill$step.log" &
        SERVER_PID=$!
        timeout 120 "${CLIENT[@]}" > /dev/null 2>&1 || true
        serve_stop "$SERVER_PID" 137 "kill-at-step=$step" \
          || { FAILED="$FAILED serve"; break; }
        "${SERVER[@]}" --journal "$SERVE_DIR/kill$step.journal" --resume \
            2>> "$SERVE_DIR/kill$step.log" &
        SERVER_PID=$!
        timeout 300 "${CLIENT[@]}" > "$SERVE_DIR/kill$step.txt" \
          || { FAILED="$FAILED serve"; break; }
        cmp "$SERVE_DIR/reference.txt" "$SERVE_DIR/kill$step.txt" \
          || { echo "serve: kill-at-step=$step resumed answers differ" >&2
               FAILED="$FAILED serve"; break; }
        serve_stop "$SERVER_PID" 0 "post-kill drain" \
          || { FAILED="$FAILED serve"; break; }
      done
    fi

    if [[ " $FAILED " != *" serve "* ]]; then
      # The benchmark's serve-mix workload: a journaled in-process server
      # under an open-loop stream and closed-loop bursts. Its checks compare
      # every served answer with a direct solve, allow one answer text per
      # fingerprint and one journal answer per solve, validate every
      # schedule, and allow no error and no shed; run.py exits non-zero when
      # one fails. A late or failed request counts in "failed".
      echo "=== [serve] perfbench serve-mix (10 s) ==="
      if python3 perfbench/run.py --workload serve-mix --seed 1 \
          --seconds 10 --trace 0 > "$SERVE_DIR/serve-mix.out"; then
        tail -n 1 "$SERVE_DIR/serve-mix.out"
        tail -n 1 "$SERVE_DIR/serve-mix.out" | python3 -c 'import json, sys
failed = json.load(sys.stdin)["failed"]
sys.exit(0 if failed == 0 else "serve: serve-mix failed %d requests" % failed)' \
          || FAILED="$FAILED serve"
      else
        cat "$SERVE_DIR/serve-mix.out"
        FAILED="$FAILED serve"
      fi
    fi
    rm -rf "$SERVE_DIR"
  fi
fi

if ! skip wsafety; then
  # Clang Thread Safety Analysis over the whole tree, warnings as errors:
  # every DYNSCHED_GUARDED_BY field, REQUIRES contract, and MutexLock scope
  # is checked statically. Runs the test suite too — the annotations are
  # compiled under a second toolchain, which has caught portability slips.
  run_mode wsafety -DCMAKE_CXX_COMPILER=clang++ -DDYNSCHED_THREAD_SAFETY=ON \
    || FAILED="$FAILED wsafety"
fi

if ! skip tidy; then
  # The analysis gate only needs the library targets; --warnings-as-errors
  # inside DYNSCHED_ANALYZE fails the build on any finding in src/.
  echo "=== [tidy] clang-tidy gate over src/ ==="
  cmake -B build-tidy -S . -DDYNSCHED_ANALYZE=ON > build-tidy.cmake.log 2>&1 \
    || { cat build-tidy.cmake.log; FAILED="$FAILED tidy"; }
  cmake --build build-tidy -j "$JOBS" --target \
      dynsched_util dynsched_trace dynsched_core dynsched_analysis \
      dynsched_lp dynsched_mip dynsched_sim dynsched_tip dynsched_serve \
    || FAILED="$FAILED tidy"
fi

if ! skip fuzz; then
  # Coverage-guided under Clang (libFuzzer); with gcc the harnesses fall
  # back to the blind-mutation replay driver — weaker, but the oracles and
  # sanitizers still run, so say so instead of silently degrading.
  FUZZ_ARGS=(-DDYNSCHED_FUZZ=ON -DDYNSCHED_SANITIZE="address,undefined")
  if command -v clang++ > /dev/null 2>&1; then
    FUZZ_ARGS+=(-DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++)
  else
    echo "NOTE: clang++ not found; fuzzing without coverage feedback" \
         "(install clang or pass '--skip fuzz' to silence this)" >&2
  fi
  echo "=== [fuzz] configure + build harnesses ==="
  cmake -B build-fuzz -S . "${FUZZ_ARGS[@]}" > build-fuzz.cmake.log 2>&1 \
    || { cat build-fuzz.cmake.log; FAILED="$FAILED fuzz"; }
  if [[ " $FAILED " != *" fuzz "* ]]; then
    cmake --build build-fuzz -j "$JOBS" --target fuzz_swf fuzz_flags fuzz_mps \
      || FAILED="$FAILED fuzz"
  fi
  if [[ " $FAILED " != *" fuzz "* ]]; then
    for harness in swf flags mps; do
      echo "=== [fuzz] fuzz_$harness (${FUZZ_SECONDS}s, seed corpus) ==="
      "build-fuzz/fuzz/fuzz_$harness" -max_total_time="$FUZZ_SECONDS" \
          -seed=1 "fuzz/corpus/$harness" || { FAILED="$FAILED fuzz"; break; }
    done
  fi
fi

if ! skip bench; then
  # Performance baseline: replay the pinned bench_exact_solvers scenario
  # (node-limited, hence deterministic — same rationale as the kill matrix)
  # and gate its counters against the committed BENCH_exact.json. Counters
  # are host-independent; wall-clock only gates on a matching host. The
  # scenario here must match the baseline's config block exactly.
  BENCH_SCENARIO=(--trace-jobs 700 --seed 44 --steps 3 --max-nodes 600
                  --time-limit 1000000)
  echo "=== [bench] bench_check.py self-test ==="
  python3 scripts/bench_check.py --self-test || FAILED="$FAILED bench"
  echo "=== [bench] bench_exact_solvers baseline ==="
  cmake -B build-plain -S . "${PLAIN_FLAGS[@]}" > build-plain.cmake.log 2>&1 \
    || { cat build-plain.cmake.log; FAILED="$FAILED bench"; }
  if [[ " $FAILED " != *" bench "* ]]; then
    cmake --build build-plain -j "$JOBS" --target bench_exact_solvers \
      || FAILED="$FAILED bench"
  fi
  if [[ " $FAILED " != *" bench "* ]]; then
    # The alloc hooks must stay out of binaries built without the option.
    # When tracking is on, the binary *defines* global operator new (a 'T'
    # symbol); a default-configured binary must only import it from
    # libstdc++ ('U'). Zero-overhead-when-off, checked at the symbol level.
    if [[ -x build/bench/bench_exact_solvers ]] \
        && command -v nm > /dev/null 2>&1; then
      if nm -C build/bench/bench_exact_solvers 2>/dev/null \
          | grep -Eq "^[0-9a-f]+ T operator new\(unsigned long\)"; then
        echo "bench: replaced operator new leaked into a default" \
             "(DYNSCHED_ALLOC_TRACK=OFF) binary" >&2
        FAILED="$FAILED bench"
      fi
    fi
  fi
  if [[ " $FAILED " != *" bench "* ]]; then
    # Three replays: a shared host only ever slows a run down, so the
    # fastest one gates the wall clock, and all three must agree on every
    # deterministic counter.
    BENCH_REPLAYS=()
    for replay in 1 2 3; do
      build-plain/bench/bench_exact_solvers "${BENCH_SCENARIO[@]}" \
          --json "build-plain/BENCH_exact.replay$replay.json" > /dev/null \
        || { FAILED="$FAILED bench"; break; }
      BENCH_REPLAYS+=("build-plain/BENCH_exact.replay$replay.json")
    done
  fi
  if [[ " $FAILED " != *" bench "* ]]; then
    if [[ "$REBASELINE_BENCH" -eq 1 ]]; then
      # The gate compares the fastest replay, so the baseline is one too.
      if FASTEST="$(python3 -c 'import json, sys
print(min(sys.argv[1:],
          key=lambda p: json.load(open(p))["totals"]["ilpSeconds"]))' \
          "${BENCH_REPLAYS[@]}")"; then
        cp "$FASTEST" BENCH_exact.json
        echo "bench: BENCH_exact.json rebaselined from the fastest replay;" \
             "review and commit it"
      else
        FAILED="$FAILED bench"
      fi
    else
      python3 scripts/bench_check.py BENCH_exact.json "${BENCH_REPLAYS[@]}" \
        || FAILED="$FAILED bench"
    fi
  fi
fi

if [[ -n "$FAILED" ]]; then
  echo "check.sh FAILED:$FAILED" >&2
  exit 1
fi
rm -f build-*.cmake.log  # configure logs only matter when a mode failed
echo "check.sh: all modes green"
