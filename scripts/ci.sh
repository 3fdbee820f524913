#!/usr/bin/env bash
# CI driver: project lint -> configure -> build -> clang-tidy gate (hard
# fail, pinned major) -> test inside a wall-clock budget -> the same suite
# again under the MPI correctness checker (COLCOM_CHECK=1 strict) -> the six
# extension benches and the Fig. 10 bench, shape-checked and diffed against
# their BENCH_*.json trajectories (scripts/bench_diff.py) -> a one-second
# perfbench smoke per workload (every job correct, and peak RSS under a
# memory gate on many_ranks, which heap-backed fiber stacks fail, and on
# paper_scale, which sends that copy their payload at post fail), then an
# optional -Werror + ASan/UBSan pass over the des/mpi/trace/prof tests, the
# core/stage/stream data-plane suites, the svc service suite and the
# romio/pfs suites (in-place shuffle spans, in-place overlay edits), a budgeted
# CHK-EXPLORE schedule-exploration stage, and a chaos stage running the
# fault suites under the sanitizers with several seeds under the
# correctness checker, and at one seed without it (lent send buffers).
#
# Usage: scripts/ci.sh [--fast] [--no-sanitize] [--no-chaos] [--no-tidy]
#                      [chaos]
#   --fast         skip tests labeled `slow` (ctest -LE slow)
#   --no-sanitize  skip the sanitizer build/run stage (implies --no-chaos
#                  and the explore stage)
#   --no-chaos     skip the chaos (fault-injection) stage
#   --no-tidy      skip the clang-tidy gate (for hosts without the pinned
#                  toolchain; the gate otherwise hard-fails when clang-tidy
#                  is missing or has the wrong major version)
#   chaos          run ONLY the chaos stage (configure/build the sanitizer
#                  tree as needed)
#
# Environment:
#   CI_BUDGET_S  wall-clock budget in seconds for each ctest invocation
#                (default 900)
#   BUILD_DIR    main build tree (default build-ci)
#   CHAOS_SEEDS  seeds swept by the chaos stage (default "1 7 42")
#   CLANG_TIDY   clang-tidy binary for the tidy gate (default clang-tidy)
#   TIDY_MAJOR   pinned clang-tidy major version (default 18): diagnostics
#                drift across majors, so the gate only accepts the pin
set -euo pipefail

cd "$(dirname "$0")/.."

BUDGET="${CI_BUDGET_S:-900}"
BUILD_DIR="${BUILD_DIR:-build-ci}"
CHAOS_SEEDS="${CHAOS_SEEDS:-1 7 42}"
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
TIDY_MAJOR="${TIDY_MAJOR:-18}"
FAST=0
SANITIZE=1
CHAOS=1
TIDY=1
ONLY_CHAOS=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --no-sanitize) SANITIZE=0 ;;
    --no-chaos) CHAOS=0 ;;
    --no-tidy) TIDY=0 ;;
    chaos) ONLY_CHAOS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

step() { echo; echo "=== $* ==="; }

# One extension bench at its default chaos seed: its shape checks must all
# hold, and its RESULT lines must reproduce the checked-in trajectory field
# for field. Virtual time is deterministic, so a moved field is a change to
# re-record on purpose, never noise (scripts/bench_diff.py prints each).
bench_smoke() {  # <bench target> <trajectory file>
  local target="$1" trajectory="$2" out
  step "$target bench smoke (shape checks, $trajectory)"
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target "$target"
  out="$(timeout "$BUDGET" env -u COLCOM_CHAOS_SEED \
    "$BUILD_DIR/bench/$target")"
  echo "$out"
  if grep -q "shape MISS" <<<"$out"; then
    echo "$target shape check failed" >&2
    exit 1
  fi
  python3 scripts/bench_diff.py "$trajectory" <<<"$out"
}

# The DES runs ranks on fibers that switch stacks with _longjmp; ASan's
# fake-stack bookkeeping cannot follow those switches, so fake stacks must
# stay off here.
sanitizer_env() {
  export ASAN_OPTIONS="detect_stack_use_after_return=0:abort_on_error=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
}

configure_asan() {
  step "sanitizer configure ($BUILD_DIR-asan)"
  cmake -B "$BUILD_DIR-asan" -S . -DCOLCOM_WERROR=ON -DCOLCOM_SANITIZE=ON
}

chaos_stage() {
  step "chaos build (fault suites under ASan/UBSan)"
  cmake --build "$BUILD_DIR-asan" -j "$(nproc)" \
    --target test_fault test_fault_net test_ft test_svc_recovery \
    test_integrity ext_soak
  sanitizer_env
  # COLCOM_CHECK=1: the correctness checker must stay silent across every
  # chaos seed — retransmissions, failovers and replans are not races.
  # test_ft carries the metadata-exchange crash points (plan exchange,
  # crash-watch, collective flush, mid-map) plus the ULFM shrink/agree
  # primitives; test_svc_recovery the service-level resubmit-from-mid path
  # (shrunken worlds, retry budgets, deadlines mid-retry); sweeping seeds
  # exercises recovery at shifted timestamps.
  for seed in $CHAOS_SEEDS; do
    step "chaos run (COLCOM_CHAOS_SEED=$seed, COLCOM_CHECK=1)"
    COLCOM_CHAOS_SEED="$seed" COLCOM_CHECK=1 timeout "$BUDGET" \
      "$BUILD_DIR-asan/tests/test_fault_net"
    COLCOM_CHAOS_SEED="$seed" COLCOM_CHECK=1 timeout "$BUDGET" \
      "$BUILD_DIR-asan/tests/test_ft"
    COLCOM_CHAOS_SEED="$seed" COLCOM_CHECK=1 timeout "$BUDGET" \
      "$BUILD_DIR-asan/tests/test_svc_recovery"
    # test_integrity plants corruption chaos at every custody layer (PFS
    # chunk reads — own, absorbed, make-up, staged-miss and baseline — cache
    # rot, torn write-behind, stream payloads, checkpoint generations) and
    # asserts heal-bit-identical or structured data_corrupt — never a
    # silently wrong answer — at every seed.
    COLCOM_CHAOS_SEED="$seed" COLCOM_CHECK=1 timeout "$BUDGET" \
      "$BUILD_DIR-asan/tests/test_integrity"
  done
  # Every run above sets COLCOM_CHECK=1, and a checker session copies each
  # payload at isend, so none of them lends a send buffer across a crash.
  # Without the checker a send lends its buffer until hand-off, and a rank
  # that unwinds (a crash point's RankStop, a fault::Error) copies its
  # abandoned sends out as their Requests die: ASan fails any buffer freed
  # before its Request.
  step "chaos run without the checker (lent send buffers, COLCOM_CHAOS_SEED=1)"
  for t in test_fault_net test_ft test_svc_recovery test_integrity; do
    COLCOM_CHAOS_SEED=1 timeout "$BUDGET" \
      env -u COLCOM_CHECK "$BUILD_DIR-asan/tests/$t"
  done
  step "chaos soak without the checker (ext_soak, COLCOM_CHAOS_SEED=1)"
  SOAK_OUT="$(COLCOM_CHAOS_SEED=1 timeout "$BUDGET" \
    env -u COLCOM_CHECK "$BUILD_DIR-asan/bench/ext_soak")"
  echo "$SOAK_OUT"
  if grep -q "shape MISS" <<<"$SOAK_OUT"; then
    echo "ext_soak shape check failed (seed 1, no checker)" >&2
    exit 1
  fi
  # test_fault keeps only the transient-OST tests, which are
  # seed-independent (they roll from pfs.fault_seed); one sanitizer pass
  # suffices.
  step "chaos run (storage fault suite)"
  COLCOM_CHECK=1 timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_fault"
  # The long-horizon soak: hundreds of jobs against composed faults
  # (message loss, stragglers, role crashes, process deaths, tenant aborts).
  # The seed moves the fault weather only — the job mix is fixed — so the
  # end-state invariants (never lost, bit-identical, structured reasons,
  # zero leaked extents) must hold at every seed. Two seeds bound the stage.
  for seed in 1 7; do
    step "chaos soak (ext_soak, COLCOM_CHAOS_SEED=$seed, COLCOM_CHECK=1)"
    SOAK_OUT="$(COLCOM_CHAOS_SEED="$seed" COLCOM_CHECK=1 timeout "$BUDGET" \
      "$BUILD_DIR-asan/bench/ext_soak")"
    echo "$SOAK_OUT"
    if grep -q "shape MISS" <<<"$SOAK_OUT"; then
      echo "ext_soak shape check failed (seed $seed)" >&2
      exit 1
    fi
  done
}

if [[ $ONLY_CHAOS -eq 1 ]]; then
  configure_asan
  chaos_stage
  echo
  echo "CI OK (chaos only)"
  exit 0
fi

step "lint (scripts/lint.py)"
python3 scripts/lint.py

step "configure ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S . -DCOLCOM_WERROR=ON
# Keep tooling (clang-tidy, editors) pointed at the CI compile commands.
ln -sf "$BUILD_DIR/compile_commands.json" compile_commands.json

step "build"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# clang-tidy is a hard gate pinned to one major version: tidy diagnostics
# drift between majors, and a floating version turns the gate into noise.
# Hosts without the pinned toolchain must opt out explicitly (--no-tidy).
if [[ $TIDY -eq 1 ]]; then
  step "clang-tidy gate (src/, pinned to major $TIDY_MAJOR)"
  if ! command -v "$CLANG_TIDY" >/dev/null 2>&1; then
    echo "clang-tidy gate FAILED: '$CLANG_TIDY' not on PATH." >&2
    echo "Install clang-tidy $TIDY_MAJOR (or pass --no-tidy on hosts" \
         "without the toolchain)." >&2
    exit 1
  fi
  TIDY_VER="$("$CLANG_TIDY" --version |
    sed -n 's/.*version \([0-9][0-9]*\)\..*/\1/p' | head -1)"
  if [[ "$TIDY_VER" != "$TIDY_MAJOR" ]]; then
    echo "clang-tidy gate FAILED: found major ${TIDY_VER:-unknown}," \
         "pinned to $TIDY_MAJOR (set TIDY_MAJOR to re-pin deliberately)." >&2
    exit 1
  fi
  find src -name '*.cpp' -print0 |
    xargs -0 -n 8 -P "$(nproc)" "$CLANG_TIDY" -p "$BUILD_DIR" --quiet \
      --warnings-as-errors='*'
else
  step "clang-tidy gate skipped (--no-tidy)"
fi

step "ctest (budget ${BUDGET}s)"
CTEST_ARGS=(--output-on-failure -j "$(nproc)")
if STOP_AT="$(date -d "+${BUDGET} seconds" '+%H:%M:%S' 2>/dev/null)"; then
  CTEST_ARGS+=(--stop-time "$STOP_AT")
fi
if [[ $FAST -eq 1 ]]; then CTEST_ARGS+=(-LE slow); fi
timeout "$BUDGET" ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}"

step "ctest under the MPI correctness checker (COLCOM_CHECK=1 strict)"
COLCOM_CHECK=1 timeout "$BUDGET" ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}"

bench_smoke ext_staging BENCH_staging.json
bench_smoke ext_service BENCH_service.json

# The multi-tenant suite under the correctness checker and a shifted chaos
# seed: tenant aborts and mid-service role crashes at moved timestamps must
# neither trip CHK-* rules nor change any tenant's bits.
step "service suite under COLCOM_CHECK=1 and a chaos seed"
COLCOM_CHAOS_SEED=7 COLCOM_CHECK=1 timeout "$BUDGET" \
  "$BUILD_DIR/tests/test_svc"

bench_smoke ext_integrity BENCH_integrity.json
bench_smoke ext_streaming BENCH_streaming.json

# The streaming suite under the correctness checker and a shifted chaos
# seed: producer/consumer crash points at moved timestamps must end every
# run done or failed-with-reason — no hangs, no leaked stream pins — and
# keep the streamed bits identical to the file-based run.
step "streaming suite under COLCOM_CHECK=1 and a chaos seed"
COLCOM_CHAOS_SEED=7 COLCOM_CHECK=1 timeout "$BUDGET" \
  "$BUILD_DIR/tests/test_stream"

# The fault-tolerance sweep and the soak at its default seed: every fault
# class, composed faults, and the recovery counters they move.
bench_smoke ext_fault_tolerance BENCH_fault.json
bench_smoke ext_soak BENCH_soak.json

# The paper's Fig. 10 weak-scaling sweep, 24 to 1024 processes, through both
# paths: the figure a plan-exchange or shuffle change moves.
bench_smoke fig10_scalability BENCH_fig10.json

# The benchmark harness checks every job against serial_reduce over the
# generator and checks virtual-time repeatability, so a byte-synthesis or
# runtime change that alters results fails here. One short run per workload.
# Two workloads also gate host memory. many_ranks' 2048 ranks are fibers
# whose stacks come from guard-paged mappings, so each rank costs only the
# stack pages it touches, and the peak reads ~163 MB. Stacks carved from the
# malloc heap land on pages earlier jobs left resident and read 473–650 MB
# here, rising with the number of passes that fit, so a peak above 350 MB
# fails. paper_scale peaks in its 1024-rank blocking baseline at ~334 MB:
# 1024 128 KiB destination buffers, 43 chunk windows and the per-message and
# per-receive objects. Sends that copy their payload at isend keep another
# ~100 MB of 4 KiB eager copies on the wire there and read 433 MB, so a peak
# above 390 MB fails.
for w in paper_scale many_ranks tenants; do
  step "perfbench smoke ($w)"
  PERF_LAST="$(timeout "$BUDGET" python3 perfbench/run.py --workload "$w" \
    --seed 1 --seconds 1 --trace 0 | tail -n 1)"
  echo "$PERF_LAST"
  if ! grep -q '"correct": true' <<<"$PERF_LAST"; then
    echo "perfbench smoke failed ($w)" >&2
    exit 1
  fi
  case $w in
    paper_scale) GATE_MB=390 ;;
    many_ranks) GATE_MB=350 ;;
    *) continue ;;
  esac
  python3 -c 'import json, sys
peak = json.loads(sys.argv[1])["metrics"]["peak_rss_mb"]["value"]
gate = float(sys.argv[3])
print(f"{sys.argv[2]} peak_rss_mb {peak:.1f} MB (gate: at most {gate:.0f} MB)")
sys.exit(peak > gate)' "$PERF_LAST" "$w" "$GATE_MB" || {
    echo "perfbench memory gate failed ($w)" >&2
    exit 1
  }
done

if [[ $SANITIZE -eq 1 ]]; then
  configure_asan
  step "sanitizer build (-Werror + ASan/UBSan)"
  cmake --build "$BUILD_DIR-asan" -j "$(nproc)" \
    --target test_des test_mpi_comm test_trace test_prof \
    test_core test_stage test_stream test_svc test_romio test_pfs

  # test_des switches a thousand fibers and unwinds one while others stay
  # suspended; test_mpi_comm drives the matcher against its reference model
  # and reduces misaligned payload operands (fatal UBSan). test_core,
  # test_stage and test_stream drive every ChunkSource of the runtime: the
  # PfsReader's recycled buffers and the spans into cached and streamed
  # chunks must never be read after their release. test_svc runs many
  # tenants' slices over one shared staging area per rank. Park sends leave
  # a non-writer's slot buffer in flight until its next park; the message
  # lends that buffer and reads it at delivery in every run, so a buffer
  # freed early fails here directly. test_romio
  # shuffles in place: receives land in spans of user buffers and chunk
  # windows and sends read spans of them, so a span that outlives its
  # buffer fails here. test_pfs edits OverlayStore blocks in place.
  step "sanitizer run (des/mpi/trace/prof, data-plane, svc, romio, pfs)"
  sanitizer_env
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_des"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_mpi_comm"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_trace"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_prof"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_core"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_stage"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_stream"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_svc"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_romio"
  timeout "$BUDGET" "$BUILD_DIR-asan/tests/test_pfs"

  # CHK-EXPLORE: bounded-budget schedule exploration of the 4-rank
  # ft-agreement and svc resubmit-from-mid worlds, plus the seeded-bug
  # rediscovery and replay-determinism tests, all under ASan/UBSan. The
  # exploration statistics are asserted deterministic inside the tests.
  # Hang-aborted executions abandon fiber stacks by design (the livelock
  # rediscovery), leaving their heap blocks unreachable — leak detection
  # stays off for this stage only.
  step "explore stage (CHK-EXPLORE under ASan/UBSan, budgeted)"
  cmake --build "$BUILD_DIR-asan" -j "$(nproc)" --target test_explore
  ASAN_OPTIONS="$ASAN_OPTIONS:detect_leaks=0" timeout "$BUDGET" \
    "$BUILD_DIR-asan/tests/test_explore"

  if [[ $CHAOS -eq 1 ]]; then
    chaos_stage
  fi
fi

echo
echo "CI OK"
