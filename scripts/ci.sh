#!/usr/bin/env bash
# Tier-1 verify as CI runs it: configure + build + ctest in a
# Debug/Release matrix with -Wall -Wextra -Werror, plus a
# ThreadSanitizer configuration covering the concurrency layers
# (simpi requests, exec spaces, halo overlap, blocked sedimentation)
# and an AddressSanitizer+UBSan configuration over every suite.
#
# The Debug+Release matrix deliberately runs the FSBM property suite
# (test_fsbm_properties) at both optimization levels so FP-contract
# differences between the column and blocked sedimentation solvers
# would surface as bitwise-equivalence failures.
#
# Usage: scripts/ci.sh [Debug|Release|tsan|asan|bench]
#   (no argument = Debug+Release plus the smokes)

set -euo pipefail
cd "$(dirname "$0")/.."

run_matrix_config() {
  local cfg="$1"
  local build_dir="build-ci-${cfg,,}"
  echo "=== ${cfg} ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE="${cfg}" \
    -DWRF_WERROR=ON
  cmake --build "${build_dir}" -j "$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

run_tsan() {
  # TSan build of the thread-heavy suites: the simpi request layer
  # (test_par), the execution spaces + blocked sedimentation dispatch +
  # heterogeneous split passes (test_exec — exec=hetero runs the device
  # shard's kernel and the host shard's remainder CONCURRENTLY, so the
  # data-race coverage here is load-bearing), the phased halo exchange
  # with comms/compute overlap (test_halo_overlap), the FSBM property
  # suite (per-thread block-buffer reuse plus the hetero
  # partition-completeness and seed-determinism laws), and the forecast
  # service (test_svc — scheduler lanes run model::run_single
  # CONCURRENTLY against the shared queue/stats state, so this is where
  # a racy Scheduler or a non-thread-safe model path would surface), and
  # the hybrid microphysics (test_hybrid — the two fidelity populations
  # run on concurrent shards under exec=hetero, and the fidelity sweep
  # plus split physics pass dispatch through the threaded spaces), and
  # the observability layer (test_obs — concurrent shard threads and
  # threaded-space workers emit into one TraceSink's per-thread buffers,
  # and test_svc's trace mode has scheduler lanes emitting while the
  # dispatcher records lifecycle instants), and the autotuner (test_tune
  # — the tuner's measured rungs and the tuned-scheduler test run
  # threaded configs and scheduler lanes under tuned knob application),
  # and the pass-graph executor (test_fusion — its golden ledger drives
  # every group shape through FastSbm::run_group, including the hetero
  # split whose host shard runs concurrently with the device side).
  local build_dir="build-ci-tsan"
  echo "=== ThreadSanitizer ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DWRF_TSAN=ON
  cmake --build "${build_dir}" -j "$(nproc)" \
    --target test_par test_exec test_halo_overlap test_fsbm_properties \
    test_svc test_hybrid test_obs test_tune test_fusion
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "${build_dir}" --output-on-failure \
      -R '^(test_par|test_exec|test_halo_overlap|test_fsbm_properties|test_svc|test_hybrid|test_obs|test_tune|test_fusion)$'
}

run_asan() {
  # AddressSanitizer + UndefinedBehaviorSanitizer over every suite with
  # LeakSanitizer on: a memory error, UB, or a leak — per-thread state
  # that outlives its thread or its owner included — fails the run.  No
  # suppression file; the flags go through the standard CMake variables.
  local build_dir="build-ci-asan"
  echo "=== AddressSanitizer + UBSan ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "${build_dir}" -j "$(nproc)"
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

run_obs_smoke() {
  # Smoke the observability exporters end to end: quickstart with
  # obs=trace must write a trace that (a) parses as JSON — the real
  # parser, not the unit tests' structural scan — and (b) has balanced
  # B/E span pairs with monotone timestamps on every track.
  echo "=== obs trace smoke ==="
  local build_dir="build-ci-release"
  local trace="${build_dir}/obs_ci_trace.json"
  (cd "${build_dir}" && ./quickstart exec=threads:2 \
    obs="trace:$(basename "${trace}")" > /dev/null)
  python3 -m json.tool "${trace}" > /dev/null
  python3 - "${trace}" <<'EOF'
import collections, json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "empty trace"
open_spans = collections.Counter()
last_ts = {}
for e in events:
    tid = e["tid"]
    assert e["ts"] >= last_ts.get(tid, 0), f"ts regression on track {tid}"
    last_ts[tid] = e["ts"]
    if e["ph"] == "B":
        open_spans[tid] += 1
    elif e["ph"] == "E":
        open_spans[tid] -= 1
        assert open_spans[tid] >= 0, f"E without B on track {tid}"
assert not +open_spans, f"unbalanced spans: {dict(open_spans)}"
print(f"obs smoke: {len(events)} events on {len(last_ts)} tracks, "
      "balanced and monotone")
EOF
}

run_bench_smoke() {
  # Smoke the six feature benches on tiny grids through
  # scripts/bench_json.sh: each bench's exit code asserts the gates its
  # trajectory point records (listed in that script's header).  The
  # points land in the build dir and must parse as JSON (the real
  # parser, not the writer's own tests).
  echo "=== bench_json smoke ==="
  local build_dir="build-ci-release"
  BENCH_SMOKE=1 BUILD="${build_dir}" scripts/bench_json.sh
  local name
  for name in residency hetero fusion service hybrid tuner; do
    python3 -m json.tool "${build_dir}/BENCH_${name}.json" > /dev/null
  done
  echo "bench smoke: six points parse, every gate passes"
}

run_tune_smoke() {
  # Smoke the autotuner artifact end to end.  The bench smoke's tuner
  # run (tiny grid, pruned space, loose CV target) already converged the
  # successive-halving ladder, passed bench_tuner's gates (the winner
  # knob string is a valid knob set: the bitwise gate applies it) and
  # wrote ${build_dir}/tuned.json.  Here that artifact must parse as
  # JSON (the real parser, not the tuner's own writer/reader pair) and
  # tune=file: must load it into a real run (quickstart).
  echo "=== tune smoke ==="
  local build_dir="build-ci-release"
  python3 -m json.tool "${build_dir}/tuned.json" > /dev/null
  (cd "${build_dir}" && ./quickstart tune=file:tuned.json > /dev/null)
  echo "tune smoke: artifact parses, tune=file: loads"
}

run_knob_smoke() {
  # Smoke the strict knob table at the CLI surface: a misspelled key must
  # end in a typed error that names it (exit 2, usage on stderr), not a
  # silent default and not std::terminate.
  echo "=== knob smoke ==="
  local build_dir="build-ci-release"
  local err="${build_dir}/knob_ci_smoke.err"
  local rc=0
  "${build_dir}/quickstart" exce=device > /dev/null 2> "${err}" || rc=$?
  [ "${rc}" -eq 2 ] \
    || { echo "knob smoke: quickstart exce=device exited ${rc}, want 2"; return 1; }
  grep -q "exce" "${err}" \
    || { echo "knob smoke: stderr does not name 'exce'"; cat "${err}"; return 1; }
  # The benches' own keys go through the same parser: no atoi/atof zero.
  rc=0
  "${build_dir}/bench_tuner" keep=abc > /dev/null 2> "${err}" || rc=$?
  [ "${rc}" -eq 2 ] && grep -q "abc" "${err}" \
    || { echo "knob smoke: bench_tuner keep=abc exited ${rc}, want 2 naming 'abc'"; return 1; }
  echo "knob smoke: quickstart exce=device and bench_tuner keep=abc exit 2 naming the token"
}

if [ $# -eq 0 ]; then
  run_matrix_config Debug
  run_matrix_config Release
  run_knob_smoke
  run_bench_smoke
  run_obs_smoke
  run_tune_smoke
elif [ "${1}" = "tsan" ]; then
  run_tsan
elif [ "${1}" = "asan" ]; then
  run_asan
elif [ "${1}" = "bench" ]; then
  run_matrix_config Release
  run_knob_smoke
  run_bench_smoke
  run_obs_smoke
  run_tune_smoke
else
  run_matrix_config "${1}"
fi
