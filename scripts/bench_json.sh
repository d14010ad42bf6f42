#!/usr/bin/env bash
# Write the committed benchmark trajectory points.  Each feature bench
# prints its own point with --benchmark_format=json (one JSON writer,
# obs::JsonWriter; one stamp, bench::print_point) and exits nonzero when
# one of the gates written in that point is false:
#
#   BENCH_residency.json  bench_residency        res=persist >= 5x traffic cut
#   BENCH_hetero.json     bench_table4_offload2  exact shard scaling, two-sided split
#   BENCH_fusion.json     bench_fusion           fewer launches, less res=step traffic
#   BENCH_service.json    bench_service          multiplexing, waits, fair share,
#                                                batching, clean, throughput
#   BENCH_hybrid.json     bench_hybrid           bulk > hybrid > bin, two-sided census
#   BENCH_tuner.json      bench_tuner            tuned >= untuned, CV, bitwise round trip
#
# Usage:
#   scripts/bench_json.sh                 # default grids
#   scripts/bench_json.sh 48 32 20 3      # custom grid for the four grid benches
#   BENCH_SMOKE=1 scripts/bench_json.sh   # tiny grids, seconds (CI smoke);
#                                         #   points land in ${BUILD}/
#
# Env: BUILD (build dir, default "build").  Every bench runs; the exit
# code is the first nonzero bench exit code.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}

# Always (re)build — incremental, so this is a no-op when current, and
# it guarantees the trajectory point never comes from a stale binary.
if [ ! -d "${BUILD}" ]; then
  cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "${BUILD}" -j "$(nproc)" \
  --target bench_residency bench_table4_offload2 bench_fusion bench_service \
  bench_hybrid bench_tuner

# bench | full args | smoke args | point name.  The service bench takes
# jobs per class, not a grid.  The hetero smoke needs a tall column
# (40 x 400 m reaches above the 223.15 K coal gate) so the predicate
# split is two-sided.  The tuner smoke is a tiny grid with a pruned
# space and a loose CV target; its artifact always lands in the build
# dir so the repo root stays clean.
GRID="$*"
POINTS=(
  "bench_residency|${GRID}|24 16 10 3|residency"
  "bench_table4_offload2|${GRID}|16 12 40 1|hetero"
  "bench_fusion|${GRID}|24 16 10 3|fusion"
  "bench_service|8|3|service"
  "bench_hybrid|${GRID}|24 16 10 3|hybrid"
  "bench_tuner|artifact=${BUILD}/tuned.json|24 16 10 2 version=v1 keep=4 target_cv=0.5 artifact=${BUILD}/tuned.json|tuner"
)

rc=0
for row in "${POINTS[@]}"; do
  IFS='|' read -r bench full smoke name <<< "${row}"
  args=${full}
  out="BENCH_${name}.json"
  if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    [ -z "${GRID}" ] && args=${smoke}
    out="${BUILD}/BENCH_${name}.json"
  fi
  read -r -a argv <<< "${args}"
  brc=0
  "${BUILD}/${bench}" ${argv[@]+"${argv[@]}"} --benchmark_format=json \
    > "${out}" || brc=$?
  echo "wrote ${out}: ${bench} exit ${brc}"
  if [ "${rc}" -eq 0 ]; then rc=${brc}; fi
done
exit "${rc}"
