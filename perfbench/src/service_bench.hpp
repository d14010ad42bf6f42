#pragma once
// The service_mix workload: an open-loop stream of small jobs into
// svc::Scheduler, Poisson within windows of a few arrivals, with a burst
// of jobs submitted all at once after each third of it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model_bench.hpp"
#include "svc/job.hpp"

namespace pb {

inline constexpr int kServiceLanes = 2;
inline constexpr int kServiceBatchMax = 4;
/// The run alternates kBursts open-loop segments with kBursts bursts of
/// kBurstJobs jobs, each burst submitted at once and drained before the
/// next segment starts.  Spreading the bursts over the run, and pooling
/// them into one throughput, averages a shared host's speed drift over
/// the run instead of sampling it in one short window.
inline constexpr int kBursts = 3;
inline constexpr int kBurstJobs = 16;
/// Share of the run length the open loop gets; the bursts take the rest.
inline constexpr double kOpenLoopShare = 0.85;
/// Open-loop arrivals per window of the stream (see run_service).  A
/// plain Poisson stream of 101 jobs let a seed's chance clusters own the
/// latency tail: p90 spread 31-36% across seeds at the same load.
/// Windows of four keep the arrivals random within a window but bound
/// how far a seed's load can bunch up.
inline constexpr std::size_t kArrivalsPerWindow = 4;
/// Offered open-loop rate, jobs/s: a fixed constant, about a quarter of
/// the 2-lane burst capacity measured when the benchmark was defined
/// (11.7 jobs/s on a 4-core Xeon; see perfbench/README.md).  Never
/// re-derived per run, so a slower scheduler shows as higher latency,
/// not as a lighter load.  Kept well below the queueing knee so that a
/// host running slower for a while does not multiply the latencies.
inline constexpr double kOpenLoopRate = 3.1;

/// The job of class `cls` drawing seed `seed_index` of its pool.
wrf::svc::Job service_job(wrf::svc::JobClass cls, int seed_index);

struct ServiceRun {
  std::vector<double> setup_s;      ///< scheduler constructions
  std::vector<double> latency_s;    ///< open-loop jobs: finish - due
  double burst_jobs_per_s = 0.0;       ///< all burst jobs / all burst walls
  double burst_cellsteps_per_s = 0.0;  ///< the same in cell-steps
  int attempted = 0;
  int failed = 0;      ///< rejected, failed, wrong hash or non-finite
  std::string first_failure;
  Metrics layers;      ///< every per-layer metric (traced runs only)
};

/// Run the workload for about `seconds` seconds: the open loop offers
/// kOpenLoopShare of that at kOpenLoopRate, with a burst after each of
/// its kBursts segments.
/// Fewer than 100 open-loop jobs is refused (std::invalid_argument): the
/// latency p90 needs them.
ServiceRun run_service(std::uint64_t seed, double seconds, bool traced,
                       const std::string& spans_path);

}  // namespace pb
