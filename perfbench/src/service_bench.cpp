#include "service_bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "reference_hashes.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "svc/scheduler.hpp"

namespace pb {

using namespace wrf;

namespace {

using Clock = std::chrono::steady_clock;
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Scheduler constructions timed per run; setup_s is their median.
constexpr int kSetupSamples = 31;
/// Deadline of interactive jobs, seconds after submit.
constexpr double kInteractiveDeadline = 1.0;

/// splitmix64: a fixed generator, so a seed means the same stream on
/// every platform and standard library.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }
};

struct Draw {
  svc::JobClass cls;
  int seed_index;
};

/// `n` jobs with the classes in equal shares, in an order drawn from
/// `rng`: every run offers the same mix, so a seed changes which job
/// comes when, not how much work the run holds.
std::vector<Draw> draw_jobs(Rng& rng, std::size_t n) {
  std::vector<Draw> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    d[i].cls = static_cast<svc::JobClass>(i % svc::kNumClasses);
    d[i].seed_index = rng.below(kCaseSeeds);
  }
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.below(static_cast<int>(i)));
    std::swap(d[i - 1], d[j]);
  }
  return d;
}

double job_cellsteps(const model::RunConfig& c) {
  return static_cast<double>(c.nx) * c.ny * c.nz * c.nsteps;
}

}  // namespace

svc::Job service_job(svc::JobClass cls, int seed_index) {
  svc::Job job;
  model::RunConfig& c = job.config;
  c.npx = 1;
  c.npy = 1;
  c.seed = job_seed(static_cast<int>(cls), seed_index);
  job.cls = cls;
  switch (cls) {
    case svc::JobClass::kInteractive:
      c.nx = 24, c.ny = 16, c.nz = 10, c.nsteps = 2;
      c.version = fsbm::Version::kV3Offload3;
      c.res = mem::ResidencyMode::kPersist;
      job.deadline_sec = kInteractiveDeadline;
      break;
    case svc::JobClass::kEnsemble:
      c.nx = 20, c.ny = 14, c.nz = 8, c.nsteps = 2;
      c.version = fsbm::Version::kV2Offload2;
      c.res = mem::ResidencyMode::kStep;
      break;
    case svc::JobClass::kBatch:
      c.nx = 16, c.ny = 12, c.nz = 8, c.nsteps = 3;
      c.version = fsbm::Version::kV1LookupOnDemand;
      c.phys = fsbm::PhysScheme::kHybrid;
      break;
  }
  job.name = std::string(svc::job_class_name(cls)) + "-" +
             std::to_string(seed_index);
  return job;
}

ServiceRun run_service(std::uint64_t seed, double seconds, bool traced,
                       const std::string& spans_path) {
  Rng rng{seed};
  OpenLoopPlan plan;
  // A fixed job count for the run length, offered at kOpenLoopRate: the
  // open loop's span is cut into windows of kArrivalsPerWindow jobs
  // (kArrivalsPerWindow / kOpenLoopRate seconds), and each window's jobs
  // are due at uniform times in it, a Poisson stream conditioned on its
  // count per window.  Every seed offers the same load; a seed changes
  // when each job comes.
  const auto jobs = static_cast<std::size_t>(
      std::ceil(kOpenLoopShare * seconds * kOpenLoopRate));
  if (jobs < kMinP90Samples) {
    throw std::invalid_argument(
        "service_mix: " + std::to_string(jobs) + " open-loop jobs in " +
        std::to_string(seconds) +
        " s; the latency p90 needs 100 (raise --seconds)");
  }
  const double span = static_cast<double>(jobs) / kOpenLoopRate;
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::size_t w = i / kArrivalsPerWindow;
    const double lo = static_cast<double>(w * kArrivalsPerWindow);
    const double hi = std::min(lo + kArrivalsPerWindow,
                               static_cast<double>(jobs));
    plan.due.push_back((lo + (hi - lo) * rng.uniform()) / kOpenLoopRate);
  }
  std::sort(plan.due.begin(), plan.due.end());
  const std::vector<Draw> draws = draw_jobs(rng, jobs);
  std::vector<std::vector<Draw>> bursts;
  for (int b = 0; b < kBursts; ++b) {
    bursts.push_back(draw_jobs(rng, kBurstJobs));
  }

  svc::SchedulerConfig sc;
  sc.lanes = kServiceLanes;
  sc.batch_max = kServiceBatchMax;

  ServiceRun out;
  for (int i = 0; i < kSetupSamples - 1; ++i) {
    const auto t0 = Clock::now();
    auto s = std::make_unique<svc::Scheduler>(sc);
    out.setup_s.push_back(since(t0));
  }
  const auto ts = Clock::now();
  svc::Scheduler sched(sc);
  out.setup_s.push_back(since(ts));

  SpanRecorder rec;
  Track gen(rec, 0, 0);
  std::vector<double> submit_s;
  const double rss0 = current_rss_kib();
  // Maps the scheduler's clock onto the span recorder's.
  const double sched_at_rec0 = sched.now_sec() - rec.now();

  // Segment k of the open loop is the k-th equal share of its span, the
  // jobs [lo, hi) due in it.  Its arrivals keep their gaps on a clock
  // that starts with the segment, so the generator pauses while a burst
  // drains.  plan_origin[i] is the scheduler time of job i's plan time 0:
  // its due time on the scheduler's clock is plan_origin[i] + plan.due[i].
  std::vector<double> plan_origin(jobs);
  std::unordered_map<std::uint64_t, std::size_t> index_of_ticket;
  double late_max = 0.0;
  // phases[2k] is open-loop segment k, phases[2k + 1] burst k.
  std::vector<std::vector<svc::JobResult>> phases;
  std::vector<double> burst_at, burst_last, burst_cellsteps;
  double burst_busy = 0.0;
  const auto first_due_at = [&](double t) {
    return static_cast<std::size_t>(
        std::lower_bound(plan.due.begin(), plan.due.end(), t) -
        plan.due.begin());
  };
  for (int k = 0; k < kBursts; ++k) {
    const double origin = span * k / kBursts;
    const std::size_t lo = first_due_at(origin);
    const std::size_t hi =
        k + 1 == kBursts ? jobs : first_due_at(span * (k + 1) / kBursts);
    OpenLoopPlan segment;
    for (std::size_t i = lo; i < hi; ++i) {
      segment.due.push_back(plan.due[i] - origin);
    }
    const auto t0 = Clock::now();
    const double sched_at_t0 = sched.now_sec();
    const OpenLoopLog log = run_open_loop(segment, t0, [&](std::size_t j) {
      const std::size_t i = lo + j;
      plan_origin[i] = sched_at_t0 - origin;
      svc::Job job = service_job(draws[i].cls, draws[i].seed_index);
      const auto c0 = Clock::now();
      const svc::Ticket tk = traced ? gen.time("svc.submit", [&] {
        return sched.submit(std::move(job));
      })
                                    : sched.submit(std::move(job));
      submit_s.push_back(since(c0));
      index_of_ticket[tk.id] = i;
    });
    late_max = std::max(late_max, log.late_max);
    sched.drain();
    phases.push_back(sched.take_results());

    const double busy0 = sched.stats().lane_busy_sec;
    burst_at.push_back(sched.now_sec());
    burst_last.push_back(burst_at.back());
    burst_cellsteps.push_back(0.0);
    for (const Draw& d : bursts[static_cast<std::size_t>(k)]) {
      svc::Job job = service_job(d.cls, d.seed_index);
      burst_cellsteps.back() += job_cellsteps(job.config);
      sched.submit(std::move(job));
    }
    sched.drain();
    phases.push_back(sched.take_results());
    burst_busy += sched.stats().lane_busy_sec - busy0;
  }
  const svc::ServiceStats end_stats = sched.stats();
  sched.shutdown();

  // Correctness: every job completed with its recorded output hash.  A
  // job that did not finish keeps an infinite finish time: it misses
  // every latency limit.
  std::vector<double> finish(plan.due.size(),
                             std::numeric_limits<double>::infinity());
  std::vector<double> wait, service;
  double job_steps = 0.0;
  model::StepStats totals;
  double snapshot_bytes = 0.0;
  int completed = 0, finished = 0;
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    const bool open_loop = ph % 2 == 0;
    for (const svc::JobResult& r : phases[ph]) {
      ++finished;
      const int ci = static_cast<int>(r.cls);
      const auto idx = static_cast<int>(r.config.seed - job_seed(ci, 0));
      std::string why;
      if (r.outcome != svc::JobOutcome::kCompleted) {
        why = std::string(svc::job_outcome_name(r.outcome)) + " " + r.error;
      } else if (idx < 0 || idx >= kCaseSeeds ||
                 r.state_hash != kServiceHashes[ci][idx]) {
        why = "state hash mismatch";
      } else if (!all_finite(r.run.snapshots)) {
        why = "non-finite output";
      }
      if (!why.empty()) {
        ++out.failed;
        if (out.first_failure.empty()) out.first_failure = r.name + ": " + why;
        continue;
      }
      ++completed;
      if (open_loop) {
        const std::size_t i = index_of_ticket.at(r.id);
        finish[i] = r.finish_sec - plan_origin[i];
        wait.push_back(r.wait_sec());
        service.push_back(r.service_sec());
      } else {
        double& last = burst_last[ph / 2];
        last = std::max(last, r.finish_sec);
      }
      job_steps += r.config.nsteps;
      totals.merge(r.run.totals);
      snapshot_bytes += payload_bytes(r.run.snapshots);
      if (traced) {
        Span q;
        q.name = "svc.queue_wait";
        q.start = r.submit_sec - sched_at_rec0;
        q.end = r.start_sec - sched_at_rec0;
        q.run = static_cast<int>(ph);
        q.rank = r.lane;
        q.job = static_cast<std::int64_t>(r.id);
        rec.add(q);
        Span s = q;
        s.name = "svc.service";
        s.start = q.end;
        s.end = r.finish_sec - sched_at_rec0;
        rec.add(s);
      }
    }
  }
  out.attempted = static_cast<int>(plan.due.size() + kBursts * kBurstJobs);
  out.failed += out.attempted - finished;
  // Resident growth with every result freed: what the service retains
  // per job it ran.
  phases.clear();
  phases.shrink_to_fit();
  const double rss1 = current_rss_kib();
  out.latency_s = due_latencies(plan, finish);
  double burst_wall = 0.0, burst_work = 0.0;
  for (int b = 0; b < kBursts; ++b) {
    burst_wall += burst_last[b] - burst_at[b];
    burst_work += burst_cellsteps[b];
  }
  out.burst_jobs_per_s = kBursts * kBurstJobs / burst_wall;
  out.burst_cellsteps_per_s = burst_work / burst_wall;

  if (traced) {
    if (!spans_path.empty()) rec.write_json(spans_path);
    const fsbm::FsbmStats& fs = totals.fsbm;
    const double steps = job_steps > 0 ? job_steps : 1.0;
    Metrics& m = out.layers;
    m["dyn.busy_s"] =
        (totals.wall_sec - fs.wall_total_sec - totals.halo_wall_sec) / steps;
    m["dyn.cells"] = static_cast<double>(totals.dyn.tend.cells +
                                         totals.dyn.update.cells) / steps;
    m["model.halo_finish_s"] = totals.halo_wall_sec / steps;
    m["fsbm.busy_s"] = fs.wall_total_sec / steps;
    m["fsbm.cells_active"] = static_cast<double>(fs.cells_active) / steps;
    m["fsbm.cells_coal"] = static_cast<double>(fs.cells_coal) / steps;
    m["fsbm.coal_interactions"] =
        static_cast<double>(fs.coal_interactions) / steps;
    m["fsbm.flops"] = (fs.coal_flops + fs.cond_flops + fs.nucl_flops +
                       fs.sed_flops + fs.bulk_flops) / steps;
    m["fsbm.sed_substeps"] = static_cast<double>(fs.sed_substeps) / steps;
    m["fsbm.sed_tv_lookups"] = static_cast<double>(fs.sed_tv_lookups) / steps;
    m["fsbm.cells_bin"] = static_cast<double>(fs.cells_bin) / steps;
    m["fsbm.cells_bulk"] = static_cast<double>(fs.cells_bulk) / steps;
    m["gpu.kernel_launches"] = static_cast<double>(fs.kernel_launches) / steps;
    m["mem.h2d_bytes"] = static_cast<double>(fs.h2d_bytes) / steps;
    m["mem.d2h_bytes"] = static_cast<double>(fs.d2h_bytes) / steps;
    m["mem.transfers"] =
        static_cast<double>(fs.h2d_transfers + fs.d2h_transfers) / steps;
    m["mem.xfer_modeled_ms"] = (fs.h2d_ms + fs.d2h_ms) / steps;
    m["io.snapshot_bytes"] = snapshot_bytes / (completed > 0 ? completed : 1);
    m["svc.submit_s"] = median(submit_s);
    m["svc.queue_wait_p50_s"] = median(wait);
    m["svc.queue_wait_p90_s"] = p90(wait);
    m["svc.service_p50_s"] = median(service);
    m["svc.batched_frac"] =
        end_stats.completed() > 0
            ? static_cast<double>(end_stats.batched_jobs) /
                  static_cast<double>(end_stats.completed())
            : 0.0;
    m["svc.lane_occupancy"] = burst_busy / (kServiceLanes * burst_wall);
    m["svc.rss_growth_kb_per_job"] = (rss1 - rss0) / out.attempted;
    m["svc.gen_late_max_s"] = late_max;
    m["svc.burst_jobs_per_s"] = out.burst_jobs_per_s;
  }
  return out;
}

}  // namespace pb
