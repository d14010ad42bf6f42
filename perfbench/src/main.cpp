// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <conus_patch|decomp_2x2|service_mix> [--seed N]
//             [--seconds S] [--trace 0|1] [--spans PATH]
//   perfbench --record     print the reference hash tables
//
// --trace 0 measures the end-to-end metrics with no spans recorded;
// --trace 1 is the separate traced run that reports the per-layer
// metrics.  The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The line before it is the run's record: machine, build, thread budget,
// seeds and per-metric sample counts.  perfbench/README.md maps every
// layer metric to the end-to-end metric it should move.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "machine.hpp"
#include "model_bench.hpp"
#include "par/thread_pool.hpp"
#include "reference_hashes.hpp"
#include "service_bench.hpp"
#include "stats.hpp"

using namespace pb;

namespace {

struct Def {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end and per_layer metrics
// (perfbench/run.py checks every result against that file).
constexpr Def kEndToEnd[] = {
    {"cellsteps_per_s", "cellsteps/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"latency_p50_s", "s"},
    {"latency_p90_s", "s"},
};

constexpr Def kPerLayer[] = {
    {"dyn.busy_s", "s"},
    {"dyn.cells", "count"},
    {"model.halo_begin_s", "s"},
    {"model.halo_finish_s", "s"},
    {"model.init_s", "s"},
    {"par.barrier_wait_s", "s"},
    {"par.comm_wait_s", "s"},
    {"par.messages", "count"},
    {"par.bytes", "bytes"},
    {"fsbm.busy_s", "s"},
    {"fsbm.ctor_s", "s"},
    {"fsbm.cells_active", "count"},
    {"fsbm.cells_coal", "count"},
    {"fsbm.coal_interactions", "count"},
    {"fsbm.flops", "flop"},
    {"fsbm.sed_substeps", "count"},
    {"fsbm.sed_tv_lookups", "count"},
    {"fsbm.cells_bin", "count"},
    {"fsbm.cells_bulk", "count"},
    {"gpu.kernel_launches", "count"},
    {"gpu.kernel_modeled_ms", "ms"},
    {"gpu.kernel_flops", "flop"},
    {"gpu.kernel_dram_bytes", "bytes"},
    {"gpu.device_ctor_s", "s"},
    {"gpu.modeled_ms_per_step", "ms"},
    {"mem.h2d_bytes", "bytes"},
    {"mem.d2h_bytes", "bytes"},
    {"mem.transfers", "count"},
    {"mem.xfer_modeled_ms", "ms"},
    {"io.snapshot_s", "s"},
    {"io.snapshot_bytes", "bytes"},
    {"svc.submit_s", "s"},
    {"svc.queue_wait_p50_s", "s"},
    {"svc.queue_wait_p90_s", "s"},
    {"svc.service_p50_s", "s"},
    {"svc.batched_frac", "ratio"},
    {"svc.lane_occupancy", "ratio"},
    {"svc.rss_growth_kb_per_job", "KiB"},
    {"svc.gen_late_max_s", "s"},
    {"svc.burst_jobs_per_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

constexpr std::uint64_t kDefaultSeed = 1;
constexpr double kDefaultSeconds = 38.0;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  bool trace = false;
  std::string spans;
  bool record = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<conus_patch|decomp_2x2|service_mix> [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans PATH]\n"
               "       perfbench --record\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("bad --seconds " + v);
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (!a.record && a.workload != "conus_patch" && a.workload != "decomp_2x2" &&
      a.workload != "service_mix") {
    usage("unknown or missing --workload '" + a.workload + "'");
  }
  return a;
}

/// What a run reports: the result line's fields plus its record.
struct Result {
  int attempted = 0;
  int failed = 0;
  Metrics metrics;
  Metrics samples;                ///< sample count behind each metric
  std::string threads;            ///< the thread budget, as JSON
  std::vector<std::string> notes; ///< human-readable lines
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

void check_threads(long needed, long nproc, const std::string& what) {
  if (needed > nproc) {
    throw std::runtime_error(what + " needs " + std::to_string(needed) +
                             " threads but nproc is " + std::to_string(nproc));
  }
}

Result run_model(const Args& a, const MachineRecord& mr) {
  const int index = static_cast<int>(a.seed % kCaseSeeds);
  const bool conus = a.workload == "conus_patch";
  const wrf::model::RunConfig cfg =
      conus ? conus_patch_config(case_seed(index))
            : decomp_2x2_config(case_seed(index));
  const std::uint64_t expect =
      conus ? kConusHashes[index] : kDecompHashes[index];
  check_threads(cfg.nranks(), mr.nproc, a.workload + " rank threads");

  Result r;
  const int pool = conus ? wrf::par::shared_pool().size() : 0;
  r.threads = "{\"rank_threads\": " + std::to_string(cfg.nranks()) +
              ", \"lanes\": 0, \"device_pool_threads\": " +
              std::to_string(pool) + ", \"generator_threads\": 0}";
  r.notes.push_back("config: " + cfg.describe() + " steps=" +
                    std::to_string(cfg.nsteps) +
                    " case_seed=" + std::to_string(cfg.seed));

  if (a.trace) {
    const TracedModel t = run_traced_model(cfg, a.spans);
    for (const auto& [what, out] : t.outputs) {
      ++r.attempted;
      if (out.hash != expect || !out.finite) {
        ++r.failed;
        r.notes.push_back(what + ": output differs from the record");
      }
    }
    r.metrics = t.layers;
    return r;
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  // Throughput pools every operation's stepping (total cell-steps over
  // total stepping wall), so it averages the host's speed over the whole
  // run rather than taking one operation's window.
  double cellsteps = 0.0, stepping = 0.0;
  std::vector<double> setup, solution, gpu;
  for (;;) {
    const ModelOp op = run_model_op(cfg);
    ++r.attempted;
    if (op.out.hash != expect || !op.out.finite) {
      ++r.failed;
      r.notes.push_back("run " + std::to_string(r.attempted) +
                        (op.out.finite ? ": state hash mismatch"
                                       : ": non-finite output"));
    }
    cellsteps += op.cellsteps;
    stepping += op.stepping_s;
    setup.push_back(op.setup_s);
    solution.push_back(op.solution_s);
    gpu.push_back(op.modeled_gpu_ms / cfg.nsteps);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed + op.solution_s > a.seconds) break;
  }
  const double n = static_cast<double>(r.attempted);
  r.metrics["cellsteps_per_s"] = cellsteps / stepping;
  r.metrics["setup_s"] = median(setup);
  r.metrics["latency_p50_s"] = median(solution);
  r.metrics["latency_p90_s"] = tail(solution);
  r.samples = {{"cellsteps_per_s", n},
               {"setup_s", n},
               {"peak_rss_mb", 1},
               {"latency_p50_s", n},
               {"latency_p90_s", n}};
  r.notes.push_back("modeled_gpu_ms_per_step = " + fmt("%.4f", median(gpu)) +
                    " ms (modeled A100)");
  r.notes.push_back("failed_frac = " + fmt("%.4f", r.failed / n) + " ratio");
  r.notes.push_back(
      "latency = time to solution of one run (set-up, steps, output); "
      "with under 100 runs latency_p90_s is the slowest run");
  return r;
}

Result run_service_mix(const Args& a, const MachineRecord& mr) {
  const int pool = wrf::par::shared_pool().size();
  check_threads(kServiceLanes + 1, mr.nproc,
                "service_mix lanes plus the load generator");
  Result r;
  r.threads = "{\"rank_threads\": 1, \"lanes\": " +
              std::to_string(kServiceLanes) +
              ", \"device_pool_threads\": " + std::to_string(pool) +
              ", \"generator_threads\": 1}";
  const ServiceRun s = run_service(a.seed, a.seconds, a.trace, a.spans);
  r.attempted = s.attempted;
  r.failed = s.failed;
  if (!s.first_failure.empty()) {
    r.notes.push_back("first failure: " + s.first_failure);
  }
  r.notes.push_back("open-loop rate " + fmt("%.2f", kOpenLoopRate) +
                    " jobs/s, " + std::to_string(s.latency_s.size()) +
                    " open-loop jobs in " + std::to_string(kBursts) +
                    " segments, each followed by a burst of " +
                    std::to_string(kBurstJobs) + " jobs");
  if (a.trace) {
    r.metrics = s.layers;
    return r;
  }
  const double n = static_cast<double>(s.latency_s.size());
  r.metrics["cellsteps_per_s"] = s.burst_cellsteps_per_s;
  r.metrics["setup_s"] = median(s.setup_s);
  r.metrics["latency_p50_s"] = median(s.latency_s);
  r.metrics["latency_p90_s"] = p90(s.latency_s);
  r.samples = {{"cellsteps_per_s", kBursts * kBurstJobs},
               {"setup_s", static_cast<double>(s.setup_s.size())},
               {"peak_rss_mb", 1},
               {"latency_p50_s", n},
               {"latency_p90_s", n}};
  r.notes.push_back("job_latency_p50_s = " +
                    fmt("%.4f", r.metrics["latency_p50_s"]) + " s");
  r.notes.push_back("job_latency_p90_s = " +
                    fmt("%.4f", r.metrics["latency_p90_s"]) + " s");
  r.notes.push_back("burst_jobs_per_s = " +
                    fmt("%.3f", s.burst_jobs_per_s) + " jobs/s");
  r.notes.push_back("failed_frac = " +
                    fmt("%.4f", static_cast<double>(s.failed) / s.attempted) +
                    " ratio");
  return r;
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  // A metric that could not be measured (e.g. every job failed) still
  // prints as a number; `correct` is false in that case.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  return fmt("%.17g", v);
}

void print(const Args& a, const MachineRecord& mr, Result& r) {
  const std::span<const Def> defs = a.trace ? std::span<const Def>(kPerLayer)
                                             : std::span<const Def>(kEndToEnd);
  if (!a.trace) r.metrics["peak_rss_mb"] = peak_rss_mib();
  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const Def& d : defs) {
    const auto it = r.metrics.find(d.name);
    const double v = it != r.metrics.end() ? it->second : 0.0;
    r.metrics[d.name] = v;
    std::printf("%-28s %16.6g %s\n", d.name, v, d.unit);
  }
  std::string samples;
  for (const auto& [k, v] : r.samples) {
    samples += (samples.empty() ? "" : ", ") + json_string(k) + ": " + num(v);
  }
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"default_seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"cpu_model\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"git_commit\": %s, \"threads\": %s, "
      "\"samples\": {%s}}}\n",
      json_string(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      static_cast<unsigned long long>(kDefaultSeed), num(a.seconds).c_str(),
      a.trace ? 1 : 0, mr.nproc, mr.hardware_concurrency,
      json_string(mr.cpu_model).c_str(), json_string(mr.compiler).c_str(),
      json_string(mr.build_type).c_str(), json_string(mr.git_commit).c_str(),
      r.threads.c_str(), samples.c_str());
  std::string metrics;
  for (const Def& d : defs) {
    metrics += (metrics.empty() ? "" : ", ") + json_string(d.name) +
               ": {\"value\": " + num(r.metrics[d.name]) +
               ", \"unit\": " + json_string(d.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed,
              metrics.c_str());
}

/// Print the reference tables in reference_hashes.hpp's layout.
void record_hashes() {
  auto row = [](const char* indent, auto&& hash_of) {
    for (int i = 0; i < kCaseSeeds; ++i) {
      std::printf("%s0x%016llxull%s", i % 2 == 0 ? indent : " ",
                  static_cast<unsigned long long>(hash_of(i)),
                  i + 1 == kCaseSeeds ? "" : (i % 2 == 1 ? ",\n" : ","));
      std::fflush(stdout);
    }
  };
  std::printf("inline constexpr std::uint64_t kConusHashes[kCaseSeeds] = {\n");
  row("    ", [](int i) {
    return reference_hash(conus_patch_config(case_seed(i)));
  });
  std::printf("};\ninline constexpr std::uint64_t "
              "kDecompHashes[kCaseSeeds] = {\n");
  row("    ", [](int i) {
    return reference_hash(decomp_2x2_config(case_seed(i)));
  });
  std::printf("};\ninline constexpr std::uint64_t "
              "kServiceHashes[3][kCaseSeeds] = {\n");
  for (int c = 0; c < wrf::svc::kNumClasses; ++c) {
    std::printf("    {\n");
    row("        ", [c](int i) {
      // The scheduler runs every job through run_single.
      wrf::prof::Profiler prof;
      const wrf::svc::Job job =
          service_job(static_cast<wrf::svc::JobClass>(c), i);
      return wrf::model::state_hash(wrf::model::run_single(job.config, prof));
    });
    std::printf("}%s", c + 1 == wrf::svc::kNumClasses ? "};\n" : ",\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.record) {
      record_hashes();
      return 0;
    }
    const MachineRecord mr = machine_record();
    Result r = a.workload == "service_mix" ? run_service_mix(a, mr)
                                            : run_model(a, mr);
    print(a, mr, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
