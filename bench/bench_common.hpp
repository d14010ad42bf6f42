#pragma once
// Shared helpers for the table/figure reproduction benches.
//
// Every bench prints (a) real wall-clock measurements of the functional
// C++ implementation on this host and (b), where the paper's number
// depends on Perlmutter hardware, modeled values clearly labeled
// `modeled`.  Reproduction targets are the *shapes* (who wins, by what
// factor, where crossovers fall); see EXPERIMENTS.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "model/driver.hpp"
#include "obs/export.hpp"
#include "perfmodel/scaling.hpp"
#include "tune/artifact.hpp"
#include "tune/measure.hpp"
#include "util/count.hpp"

namespace wrf::bench {

// The statistical measurement primitives live in src/tune/measure.hpp
// (the autotuner aggregates its rungs with exactly this code); the
// benches keep their historical wrf::bench spelling via re-export.
// RepAggregate: min / median / mean / CV over N reps — `min` is the
// headline wall column, `cv` the stability gauge.  measure_reps has a
// fixed-count overload and an adaptive MeasurePolicy overload (repeat
// until CV <= target or the rep cap).
using tune::aggregate_samples;
using tune::MeasurePolicy;
using tune::measure_reps;
using tune::RepAggregate;

/// Print the Table II configuration header every bench starts with.
inline void print_config_header(const char* what) {
  std::printf("================================================================\n");
  std::printf("miniWRF-SBM bench: %s\n", what);
  std::printf("configuration (paper Table II analogue):\n");
  std::printf("  device        : %s\n",
              gpu::DeviceSpec::a100_40gb().name.c_str());
  std::printf("  stack limit   : 65536 B  (NV_ACC_CUDA_STACKSIZE)\n");
  std::printf("  heap limit    : 64 MB    (NV_ACC_CUDA_HEAPSIZE)\n");
  std::printf("  CPU model     : AMD EPYC 7763 (Milan), 2.45 GHz\n");
  std::printf("================================================================\n\n");
}

/// The benches' command-line contract: `read` parses argv (through
/// args()); a ConfigError it throws is printed with `usage` and the
/// bench exits 2.
template <class Read>
auto read_args(const char* prog, const char* usage, const Read& read) {
  try {
    return read();
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", prog, e.what(), prog,
                 usage);
    std::exit(2);
  }
}

/// A bench command line through model::parse_args: no knob rows, the
/// caller's `owned` keys plus `--benchmark_format`, and up to
/// `max_counts` positional counts.
inline model::CommandLine args(int argc, char** argv,
                               std::vector<std::string_view> owned,
                               std::size_t max_counts) {
  model::RunConfig unused;
  owned.push_back("--benchmark_format");
  return model::parse_args(
      unused, argc, argv,
      {.owned = owned, .rows = {}, .max_counts = max_counts});
}

/// Whether the command line asked for `--benchmark_format=json`, the
/// only format there is.
inline bool json_format(const model::CommandLine& cl) {
  const auto fmt = cl.owned.find("--benchmark_format");
  if (fmt != cl.owned.end() && fmt->second != "json") {
    throw ConfigError("'--benchmark_format=" + fmt->second + "': want json");
  }
  return fmt != cl.owned.end();
}

/// Print one trajectory point to stdout: {"bench": name, body's members,
/// the stamp}.  The stamp is the point format's schema version plus the
/// machine fingerprint tuned.json records.
template <class Body>
void print_point(const char* name, const Body& body) {
  const tune::MachineFingerprint m =
      tune::local_fingerprint(gpu::DeviceSpec::a100_40gb().name);
  obs::JsonWriter w;
  w.begin_object().field("bench", name);
  body(w);
  w.field("schema_version", 1).key("machine").begin_object();
  w.field("hw_threads", m.hw_threads).field("device", m.device);
  w.end_object().end_object();
  std::fputs(w.str().c_str(), stdout);
}

/// "NXxNYxNZ", the trajectory points' grid spelling.
inline std::string grid_name(int nx, int ny, int nz) {
  return std::to_string(nx) + "x" + std::to_string(ny) + "x" +
         std::to_string(nz);
}

/// The grid benches' command line: "[nx ny nz nsteps]
/// [--benchmark_format=json]", the four counts all or none.
struct GridArgs {
  int nx, ny, nz, nsteps;
  bool json = false;
};
inline GridArgs grid_from(const model::CommandLine& cl, GridArgs grid) {
  if (cl.counts.size() == 4) {
    grid = {cl.counts[0], cl.counts[1], cl.counts[2], cl.counts[3]};
  } else if (!cl.counts.empty()) {
    throw ConfigError("want all four of nx ny nz nsteps");
  }
  grid.json = json_format(cl);
  return grid;
}
inline GridArgs grid_args(int argc, char** argv, const char* prog,
                          GridArgs grid) {
  return read_args(prog, "[nx ny nz nsteps] [--benchmark_format=json]",
                   [&] { return grid_from(args(argc, argv, {}, 4), grid); });
}

/// The scaled-down CONUS case used for functional measurements.
/// `exec` is the host-dispatch knob (serial | threads:N | device) and
/// `halo` the exchange mode (sync | overlap), swept by benches the same
/// way they sweep FSBM versions.
inline model::RunConfig bench_case(fsbm::Version v, int nsteps = 2,
                                   exec::ExecConfig exec = {},
                                   dyn::HaloMode halo = dyn::HaloMode::kSync) {
  model::RunConfig cfg;
  cfg.nx = 64;
  cfg.ny = 48;
  cfg.nz = 24;
  cfg.npx = 2;
  cfg.npy = 2;
  cfg.nsteps = nsteps;
  cfg.version = v;
  cfg.exec = exec;
  cfg.halo_mode = halo;
  return cfg;
}

/// One rank's patch at the paper's full CONUS-12km scale (425x300x50
/// over 16 ranks), used for the device-model benches.  Functional
/// execution of this patch is feasible (a few seconds per step).
inline model::RunConfig conus_rank_patch(fsbm::Version v, int nsteps = 1) {
  model::RunConfig cfg;
  cfg.nx = 107;  // ~425/4
  cfg.ny = 75;   // 300/4
  cfg.nz = 50;
  cfg.npx = 1;
  cfg.npy = 1;
  cfg.nsteps = nsteps;
  cfg.version = v;
  return cfg;
}

/// Build a per-rank-step WorkProfile (16-rank CONUS equivalent) from a
/// functional run of the scaled case.
inline perfmodel::WorkProfile profile_from_run(const model::RunResult& res,
                                               const model::RunConfig& cfg) {
  perfmodel::WorkProfile w;
  const double rank_steps =
      static_cast<double>(cfg.nranks()) * cfg.nsteps;
  const auto& f = res.totals.fsbm;
  w.cells = static_cast<double>(cfg.domain().cells()) / cfg.nranks();
  w.coal_flops = f.coal_flops / rank_steps;
  w.coal_flops_v0 = w.coal_flops;  // caller overrides from a v0 run
  w.cond_nucl_flops = (f.cond_flops + f.nucl_flops) / rank_steps;
  w.sed_flops = f.sed_flops / rank_steps;
  w.adv_flops =
      (res.totals.dyn.tend.flops + res.totals.dyn.update.flops) / rank_steps;
  w.halo_bytes =
      static_cast<double>(res.comm.total_bytes()) / rank_steps;
  w.halo_messages =
      static_cast<double>(res.comm.total_messages()) / rank_steps;
  // Scale per-cell work up to the CONUS-12km per-rank patch.
  const double cell_ratio = (425.0 * 300.0 * 50.0 / 16.0) / w.cells;
  w = w.scaled_to(cell_ratio);
  w.cells = 425.0 * 300.0 * 50.0 / 16.0;
  return w;
}

struct PaperRow {
  const char* name;
  double paper;
  double ours;
};

inline void print_rows(const char* title, const PaperRow* rows, int n) {
  std::printf("%s\n", title);
  std::printf("  %-34s %10s %10s\n", "quantity", "paper", "ours");
  for (int i = 0; i < n; ++i) {
    std::printf("  %-34s %10.3g %10.3g\n", rows[i].name, rows[i].paper,
                rows[i].ours);
  }
  std::printf("\n");
}

}  // namespace wrf::bench
