// Hybrid microphysics sweep: throughput vs bin fraction for the phys=
// knob on the CONUS-style storm patch (a compact storm in mostly calm
// air — the regime the hybrid is built for).
//
// Sweeps phys in {bulk, hybrid, bin} on the single-rank scaled case
// with the v1 host bin chain (the fidelity economics live on the host:
// every demoted cell skips the whole bin chain).  Reports per mode the
// whole-run wall aggregate (min/median/CV over reps), the derived
// cell-step throughput, and the hybrid's population census.
//
// Shape target (exit-code gated in both output modes): hybrid
// throughput lands STRICTLY between pure bulk (everything cheap) and
// pure bin (everything expensive), while the hybrid census shows both
// populations genuinely live.  That is the tentpole's speed-for-
// fidelity trade in one number.
//
// Usage: bench_hybrid [nx ny nz nsteps] [--benchmark_format=json]
//   default grid: the 64x48x24 scaled CONUS case, 3 steps.
//   JSON mode prints the trajectory point BENCH_hybrid.json: one object
//   per phys mode, the hybrid's speedups and the two gates.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wrf;

namespace {

struct Mode {
  fsbm::PhysScheme phys;
  bench::RepAggregate wall;      // whole-run wall seconds over reps
  double cellsteps_per_s = 0;    // grid cell-steps / best wall second
  double bin_fraction = 0;       // cells_bin / (cells_bin + cells_bulk)
  std::uint64_t cells_active = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  double surface_precip = 0;
  double bulk_flops = 0;
  double bin_flops = 0;          // cond + nucl + coal + sed
};

Mode measure(fsbm::PhysScheme phys, int nx, int ny, int nz, int nsteps,
             const bench::MeasurePolicy& policy) {
  model::RunConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = nz;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = nsteps;
  cfg.version = fsbm::Version::kV1LookupOnDemand;
  cfg.phys = phys;
  cfg.validate();

  Mode m;
  m.phys = phys;
  model::RunResult last;
  m.wall = bench::measure_reps(policy, [&]() {
    prof::Profiler p;
    last = model::run_single(cfg, p);
    return last.wall_sec;
  });
  const fsbm::FsbmStats& st = last.totals.fsbm;
  const double cellsteps = static_cast<double>(cfg.domain().cells()) *
                           static_cast<double>(nsteps);
  m.cellsteps_per_s = cellsteps / m.wall.min;
  const double census = static_cast<double>(st.cells_bin + st.cells_bulk);
  m.bin_fraction = census > 0
                       ? static_cast<double>(st.cells_bin) / census
                       : 1.0;  // phys=bin keeps no census: all bin
  m.cells_active = st.cells_active;
  m.promotions = st.promotions;
  m.demotions = st.demotions;
  m.surface_precip = st.surface_precip;
  m.bulk_flops = st.bulk_flops;
  m.bin_flops = st.cond_flops + st.nucl_flops + st.coal_flops + st.sed_flops;
  return m;
}

void write_mode(obs::JsonWriter& w, const Mode& m) {
  const char* phys = model::knob_name(m.phys);
  w.key(phys).begin_object();
  w.field("name", std::string("hybrid/phys=") + phys);
  w.field("run_type", "aggregate");
  w.field("wall_s_min", m.wall.min).field("wall_s_median", m.wall.median);
  w.field("wall_cv", m.wall.cv).field("reps", m.wall.reps);
  w.field("cellsteps_per_s", m.cellsteps_per_s);
  w.field("bin_fraction", m.bin_fraction);
  w.field("cells_active", m.cells_active);
  w.field("promotions", m.promotions).field("demotions", m.demotions);
  w.field("surface_precip", m.surface_precip);
  w.field("bulk_flops", m.bulk_flops).field("bin_flops", m.bin_flops);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  auto [nx, ny, nz, nsteps, json] = bench::grid_args(
      argc, argv, "bench_hybrid", {64, 48, 24, 3});
  // Adaptive reps: at least 3, growing to 8 until the wall CV drops
  // under 10% — the same tune::MeasurePolicy discipline the autotuner's
  // rungs use, so a noisy host spends reps instead of committing jitter.
  bench::MeasurePolicy policy;
  policy.max_reps = 8;

  std::vector<Mode> modes;
  for (const fsbm::PhysScheme phys :
       {fsbm::PhysScheme::kBulk, fsbm::PhysScheme::kHybrid,
        fsbm::PhysScheme::kBin}) {
    modes.push_back(measure(phys, nx, ny, nz, nsteps, policy));
  }
  const Mode& blk = modes[0];
  const Mode& hyb = modes[1];
  const Mode& bin = modes[2];

  // The acceptance gates, enforced through the exit code in BOTH output
  // modes so the CI smoke asserts them: strict bulk > hybrid > bin
  // throughput ordering, and a genuinely two-sided hybrid census on
  // this mostly-clear storm case.
  const bool ordered = blk.cellsteps_per_s > hyb.cellsteps_per_s &&
                       hyb.cellsteps_per_s > bin.cellsteps_per_s;
  const bool two_sided =
      hyb.bin_fraction > 0.0 && hyb.bin_fraction < 1.0;
  const int exit_code = ordered && two_sided ? 0 : 1;

  if (json) {
    bench::print_point("hybrid", [&](obs::JsonWriter& w) {
      w.key("context").begin_object().field("executable", "bench_hybrid");
      w.field("grid", bench::grid_name(nx, ny, nz)).field("nsteps", nsteps);
      w.field("version", "v1-lookup-on-demand").end_object();
      for (const Mode& m : modes) write_mode(w, m);
      const double bin_rate = std::max(bin.cellsteps_per_s, 1.0);
      w.field("bin_fraction", hyb.bin_fraction);
      w.field("hybrid_speedup_over_bin_x", hyb.cellsteps_per_s / bin_rate);
      w.field("bulk_bound_speedup_x", blk.cellsteps_per_s / bin_rate);
      w.field("throughput_strictly_ordered", ordered);
      w.field("census_two_sided", two_sided);
    });
    return exit_code;
  }

  bench::print_config_header("Hybrid microphysics — throughput vs fidelity");
  std::printf("scaled CONUS storm patch %dx%dx%d, %d steps, v1 host bin "
              "chain, adaptive wall reps (%d-%d, target CV %.2f)\n\n",
              nx, ny, nz, nsteps, policy.min_reps, policy.max_reps,
              policy.target_cv);
  std::printf("  %-8s %14s %12s %12s %10s %8s\n", "phys", "cellsteps/s",
              "wall min s", "wall med s", "bin frac", "wall CV");
  for (const Mode& m : modes) {
    std::printf("  %-8s %14.0f %12.4f %12.4f %10.3f %8.3f\n",
                model::knob_name(m.phys), m.cellsteps_per_s, m.wall.min,
                m.wall.median, m.bin_fraction, m.wall.cv);
  }
  std::printf("\nhybrid census: %.1f%% of cell-steps at bin fidelity "
              "(%llu promotions, %llu demotions over the run)\n",
              100.0 * hyb.bin_fraction,
              static_cast<unsigned long long>(hyb.promotions),
              static_cast<unsigned long long>(hyb.demotions));
  std::printf("speedup: hybrid %.2fx over pure bin (pure bulk bound: "
              "%.2fx)\n",
              hyb.cellsteps_per_s / bin.cellsteps_per_s,
              blk.cellsteps_per_s / bin.cellsteps_per_s);
  std::printf("shape check: bulk > hybrid > bin throughput, two-sided "
              "census (%s)\n", exit_code == 0 ? "yes" : "NO");
  return exit_code;
}
