// Fusion sweep: kernel-launch counts and inter-pass transfer traffic of
// the fused pass graph (fuse=auto, analyzer-verified cond+coal fusion)
// vs the paper's one-launch-per-pass layout (fuse=off), on one
// CONUS-12km rank patch with the condensation pass offloaded
// (v3 + offload_condensation, exec=device).
//
// Shape targets, enforced through the exit code in BOTH output modes:
//   (a) fuse=auto issues strictly fewer kernel launches per step than
//       fuse=off under both res=step and res=persist, and
//   (b) under res=step, fused steady-state h2d+d2h bytes/step drop
//       below unfused (the fused launch skips coal's re-map of
//       call_coal/ff/temp/pres and one full-ff d2h round-trip).
//
// Wall-clock is reported as a min/median/CV aggregate over N reps
// (bench_common.hpp) — on a loaded CI host only the counter columns are
// stable; the CV column says how much to trust the wall ones.
//
// Usage: bench_fusion [nx ny nz nsteps] [--benchmark_format=json]
//   default grid: the 107x75x50 per-rank CONUS patch of Tables IV-VI.
//   JSON mode prints the trajectory point BENCH_fusion.json: one object
//   per (fuse, res) cell, the derived savings and the two gates.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wrf;

namespace {

struct Cell {
  exec::FuseMode fuse = exec::FuseMode::kOff;
  mem::ResidencyMode res = mem::ResidencyMode::kStep;
  double launches_step = 0;     // kernel launches per steady-state step
  double latency_ms_step = 0;   // modeled fixed launch latency per step
  double h2d_steady = 0, d2h_steady = 0;  // bytes per steady-state step
  bench::RepAggregate wall;     // whole-run wall seconds over reps
  std::string fused_pair;       // "a+b" when the schedule fused, else ""
};

model::RunConfig make_config(exec::FuseMode fuse, mem::ResidencyMode res,
                             int nx, int ny, int nz, int nsteps) {
  model::RunConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.nz = nz;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = nsteps;
  cfg.version = fsbm::Version::kV3Offload3;
  cfg.fsbm_params.offload_condensation = true;
  cfg.res = res;
  cfg.fuse = fuse;
  cfg.exec.kind = exec::ExecKind::kDevice;
  cfg.validate();
  return cfg;
}

Cell measure(exec::FuseMode fuse, mem::ResidencyMode res, int nx, int ny,
             int nz, int nsteps, int reps) {
  const model::RunConfig cfg = make_config(fuse, res, nx, ny, nz, nsteps);

  Cell c;
  c.fuse = fuse;
  c.res = res;

  // Counter pass: step a fresh rank once, bracketing each step with the
  // device transfer counters (steady state = steps after the first).
  {
    const auto patches = grid::decompose(cfg.domain(), 1, 1, cfg.halo);
    model::RankModel rank(cfg, patches[0], nullptr);
    rank.init();
    prof::Profiler prof;
    std::vector<gpu::TransferStats> cum;
    cum.push_back(rank.device()->transfers());
    std::uint64_t launches = 0;
    double latency_ms = 0;
    for (int s = 0; s < nsteps; ++s) {
      const model::StepStats st = rank.step(prof);
      if (s > 0) {  // steady state only
        launches += st.fsbm.kernel_launches;
        latency_ms += st.fsbm.launch_latency_ms;
      }
      cum.push_back(rank.device()->transfers());
    }
    const int steady = nsteps - 1;
    if (steady > 0) {
      const auto& a = cum[1];
      const auto& z = cum.back();
      c.h2d_steady = static_cast<double>(z.h2d_bytes - a.h2d_bytes) / steady;
      c.d2h_steady = static_cast<double>(z.d2h_bytes - a.d2h_bytes) / steady;
      c.launches_step = static_cast<double>(launches) / steady;
      c.latency_ms_step = latency_ms / steady;
    }
    const exec::PassGraph& g = rank.scheme().pass_graph();
    for (const exec::FusionDecision& d : rank.scheme().schedule().decisions) {
      if (d.fused) c.fused_pair = g.node(d.a).name + "+" + g.node(d.b).name;
    }
  }

  // Wall pass: whole-run wall over `reps` repetitions, fresh rank each.
  c.wall = bench::measure_reps(reps, [&]() {
    prof::Profiler prof;
    return model::run_single(cfg, prof).wall_sec;
  });
  return c;
}

double mb(double bytes) { return bytes / 1e6; }

void write_cell(obs::JsonWriter& w, const char* key, const Cell& c) {
  w.key(key).begin_object();
  w.field("name", std::string("fusion/fuse=") + model::knob_name(c.fuse) +
                      "/res=" + model::knob_name(c.res));
  w.field("run_type", "aggregate");
  w.field("launches_per_step", c.launches_step);
  w.field("launch_latency_ms_per_step", c.latency_ms_step);
  w.field("h2d_bytes_per_step", c.h2d_steady);
  w.field("d2h_bytes_per_step", c.d2h_steady);
  w.field("wall_s_min", c.wall.min).field("wall_s_median", c.wall.median);
  w.field("wall_cv", c.wall.cv).field("reps", c.wall.reps);
  w.field("fused_pair", c.fused_pair).end_object();
}

}  // namespace

int main(int argc, char** argv) {
  auto [nx, ny, nz, nsteps, json] = bench::grid_args(
      argc, argv, "bench_fusion", {107, 75, 50, 3});
  if (nsteps < 2) nsteps = 2;  // steady state needs a second step
  const int reps = 3;

  // Sweep order: off step, off persist, auto step, auto persist.
  std::vector<Cell> cells;
  for (const exec::FuseMode fuse :
       {exec::FuseMode::kOff, exec::FuseMode::kAuto}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      cells.push_back(measure(fuse, res, nx, ny, nz, nsteps, reps));
    }
  }
  const Cell& off_step = cells[0];
  const Cell& off_pers = cells[1];
  const Cell& auto_step = cells[2];
  const Cell& auto_pers = cells[3];
  const bool fewer_launches =
      auto_step.launches_step < off_step.launches_step &&
      auto_pers.launches_step < off_pers.launches_step;
  const double off_bytes = off_step.h2d_steady + off_step.d2h_steady;
  const double auto_bytes = auto_step.h2d_steady + auto_step.d2h_steady;
  const bool fewer_bytes = auto_bytes < off_bytes;
  const int exit_code = (fewer_launches && fewer_bytes) ? 0 : 1;

  if (json) {
    bench::print_point("fusion", [&](obs::JsonWriter& w) {
      w.key("context").begin_object().field("executable", "bench_fusion");
      w.field("grid", bench::grid_name(nx, ny, nz)).field("nsteps", nsteps);
      w.field("version", "v3_offload_collapse3");
      w.field("offload_condensation", true).field("exec", "device");
      w.end_object();
      write_cell(w, "off_step", off_step);
      write_cell(w, "auto_step", auto_step);
      write_cell(w, "off_persist", off_pers);
      write_cell(w, "auto_persist", auto_pers);
      w.field("fused_pair", auto_step.fused_pair);
      w.field("launches_saved_per_step",
              off_step.launches_step - auto_step.launches_step);
      w.field("step_traffic_reduction_x",
              off_bytes / std::max(auto_bytes, 1.0));
      w.field("fewer_launches", fewer_launches);
      w.field("less_step_traffic", fewer_bytes);
    });
    return exit_code;
  }

  bench::print_config_header("Pass fusion sweep — fuse=off vs fuse=auto");
  std::printf("CONUS rank patch %dx%dx%d, %d steps, v3 + "
              "offload_condensation, exec=device, %d wall reps\n\n",
              nx, ny, nz, nsteps, reps);
  std::printf("  %-6s %-8s %12s %12s %12s %12s %10s %8s\n", "fuse", "res",
              "launch/st", "lat ms/st", "h2d MB/st", "d2h MB/st",
              "wall med s", "wall CV");
  for (const Cell& c : cells) {
    std::printf("  %-6s %-8s %12.1f %12.4f %12.3f %12.3f %10.3f %8.3f\n",
                model::knob_name(c.fuse), model::knob_name(c.res),
                c.launches_step, c.latency_ms_step, mb(c.h2d_steady),
                mb(c.d2h_steady), c.wall.median, c.wall.cv);
  }
  std::printf("\n");
  std::printf("fused pair (fuse=auto): %s\n",
              auto_step.fused_pair.empty() ? "(none!)"
                                           : auto_step.fused_pair.c_str());
  std::printf("launches/step: off %.1f -> auto %.1f (step); off %.1f -> "
              "auto %.1f (persist)\n",
              off_step.launches_step, auto_step.launches_step,
              off_pers.launches_step, auto_pers.launches_step);
  std::printf("res=step inter-pass traffic: off %.1f MB/step -> auto "
              "%.1f MB/step\n", mb(off_bytes), mb(auto_bytes));
  std::printf("shape check: fused launches strictly below unfused under "
              "both res modes (%s); fused h2d+d2h below unfused at "
              "res=step (%s)\n",
              fewer_launches ? "yes" : "NO", fewer_bytes ? "yes" : "NO");
  return exit_code;
}
