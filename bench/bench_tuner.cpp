// Autotuner bench: what does perfmodel-guided knob tuning buy on the
// CONUS rank patch, and is the decision statistically defensible?
//
// Runs tune::Tuner on the single-rank CONUS-12km patch (v3 offload by
// default), writes the versioned tuned.json artifact, then measures the
// SAME shape twice with adaptive reps: once with the untuned default
// knobs, once loaded back through `tune=file:<artifact>` — so the
// comparison exercises the exact artifact round trip users run.
//
// Exit-code gates (both output modes):
//   1. tuned throughput >= untuned throughput (small noise allowance —
//      when the winner IS the default knobs the two runs are the same
//      config measured twice);
//   2. the deciding rung's winner CV <= the target (a winner picked on
//      jitter is not a winner);
//   3. the tune=file: run is bitwise identical (model::state_hash) to
//      the same knobs set explicitly — tuning may never change physics.
//
// Usage: bench_tuner [nx ny nz nsteps] [version=v0|v1|v2|v3|v3naive]
//                    [artifact=<path>] [keep=N] [target_cv=X]
//                    [--benchmark_format=json]
//   default: the 107x75x50 CONUS rank patch, v3, 2 comparison steps,
//   artifact written to ./tuned.json.  JSON mode prints the trajectory
//   point BENCH_tuner.json: both sides, the winner and the three gates.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "tune/tuner.hpp"

using namespace wrf;

namespace {

struct Side {
  const char* name;
  bench::RepAggregate wall;
  double cellsteps_per_s = 0;
  std::uint64_t hash = 0;
};

Side measure_side(const char* name, const model::RunConfig& cfg,
                  const tune::MeasurePolicy& policy) {
  Side s;
  s.name = name;
  model::RunResult last;
  s.wall = bench::measure_reps(policy, [&]() {
    prof::Profiler p;
    last = model::run_single(cfg, p);
    return last.wall_sec;
  });
  s.cellsteps_per_s = static_cast<double>(cfg.domain().cells()) *
                      static_cast<double>(cfg.nsteps) / s.wall.min;
  s.hash = model::state_hash(last);
  return s;
}

/// version=: the bench's own spellings, shorter than fsbm::version_name.
fsbm::Version parse_version(const std::string& v) {
  static const std::pair<const char*, fsbm::Version> kNames[] = {
      {"v0", fsbm::Version::kV0Baseline},
      {"v1", fsbm::Version::kV1LookupOnDemand},
      {"v2", fsbm::Version::kV2Offload2},
      {"v3", fsbm::Version::kV3Offload3},
      {"v3naive", fsbm::Version::kV3NaiveCollapse3}};
  for (const auto& [name, version] : kNames) {
    if (v == name) return version;
  }
  throw ConfigError("version: '" + v + "' (want v0|v1|v2|v3|v3naive)");
}

/// target_cv=: a positive decimal, the whole token.
double parse_cv(const std::string& v) {
  double cv = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), cv);
  if (ec != std::errc() || end != v.data() + v.size() || !(cv > 0.0) ||
      !std::isfinite(cv)) {
    throw ConfigError("target_cv: '" + v +
                      "' is not a positive decimal (e.g. 0.1)");
  }
  return cv;
}

void write_side(obs::JsonWriter& w, const Side& s) {
  w.key(s.name).begin_object();
  w.field("name", std::string("tuner/") + s.name);
  w.field("run_type", "aggregate");
  w.field("wall_s_min", s.wall.min).field("wall_s_median", s.wall.median);
  w.field("wall_cv", s.wall.cv).field("reps", s.wall.reps);
  w.field("cellsteps_per_s", s.cellsteps_per_s).end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string artifact_path = "tuned.json";
  fsbm::Version version = fsbm::Version::kV3Offload3;
  tune::TunerOptions opts;
  opts.prior_keep = 10;
  opts.policy.max_reps = 8;
  const bench::GridArgs grid = bench::read_args(
      "bench_tuner",
      "[nx ny nz nsteps] [version=v0|v1|v2|v3|v3naive] [artifact=<path>] "
      "[keep=N] [target_cv=X] [--benchmark_format=json]",
      [&] {
        const model::CommandLine cl = bench::args(
            argc, argv, {"artifact", "keep", "target_cv", "version"}, 4);
        for (const auto& [key, value] : cl.owned) {
          if (key == "artifact" && value.empty()) {
            throw ConfigError("artifact: want a path");
          }
          if (key == "artifact") artifact_path = value;
          if (key == "keep") opts.prior_keep = parse_count(value, "keep");
          if (key == "target_cv") opts.policy.target_cv = parse_cv(value);
          if (key == "version") version = parse_version(value);
        }
        return bench::grid_from(cl, {107, 75, 50, 2});
      });
  const int compare_steps = grid.nsteps;
  const bool json = grid.json;

  model::RunConfig base = bench::conus_rank_patch(version, compare_steps);
  base.nx = grid.nx;
  base.ny = grid.ny;
  base.nz = grid.nz;
  base.validate();

  const tune::Tuner tuner(opts);
  const tune::TuneReport rep = tuner.tune(base);
  tune::write_artifact(artifact_path, rep.artifact);

  // Tuned side goes through the artifact file, not the in-memory
  // winner: the comparison exercises the exact tune=file: round trip.
  model::RunConfig untuned = base;
  untuned.nsteps = compare_steps;
  model::RunConfig tuned_cfg = base;
  tuned_cfg.nsteps = compare_steps;
  tuned_cfg.tune = tune::TuneSpec::parse("file:" + artifact_path);

  const Side untuned_side =
      measure_side("untuned", untuned, tuner.options().policy);
  const Side tuned_side =
      measure_side("tuned", tuned_cfg, tuner.options().policy);

  // Bitwise gate: the artifact-loaded run equals the explicit-knob run.
  model::RunConfig explicit_cfg = rep.winner;
  explicit_cfg.nsteps = compare_steps;
  prof::Profiler p;
  const std::uint64_t explicit_hash =
      model::state_hash(model::run_single(explicit_cfg, p));
  const bool bitwise_ok = tuned_side.hash == explicit_hash;

  // Throughput gate with a small allowance for the degenerate case
  // (winner == default knobs → the same config measured twice).
  const bool faster =
      tuned_side.cellsteps_per_s * 1.02 >= untuned_side.cellsteps_per_s;
  const bool stable = rep.entry.wall.cv <= opts.policy.target_cv;
  const int exit_code = faster && stable && bitwise_ok ? 0 : 1;

  const double speedup =
      untuned_side.cellsteps_per_s > 0
          ? tuned_side.cellsteps_per_s / untuned_side.cellsteps_per_s
          : 0.0;

  if (json) {
    bench::print_point("tuner", [&](obs::JsonWriter& w) {
      const tune::TunedEntry& e = rep.entry;
      const tune::MachineFingerprint& m = rep.artifact.machine;
      w.key("context").begin_object().field("executable", "bench_tuner");
      w.field("grid", bench::grid_name(base.nx, base.ny, base.nz));
      w.field("nsteps", compare_steps);
      w.field("version", fsbm::version_name(base.version));
      w.field("device", m.device).field("hw_threads", m.hw_threads);
      w.field("artifact", artifact_path);
      w.field("artifact_schema", tune::kArtifactSchemaVersion).end_object();
      write_side(w, untuned_side);
      write_side(w, tuned_side);
      w.key("winner").begin_object().field("name", "tuner/winner");
      w.field("run_type", "meta").field("knobs", e.knobs);
      w.field("shape", e.shape).field("deciding_steps", e.steps);
      w.field("deciding_cv", e.wall.cv).field("space_size", rep.space_size);
      w.field("measured_points", rep.measured_points);
      w.field("measured_runs", rep.measured_runs);
      w.field("rungs", e.ladder.size()).field("speedup", speedup);
      w.field("bitwise_identical", bitwise_ok).end_object();
      w.field("speedup_x", speedup).field("tuned_not_slower", faster);
      w.field("deciding_cv_ok", stable);
      w.field("bitwise_identical", bitwise_ok);
    });
    return exit_code;
  }

  bench::print_config_header("Knob autotuner — tuned vs untuned");
  std::printf("shape: %s\n", rep.entry.shape.c_str());
  std::printf("space: %d points enumerated, %d advanced past the prior, "
              "%d timed runs total\n\n",
              rep.space_size, rep.measured_points, rep.measured_runs);

  for (const tune::Rung& rung : rep.entry.ladder) {
    std::printf("rung %d (%d steps, target CV %.2f):\n", rung.rung,
                rung.steps, rung.target_cv);
    for (const tune::RungPoint& pt : rung.points) {
      std::printf("  %c %-64s %9.4fs cv=%.3f reps=%d\n",
                  pt.survived ? '*' : ' ', pt.knobs.c_str(), pt.wall.min,
                  pt.wall.cv, pt.wall.reps);
    }
  }
  std::printf("\nwinner: %s\n", rep.entry.knobs.c_str());
  std::printf("artifact: %s (schema v%d, %s, %d hw threads)\n",
              artifact_path.c_str(), tune::kArtifactSchemaVersion,
              rep.artifact.machine.device.c_str(),
              rep.artifact.machine.hw_threads);
  std::printf("\n  %-10s %14s %12s %12s %8s %6s\n", "side", "cellsteps/s",
              "wall min s", "wall med s", "CV", "reps");
  for (const Side* s : {&untuned_side, &tuned_side}) {
    std::printf("  %-10s %14.0f %12.4f %12.4f %8.3f %6d\n", s->name,
                s->cellsteps_per_s, s->wall.min, s->wall.median, s->wall.cv,
                s->wall.reps);
  }
  std::printf("\nspeedup (tuned/untuned): %.2fx\n", speedup);
  std::printf("gates: tuned>=untuned %s | deciding-rung CV<=%.2f %s | "
              "tune=file: bitwise identical %s\n",
              faster ? "yes" : "NO", opts.policy.target_cv,
              stable ? "yes" : "NO", bitwise_ok ? "yes" : "NO");
  return exit_code;
}
