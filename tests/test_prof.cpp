// Unit tests: profiler ranges, nesting, thread merge, and the one-timer
// contract — a region's stats wall field and its flat-profile row are
// the same measurement.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "model/driver.hpp"
#include "prof/prof.hpp"
#include "util/error.hpp"

namespace wrf::prof {
namespace {

void spin_ms(int ms) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(Profiler, BasicRangeRecordsTime) {
  Profiler p;
  {
    ScopedRange r(p, "work");
    spin_ms(5);
  }
  EXPECT_EQ(p.calls("work"), 1u);
  EXPECT_GE(p.inclusive_sec("work"), 0.004);
}

TEST(Profiler, NestedExclusiveAttribution) {
  Profiler p;
  {
    ScopedRange outer(p, "outer");
    spin_ms(4);
    {
      ScopedRange inner(p, "inner");
      spin_ms(8);
    }
  }
  // Inner time is excluded from outer's exclusive but included in
  // outer's inclusive.
  EXPECT_GE(p.inclusive_sec("outer"), p.inclusive_sec("inner"));
  EXPECT_LT(p.exclusive_sec("outer"), p.inclusive_sec("outer"));
  EXPECT_NEAR(p.exclusive_sec("outer") + p.inclusive_sec("inner"),
              p.inclusive_sec("outer"), 0.002);
}

TEST(Profiler, RepeatedCallsAccumulate) {
  Profiler p;
  for (int i = 0; i < 10; ++i) {
    ScopedRange r(p, "loop");
  }
  EXPECT_EQ(p.calls("loop"), 10u);
}

TEST(Profiler, SelfNestedSameName) {
  Profiler p;
  {
    ScopedRange a(p, "rec");
    {
      ScopedRange b(p, "rec");
    }
  }
  EXPECT_EQ(p.calls("rec"), 2u);
}

TEST(Profiler, PopWithoutPushThrows) {
  Profiler p;
  EXPECT_THROW(p.pop_range(), Error);
}

TEST(Profiler, FlatReportSortedByExclusive) {
  Profiler p;
  {
    ScopedRange a(p, "small");
    spin_ms(2);
  }
  {
    ScopedRange b(p, "big");
    spin_ms(10);
  }
  const auto rows = p.flat_report();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "big");
  EXPECT_EQ(rows[1].name, "small");
  // Percentages sum to ~100.
  EXPECT_NEAR(rows[0].percent_exclusive + rows[1].percent_exclusive, 100.0,
              1e-9);
}

TEST(Profiler, WorkerThreadsMergeOnOutermostClose) {
  Profiler p;
  std::thread t1([&] {
    ScopedRange r(p, "worker");
    spin_ms(2);
  });
  std::thread t2([&] {
    ScopedRange r(p, "worker");
    spin_ms(2);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(p.calls("worker"), 2u);
}

TEST(Profiler, ResetClears) {
  Profiler p;
  {
    ScopedRange r(p, "x");
  }
  p.reset();
  EXPECT_EQ(p.calls("x"), 0u);
}

TEST(Profiler, FormatContainsNames) {
  Profiler p;
  {
    ScopedRange r(p, "fast_sbm");
  }
  const std::string rep = p.format_flat_report();
  EXPECT_NE(rep.find("fast_sbm"), std::string::npos);
  EXPECT_NE(rep.find("%time"), std::string::npos);
}

TEST(Profiler, StopReturnsTheCreditedSecondsOnce) {
  Profiler p;
  double first = 0.0;
  {
    ScopedRange r(p, "region");
    spin_ms(2);
    first = r.stop();
    spin_ms(2);  // after stop(): not part of the range
    EXPECT_EQ(r.stop(), first);
  }
  EXPECT_EQ(p.calls("region"), 1u);
  EXPECT_EQ(p.inclusive_sec("region"), first);
  EXPECT_GE(first, 0.001);
  EXPECT_LT(first, 0.0035);
}

TEST(Profiler, TwoProfilersNestIndependently) {
  // Frames are tagged with their profiler: a range of another profiler
  // opened inside never becomes this one's child.
  Profiler a;
  Profiler b;
  {
    ScopedRange outer(a, "outer");
    {
      ScopedRange inner(b, "inner");
      spin_ms(4);
    }
  }
  EXPECT_EQ(a.exclusive_sec("outer"), a.inclusive_sec("outer"));
  EXPECT_EQ(a.calls("inner"), 0u);
  EXPECT_EQ(b.calls("inner"), 1u);
  EXPECT_GE(a.inclusive_sec("outer"), b.inclusive_sec("inner"));
}

// ------------------------------------- ranges feed the stats wall fields

model::RunConfig small_case(fsbm::Version v) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.nsteps = 3;
  cfg.version = v;
  return cfg;
}

/// Each wall field sums its region's range seconds, which are whole
/// 2^-30 s ticks: the totals equal the flat-profile rows exactly, in
/// whatever order steps and ranks were added up.
void expect_walls_reconcile(const model::RunResult& r, const Profiler& p,
                            const std::string& coal_range) {
  EXPECT_EQ(r.totals.fsbm.wall_total_sec, p.inclusive_sec("fast_sbm"));
  EXPECT_EQ(r.totals.fsbm.wall_coal_sec, p.inclusive_sec(coal_range));
  EXPECT_EQ(r.totals.wall_sec, p.inclusive_sec("solve_interval"));
  EXPECT_EQ(r.totals.halo_wall_sec, p.inclusive_sec("halo_exchange"));
  EXPECT_GT(p.calls(coal_range), 0u);
  EXPECT_GT(r.totals.halo_wall_sec, 0.0);
}

TEST(Profiler, RangesReconcileWithStatsWalls) {
  // Single rank: v0's inline coal (per-cell partials reported through
  // add_range_time), v3's coal group range, and v3's fused cond+coal
  // group, which reports under the coal slot too.
  struct Case {
    fsbm::Version version;
    exec::FuseMode fuse;
    const char* coal_range;
  };
  for (const Case& c :
       {Case{fsbm::Version::kV0Baseline, exec::FuseMode::kOff,
             "coal_bott_new_loop"},
        Case{fsbm::Version::kV3Offload3, exec::FuseMode::kOff,
             "coal_bott_new_loop"},
        Case{fsbm::Version::kV3Offload3, exec::FuseMode::kAuto,
             "onecond_coal_fused"}}) {
    SCOPED_TRACE(std::string(fsbm::version_name(c.version)) + " " +
                 c.coal_range);
    model::RunConfig cfg = small_case(c.version);
    cfg.fuse = c.fuse;
    cfg.fsbm_params.offload_condensation = c.fuse == exec::FuseMode::kAuto;
    Profiler p;
    const model::RunResult r = model::run_single(cfg, p);
    expect_walls_reconcile(r, p, c.coal_range);
    EXPECT_EQ(p.calls("fast_sbm"), 3u);
    EXPECT_EQ(p.calls("solve_interval"), 3u);
    // halo_begin and halo_finish are one range each, per RK3 stage.
    EXPECT_EQ(p.calls("halo_exchange"), 3u * 3u * 2u);
  }
  // 2x2 ranks share one profiler: rank threads fold in arrival order
  // while RunResult merges rank by rank — still exact.
  for (const dyn::HaloMode halo :
       {dyn::HaloMode::kSync, dyn::HaloMode::kOverlap}) {
    SCOPED_TRACE(model::knob_name(halo));
    model::RunConfig cfg = small_case(fsbm::Version::kV3Offload3);
    cfg.npx = cfg.npy = 2;
    cfg.halo_mode = halo;
    Profiler p;
    const model::RunResult r = model::run_simulation(cfg, p);
    expect_walls_reconcile(r, p, "coal_bott_new_loop");
    EXPECT_EQ(p.calls("fast_sbm"), 4u * 3u);
    EXPECT_EQ(p.calls("halo_exchange"), 4u * 3u * 3u * 2u);
    EXPECT_GT(r.totals.halo_bytes, 0u);
  }
}

// ------------------------------------------- add_range_time semantics

TEST(Profiler, AddRangeTimeOutsideAnyRangeMergesDirectly) {
  Profiler p;
  p.add_range_time("bulk", 7, 0.25);
  p.add_range_time("bulk", 3, 0.75);
  EXPECT_EQ(p.calls("bulk"), 10u);
  EXPECT_DOUBLE_EQ(p.inclusive_sec("bulk"), 1.0);
  // No enclosing range: the time is all its own.
  EXPECT_DOUBLE_EQ(p.exclusive_sec("bulk"), 1.0);
}

TEST(Profiler, AddRangeTimeCreditsOpenParent) {
  Profiler p;
  {
    ScopedRange outer(p, "dispatch");
    spin_ms(10);
    p.add_range_time("worker", 4, 0.003);  // well under elapsed wall
  }
  EXPECT_EQ(p.calls("worker"), 4u);
  EXPECT_DOUBLE_EQ(p.inclusive_sec("worker"), 0.003);
  // The parent's exclusive time drops by exactly the credited seconds.
  EXPECT_NEAR(p.exclusive_sec("dispatch") + 0.003,
              p.inclusive_sec("dispatch"), 0.002);
  EXPECT_GE(p.exclusive_sec("dispatch"), 0.0);
}

TEST(Profiler, AddRangeTimeClampsChildCreditToParentHeadroom) {
  // A parallel dispatch can report more summed worker seconds than the
  // parent's wall time; the credit must clamp so the parent's exclusive
  // time never goes negative — while the child keeps its full
  // thread-summed CPU time.
  Profiler p;
  {
    ScopedRange outer(p, "dispatch");
    spin_ms(2);
    p.add_range_time("workers", 8, 100.0);  // 8 threads' worth, clamped
    spin_ms(2);
  }
  EXPECT_DOUBLE_EQ(p.inclusive_sec("workers"), 100.0);
  EXPECT_DOUBLE_EQ(p.exclusive_sec("workers"), 100.0);
  EXPECT_GE(p.exclusive_sec("dispatch"), 0.0);
  // The parent's wall stays wall-sized, not worker-summed.
  EXPECT_LT(p.inclusive_sec("dispatch"), 10.0);
}

TEST(Profiler, AddRangeTimeRepeatedCreditsStayClamped) {
  // Several oversized credits against one parent: each clamps to the
  // remaining headroom, never driving exclusive time negative.
  Profiler p;
  {
    ScopedRange outer(p, "dispatch");
    spin_ms(2);
    p.add_range_time("a", 1, 50.0);
    p.add_range_time("b", 1, 50.0);
  }
  EXPECT_GE(p.exclusive_sec("dispatch"), 0.0);
  EXPECT_DOUBLE_EQ(p.inclusive_sec("a"), 50.0);
  EXPECT_DOUBLE_EQ(p.inclusive_sec("b"), 50.0);
}

// ------------------------------------------------- report formatting

TEST(Profiler, FormatAlignsColumnsRegardlessOfNameLength) {
  Profiler p;
  const std::string long_name =
      "fsbm/coalescence/kernel_table_fill/with/very/long/nested/path";
  {
    ScopedRange a(p, "x");
  }
  p.add_range_time(long_name, 123456789ull, 1234.5);
  const std::string rep = p.format_flat_report();

  // Names go last on each row, so a long name can never truncate and
  // every row's name starts at the same column as the header's.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < rep.size()) {
    const std::size_t nl = rep.find('\n', pos);
    lines.push_back(rep.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_GE(lines.size(), 3u);
  const std::size_t name_col = lines[0].find("name");
  ASSERT_NE(name_col, std::string::npos);
  bool saw_long = false;
  bool saw_short = false;
  for (std::size_t n = 1; n < lines.size(); ++n) {
    if (lines[n].size() >= name_col + 1) {
      const std::string name = lines[n].substr(name_col);
      if (name == long_name) saw_long = true;
      if (name == "x") saw_short = true;
    }
  }
  EXPECT_TRUE(saw_long) << rep;
  EXPECT_TRUE(saw_short) << rep;
}

}  // namespace
}  // namespace wrf::prof
