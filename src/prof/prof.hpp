#pragma once
// Instrumenting profiler: one range timer behind the flat profile, the
// stats walls and the trace.
//
// The paper locates its optimization targets with GNU gprof (aggregate
// flat profile) and Nsight Systems (per-rank NVTX ranges).  Here one
// timer serves both: `ScopedRange r(prof, "fast_sbm");` reads the clock
// once at open and once at close, and that interval
//   - folds into the Profiler's flat table (ranges nest; exclusive time
//     goes to the innermost open range of the same profiler per thread),
//   - is a "range" B/E span on the active obs::TraceSink, if installed
//     (with none, one atomic load: obs=off is unchanged), and
//   - is what `r.stop()` returns, for the stats field of the same region
//     (FsbmStats::wall_total_sec / wall_coal_sec, StepStats::wall_sec /
//     halo_wall_sec).
// `Profiler::flat_report()` gives the gprof-style rows (name, calls,
// inclusive and exclusive seconds, percent).
//
// Range durations are whole 2^-30 s ticks.  Sums of such values (below
// 2^23 s) are exact in any order, so a wall field summed over steps and
// ranks equals its flat-profile row to the bit.

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace wrf::prof {

/// One row of a flat profile report.
struct FlatRow {
  std::string name;
  std::uint64_t calls = 0;
  double inclusive_sec = 0.0;
  double exclusive_sec = 0.0;
  double percent_exclusive = 0.0;  ///< of total exclusive time
};

/// Thread-safe profiler with nested named ranges.
///
/// Cheap enough to leave enabled: a range open/close is two clock reads,
/// a push/pop on the calling thread's stack of open ranges, and one
/// locked fold into the shared table at close.
class Profiler {
 public:
  using Clock = std::chrono::steady_clock;

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Open a named range on the calling thread, started at `t0`.  Must be
  /// paired with `pop_range()` in LIFO order (use ScopedRange).
  void push_range(std::string name, Clock::time_point t0);

  /// Close the innermost range this profiler has open on the calling
  /// thread, ended at `t1`, and return its inclusive seconds.
  double pop_range(Clock::time_point t1 = Clock::now());

  /// Attribute externally measured time as a completed child range of
  /// the innermost open range on the calling thread (or as a top-level
  /// range when none is open).  Used by parallelized loop nests that
  /// accumulate sub-range wall time into per-tile partials and report it
  /// once per dispatch — per-iteration ScopedRanges on worker threads
  /// would serialize on the profiler mutex.
  void add_range_time(const std::string& name, std::uint64_t calls,
                      double seconds);

  /// Flat profile over everything recorded so far, sorted by exclusive
  /// time descending.  Percentages are of the summed exclusive time, which
  /// is how gprof normalizes its "% time" column.
  std::vector<FlatRow> flat_report() const;

  /// Total inclusive seconds recorded for one range name (0 if absent).
  double inclusive_sec(const std::string& name) const;
  /// Total exclusive seconds recorded for one range name (0 if absent).
  double exclusive_sec(const std::string& name) const;
  /// Number of times the named range was entered.
  std::uint64_t calls(const std::string& name) const;

  /// Drop all recorded ranges.
  void reset();

  /// Render a gprof-like text table.
  std::string format_flat_report() const;

 private:
  struct Agg {
    std::uint64_t calls = 0;
    double inclusive = 0.0;
    double exclusive = 0.0;
  };

  void fold(const std::string& name, std::uint64_t calls, double inclusive,
            double exclusive);
  Agg row(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, Agg> table_;
};

/// RAII range (the NVTX idiom) and the one timer of a named region; see
/// the file comment.  `args` ride on the trace span's B event (literal
/// keys and string values, as for OBS_SPAN).
class ScopedRange {
 public:
  ScopedRange(Profiler& p, std::string name,
              std::initializer_list<obs::Arg> args = {});
  ~ScopedRange() { stop(); }
  ScopedRange(const ScopedRange&) = delete;
  ScopedRange& operator=(const ScopedRange&) = delete;

  /// Close the range (the first call does) and return its inclusive
  /// seconds: the value the flat table was credited with.
  double stop();

 private:
  Profiler& p_;
  obs::TraceSink* sink_;
  std::string name_;  ///< kept for the E event only when sink_ is set
  bool open_ = true;
  double sec_ = 0.0;
};

}  // namespace wrf::prof
