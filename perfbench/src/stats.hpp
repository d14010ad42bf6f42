#pragma once
// Sample statistics and the open-loop load generator's arithmetic.

#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

namespace pb {

/// Linear-interpolated quantile (q in [0, 1]) of `v`; throws
/// std::invalid_argument on an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// A p90 needs at least ten samples beyond it, so fewer than
/// kMinP90Samples samples are refused (std::invalid_argument).
inline constexpr std::size_t kMinP90Samples = 100;
double p90(const std::vector<double>& v);

/// The tail the sample supports: p90 with at least kMinP90Samples
/// samples, otherwise the slowest sample.
double tail(const std::vector<double>& v);

/// Peak resident set size of this process, MiB (getrusage).
double peak_rss_mib();
/// Current resident set size of this process, KiB (/proc/self/statm).
double current_rss_kib();

/// An open-loop arrival schedule: job i is due at `due[i]` seconds after
/// the generator starts, whatever happened to earlier jobs.
struct OpenLoopPlan {
  std::vector<double> due;
};

/// What the generator observed: when each job was actually handed to
/// the system (seconds after start) and how late that was.
struct OpenLoopLog {
  std::vector<double> submitted;
  double late_max = 0.0;  ///< max(submitted - due): the generator's health
};

/// Run `plan` against `submit(i)`, sleeping until each job is due on the
/// steady clock `t0`.  A submit that stalls delays every later submit,
/// and since latency is taken from the due time, the stall shows in
/// those jobs' latency instead of vanishing from the measurement.
OpenLoopLog run_open_loop(const OpenLoopPlan& plan,
                          std::chrono::steady_clock::time_point t0,
                          const std::function<void(std::size_t)>& submit);

/// Due-time latency of each job: finish - due (both on the generator's
/// clock).
std::vector<double> due_latencies(const OpenLoopPlan& plan,
                                  const std::vector<double>& finish);

}  // namespace pb
