#include "stats.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double p90(const std::vector<double>& v) {
  if (v.size() < kMinP90Samples) {
    throw std::invalid_argument("p90 needs at least 100 samples, got " +
                                std::to_string(v.size()));
  }
  return quantile(v, 0.9);
}

double tail(const std::vector<double>& v) {
  if (v.size() >= kMinP90Samples) return p90(v);
  if (v.empty()) throw std::invalid_argument("tail of an empty sample");
  return *std::max_element(v.begin(), v.end());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_kib() {
  std::ifstream in("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  in >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

OpenLoopLog run_open_loop(const OpenLoopPlan& plan,
                          std::chrono::steady_clock::time_point t0,
                          const std::function<void(std::size_t)>& submit) {
  using Clock = std::chrono::steady_clock;
  OpenLoopLog log;
  log.submitted.reserve(plan.due.size());
  for (std::size_t i = 0; i < plan.due.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(plan.due[i])));
    const double at =
        std::chrono::duration<double>(Clock::now() - t0).count();
    log.submitted.push_back(at);
    log.late_max = std::max(log.late_max, at - plan.due[i]);
    submit(i);
  }
  return log;
}

std::vector<double> due_latencies(const OpenLoopPlan& plan,
                                  const std::vector<double>& finish) {
  if (finish.size() != plan.due.size()) {
    throw std::invalid_argument("due_latencies: size mismatch");
  }
  std::vector<double> out(finish.size());
  for (std::size_t i = 0; i < finish.size(); ++i) {
    out[i] = finish[i] - plan.due[i];
  }
  return out;
}

}  // namespace pb
