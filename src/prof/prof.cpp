#include "prof/prof.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace wrf::prof {

namespace {

using Clock = Profiler::Clock;

/// One open range on this thread.
struct Frame {
  const Profiler* owner;
  std::string name;
  Clock::time_point start;
  double child_sec = 0.0;  ///< credited time of completed children
};

/// Every range open on this thread, innermost last, for every profiler;
/// it dies with its thread.
thread_local std::vector<Frame> t_open;

/// The innermost frame `p` has open on this thread, or t_open.end().
std::vector<Frame>::iterator innermost(const Profiler* p) {
  const auto it = std::find_if(t_open.rbegin(), t_open.rend(),
                               [p](const Frame& f) { return f.owner == p; });
  return it == t_open.rend() ? t_open.end() : std::prev(it.base());
}

/// `d` in whole 2^-30 s ticks (see prof.hpp: exact sums in any order).
double tick_seconds(Clock::duration d) {
  const double sec = std::chrono::duration<double>(d).count();
  return std::ldexp(std::nearbyint(std::ldexp(sec, 30)), -30);
}

}  // namespace

void Profiler::push_range(std::string name, Clock::time_point t0) {
  t_open.push_back(Frame{this, std::move(name), t0});
}

double Profiler::pop_range(Clock::time_point t1) {
  const auto it = innermost(this);
  if (it == t_open.end()) {
    throw Error("Profiler::pop_range with no open range on this thread");
  }
  const Frame f = std::move(*it);
  t_open.erase(it);
  const double incl = tick_seconds(t1 - f.start);
  if (const auto parent = innermost(this); parent != t_open.end()) {
    parent->child_sec += incl;
  }
  fold(f.name, 1, incl, incl - f.child_sec);
  return incl;
}

void Profiler::add_range_time(const std::string& name, std::uint64_t calls,
                              double seconds) {
  if (const auto parent = innermost(this); parent != t_open.end()) {
    // Credit the open parent, clamped to its elapsed wall so far: a
    // parallel dispatch can accumulate more summed worker seconds than
    // the parent's wall time, and crediting past that would drive the
    // parent's exclusive time negative.  (gprof-style thread-summed CPU
    // time for `name`, wall-bounded child attribution for the parent.)
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - parent->start).count();
    const double headroom = elapsed - parent->child_sec;
    parent->child_sec += std::min(seconds, std::max(headroom, 0.0));
  }
  fold(name, calls, seconds, seconds);
}

void Profiler::fold(const std::string& name, std::uint64_t calls,
                    double inclusive, double exclusive) {
  std::lock_guard<std::mutex> lk(mu_);
  Agg& a = table_[name];
  a.calls += calls;
  a.inclusive += inclusive;
  a.exclusive += exclusive;
}

Profiler::Agg Profiler::row(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = table_.find(name);
  return it == table_.end() ? Agg{} : it->second;
}

std::vector<FlatRow> Profiler::flat_report() const {
  std::lock_guard<std::mutex> lk(mu_);
  double total_excl = 0.0;
  for (const auto& [name, agg] : table_) total_excl += agg.exclusive;
  std::vector<FlatRow> rows;
  rows.reserve(table_.size());
  for (const auto& [name, agg] : table_) {
    FlatRow r;
    r.name = name;
    r.calls = agg.calls;
    r.inclusive_sec = agg.inclusive;
    r.exclusive_sec = agg.exclusive;
    r.percent_exclusive =
        total_excl > 0.0 ? 100.0 * agg.exclusive / total_excl : 0.0;
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(), [](const FlatRow& a, const FlatRow& b) {
    return a.exclusive_sec > b.exclusive_sec;
  });
  return rows;
}

double Profiler::inclusive_sec(const std::string& name) const {
  return row(name).inclusive;
}

double Profiler::exclusive_sec(const std::string& name) const {
  return row(name).exclusive;
}

std::uint64_t Profiler::calls(const std::string& name) const {
  return row(name).calls;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  table_.clear();
}

std::string Profiler::format_flat_report() const {
  auto rows = flat_report();
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%8s %12s %12s %10s  ", "%time",
                "excl(s)", "incl(s)", "calls");
  out += buf;
  out += "name\n";
  for (const auto& r : rows) {
    // Numeric columns through snprintf (fixed width keeps them aligned);
    // the name appended unformatted, so a range name of any length —
    // nested pass labels, per-job ranges — never truncates the row.
    std::snprintf(buf, sizeof(buf), "%8.2f %12.4f %12.4f %10llu  ",
                  r.percent_exclusive, r.exclusive_sec, r.inclusive_sec,
                  static_cast<unsigned long long>(r.calls));
    out += buf;
    out += r.name;
    out += '\n';
  }
  return out;
}

ScopedRange::ScopedRange(Profiler& p, std::string name,
                         std::initializer_list<obs::Arg> args)
    : p_(p), sink_(obs::active()) {
  const Clock::time_point t0 = Clock::now();
  if (sink_ != nullptr) {
    name_ = name;
    sink_->append({name_, "range", 'B', sink_->now_us(t0),
                   std::vector<obs::ArgVal>(args.begin(), args.end())});
  }
  p_.push_range(std::move(name), t0);
}

double ScopedRange::stop() {
  if (!open_) return sec_;
  open_ = false;
  const Clock::time_point t1 = Clock::now();
  sec_ = p_.pop_range(t1);
  if (sink_ != nullptr) {
    sink_->append({std::move(name_), "range", 'E', sink_->now_us(t1), {}});
  }
  return sec_;
}

}  // namespace wrf::prof
