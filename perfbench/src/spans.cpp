#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace pb {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::open(std::string name, int parent, int run, int rank,
                       std::int64_t job) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.run = run;
  s.rank = rank;
  s.job = job;
  s.start = now();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int SpanRecorder::add(Span s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                  "\"run\": %d, \"rank\": %d, \"job\": %lld}",
                  s.start, s.end, s.parent, s.run, s.rank,
                  static_cast<long long>(s.job));
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << buf
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

namespace {
std::vector<std::pair<double, double>> children_of(
    const std::vector<Span>& spans, std::size_t i) {
  std::vector<std::pair<double, double>> out;
  for (const Span& c : spans) {
    if (c.parent == static_cast<int>(i)) out.emplace_back(c.start, c.end);
  }
  return out;
}
}  // namespace

double self_time(const std::vector<Span>& spans, std::size_t i) {
  const Span& s = spans[i];
  return s.duration() - covered(children_of(spans, i), s.start, s.end);
}

double total_duration(const std::vector<Span>& spans,
                      const std::string& name) {
  double t = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) t += s.duration();
  }
  return t;
}

double total_self(const std::vector<Span>& spans, const std::string& name) {
  double t = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) t += self_time(spans, i);
  }
  return t;
}

double unattributed_fraction(const std::vector<Span>& spans,
                             const std::string& window) {
  double wall = 0.0, missed = 0.0;
  for (std::size_t w = 0; w < spans.size(); ++w) {
    if (spans[w].name != window) continue;
    std::vector<std::pair<double, double>> layer_calls;
    for (std::size_t c = 0; c < spans.size(); ++c) {
      if (spans[c].parent != static_cast<int>(w)) continue;
      const auto calls = children_of(spans, c);
      layer_calls.insert(layer_calls.end(), calls.begin(), calls.end());
    }
    const Span& s = spans[w];
    wall += s.duration();
    missed += s.duration() - covered(std::move(layer_calls), s.start, s.end);
  }
  return wall > 0.0 ? missed / wall : 0.0;
}

}  // namespace pb
