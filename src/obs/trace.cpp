#include "obs/trace.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wrf::obs {

// ------------------------------------------------------------ obs= knob

namespace {
/// The obs= mode names, indexed by ObsMode.
constexpr const char* kObsModes[] = {"off", "metrics", "trace"};
}  // namespace

std::string ObsConfig::export_path() const {
  if (!path.empty()) return path;
  return mode == ObsMode::kTrace ? "obs_trace.json" : "obs_metrics.jsonl";
}

ObsConfig ObsConfig::parse(const std::string& s) {
  ObsConfig cfg;
  const std::size_t colon = s.find(':');
  const auto* m = std::find(std::begin(kObsModes), std::end(kObsModes),
                            s.substr(0, colon));
  if (m == std::end(kObsModes)) {
    throw ConfigError("ObsConfig: unknown obs mode '" + s +
                      "' (want off | metrics[:path] | trace[:path])");
  }
  cfg.mode = static_cast<ObsMode>(m - std::begin(kObsModes));
  if (colon != std::string::npos) {
    cfg.path = s.substr(colon + 1);
    if (cfg.path.empty() || cfg.off()) {
      throw ConfigError("ObsConfig: obs='" + s +
                        "' (off takes no path; a path must be non-empty)");
    }
  }
  return cfg;
}

std::string ObsConfig::describe() const {
  std::string out = kObsModes[static_cast<int>(mode)];
  if (!path.empty()) out += ":" + path;
  return out;
}

// ---------------------------------------------------------------- sink

namespace {

std::atomic<std::uint64_t> g_sink_gen{1};
std::atomic<TraceSink*> g_active{nullptr};

}  // namespace

thread_local TraceSink::LastBuf TraceSink::t_last_;

TraceSink::TraceSink()
    : gen_(g_sink_gen.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

TraceSink::~TraceSink() {
  if (active() == this) set_active(nullptr);
}

std::uint64_t TraceSink::now_us(
    std::chrono::steady_clock::time_point t) const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
          .count());
}

TraceSink::ThreadBuf& TraceSink::tls() const {
  if (t_last_.gen != gen_) {
    // First emission from this thread since it last used another sink:
    // find its buffer (a thread keeps one track per sink) or register
    // one.
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lk(reg_mu_);
    auto it = std::find_if(bufs_.begin(), bufs_.end(),
                           [self](const auto& b) { return b->owner == self; });
    if (it == bufs_.end()) {
      bufs_.push_back(std::make_unique<ThreadBuf>(
          ThreadBuf{{static_cast<int>(bufs_.size()), {}}, self}));
      it = std::prev(bufs_.end());
    }
    t_last_ = {gen_, it->get()};
  }
  return *t_last_.buf;
}

void TraceSink::append(TraceEvent e) { tls().events.push_back(std::move(e)); }

void TraceSink::instant(const char* cat, std::string name,
                        std::vector<ArgVal> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = 'i';
  e.ts_us = now_us();
  e.args = std::move(args);
  append(std::move(e));
}

void TraceSink::record_step(const StepRecord& r) {
  std::lock_guard<std::mutex> lk(step_mu_);
  steps_.push_back(r);
}

std::vector<TrackEvents> TraceSink::drain() const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  std::vector<TrackEvents> out;
  out.reserve(bufs_.size());
  for (const auto& b : bufs_) {
    if (!b->events.empty()) out.push_back(*b);
  }
  return out;
}

std::vector<StepRecord> TraceSink::steps() const {
  std::vector<StepRecord> out;
  {
    std::lock_guard<std::mutex> lk(step_mu_);
    out = steps_;
  }
  std::sort(out.begin(), out.end(),
            [](const StepRecord& a, const StepRecord& b) {
              return a.step != b.step ? a.step < b.step : a.rank < b.rank;
            });
  return out;
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  std::size_t n = 0;
  for (const auto& b : bufs_) n += b->events.size();
  return n;
}

// --------------------------------------------------------- active sink

TraceSink* active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

void set_active(TraceSink* sink) noexcept {
  g_active.store(sink, std::memory_order_release);
}

ScopedActive::ScopedActive(TraceSink* sink) : prev_(active()) {
  set_active(sink);
}

ScopedActive::~ScopedActive() { set_active(prev_); }

// ----------------------------------------------------------------- span

void Span::open(const char* cat, std::string name,
                std::initializer_list<Arg> args) {
  cat_ = cat;
  name_ = std::move(name);
  TraceEvent e;
  e.name = name_;
  e.cat = cat_;
  e.phase = 'B';
  e.ts_us = sink_->now_us();
  e.args.reserve(args.size());
  for (const Arg& a : args) e.args.emplace_back(a);
  sink_->append(std::move(e));
}

Span::Span(TraceSink* sink, const char* cat, const char* name)
    : sink_(sink) {
  if (sink_ != nullptr) open(cat, name, {});
}

Span::Span(TraceSink* sink, const char* cat, const char* name,
           std::initializer_list<Arg> args)
    : sink_(sink) {
  if (sink_ != nullptr) open(cat, name, args);
}

Span::Span(TraceSink* sink, const char* cat, std::string name,
           std::initializer_list<Arg> args)
    : sink_(sink) {
  if (sink_ != nullptr) open(cat, std::move(name), args);
}

Span::~Span() {
  if (sink_ == nullptr) return;
  TraceEvent e;
  e.name = std::move(name_);
  e.cat = cat_;
  e.phase = 'E';
  e.ts_us = sink_->now_us();
  e.args.assign(end_args_.begin(), end_args_.begin() + n_end_args_);
  sink_->append(std::move(e));
}

void Span::arg(const char* key, std::int64_t v) {
  if (sink_ == nullptr ||
      n_end_args_ >= static_cast<int>(end_args_.size())) {
    return;
  }
  end_args_[static_cast<std::size_t>(n_end_args_++)] = ArgVal(key, v);
}

void Span::arg(const char* key, const char* v) {
  if (sink_ == nullptr ||
      n_end_args_ >= static_cast<int>(end_args_.size())) {
    return;
  }
  end_args_[static_cast<std::size_t>(n_end_args_++)] = ArgVal(key, v);
}

}  // namespace wrf::obs
