#pragma once
// In-memory span recorder for the traced run.
//
// Every span the benchmark records wraps one call into a layer's public
// entry point (Rk3::step, FastSbm::step, HaloExchange::begin, ...), timed
// from benchmark code with std::chrono::steady_clock.  Spans are kept in
// memory while the run executes and written out once at the end, so the
// recorder's cost inside the timed region is one short locked push per
// span boundary.
//
// A span names its parent by index, so self time (a span minus the part
// of its interval its direct children cover) is computed from the parent
// links, never from time overlap: concurrent spans of other ranks running
// at the same moment do not reduce a span's self time.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct Span {
  std::string name;    ///< "<layer>.<call>", e.g. "dyn.rk3_step"
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = -1.0;   ///< < start while the span is open
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  int run = 0;         ///< which model run / service phase of the process
  int rank = 0;        ///< simpi rank (0 for single-rank work)
  std::int64_t job = -1;  ///< service job id, -1 outside the service

  double duration() const noexcept { return end - start; }
};

/// Thread-safe, append-only span store.  Indices returned by open() stay
/// valid for the recorder's lifetime.
class SpanRecorder {
 public:
  SpanRecorder();

  double now() const;
  int open(std::string name, int parent, int run, int rank, std::int64_t job);
  void close(int id);
  /// Add a span whose endpoints were measured elsewhere (e.g. the
  /// service's JobResult timestamps, mapped onto this recorder's clock).
  int add(Span s);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Write all spans as a JSON array; returns false on an I/O error.
  bool write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One thread's view of the recorder: a fixed (run, rank, job) identity
/// plus the stack of open spans, which supplies each new span's parent.
/// Owned and used by a single thread.
class Track {
 public:
  Track(SpanRecorder& rec, int run, int rank, std::int64_t job = -1)
      : rec_(rec), run_(run), rank_(rank), job_(job) {}

  /// RAII span on this track, parented to the innermost open span.
  class Scope {
   public:
    Scope(Track& t, const char* name) : t_(t) {
      const int parent = t_.stack_.empty() ? -1 : t_.stack_.back();
      id_ = t_.rec_.open(name, parent, t_.run_, t_.rank_, t_.job_);
      t_.stack_.push_back(id_);
    }
    ~Scope() {
      t_.stack_.pop_back();
      t_.rec_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Track& t_;
    int id_ = -1;
  };

  /// Run `f` inside a span called `name` and return its result.
  template <class F>
  decltype(auto) time(const char* name, F&& f) {
    Scope s(*this, name);
    return std::forward<F>(f)();
  }

 private:
  SpanRecorder& rec_;
  int run_;
  int rank_;
  std::int64_t job_;
  std::vector<int> stack_;
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi);

/// Self time of spans[i]: its duration minus the part of its interval
/// covered by its direct children.
double self_time(const std::vector<Span>& spans, std::size_t i);

/// Sums over every span called `name`: total duration, or total self time.
double total_duration(const std::vector<Span>& spans, const std::string& name);
double total_self(const std::vector<Span>& spans, const std::string& name);

/// Share of the wall of every span called `window` (one per rank: the
/// stepping window) that no grandchild span covers.  The window's
/// children are per-step wrappers; their children are the layer calls.
double unattributed_fraction(const std::vector<Span>& spans,
                             const std::string& window);

}  // namespace pb
