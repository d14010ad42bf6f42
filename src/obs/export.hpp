#pragma once
// Observability: the three exporters.
//
//   * Chrome trace-event JSON — load in chrome://tracing or Perfetto
//     (ui.perfetto.dev > "Open trace file").  One track (tid) per
//     emitting thread/lane; spans are balanced B/E pairs with
//     monotonically non-decreasing timestamps per track (gated in
//     tests/test_obs.cpp and the ci.sh span-balance check).
//   * Metrics JSONL — one {"type":"step",...} record per model step
//     (the rebalancer-facing time series), followed by one
//     {"type":"metric",...} line per registry entry.
//   * Prometheus text exposition — a snapshot of a Registry, written by
//     the forecast service (svc::Scheduler::shutdown).
//
// The write_* helpers create parent directories as needed and throw
// util Error on I/O failure, so a mistyped obs=trace:path fails loudly
// instead of silently dropping the trace.

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace wrf::obs {

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// The pretty-printing JSON document writer of the benches' trajectory
/// points and tuned.json (two-space indent, one member or element per
/// line).  It places the commas and the indentation; the caller
/// pairs each begin with its end and puts a key() before each object
/// member.  Doubles are written in the shortest form that round-trips
/// through strtod; a non-finite double throws Error naming its key.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    return raw(std::string_view(buf, std::to_chars(buf, buf + 24, v).ptr));
  }
  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// The document so far (complete once every begin has its end).
  const std::string& str() const noexcept { return out_; }

 private:
  JsonWriter& raw(std::string_view token);
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string out_;
  std::vector<bool> empty_;  ///< per open container: nothing written yet
  std::string key_;          ///< the last key, for error messages
  bool after_key_ = false;   ///< a key() awaits its value
};

/// Render tracks as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}; pid 0, tid = track id).
std::string chrome_trace_json(const std::vector<TrackEvents>& tracks);

/// Drain `sink` and write the Chrome trace to `path`.
void write_chrome_trace(const TraceSink& sink, const std::string& path);

/// Render the step series + registry as metrics JSONL.
std::string metrics_jsonl(const std::vector<StepRecord>& steps,
                          const Registry& reg);

void write_metrics_jsonl(const TraceSink& sink, const Registry& reg,
                         const std::string& path);

/// Render a Registry in Prometheus text exposition format
/// (# TYPE comments; counters end in _total).
std::string prometheus_text(const Registry& reg);

void write_prometheus(const Registry& reg, const std::string& path);

}  // namespace wrf::obs
