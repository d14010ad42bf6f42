#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"

namespace wrf::obs {

namespace {

/// Shortest float formatting that is still JSON/Prometheus-valid.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_args(std::string& out, const std::vector<ArgVal>& args) {
  out += "\"args\":{";
  bool first = true;
  for (const ArgVal& a : args) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(a.key);
    out += "\":";
    if (a.is_str) {
      out += '"';
      out += json_escape(a.s);
      out += '"';
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRId64, a.i);
      out += buf;
    }
  }
  out += '}';
}

void write_file(const std::string& path, const std::string& content) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    // A pre-existing directory is fine; a real failure surfaces below.
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("obs: cannot open '" + path + "' for writing");
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  if (!out) throw Error("obs: short write to '" + path + "'");
}

std::string labels_json(const Metric& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m.labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonWriter& JsonWriter::raw(std::string_view token) {
  if (!empty_.empty() && !after_key_) {  // a member or array element
    if (!empty_.back()) out_ += ',';
    empty_.back() = false;
    out_ += '\n';
    out_.append(2 * empty_.size(), ' ');
  }
  after_key_ = false;
  out_ += token;
  return *this;
}

JsonWriter& JsonWriter::open(char bracket) {
  raw(std::string_view(&bracket, 1));
  empty_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  const bool was_empty = empty_.back();
  empty_.pop_back();
  if (!was_empty) out_ += '\n' + std::string(2 * empty_.size(), ' ');
  out_ += bracket;
  if (empty_.empty()) out_ += '\n';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  value(k);
  out_ += ": ";
  key_ = k;
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  return raw('"' + json_escape(s) + '"');
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) {
    throw Error("json: non-finite value for key '" + key_ + "'");
  }
  char buf[32];
  return raw(std::string_view(buf, std::to_chars(buf, buf + 32, v).ptr));
}

std::string chrome_trace_json(const std::vector<TrackEvents>& tracks) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const TrackEvents& t : tracks) {
    for (const TraceEvent& e : t.events) {
      if (!first) out += ",\n";
      first = false;
      char head[96];
      std::snprintf(head, sizeof(head),
                    "{\"pid\":0,\"tid\":%d,\"ph\":\"%c\",\"ts\":%" PRIu64 ",",
                    t.track, e.phase, e.ts_us);
      out += head;
      out += "\"cat\":\"";
      out += json_escape(e.cat);
      out += "\",\"name\":\"";
      out += json_escape(e.name);
      out += "\",";
      append_args(out, e.args);
      out += '}';
    }
  }
  out += "\n]}\n";
  return out;
}

void write_chrome_trace(const TraceSink& sink, const std::string& path) {
  write_file(path, chrome_trace_json(sink.drain()));
}

std::string metrics_jsonl(const std::vector<StepRecord>& steps,
                          const Registry& reg) {
  std::string out;
  for (const StepRecord& r : steps) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"type\":\"step\",\"step\":%d,\"rank\":%d,\"wall_sec\":%s,"
        "\"fsbm_wall_sec\":%s,\"coal_wall_sec\":%s,\"halo_wall_sec\":%s,"
        "\"halo_bytes\":%" PRIu64 ",\"h2d_bytes\":%" PRIu64
        ",\"d2h_bytes\":%" PRIu64 ",\"kernel_launches\":%" PRIu64
        ",\"shard_cells_device\":%" PRIu64 ",\"shard_cells_host\":%" PRIu64
        ",\"cells_bin\":%" PRIu64 ",\"cells_bulk\":%" PRIu64 "}\n",
        r.step, r.rank, num(r.wall_sec).c_str(),
        num(r.fsbm_wall_sec).c_str(), num(r.coal_wall_sec).c_str(),
        num(r.halo_wall_sec).c_str(), r.halo_bytes, r.h2d_bytes,
        r.d2h_bytes, r.kernel_launches, r.shard_cells_device,
        r.shard_cells_host, r.cells_bin, r.cells_bulk);
    out += buf;
  }
  for (const Metric& m : reg.snapshot()) {
    out += "{\"type\":\"metric\",\"name\":\"";
    out += json_escape(m.name);
    out += "\",\"kind\":\"";
    out += m.is_counter ? "counter" : "gauge";
    out += "\",\"labels\":";
    out += labels_json(m);
    out += ",\"value\":";
    out += num(m.value);
    out += "}\n";
  }
  return out;
}

void write_metrics_jsonl(const TraceSink& sink, const Registry& reg,
                         const std::string& path) {
  write_file(path, metrics_jsonl(sink.steps(), reg));
}

std::string prometheus_text(const Registry& reg) {
  std::string out;
  std::string last_name;
  for (const Metric& m : reg.snapshot()) {
    if (m.name != last_name) {
      out += "# TYPE ";
      out += m.name;
      out += m.is_counter ? " counter\n" : " gauge\n";
      last_name = m.name;
    }
    out += m.name;
    if (!m.labels.empty()) {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : m.labels) {
        if (!first) out += ',';
        first = false;
        out += k;
        out += "=\"";
        out += json_escape(v);  // Prometheus escaping is a JSON subset
        out += '"';
      }
      out += '}';
    }
    out += ' ';
    out += num(m.value);
    out += '\n';
  }
  return out;
}

void write_prometheus(const Registry& reg, const std::string& path) {
  write_file(path, prometheus_text(reg));
}

}  // namespace wrf::obs
