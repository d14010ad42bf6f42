// Observability guarantees (src/obs): the obs= knob, the metrics
// registry and its publish() contract, the three exporters, and the two
// hard gates the subsystem is built around —
//
//  * obs=off is bitwise identical to an uninstrumented run, and
//    obs=trace never changes the physics (state hash + stats equal);
//  * exported totals reconcile exactly: the bytes summed over the
//    trace's "xfer" instants equal gpu::TransferStats equal
//    FsbmStats::h2d/d2h_bytes equal the wrf_xfer_bytes_total counters,
//    across every exec space and both residency modes.
//
// Plus the Chrome-trace structural invariants the ci.sh smoke check
// relies on: balanced B/E pairs and monotone timestamps per track.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "model/driver.hpp"
#include "obs/export.hpp"
#include "util/error.hpp"

namespace wrf {
namespace {

// ------------------------------------------------------------ obs= knob

TEST(ObsConfig, ParseModesAndPaths) {
  EXPECT_EQ(obs::ObsConfig::parse("off").mode, obs::ObsMode::kOff);
  EXPECT_TRUE(obs::ObsConfig::parse("off").off());

  const obs::ObsConfig m = obs::ObsConfig::parse("metrics");
  EXPECT_EQ(m.mode, obs::ObsMode::kMetrics);
  EXPECT_FALSE(m.off());
  EXPECT_FALSE(m.trace());
  EXPECT_EQ(m.export_path(), "obs_metrics.jsonl");

  const obs::ObsConfig t = obs::ObsConfig::parse("trace");
  EXPECT_TRUE(t.trace());
  EXPECT_EQ(t.export_path(), "obs_trace.json");

  const obs::ObsConfig tp = obs::ObsConfig::parse("trace:runs/a.json");
  EXPECT_TRUE(tp.trace());
  EXPECT_EQ(tp.export_path(), "runs/a.json");
  EXPECT_EQ(tp.describe(), "trace:runs/a.json");
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CountersAddGaugesSet) {
  obs::Registry reg;
  reg.counter("wrf_x_total", 3.0);
  reg.counter("wrf_x_total", 4.0);
  EXPECT_DOUBLE_EQ(reg.value("wrf_x_total"), 7.0);

  reg.gauge("wrf_g", 5.0);
  reg.gauge("wrf_g", 2.5);
  EXPECT_DOUBLE_EQ(reg.value("wrf_g"), 2.5);

  EXPECT_DOUBLE_EQ(reg.value("absent"), 0.0);
  EXPECT_FALSE(reg.has("absent"));
}

TEST(ObsRegistry, LabelsAreCanonicalizedBySorting) {
  obs::Registry reg;
  reg.counter("wrf_x_total", 1.0, {{"b", "2"}, {"a", "1"}});
  reg.counter("wrf_x_total", 2.0, {{"a", "1"}, {"b", "2"}});
  // Same label set in any order is the same series.
  EXPECT_DOUBLE_EQ(reg.value("wrf_x_total", {{"b", "2"}, {"a", "1"}}), 3.0);
  // A different value is a different series.
  reg.counter("wrf_x_total", 10.0, {{"a", "9"}, {"b", "2"}});
  EXPECT_DOUBLE_EQ(reg.value("wrf_x_total", {{"a", "1"}, {"b", "2"}}), 3.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, SnapshotIsDeterministicallyOrdered) {
  obs::Registry reg;
  reg.gauge("b_metric", 1.0);
  reg.counter("a_metric_total", 1.0, {{"k", "v"}});
  reg.counter("a_metric_total", 1.0);
  const std::vector<obs::Metric> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Sorted by name first (series of one family are adjacent — what the
  // Prometheus exporter's one-TYPE-per-family logic relies on), with a
  // deterministic label order within the family.
  EXPECT_EQ(snap[0].name, "a_metric_total");
  EXPECT_EQ(snap[1].name, "a_metric_total");
  EXPECT_NE(snap[0].labels.empty(), snap[1].labels.empty());
  EXPECT_EQ(snap[2].name, "b_metric");
  EXPECT_FALSE(snap[2].is_counter);
}

// ------------------------------------------------------------ exporters

TEST(ObsExport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ObsJsonWriter, NestsObjectsAndArraysWithCommas) {
  obs::JsonWriter w;
  w.begin_object()
      .field("name", "point")
      .key("cells")
      .begin_array()
      .begin_object()
      .field("bytes", std::uint64_t{12})
      .field("ok", true)
      .end_object()
      .value(-3)
      .begin_array()
      .end_array()
      .end_array()
      .key("empty")
      .begin_object()
      .end_object()
      .field("ratio", 2.5)
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"point\",\n"
            "  \"cells\": [\n"
            "    {\n"
            "      \"bytes\": 12,\n"
            "      \"ok\": true\n"
            "    },\n"
            "    -3,\n"
            "    []\n"
            "  ],\n"
            "  \"empty\": {},\n"
            "  \"ratio\": 2.5\n"
            "}\n");
}

TEST(ObsJsonWriter, EscapesEveryControlByte) {
  std::string raw;
  std::string want = "\"";
  for (int c = 0x01; c < 0x20; ++c) {
    raw.push_back(static_cast<char>(c));
    if (c == '\n') {
      want += "\\n";
    } else if (c == '\r') {
      want += "\\r";
    } else if (c == '\t') {
      want += "\\t";
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      want += buf;
    }
  }
  raw += "\"\\";
  want += "\\\"\\\\\"";
  obs::JsonWriter w;
  w.value(raw);
  EXPECT_EQ(w.str(), want);
  for (const char c : w.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte";
  }
}

TEST(ObsJsonWriter, NonFiniteDoubleThrowsNamingItsKey) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    obs::JsonWriter w;
    w.begin_object().field("fine", 1.0);
    try {
      w.field("wall_s_min", bad);
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("wall_s_min"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ObsJsonWriter, DoublesRoundTripExactlyThroughStrtod) {
  const double two53 = 9007199254740992.0;  // 2^53
  for (const double v :
       {0.1, 1e-300, -2.5e-8, 1.0 / 3.0, two53 + 2.0, 849856050.0, 0.0,
        5e-324, 1.7976931348623157e308}) {
    obs::JsonWriter w;
    w.value(v);
    EXPECT_EQ(std::strtod(w.str().c_str(), nullptr), v) << w.str();
  }
  obs::JsonWriter count;
  count.value(two53 + 2.0);
  EXPECT_EQ(count.str(), "9007199254740994");  // digits, not 9.0e+15
  obs::JsonWriter tenth;
  tenth.value(0.1);
  EXPECT_EQ(tenth.str(), "0.1");
  obs::JsonWriter big;
  big.value(std::uint64_t{18446744073709551615u});
  EXPECT_EQ(big.str(), "18446744073709551615");
}

/// Quote-aware structural JSON scan: every brace/bracket outside string
/// literals balances, and the document is a single object.  Not a full
/// parser — the ci.sh smoke check runs the real one (python json.tool);
/// this guards the generator in-unit.
void expect_balanced_json(const std::string& doc) {
  int brace = 0;
  int bracket = 0;
  bool in_str = false;
  bool escaped = false;
  for (const char c : doc) {
    if (in_str) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_FALSE(in_str);
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

TEST(ObsExport, ChromeTraceJsonIsStructurallyValid) {
  obs::TraceSink sink;
  {
    obs::Span s(&sink, "pass", "outer", {{"tiles", 4}, {"space", "serial"}});
    obs::Span inner(&sink, "pass", "inner");
    sink.instant("xfer", "h2d", {{"bytes", std::uint64_t{128}}});
  }
  sink.instant("fidelity", "census", {{"cells_bin", 7}});
  const std::string doc = obs::chrome_trace_json(sink.drain());
  expect_balanced_json(doc);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"bytes\":128"), std::string::npos);
}

TEST(ObsExport, MetricsJsonlOneObjectPerLine) {
  obs::TraceSink sink;
  obs::StepRecord rec;
  rec.step = 2;
  rec.rank = 1;
  rec.h2d_bytes = 4096;
  sink.record_step(rec);
  obs::Registry reg;
  reg.counter("wrf_xfer_bytes_total", 4096.0, {{"dir", "h2d"}});
  const std::string doc = obs::metrics_jsonl(sink.steps(), reg);
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < doc.size()) {
    const std::size_t nl = doc.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);  // newline-terminated lines
    const std::string line = doc.substr(pos, nl - pos);
    expect_balanced_json(line);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
    pos = nl + 1;
  }
  EXPECT_EQ(lines, 2u);  // one step + one metric
  EXPECT_NE(doc.find("\"type\":\"step\""), std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"metric\""), std::string::npos);
  EXPECT_NE(doc.find("\"h2d_bytes\":4096"), std::string::npos);
}

TEST(ObsExport, PrometheusTextShape) {
  obs::Registry reg;
  reg.counter("wrf_xfer_bytes_total", 100.0, {{"dir", "h2d"}});
  reg.counter("wrf_xfer_bytes_total", 40.0, {{"dir", "d2h"}});
  reg.gauge("wrf_run_wall_seconds", 1.5);
  const std::string doc = obs::prometheus_text(reg);
  EXPECT_NE(doc.find("# TYPE wrf_xfer_bytes_total counter"),
            std::string::npos);
  EXPECT_NE(doc.find("# TYPE wrf_run_wall_seconds gauge"), std::string::npos);
  EXPECT_NE(doc.find("wrf_xfer_bytes_total{dir=\"h2d\"} 100"),
            std::string::npos);
  EXPECT_NE(doc.find("wrf_xfer_bytes_total{dir=\"d2h\"} 40"),
            std::string::npos);
  EXPECT_NE(doc.find("wrf_run_wall_seconds 1.5"), std::string::npos);
  // One TYPE header per metric family, not per series.
  std::size_t count = 0;
  for (std::size_t p = doc.find("# TYPE wrf_xfer_bytes_total");
       p != std::string::npos;
       p = doc.find("# TYPE wrf_xfer_bytes_total", p + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

// ---------------------------------------------------------- active sink

TEST(ObsSink, ScopedActiveInstallsAndRestores) {
  EXPECT_EQ(obs::active(), nullptr);
  obs::TraceSink outer;
  {
    obs::ScopedActive a(&outer);
    EXPECT_EQ(obs::active(), &outer);
    obs::TraceSink inner;
    {
      obs::ScopedActive b(&inner);
      EXPECT_EQ(obs::active(), &inner);
    }
    EXPECT_EQ(obs::active(), &outer);
  }
  EXPECT_EQ(obs::active(), nullptr);
}

TEST(ObsSink, DyingActiveSinkDeactivatesItself) {
  {
    obs::TraceSink sink;
    obs::set_active(&sink);
    EXPECT_EQ(obs::active(), &sink);
  }
  EXPECT_EQ(obs::active(), nullptr);
}

TEST(ObsSink, ThreadKeepsOneTrackPerSinkAndNoStaleBuffer) {
  auto a = std::make_unique<obs::TraceSink>();
  obs::TraceSink b;
  for (int n = 0; n < 3; ++n) {  // each switch re-finds the thread's buffer
    a->instant("t", "a");
    b.instant("t", "b");
  }
  EXPECT_EQ(a->drain().size(), 1u);
  EXPECT_EQ(a->event_count(), 3u);
  EXPECT_EQ(b.drain().size(), 1u);
  a.reset();
  // The thread's cached buffer died with `a`; a new sink, even one at
  // a's address, must register a fresh one rather than reuse it.
  auto c = std::make_unique<obs::TraceSink>();
  c->instant("t", "c");
  const std::vector<obs::TrackEvents> tracks = c->drain();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].track, 0);
  EXPECT_EQ(tracks[0].events.size(), 1u);
}

// -------------------------------------------------------- physics gates

model::RunConfig gate_case(const char* exec, mem::ResidencyMode res) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 2;
  cfg.version = fsbm::Version::kV3Offload3;
  cfg.exec = exec::ExecConfig::parse(exec);
  cfg.res = res;
  return cfg;
}

struct GateRun {
  std::uint64_t hash = 0;
  fsbm::FsbmStats fsbm;
};

GateRun run_gate(const model::RunConfig& cfg) {
  prof::Profiler prof;
  const model::RunResult r = model::run_single(cfg, prof);
  return {model::state_hash(r), r.totals.fsbm};
}

TEST(ObsGate, TracingNeverChangesThePhysics) {
  // Three runs of one config: uninstrumented, under a test-owned sink,
  // and with the driver-installed obs=trace knob (which also writes the
  // export file).  All state hashes and stats must be identical.
  const model::RunConfig cfg = gate_case("serial", mem::ResidencyMode::kStep);
  const GateRun plain = run_gate(cfg);

  obs::TraceSink sink;
  GateRun traced;
  {
    obs::ScopedActive active(&sink);
    traced = run_gate(cfg);
  }
  EXPECT_GT(sink.event_count(), 0u);

  model::RunConfig knob = cfg;
  knob.obs = obs::ObsConfig::parse("trace:obs_test_driver_trace.json");
  const GateRun via_knob = run_gate(knob);

  const GateRun* gates[] = {&traced, &via_knob};
  for (const GateRun* g : gates) {
    EXPECT_EQ(g->hash, plain.hash);
    EXPECT_EQ(g->fsbm.cells_active, plain.fsbm.cells_active);
    EXPECT_EQ(g->fsbm.coal_flops, plain.fsbm.coal_flops);
    EXPECT_EQ(g->fsbm.h2d_bytes, plain.fsbm.h2d_bytes);
    EXPECT_EQ(g->fsbm.d2h_bytes, plain.fsbm.d2h_bytes);
    EXPECT_EQ(g->fsbm.surface_precip, plain.fsbm.surface_precip);
    EXPECT_EQ(g->fsbm.kernel_launches, plain.fsbm.kernel_launches);
  }
}

TEST(ObsGate, OffKnobIsBitwiseIdenticalToDefault) {
  const model::RunConfig base =
      gate_case("threads:2", mem::ResidencyMode::kPersist);
  model::RunConfig off = base;
  off.obs = obs::ObsConfig::parse("off");
  // describe() with obs off must not change — shape keys and the
  // exact-string expectations elsewhere depend on it.
  EXPECT_EQ(base.describe(), off.describe());
  EXPECT_EQ(run_gate(base).hash, run_gate(off).hash);
}

// --------------------------------------- trace structure + reconciliation

struct TraceTotals {
  std::uint64_t xfer_h2d = 0;
  std::uint64_t xfer_d2h = 0;
  std::uint64_t region_h2d = 0;
  std::uint64_t region_d2h = 0;
  std::uint64_t pass_spans = 0;
  std::uint64_t kernel_spans = 0;
};

std::int64_t arg_int(const obs::TraceEvent& e, const char* key) {
  for (const obs::ArgVal& a : e.args) {
    if (std::string(a.key) == key && !a.is_str) return a.i;
  }
  return 0;
}

std::string arg_str(const obs::TraceEvent& e, const char* key) {
  for (const obs::ArgVal& a : e.args) {
    if (std::string(a.key) == key && a.is_str) return a.s;
  }
  return "";
}

/// Walk every track: assert balanced spans + monotone timestamps, and
/// accumulate the reconciliation totals.
TraceTotals audit_tracks(const obs::TraceSink& sink) {
  TraceTotals tt;
  for (const obs::TrackEvents& track : sink.drain()) {
    std::uint64_t prev_ts = 0;
    std::int64_t open = 0;
    for (const obs::TraceEvent& e : track.events) {
      EXPECT_GE(e.ts_us, prev_ts) << "track " << track.track;
      prev_ts = e.ts_us;
      if (e.phase == 'B') ++open;
      if (e.phase == 'E') --open;
      EXPECT_GE(open, 0) << "track " << track.track;
      const std::string cat = e.cat;
      if (e.phase == 'B' && cat == "pass") ++tt.pass_spans;
      if (e.phase == 'B' && cat == "kernel") ++tt.kernel_spans;
      if (e.phase == 'i' && cat == "xfer") {
        (e.name == "h2d" ? tt.xfer_h2d : tt.xfer_d2h) +=
            static_cast<std::uint64_t>(arg_int(e, "bytes"));
      }
      if (e.phase == 'i' && cat == "region") {
        (arg_str(e, "dir") == "h2d" ? tt.region_h2d : tt.region_d2h) +=
            static_cast<std::uint64_t>(arg_int(e, "bytes"));
      }
    }
    EXPECT_EQ(open, 0) << "unbalanced spans on track " << track.track;
  }
  return tt;
}

TEST(ObsReconcile, TransferTotalsAgreeAcrossExecAndResidency) {
  // The hard reconciliation gate, per ISSUE: for every exec space and
  // both residency modes, the bytes summed over the trace's "xfer"
  // instants equal gpu::TransferStats equal FsbmStats equal the
  // wrf_xfer_bytes_total counters.  DataRegion "region" instants cover
  // the same traffic (map/update verbs route through Device::update_*),
  // so their sums match too.
  for (const char* exec : {"serial", "threads:2", "device", "hetero:2"}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      SCOPED_TRACE(std::string(exec) + "/" + model::knob_name(res));
      const model::RunConfig cfg = gate_case(exec, res);
      const grid::Patch patch =
          grid::decompose(cfg.domain(), 1, 1, cfg.halo)[0];
      model::RankModel rank(cfg, patch, nullptr);
      rank.init();
      prof::Profiler prof;
      obs::TraceSink sink;
      model::StepStats totals;
      {
        obs::ScopedActive active(&sink);
        for (int s = 0; s < cfg.nsteps; ++s) totals.merge(rank.step(prof));
      }
      const TraceTotals tt = audit_tracks(sink);
      ASSERT_NE(rank.device(), nullptr);
      const gpu::TransferStats& dev = rank.device()->transfers();

      // trace == device == fsbm, exactly.
      EXPECT_EQ(tt.xfer_h2d, dev.h2d_bytes);
      EXPECT_EQ(tt.xfer_d2h, dev.d2h_bytes);
      EXPECT_EQ(totals.fsbm.h2d_bytes, dev.h2d_bytes);
      EXPECT_EQ(totals.fsbm.d2h_bytes, dev.d2h_bytes);
      EXPECT_EQ(tt.region_h2d, dev.h2d_bytes);
      EXPECT_EQ(tt.region_d2h, dev.d2h_bytes);
      EXPECT_GT(tt.pass_spans, 0u);
      EXPECT_GT(tt.kernel_spans, 0u);
      EXPECT_GT(dev.h2d_bytes, 0u);

      // ...and the published counters carry the same totals.
      obs::Registry reg;
      totals.fsbm.publish(reg);
      EXPECT_DOUBLE_EQ(reg.value("wrf_xfer_bytes_total", {{"dir", "h2d"}}),
                       static_cast<double>(dev.h2d_bytes));
      EXPECT_DOUBLE_EQ(reg.value("wrf_xfer_bytes_total", {{"dir", "d2h"}}),
                       static_cast<double>(dev.d2h_bytes));
      obs::Registry dreg;
      dev.publish(dreg);
      EXPECT_DOUBLE_EQ(dreg.value("wrf_device_bytes_total", {{"dir", "h2d"}}),
                       static_cast<double>(dev.h2d_bytes));
      EXPECT_DOUBLE_EQ(
          dreg.value("wrf_device_transfers_total", {{"dir", "h2d"}}),
          static_cast<double>(dev.h2d_count));
    }
  }
}

TEST(ObsReconcile, RunResultPublishMatchesStructFields) {
  const model::RunConfig cfg = gate_case("serial", mem::ResidencyMode::kStep);
  prof::Profiler prof;
  const model::RunResult r = model::run_single(cfg, prof);
  obs::Registry reg;
  r.publish(reg);
  EXPECT_DOUBLE_EQ(reg.value("wrf_xfer_bytes_total", {{"dir", "h2d"}}),
                   static_cast<double>(r.totals.fsbm.h2d_bytes));
  EXPECT_DOUBLE_EQ(reg.value("wrf_fsbm_cells_active_total"),
                   static_cast<double>(r.totals.fsbm.cells_active));
  EXPECT_DOUBLE_EQ(reg.value("wrf_kernel_launches_total"),
                   static_cast<double>(r.totals.fsbm.kernel_launches));
  EXPECT_DOUBLE_EQ(reg.value("wrf_halo_bytes_total"),
                   static_cast<double>(r.totals.halo_bytes));
  EXPECT_DOUBLE_EQ(reg.value("wrf_run_wall_seconds"), r.wall_sec);
  // Publishing twice accumulates counters (the merge-equivalence law)
  // but only re-sets gauges.
  r.publish(reg);
  EXPECT_DOUBLE_EQ(reg.value("wrf_fsbm_cells_active_total"),
                   2.0 * static_cast<double>(r.totals.fsbm.cells_active));
  EXPECT_DOUBLE_EQ(reg.value("wrf_run_wall_seconds"), r.wall_sec);
}

TEST(ObsTrace, GoldenChromeTraceFromARealRun) {
  // The golden-file shape check: a real multi-exec run's trace renders
  // to structurally valid JSON with balanced phases — what Perfetto and
  // the ci.sh python check consume.
  const model::RunConfig cfg =
      gate_case("threads:2", mem::ResidencyMode::kPersist);
  obs::TraceSink sink;
  {
    obs::ScopedActive active(&sink);
    run_gate(cfg);
  }
  audit_tracks(sink);
  const std::string doc = obs::chrome_trace_json(sink.drain());
  expect_balanced_json(doc);
  std::size_t b = 0;
  std::size_t e = 0;
  for (std::size_t p = doc.find("\"ph\":\"B\""); p != std::string::npos;
       p = doc.find("\"ph\":\"B\"", p + 1)) {
    ++b;
  }
  for (std::size_t p = doc.find("\"ph\":\"E\""); p != std::string::npos;
       p = doc.find("\"ph\":\"E\"", p + 1)) {
    ++e;
  }
  EXPECT_GT(b, 0u);
  EXPECT_EQ(b, e);
  EXPECT_NE(doc.find("\"cat\":\"pass\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"xfer\""), std::string::npos);
}

TEST(Obs, EveryRangeIsATraceSpan) {
  // The flat profile and the trace come from one timer: each row a
  // prof::ScopedRange recorded is a "range" span, call for call, and
  // every range span is a row.  The cases cover every range site: v0's
  // inline coal (whose coal_bott_new_loop row is add_range_time's, not a
  // range), v3's pass groups, the hybrid fidelity sweep, blocked
  // sedimentation, and halo rounds on 2x2 ranks in both halo modes.
  struct Case {
    const char* label;
    model::RunConfig cfg;
  };
  std::vector<Case> cases;
  model::RunConfig v0 = gate_case("serial", mem::ResidencyMode::kStep);
  v0.version = fsbm::Version::kV0Baseline;
  cases.push_back({"v0 inline coal", v0});
  model::RunConfig hybrid = gate_case("threads:2", mem::ResidencyMode::kStep);
  hybrid.phys = fsbm::PhysScheme::kHybrid;
  hybrid.sed = fsbm::SedDispatch::parse("block:8");
  cases.push_back({"v3 hybrid block sed", hybrid});
  for (const char* halo : {"sync", "overlap"}) {
    model::RunConfig d = gate_case("serial", mem::ResidencyMode::kPersist);
    d.npx = d.npy = 2;
    d.halo_mode = std::string(halo) == "sync" ? dyn::HaloMode::kSync
                                              : dyn::HaloMode::kOverlap;
    cases.push_back({halo, d});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    prof::Profiler prof;
    obs::TraceSink sink;
    {
      obs::ScopedActive active(&sink);
      model::run_simulation(c.cfg, prof);
    }
    audit_tracks(sink);  // balanced and monotone on every track
    std::map<std::string, std::uint64_t> begins;
    for (const obs::TrackEvents& track : sink.drain()) {
      for (const obs::TraceEvent& e : track.events) {
        if (e.phase == 'B' && std::string(e.cat) == "range") ++begins[e.name];
      }
    }
    std::size_t range_rows = 0;
    for (const prof::FlatRow& row : prof.flat_report()) {
      if (!c.cfg.offloaded() && row.name == "coal_bott_new_loop") continue;
      ++range_rows;
      EXPECT_EQ(begins[row.name], row.calls) << row.name;
    }
    EXPECT_EQ(begins.size(), range_rows);
    EXPECT_GT(begins["halo_exchange"], 0u);
    EXPECT_GT(begins["fast_sbm"], 0u);
  }
}

TEST(ObsTrace, StepSeriesSortedByStepAndRank) {
  obs::TraceSink sink;
  for (const auto& [step, rank] : std::vector<std::pair<int, int>>{
           {1, 1}, {0, 0}, {1, 0}, {0, 1}}) {
    obs::StepRecord r;
    r.step = step;
    r.rank = rank;
    sink.record_step(r);
  }
  const std::vector<obs::StepRecord> steps = sink.steps();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(std::make_pair(steps[0].step, steps[0].rank), std::make_pair(0, 0));
  EXPECT_EQ(std::make_pair(steps[1].step, steps[1].rank), std::make_pair(0, 1));
  EXPECT_EQ(std::make_pair(steps[2].step, steps[2].rank), std::make_pair(1, 0));
  EXPECT_EQ(std::make_pair(steps[3].step, steps[3].rank), std::make_pair(1, 1));
}

}  // namespace
}  // namespace wrf
