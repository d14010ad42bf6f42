// The knob table (model/knobs.hpp):
//
//  * goldens recorded on the commit before the table existed, from its
//    eight per-module argv scanners: describe() strings, service shape
//    keys, the tuner's ordered search space, and a schema-1 tuned.json
//    written by that commit's write_artifact (tests/data/);
//  * the strict argv and knob-string grammars — unknown keys,
//    duplicates, bad values and physics keys in a tuned string are
//    ConfigErrors naming the token;
//  * one legality bound per knob, enforced at parse, at artifact load
//    and in validate();
//  * the describe/parse round trip over every row and candidate value;
//  * one rejection table holding every knob's negative inputs;
//  * a seeded mutation loop: hostile knob strings and argv tokens end in
//    a ConfigError or a value that round-trips, never a crash.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "model/driver.hpp"
#include "svc/job.hpp"
#include "tune/artifact.hpp"
#include "tune/space.hpp"
#include "util/count.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wrf {
namespace {

/// parse_args over `tokens` (argv[0] supplied).
model::CommandLine parse_tokens(model::RunConfig& cfg,
                                const std::vector<std::string>& tokens,
                                const model::ArgSpec& spec = {}) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return model::parse_args(cfg, static_cast<int>(argv.size()), argv.data(),
                           spec);
}

/// The ConfigError message `fn` throws, or "" when it throws nothing.
template <class F>
std::string config_error(F&& fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

bool names(const std::string& msg, const std::string& token) {
  return msg.find("'" + token + "'") != std::string::npos;
}

// ------------------------------------------------------------- goldens

TEST(KnobGolden, DescribeMatchesTheParentScanners) {
  struct Case {
    std::vector<std::string> tokens;
    const char* describe;
  };
  // Recorded from the eight *_from_args scanners on a default RunConfig.
  const Case cases[] = {
      {{},
       "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
       "version=v1-lookup-on-demand exec=serial halo=sync phys=bin "
       "sed=column res=step fuse=off ngpus=4"},
      {{"exec=serial", "halo=sync", "phys=bin", "sed=column", "res=step",
        "fuse=off", "obs=off", "tune=off"},
       "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
       "version=v1-lookup-on-demand exec=serial halo=sync phys=bin "
       "sed=column res=step fuse=off ngpus=4"},
      {{"exec=threads", "halo=overlap", "phys=bulk", "sed=block",
        "res=persist", "fuse=auto"},
       "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
       "version=v1-lookup-on-demand exec=threads halo=overlap phys=bulk "
       "sed=block:8 res=persist fuse=auto ngpus=4"},
      {{"exec=threads:3", "phys=hybrid", "sed=block:16", "obs=metrics"},
       "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
       "version=v1-lookup-on-demand exec=threads:3 halo=sync phys=hybrid "
       "sed=block:16 res=step fuse=off ngpus=4 obs=metrics"},
      {{"exec=device", "sed=block:4096", "obs=trace", "tune=auto"},
       "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
       "version=v1-lookup-on-demand exec=device halo=sync phys=bin "
       "sed=block:4096 res=step fuse=off ngpus=4 obs=trace tune=auto"},
      {{"exec=hetero", "fuse=auto", "obs=trace:runs/t.json",
        "tune=file:runs/tuned.json"},
       "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
       "version=v1-lookup-on-demand exec=hetero halo=sync phys=bin "
       "sed=column res=step fuse=auto ngpus=4 obs=trace:runs/t.json "
       "tune=file:runs/tuned.json"},
      {{"exec=hetero:2", "halo=overlap", "res=persist",
        "obs=metrics:m.jsonl"},
       "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
       "version=v1-lookup-on-demand exec=hetero:2 halo=overlap phys=bin "
       "sed=column res=persist fuse=off ngpus=4 obs=metrics:m.jsonl"},
      {{"sed=block:1", "phys=bulk", "tune=auto"},
       "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
       "version=v1-lookup-on-demand exec=serial halo=sync phys=bulk "
       "sed=block:1 res=step fuse=off ngpus=4 tune=auto"},
  };
  for (const Case& c : cases) {
    model::RunConfig cfg;
    parse_tokens(cfg, c.tokens);
    EXPECT_EQ(cfg.describe(), c.describe);
    EXPECT_NO_THROW(cfg.validate()) << c.describe;
  }
}

TEST(KnobGolden, JobShapeKeysMatchTheParent) {
  const model::RunConfig a;
  model::RunConfig b;
  b.nx = 24;
  b.ny = 16;
  b.nz = 10;
  b.nsteps = 3;
  b.npx = b.npy = 1;
  b.version = fsbm::Version::kV3Offload3;
  b.res = mem::ResidencyMode::kPersist;
  b.phys = fsbm::PhysScheme::kHybrid;
  b.exec = exec::ExecConfig::parse("hetero:2");
  b.obs = obs::ObsConfig::parse("metrics");
  EXPECT_EQ(svc::job_shape_key(a),
            "grid 64x48x24 dx=12000m dt=5.0s nkr=33 ranks=2x2 "
            "version=v1-lookup-on-demand exec=serial halo=sync phys=bin "
            "sed=column res=step fuse=off ngpus=4 nsteps=6");
  EXPECT_EQ(svc::job_shape_key(b),
            "grid 24x16x10 dx=12000m dt=5.0s nkr=33 ranks=1x1 "
            "version=v3-offload-collapse3 exec=hetero:2 halo=sync "
            "phys=hybrid sed=column res=persist fuse=off ngpus=4 "
            "obs=metrics nsteps=3");
}

TEST(KnobGolden, SearchSpaceMatchesTheParentPointForPoint) {
  std::ostringstream got;
  for (const auto v :
       {fsbm::Version::kV1LookupOnDemand, fsbm::Version::kV3Offload3}) {
    for (const int r : {1, 2}) {
      for (const int hw : {1, 4, 16}) {
        model::RunConfig base;
        base.version = v;
        base.npx = base.npy = r;
        got << "# " << fsbm::version_name(v) << ' ' << r << 'x' << r
            << " hw=" << hw << '\n';
        for (const std::string& p :
             tune::SearchSpace::enumerate(base, hw).points) {
          got << p << '\n';
        }
      }
    }
  }
  std::ifstream in(WRF_TEST_DATA_DIR "/search_space_golden.txt");
  ASSERT_TRUE(in.good());
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got.str(), want.str());
}

TEST(KnobGolden, ParentSchema1ArtifactLoadsAndApplies) {
  const std::string path = WRF_TEST_DATA_DIR "/tuned_schema1.json";
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 1;
  cfg.version = fsbm::Version::kV3Offload3;
  const std::string after =
      "grid 16x12x8 dx=12000m dt=5.0s nkr=33 ranks=1x1 "
      "version=v3-offload-collapse3 exec=hetero:3 halo=sync phys=bin "
      "sed=block:32 res=persist fuse=auto ngpus=4";

  const tune::Artifact art = tune::load_artifact(path);
  EXPECT_EQ(art.schema_version, 1);
  ASSERT_EQ(art.entries.size(), 2u);
  model::RunConfig applied = cfg;
  EXPECT_TRUE(tune::apply_artifact(applied, art));
  EXPECT_EQ(applied.describe(), after);

  model::RunConfig via_spec = cfg;
  via_spec.tune = tune::TuneSpec::parse("file:" + path);
  EXPECT_TRUE(tune::apply(via_spec));
  EXPECT_EQ(via_spec.describe(), after + " tune=file:" + path);
}

// ------------------------------------------------------------ strictness

TEST(KnobArgs, TyposDuplicatesAndPhysicsInTunedStringsAreErrors) {
  model::RunConfig cfg;
  EXPECT_TRUE(names(config_error([&] { parse_tokens(cfg, {"exce=device"}); }),
                    "exce=device"));
  EXPECT_TRUE(names(config_error([&] {
                      parse_tokens(cfg, {"exec=serial", "exec=device"});
                    }),
                    "exec=device"));
  EXPECT_TRUE(names(config_error([&] {
                      model::apply_knob_string(
                          cfg,
                          "exec=serial halo=sync phys=bulk sed=column "
                          "res=step fuse=off");
                    }),
                    "phys=bulk"));
  // Nor can a control knob ride along in a tuned string.
  EXPECT_TRUE(names(config_error([&] {
                      model::apply_knob_string(
                          cfg,
                          "exec=serial halo=sync sed=column res=step "
                          "fuse=off tune=auto");
                    }),
                    "tune=auto"));
}

TEST(KnobArgs, OwnedKeysAndPositionalCountsPassThrough) {
  model::RunConfig cfg;
  const model::CommandLine cl =
      parse_tokens(cfg, {"24", "out=x=1.bin", "exec=threads:2", "16"},
                   {.owned = {"out"}, .max_counts = 4});
  EXPECT_EQ(cl.counts, (std::vector<int>{24, 16}));
  ASSERT_EQ(cl.owned.count("out"), 1u);
  EXPECT_EQ(cl.owned.at("out"), "x=1.bin");
  EXPECT_EQ(cfg.exec.describe(), "threads:2");
  EXPECT_EQ(cfg.nx, 64);  // counts are the caller's to place

  // Absent knobs keep the caller's settings.
  model::RunConfig preset;
  preset.res = mem::ResidencyMode::kPersist;
  parse_tokens(preset, {"fuse=auto"});
  EXPECT_EQ(preset.res, mem::ResidencyMode::kPersist);
  EXPECT_EQ(preset.fuse, exec::FuseMode::kAuto);

  // Too many counts, a non-count, an owned key twice, and a row the
  // caller does not honour all name their token.
  model::RunConfig c;
  EXPECT_TRUE(names(config_error([&] {
                      parse_tokens(c, {"1", "2"}, {.max_counts = 1});
                    }),
                    "2"));
  EXPECT_TRUE(names(config_error([&] {
                      parse_tokens(c, {"ten"}, {.max_counts = 1});
                    }),
                    "ten"));
  EXPECT_TRUE(names(config_error([&] { parse_tokens(c, {"7"}); }), "7"));
  EXPECT_TRUE(names(config_error([&] {
                      parse_tokens(c, {"lanes=2", "lanes=3"},
                                   {.owned = {"lanes"}});
                    }),
                    "lanes=3"));
  EXPECT_TRUE(names(config_error([&] {
                      parse_tokens(c, {"obs=metrics", "exec=serial"},
                                   {.rows = {"obs", "tune"}});
                    }),
                    "exec=serial"));
  EXPECT_EQ(model::knob_usage({.rows = {"obs", "tune"}}),
            "[obs=off|metrics[:path]|trace[:path]] "
            "[tune=off|auto|file:<path>]");
}

TEST(KnobArgs, CountParserIsDigitsOnly) {
  EXPECT_EQ(parse_count("1", "n"), 1);
  EXPECT_EQ(parse_count("007", "n"), 7);
  EXPECT_EQ(parse_count("2147483647", "n"), 2147483647);
  for (const char* bad : {"", "0", "-1", "+4", " 2", "2 ", "1e3", "0x10",
                          "abc", "2147483648", "99999999999"}) {
    const std::string msg = config_error([&] { parse_count(bad, "lanes"); });
    EXPECT_TRUE(names(msg, bad)) << bad;
    EXPECT_EQ(msg.rfind("lanes", 0), 0u) << msg;
  }
}

// ------------------------------------------------------------- legality

TEST(KnobLegality, OneBoundPerKnobAtParseLoadAndValidate) {
  model::RunConfig cfg;
  EXPECT_NO_THROW(parse_tokens(cfg, {"sed=block:4096"}));
  EXPECT_TRUE(names(config_error([&] {
                      model::RunConfig c;
                      parse_tokens(c, {"sed=block:5000"});
                    }),
                    "sed=block:5000"));
  EXPECT_TRUE(names(config_error([&] {
                      model::RunConfig c;
                      model::apply_knob_string(
                          c,
                          "exec=serial halo=sync sed=block:4097 res=step "
                          "fuse=off");
                    }),
                    "sed=block:4097"));

  // An artifact carrying an out-of-bound winner is rejected at load.
  const std::string path = "test_knobs_illegal.json";
  {
    std::ofstream out(path);
    out << "{\"schema_version\": 1, \"machine\": {\"hw_threads\": 1, "
           "\"device\": \"d\"}, \"entries\": [{\"shape\": \"s\", "
           "\"knobs\": \"exec=serial halo=sync sed=block:5000 res=step "
           "fuse=off\", \"steps\": 1, \"wall_min_s\": 1.0, "
           "\"wall_median_s\": 1.0, \"wall_cv\": 0.0, \"reps\": 1, "
           "\"cellsteps_per_s\": 1.0, \"baseline_cellsteps_per_s\": 1.0, "
           "\"ladder\": []}]}";
  }
  EXPECT_TRUE(names(config_error([&] { tune::load_artifact(path); }),
                    "sed=block:5000"));
  std::remove(path.c_str());

  // The parser of the struct itself carries no bound; validate() applies
  // the row's, so a programmatic config cannot bypass it.
  model::RunConfig direct;
  direct.sed = fsbm::SedDispatch::parse("block:5000");
  EXPECT_THROW(direct.validate(), ConfigError);
  direct.sed.block = 0;
  EXPECT_THROW(direct.validate(), ConfigError);
  model::RunConfig threads;
  threads.exec.kind = exec::ExecKind::kHetero;
  threads.exec.nthreads = -1;
  EXPECT_THROW(threads.validate(), ConfigError);
}

// ------------------------------------------------------------ round trip

TEST(KnobRoundTrip, EveryRowAndCandidateValue) {
  // Candidate values over the bases and thread counts the tuner sees,
  // plus every enum name and each struct row's other spellings.
  std::vector<model::RunConfig> bases(4);
  bases[1].version = fsbm::Version::kV3Offload3;
  bases[2].npx = bases[2].npy = 1;
  bases[3] = bases[1];
  bases[3].npx = 1;
  const std::vector<std::string> extra_exec = {
      "serial", "threads", "threads:1", "threads:64", "device", "hetero",
      "hetero:1"};
  const std::vector<std::string> extra_sed = {"column", "block:1",
                                              "block:4096"};
  const std::vector<std::string> extra_obs = {
      "off", "metrics", "trace", "metrics:a.jsonl", "trace:runs/t=1.json"};
  const std::vector<std::string> extra_tune = {"off", "auto",
                                               "file:tuned.json"};
  int checked = 0;
  for (const model::Knob& k : model::knob_table()) {
    std::vector<std::string> values(k.names.begin(), k.names.end());
    const std::string key = k.key;
    if (key == "exec") values = extra_exec;
    if (key == "sed") values = extra_sed;
    if (key == "obs") values = extra_obs;
    if (key == "tune") values = extra_tune;
    if (k.candidates != nullptr) {
      for (const model::RunConfig& b : bases) {
        for (const int hw : {1, 2, 4, 16}) {
          for (const std::string& v : k.candidates(b, hw)) values.push_back(v);
        }
      }
    } else {
      EXPECT_NE(k.role, model::KnobRole::kNeutral) << key;
    }
    ASSERT_FALSE(values.empty()) << key;
    for (const std::string& v : values) {
      SCOPED_TRACE(key + "=" + v);
      model::RunConfig x;
      parse_tokens(x, {key + "=" + v});
      EXPECT_EQ(k.value(x), v);  // every listed spelling is canonical
      model::RunConfig back;
      parse_tokens(back, {key + "=" + k.value(x)});
      EXPECT_EQ(back.describe(), x.describe());
      EXPECT_EQ(k.illegal != nullptr ? k.illegal(x) : nullptr, nullptr);
      ++checked;
    }
  }
  EXPECT_GT(checked, 40);

  // Whole knob strings: every point the tuner can emit for an offloaded
  // multi-rank config (all five rows varied) survives the round trip.
  model::RunConfig wide;
  wide.version = fsbm::Version::kV3Offload3;
  for (const std::string& p : tune::SearchSpace::enumerate(wide, 4).points) {
    model::RunConfig x;
    model::apply_knob_string(x, p);
    EXPECT_EQ(model::knob_string(x), p);
  }

  // Bare spellings expand to their canonical form and fields land.
  model::RunConfig c;
  parse_tokens(c, {"sed=block", "exec=hetero:4", "phys=hybrid"});
  EXPECT_EQ(c.sed.kind, fsbm::SedDispatch::Kind::kBlock);
  EXPECT_EQ(c.sed.block, 8);
  EXPECT_EQ(c.exec.kind, exec::ExecKind::kHetero);
  EXPECT_EQ(c.exec.nthreads, 4);
  EXPECT_EQ(c.phys, fsbm::PhysScheme::kHybrid);
  EXPECT_EQ(exec::ExecConfig::parse("threads").nthreads, 0);

  // The enum names are lookups into their rows.
  EXPECT_STREQ(model::knob_name(dyn::HaloMode::kSync), "sync");
  EXPECT_STREQ(model::knob_name(dyn::HaloMode::kOverlap), "overlap");
  EXPECT_STREQ(model::knob_name(fsbm::PhysScheme::kBin), "bin");
  EXPECT_STREQ(model::knob_name(fsbm::PhysScheme::kBulk), "bulk");
  EXPECT_STREQ(model::knob_name(fsbm::PhysScheme::kHybrid), "hybrid");
  EXPECT_STREQ(model::knob_name(mem::ResidencyMode::kStep), "step");
  EXPECT_STREQ(model::knob_name(mem::ResidencyMode::kPersist), "persist");
  EXPECT_STREQ(model::knob_name(exec::FuseMode::kOff), "off");
  EXPECT_STREQ(model::knob_name(exec::FuseMode::kAuto), "auto");
}

TEST(KnobRoundTrip, KnobStringRewritesOnlyTheNeutralSlice) {
  model::RunConfig cfg;
  cfg.version = fsbm::Version::kV2Offload2;
  cfg.phys = fsbm::PhysScheme::kHybrid;
  cfg.obs = obs::ObsConfig::parse("metrics");
  const std::string shape_before = tune::shape_key(cfg);
  const std::string s =
      "exec=device halo=sync sed=block:16 res=persist fuse=auto";
  model::apply_knob_string(cfg, s);
  EXPECT_EQ(model::knob_string(cfg), s);
  EXPECT_EQ(cfg.exec.kind, exec::ExecKind::kDevice);
  EXPECT_EQ(cfg.sed.block, 16);
  EXPECT_EQ(cfg.res, mem::ResidencyMode::kPersist);
  EXPECT_EQ(cfg.fuse, exec::FuseMode::kAuto);
  EXPECT_EQ(cfg.phys, fsbm::PhysScheme::kHybrid);
  EXPECT_TRUE(cfg.obs.describe() == "metrics");
  EXPECT_EQ(tune::shape_key(cfg), shape_before);
}

// ------------------------------------------------------------- rejection

TEST(KnobRejection, EveryKnobsNegativeInputs) {
  // key, value: each must be a ConfigError naming "key=value".
  const std::pair<const char*, const char*> bad[] = {
      // exec
      {"exec", "threads:0"}, {"exec", "threads:abc"}, {"exec", "threads:8x"},
      {"exec", "threads:+4"}, {"exec", "threads: 4"},
      {"exec", "threads:99999999999"}, {"exec", "gpu"}, {"exec", ""},
      {"exec", "warp9"}, {"exec", "hetero:0"}, {"exec", "hetero:-2"},
      {"exec", "hetero:abc"}, {"exec", "hetero:"}, {"exec", "hetero8"},
      {"exec", "hetero:8x"}, {"exec", "hetero:4:2"},
      {"exec", "heterogeneous"},
      // halo
      {"halo", ""}, {"halo", "Sync"}, {"halo", "overlapped"},
      // phys
      {"phys", "kessler"}, {"phys", ""}, {"phys", "hybird"},
      // sed
      {"sed", "block:0"}, {"sed", "block:abc"}, {"sed", "block:"},
      {"sed", "block8"}, {"sed", "block:5000"}, {"sed", "rows"}, {"sed", ""},
      // res
      {"res", "resident"}, {"res", ""},
      // fuse
      {"fuse", "on"}, {"fuse", ""}, {"fuse", "auto:2"}, {"fuse", "Off"},
      {"fuse", "fused"}, {"fuse", "of"},
      // obs
      {"obs", ""}, {"obs", "tracing"}, {"obs", "off:x.json"},
      {"obs", "trace:"},
      // tune
      {"tune", ""}, {"tune", "file"}, {"tune", "file:"}, {"tune", "bogus"},
      {"tune", "auto:tuned.json"}, {"tune", "off:tuned.json"},
  };
  for (const auto& [key, value] : bad) {
    const std::string token = std::string(key) + "=" + value;
    model::RunConfig cfg;
    EXPECT_TRUE(names(config_error([&] { parse_tokens(cfg, {token}); }),
                      token))
        << token;
  }
  // Tokens that are not knobs at all.
  for (const char* token : {"exce=device", "=serial", "plainword", "-3",
                            "exec==serial", "Exec=serial"}) {
    model::RunConfig cfg;
    EXPECT_TRUE(names(config_error([&] { parse_tokens(cfg, {token}); }),
                      token))
        << token;
  }
  // Knob strings: one bad token in an otherwise complete string, a
  // duplicate, a bare word, and a missing row.
  const std::string good =
      "exec=serial halo=sync sed=column res=step fuse=off";
  for (const char* token : {"phys=bulk", "exec=device", "exec=warp9",
                            "sed=block:", "plainword", "obs=trace"}) {
    model::RunConfig cfg;
    EXPECT_TRUE(names(config_error([&] {
                        model::apply_knob_string(cfg, good + " " + token);
                      }),
                      token))
        << token;
  }
  model::RunConfig cfg;
  EXPECT_NE(config_error([&] {
              model::apply_knob_string(cfg, "exec=serial halo=sync");
            }).find("sed="),
            std::string::npos);
  EXPECT_NE(config_error([&] { model::apply_knob_string(cfg, ""); }), "");
}

// -------------------------------------------------------------- mutation

TEST(KnobMutation, HostileStringsErrorOrRoundTrip) {
  std::vector<std::string> seeds;
  for (const auto v :
       {fsbm::Version::kV1LookupOnDemand, fsbm::Version::kV3Offload3}) {
    model::RunConfig base;
    base.version = v;
    for (const std::string& p : tune::SearchSpace::enumerate(base, 8).points) {
      seeds.push_back(p);
    }
  }
  seeds.push_back("exec=threads:99999999999 halo=sync sed=column res=step "
                  "fuse=off");
  for (const char* t : {"phys=hybrid", "obs=trace:a.json", "tune=file:t.json",
                        "exec=hetero:12", "sed=block:4096"}) {
    seeds.push_back(t);
  }

  Rng rng(20240911);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % (n == 0 ? 1 : n));
  };
  auto mutate = [&](std::string s) {
    switch (pick(5)) {
      case 0:  // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 1:  // byte flip
        if (!s.empty()) {
          s[pick(s.size())] ^= static_cast<char>(1 + pick(255));
        }
        break;
      case 2: {  // a count nothing can hold
        const std::size_t colon = s.find(':');
        if (colon != std::string::npos) s.insert(colon + 1, "99999999999");
        break;
      }
      case 3: {  // doubled '='
        const std::size_t eq = s.find('=', pick(s.size() + 1));
        if (eq != std::string::npos) s.insert(eq, 1, '=');
        break;
      }
      default: {  // emptied '=' (value or key dropped)
        const std::size_t eq = s.find('=');
        if (eq != std::string::npos) {
          s = pick(2) == 0 ? s.substr(0, eq + 1) : s.substr(eq);
        }
        break;
      }
    }
    return s;
  };

  int errors = 0, accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string s = seeds[pick(seeds.size())];
    for (int m = 0, n = 1 + static_cast<int>(pick(3)); m < n; ++m) {
      s = mutate(s);
    }
    SCOPED_TRACE(s);
    // As a tuned knob string.
    model::RunConfig cfg;
    if (config_error([&] { model::apply_knob_string(cfg, s); }).empty()) {
      ++accepted;
      model::RunConfig back;
      model::apply_knob_string(back, model::knob_string(cfg));
      EXPECT_EQ(back.describe(), cfg.describe());
    } else {
      ++errors;
    }
    // As one argv token (argv strings end at a NUL).
    const std::string token = s.c_str();
    model::RunConfig arg;
    if (config_error([&] { parse_tokens(arg, {token}); }).empty()) {
      ++accepted;
      const model::Knob* k = model::find_knob(token.substr(0, token.find('=')));
      ASSERT_NE(k, nullptr);
      model::RunConfig back;
      parse_tokens(back, {std::string(k->key) + "=" + k->value(arg)});
      EXPECT_EQ(back.describe(), arg.describe());
    } else {
      ++errors;
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(errors, 100);
  EXPECT_GT(accepted, 100);
}

}  // namespace
}  // namespace wrf
