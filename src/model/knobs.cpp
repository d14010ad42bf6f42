#include "model/knobs.hpp"

#include <algorithm>
#include <array>
#include <bitset>
#include <sstream>
#include <type_traits>

#include "util/count.hpp"
#include "util/error.hpp"

namespace wrf::model {
namespace {

constexpr std::array<const char*, 2> kHaloNames = {"sync", "overlap"};
constexpr std::array<const char*, 3> kPhysNames = {"bin", "bulk", "hybrid"};
constexpr std::array<const char*, 2> kResNames = {"step", "persist"};
constexpr std::array<const char*, 2> kFuseNames = {"off", "auto"};

template <const auto& Names>
const char* name_of(auto e) noexcept {
  const auto i = static_cast<std::size_t>(e);
  return i < Names.size() ? Names[i] : "?";
}

/// Append `word` to a `sep`-separated list.
void add_word(std::string& out, std::string_view word,
              std::string_view sep = " ") {
  if (!out.empty()) out += sep;
  out += word;
}

std::string joined(std::span<const char* const> names, std::string_view sep) {
  std::string out;
  for (const char* n : names) add_word(out, n, sep);
  return out;
}

template <auto Field, const auto& Names>
void parse_enum(RunConfig& cfg, const std::string& v) {
  using E = std::remove_cvref_t<decltype(cfg.*Field)>;
  for (std::size_t i = 0; i < Names.size(); ++i) {
    if (v == Names[i]) {
      cfg.*Field = static_cast<E>(i);
      return;
    }
  }
  throw ConfigError("unknown value '" + v + "' (want " +
                    joined(Names, " | ") + ")");
}

template <auto Field, const auto& Names>
std::string enum_value(const RunConfig& cfg) {
  return name_of<Names>(cfg.*Field);
}

bool offloaded(const RunConfig& base) { return base.offloaded(); }

std::vector<std::string> exec_candidates(const RunConfig& base, int hw) {
  // Hardware width, half-width when distinct, and one oversubscribed
  // point on a 1-core host: the measured rungs decide whether
  // oversubscription pays on this machine.
  const std::string wide = std::to_string(std::max(hw, 2));
  std::vector<std::string> v = {"serial", "threads:" + wide};
  if (hw >= 4) v.push_back("threads:" + std::to_string(hw / 2));
  if (offloaded(base)) {
    v.push_back("device");
    v.push_back("hetero:" + wide);
  }
  return v;
}

/// An enum row's candidates: its default, plus its other values when
/// `applies(base)` — they are inert or pure overhead otherwise.
template <const auto& Names, bool (*applies)(const RunConfig&)>
std::vector<std::string> enum_candidates(const RunConfig& base, int) {
  if (!applies(base)) return {Names[0]};
  return {Names.begin(), Names.end()};
}

bool multi_rank(const RunConfig& base) { return base.nranks() > 1; }

constexpr Knob kKnobs[] = {
    {"exec", KnobRole::kNeutral, {}, "serial|threads[:N]|device|hetero[:N]",
     [](RunConfig& c, const std::string& v) {
       c.exec = exec::ExecConfig::parse(v);
     },
     [](const RunConfig& c) { return c.exec.describe(); },
     [](const RunConfig& c) -> const char* {
       const bool threaded = c.exec.kind == exec::ExecKind::kThreads ||
                             c.exec.kind == exec::ExecKind::kHetero;
       return threaded && c.exec.nthreads < 0
                  ? "exec thread count must be >= 0"
                  : nullptr;
     },
     exec_candidates},
    {"halo", KnobRole::kNeutral, kHaloNames, nullptr,
     parse_enum<&RunConfig::halo_mode, kHaloNames>,
     enum_value<&RunConfig::halo_mode, kHaloNames>, nullptr,
     enum_candidates<kHaloNames, multi_rank>},
    {"phys", KnobRole::kPhysics, kPhysNames, nullptr,
     parse_enum<&RunConfig::phys, kPhysNames>,
     enum_value<&RunConfig::phys, kPhysNames>, nullptr, nullptr},
    {"sed", KnobRole::kNeutral, {}, "column|block[:N]",
     [](RunConfig& c, const std::string& v) {
       c.sed = fsbm::SedDispatch::parse(v);
     },
     [](const RunConfig& c) { return c.sed.describe(); },
     [](const RunConfig& c) -> const char* {
       return c.sed.kind == fsbm::SedDispatch::Kind::kBlock &&
                      (c.sed.block < 1 || c.sed.block > 4096)
                  ? "sed block width outside [1, 4096]"
                  : nullptr;
     },
     [](const RunConfig&, int) -> std::vector<std::string> {
       return {"column", "block:8", "block:32"};
     }},
    {"res", KnobRole::kNeutral, kResNames, nullptr,
     parse_enum<&RunConfig::res, kResNames>,
     enum_value<&RunConfig::res, kResNames>, nullptr,
     enum_candidates<kResNames, offloaded>},
    {"fuse", KnobRole::kNeutral, kFuseNames, nullptr,
     parse_enum<&RunConfig::fuse, kFuseNames>,
     enum_value<&RunConfig::fuse, kFuseNames>, nullptr,
     enum_candidates<kFuseNames, offloaded>},
    {"obs", KnobRole::kControl, {}, "off|metrics[:path]|trace[:path]",
     [](RunConfig& c, const std::string& v) {
       c.obs = obs::ObsConfig::parse(v);
     },
     [](const RunConfig& c) { return c.obs.describe(); }, nullptr, nullptr},
    {"tune", KnobRole::kControl, {}, "off|auto|file:<path>",
     [](RunConfig& c, const std::string& v) {
       c.tune = tune::TuneSpec::parse(v);
     },
     [](const RunConfig& c) { return c.tune.describe(); }, nullptr, nullptr},
};
using Seen = std::bitset<std::size(kKnobs)>;

std::size_t row_of(const Knob& k) {
  return static_cast<std::size_t>(&k - kKnobs);
}

/// Set one `key=value` token through its row: each row at most once,
/// then the row's bound — the same check validate() runs.
void set_knob(RunConfig& cfg, const Knob& k, const std::string& token,
              std::size_t eq, Seen& seen) {
  if (seen.test(row_of(k))) {
    throw ConfigError("'" + token + "': knob '" + k.key + "' given twice");
  }
  seen.set(row_of(k));
  try {
    k.parse(cfg, token.substr(eq + 1));
  } catch (const ConfigError& e) {
    throw ConfigError("'" + token + "': " + e.what());
  }
  if (const char* why = k.illegal != nullptr ? k.illegal(cfg) : nullptr) {
    throw ConfigError("'" + token + "': " + why);
  }
}

bool listed(const std::vector<std::string_view>& keys, std::string_view key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

}  // namespace

std::span<const Knob> knob_table() { return kKnobs; }

const Knob* find_knob(std::string_view key) {
  for (const Knob& k : kKnobs) {
    if (key == k.key) return &k;
  }
  return nullptr;
}

std::vector<std::string_view> knob_keys() {
  std::vector<std::string_view> keys;
  for (const Knob& k : kKnobs) keys.push_back(k.key);
  return keys;
}

CommandLine parse_args(RunConfig& cfg, int argc, const char* const* argv,
                       const ArgSpec& spec) {
  CommandLine cl;
  Seen seen;
  for (int a = 1; a < argc; ++a) {
    const std::string token = argv[a];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (cl.counts.size() >= spec.max_counts) {
        throw ConfigError("'" + token + "': unexpected argument (want " +
                          (spec.max_counts > 0 ? "a count or " : "") +
                          "key=value)");
      }
      cl.counts.push_back(parse_count(token, "positional argument"));
      continue;
    }
    const std::string key = token.substr(0, eq);
    if (listed(spec.owned, key)) {
      if (!cl.owned.emplace(key, token.substr(eq + 1)).second) {
        throw ConfigError("'" + token + "': key '" + key + "' given twice");
      }
      continue;
    }
    const Knob* k = find_knob(key);
    if (k == nullptr || !listed(spec.rows, key)) {
      throw ConfigError("'" + token + "': unknown key '" + key + "'");
    }
    set_knob(cfg, *k, token, eq, seen);
  }
  return cl;
}

std::string knob_usage(const ArgSpec& spec) {
  std::string out;
  for (const Knob& k : kKnobs) {
    if (!listed(spec.rows, k.key)) continue;
    add_word(out, "[");
    out += k.key;
    out += '=';
    out += k.names.empty() ? std::string(k.syntax) : joined(k.names, "|");
    out += ']';
  }
  return out;
}

std::string knob_string(const RunConfig& cfg) {
  std::string out;
  for (const Knob& k : kKnobs) {
    if (k.role != KnobRole::kNeutral) continue;
    add_word(out, k.key);
    out += '=';
    out += k.value(cfg);
  }
  return out;
}

void apply_knob_string(RunConfig& cfg, const std::string& knobs) {
  Seen seen;
  std::istringstream in(knobs);
  for (std::string token; in >> token;) {
    const std::size_t eq = token.find('=');
    const Knob* k = find_knob(token.substr(0, eq));
    if (eq == std::string::npos || k == nullptr ||
        k->role != KnobRole::kNeutral) {
      throw ConfigError("'" + token + "': a tuned knob string holds only "
                        "performance-neutral key=value knobs");
    }
    set_knob(cfg, *k, token, eq, seen);
  }
  for (const Knob& k : kKnobs) {
    if (k.role == KnobRole::kNeutral && !seen.test(row_of(k))) {
      throw ConfigError("knob string '" + knobs + "' lacks " + k.key + "=");
    }
  }
}

const char* knob_name(dyn::HaloMode m) noexcept {
  return name_of<kHaloNames>(m);
}
const char* knob_name(fsbm::PhysScheme p) noexcept {
  return name_of<kPhysNames>(p);
}
const char* knob_name(mem::ResidencyMode m) noexcept {
  return name_of<kResNames>(m);
}
const char* knob_name(exec::FuseMode m) noexcept {
  return name_of<kFuseNames>(m);
}

}  // namespace wrf::model
