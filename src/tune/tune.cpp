#include "tune/tune.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wrf::tune {

namespace {
/// The tune= mode names, indexed by TuneMode.
constexpr const char* kTuneModes[] = {"off", "auto", "file"};
}  // namespace

std::string TuneSpec::artifact_path() const {
  switch (mode) {
    case TuneMode::kOff: return "";
    case TuneMode::kAuto: return kDefaultArtifactPath;
    case TuneMode::kFile: return path;
  }
  return "";
}

TuneSpec TuneSpec::parse(const std::string& s) {
  TuneSpec spec;
  const std::size_t colon = s.find(':');
  const auto* m = std::find(std::begin(kTuneModes), std::end(kTuneModes),
                            s.substr(0, colon));
  if (m == std::end(kTuneModes)) {
    throw ConfigError("TuneSpec: unknown tune mode '" + s +
                      "' (want off | auto | file:<path>)");
  }
  spec.mode = static_cast<TuneMode>(m - std::begin(kTuneModes));
  if (colon != std::string::npos) spec.path = s.substr(colon + 1);
  // file: and only file: carries a path, and it must be non-empty.
  if (spec.mode == TuneMode::kFile ? spec.path.empty()
                                   : colon != std::string::npos) {
    throw ConfigError("TuneSpec: tune='" + s +
                      "' (want off | auto | file:<path>)");
  }
  return spec;
}

std::string TuneSpec::describe() const {
  std::string out = kTuneModes[static_cast<int>(mode)];
  if (mode == TuneMode::kFile) out += ":" + path;
  return out;
}

}  // namespace wrf::tune
