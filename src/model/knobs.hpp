#pragma once
// The knob table: every `key=value` knob of a run, declared once.
//
// Each row names a RunConfig knob and carries its parser, its canonical
// value string, its role and its legality bound.  The table is the only
// code that reads knobs from argv (parse_args), renders them
// (RunConfig::describe), checks them (RunConfig::validate) and gives the
// tuner its view: the performance-neutral rows are the dimensions of
// tune::SearchSpace and the grammar of tuned.json knob strings.
//
// Every entry point is strict: an unknown key, a key given twice, a bad
// value or a value outside its row's bound is a ConfigError naming the
// offending token.  (tune=auto's "no ./tuned.json yet" stays lenient;
// that is artifact loading, not parsing — tune/artifact.hpp.)

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/config.hpp"

namespace wrf::model {

/// What a knob may change, which decides where its row is accepted.
enum class KnobRole {
  kNeutral,  ///< speed only (exec halo sed res fuse): tuned, bitwise-neutral
  kPhysics,  ///< the physics (phys): part of a tuned entry's shape
  kControl,  ///< observes or resolves a run (obs tune): shown only when set
};

/// One row of the table.
struct Knob {
  const char* key;
  KnobRole role;
  /// Enum rows: the value names, indexed by the enum's value.  Empty for
  /// the struct-valued rows, whose grammar is `syntax`.
  std::span<const char* const> names;
  const char* syntax;
  /// Set the knob from its value string; throws ConfigError.
  void (*parse)(RunConfig& cfg, const std::string& value);
  /// The canonical value string: parse(value(cfg)) reproduces the knob.
  std::string (*value)(const RunConfig& cfg);
  /// The bound the knob's value violates, or nullptr; may be null itself.
  const char* (*illegal)(const RunConfig& cfg);
  /// kNeutral rows: the canonical values worth searching for `base` on a
  /// host with `hw_threads` hardware threads, the untuned default first.
  std::vector<std::string> (*candidates)(const RunConfig& base,
                                         int hw_threads);
};

/// The table, in describe() order.
std::span<const Knob> knob_table();

/// The row for `key`, or nullptr.
const Knob* find_knob(std::string_view key);

/// Every row's key, in table order.
std::vector<std::string_view> knob_keys();

/// What an argv caller accepts.
struct ArgSpec {
  /// Keys the caller reads itself (`out=`, `lanes=`), each at most once.
  std::vector<std::string_view> owned = {};
  /// Knob rows the caller honours.
  std::vector<std::string_view> rows = knob_keys();
  /// Bare positional counts the caller takes (util/count.hpp grammar).
  std::size_t max_counts = 0;
};

/// The non-knob part of a command line.
struct CommandLine {
  std::vector<int> counts;                   ///< positional counts, in order
  std::map<std::string, std::string> owned;  ///< owned key -> value
};

/// The strict argv entry point: set every `key=value` knob of argv[1..]
/// on `cfg` (absent knobs keep cfg's values) and return the rest.
/// Throws ConfigError naming the token on an unknown or unaccepted key,
/// a key given twice, a bad or illegal value, and a bare token that is
/// not a count or one more than `max_counts`.
CommandLine parse_args(RunConfig& cfg, int argc, const char* const* argv,
                       const ArgSpec& spec = {});

/// "[key=syntax] ..." for the rows `spec` honours (usage lines).
std::string knob_usage(const ArgSpec& spec = {});

/// The tuned.json knob string: every kNeutral row, in table order, as
///   "exec=threads:4 halo=sync sed=block:8 res=persist fuse=auto"
std::string knob_string(const RunConfig& cfg);

/// Set a tuned knob string on `cfg`.  It must name every kNeutral row
/// exactly once and nothing else — a physics or control key is a
/// ConfigError naming the token, so an artifact cannot change physics.
void apply_knob_string(RunConfig& cfg, const std::string& knobs);

/// Value names of the enum knobs: lookups into their rows.
const char* knob_name(dyn::HaloMode m) noexcept;
const char* knob_name(fsbm::PhysScheme p) noexcept;
const char* knob_name(mem::ResidencyMode m) noexcept;
const char* knob_name(exec::FuseMode m) noexcept;

}  // namespace wrf::model
