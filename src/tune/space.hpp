#pragma once
// The tunable knob subset and the legal search space over it.
//
// The tuner's knobs are the performance-neutral rows of the knob table
// (model/knobs.hpp): exec/halo/sed/res/fuse, including their numeric
// sub-dimensions threads:N / hetero:N / block:N.  Every one of them is
// covered by a bitwise-equivalence gate elsewhere in the tree
// (tests/test_exec.cpp, test_halo_overlap.cpp, test_fsbm_properties.cpp,
// test_fusion.cpp), which is precisely what makes them tunable:
// swapping them changes speed, never physics.  Physics selections —
// version, phys, grid, dt, nkr — are deliberately NOT dimensions; they
// are part of the shape_key a tuned entry is filed under.
//
// A configuration point is its canonical knob string
// (model::knob_string), the same string a tuned.json entry stores.

#include <string>
#include <vector>

#include "model/knobs.hpp"

namespace wrf::tune {

/// What a tuned entry is keyed by: everything that defines the workload
/// but none of the tunable knobs.  Two configs with equal shape keys
/// want the same winner on the same machine.
std::string shape_key(const model::RunConfig& cfg);

/// The legal knob grid for one base config on one machine: the
/// cartesian product of every neutral row's candidate values
/// (model::Knob::candidates), first row outermost.  The validity
/// constraints live in the candidates, applied up front instead of
/// filtered out later:
///   - exec=device / exec=hetero:N, res=persist, and fuse=auto only
///     appear for offloaded versions (they are inert or pure overhead
///     for the host-only chain);
///   - halo=overlap only appears for multi-rank configs (single-rank
///     runs have no exchange to overlap);
///   - thread counts are derived from the machine's hardware
///     concurrency (plus an oversubscribed point — on a busy host the
///     measured rung, not the enumeration, decides).
/// The base config's own knob string is always point [0], so the tuner
/// can never return something worse than "untuned" without having
/// measured it.
struct SearchSpace {
  std::vector<std::string> points;  ///< canonical knob strings, unique

  static SearchSpace enumerate(const model::RunConfig& base, int hw_threads);

  bool contains(const std::string& knobs) const noexcept;
};

}  // namespace wrf::tune
