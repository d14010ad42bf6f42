#include "tune/space.hpp"

#include <algorithm>
#include <cstdio>

namespace wrf::tune {

std::string shape_key(const model::RunConfig& cfg) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "grid %dx%dx%d nkr=%d ranks=%dx%d version=%s phys=%s",
                cfg.nx, cfg.ny, cfg.nz, cfg.nkr, cfg.npx, cfg.npy,
                fsbm::version_name(cfg.version), model::knob_name(cfg.phys));
  return buf;
}

SearchSpace SearchSpace::enumerate(const model::RunConfig& base,
                                   int hw_threads) {
  hw_threads = std::max(hw_threads, 1);
  std::vector<const model::Knob*> rows;
  std::vector<std::vector<std::string>> values;
  for (const model::Knob& k : model::knob_table()) {
    if (k.role != model::KnobRole::kNeutral) continue;
    rows.push_back(&k);
    values.push_back(k.candidates(base, hw_threads));
  }

  SearchSpace space;
  // The untuned point always leads: a tuner that prunes everything
  // still has a measured baseline, and the winner can only displace it
  // by out-measuring it.
  space.points.push_back(model::knob_string(base));
  std::vector<std::size_t> at(rows.size(), 0);
  for (std::size_t d = rows.size(); d > 0;) {
    std::string point;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r > 0) point += ' ';
      point += rows[r]->key;
      point += '=';
      point += values[r][at[r]];
    }
    if (!space.contains(point)) space.points.push_back(std::move(point));
    // Odometer step, last row fastest; d reaches 0 after the last point.
    for (d = rows.size(); d > 0 && ++at[d - 1] == values[d - 1].size(); --d) {
      at[d - 1] = 0;
    }
  }
  return space;
}

bool SearchSpace::contains(const std::string& knobs) const noexcept {
  return std::find(points.begin(), points.end(), knobs) != points.end();
}

}  // namespace wrf::tune
