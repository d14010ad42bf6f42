#pragma once
// The two model workloads: one whole model run is one operation.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fsbm/fast_sbm.hpp"
#include "io/snapshot.hpp"
#include "model/config.hpp"
#include "par/simpi.hpp"

namespace pb {

using Metrics = std::map<std::string, double>;

/// The paper's per-rank CONUS-12km patch (107x75x50, one rank) in the
/// final port: v3 collapse(3) with condensation offloaded, fused
/// cond+coal, device-resident fields, device exec, blocked sedimentation.
wrf::model::RunConfig conus_patch_config(std::uint64_t case_seed);

/// The scaled CONUS case (64x48x24) on 2x2 simpi ranks with every knob
/// at its default: the host path users get out of the box.
wrf::model::RunConfig decomp_2x2_config(std::uint64_t case_seed);

/// A run's output, as the correctness check sees it.
struct Output {
  std::uint64_t hash = 0;  ///< model::state_hash of the output
  bool finite = true;      ///< every output value finite
};

/// One untraced model run: construction + init on every rank, the
/// configured steps with a barrier after each, then output.  This is
/// run_simulation's rank loop, timed at its outer boundaries only.
struct ModelOp {
  double setup_s = 0.0;     ///< entry -> slowest rank's init done
  double stepping_s = 0.0;  ///< slowest rank's init done -> last barrier
  double solution_s = 0.0;  ///< entry -> every rank's snapshot taken
  double cellsteps = 0.0;   ///< domain cells x steps
  double modeled_gpu_ms = 0.0;  ///< device kernel + transfer ms, stepping
  double snapshot_s = 0.0;      ///< RankModel::snapshot, summed over ranks
  double snapshot_bytes = 0.0;  ///< output payload bytes, all ranks
  Output out;
};
ModelOp run_model_op(const wrf::model::RunConfig& cfg);

/// The traced run of one workload configuration: the untraced op (for
/// the tracing overhead), model::run_simulation (the fidelity
/// reference), and a composition of each rank from the layers' public
/// entry points with every layer call spanned.  Throws std::runtime_error
/// when the composition's state hash, transfer bytes or launch count
/// differ from run_simulation's — then the traced numbers would measure
/// a different program.
struct TracedModel {
  Metrics layers;  ///< every per-layer metric
  /// The output of each of the three runs, by name.
  std::vector<std::pair<std::string, Output>> outputs;
};
TracedModel run_traced_model(const wrf::model::RunConfig& cfg,
                             const std::string& spans_path);

/// True when every value of every snapshot is finite.
bool all_finite(const std::vector<wrf::io::Snapshot>& snaps);
/// Payload bytes of the snapshots' variables.
double payload_bytes(const std::vector<wrf::io::Snapshot>& snaps);

/// model::state_hash of run_simulation for `cfg` (records the reference
/// hashes).
std::uint64_t reference_hash(const wrf::model::RunConfig& cfg);

}  // namespace pb
