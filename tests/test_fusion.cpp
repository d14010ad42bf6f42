// The fuse= knob's determinism contract (exec/passgraph.hpp): fuse=auto
// must reproduce fuse=off bit for bit — state snapshots and physics
// statistics — across every FSBM version, residency mode, and exec
// space, while strictly reducing kernel launches where the fused pair
// fires.  Plus the schedule's recorded decisions: every non-fusion has
// a reason, and the dependence reasons come from the analyzer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "analyzer/analysis.hpp"
#include "analyzer/parser.hpp"
#include "exec/passgraph.hpp"
#include "grid/decomp.hpp"
#include "model/driver.hpp"

namespace wrf {
namespace {

model::RunConfig fusion_case(fsbm::Version v, exec::FuseMode fuse,
                             mem::ResidencyMode res,
                             const exec::ExecConfig& e) {
  model::RunConfig cfg;
  cfg.nx = 16;
  cfg.ny = 12;
  cfg.nz = 8;
  cfg.npx = cfg.npy = 1;
  cfg.nsteps = 2;
  cfg.version = v;
  cfg.fsbm_params.offload_condensation = true;  // makes cond a candidate
  cfg.fuse = fuse;
  cfg.res = res;
  cfg.exec = e;
  cfg.validate();
  return cfg;
}

model::RunResult run(const model::RunConfig& cfg) {
  prof::Profiler prof;
  return model::run_single(cfg, prof);
}

/// Bitwise physics + state equality (launch accounting excluded: that
/// is exactly what fuse=auto is supposed to change).
void expect_same_physics(const model::RunResult& a,
                         const model::RunResult& b, const char* label) {
  SCOPED_TRACE(label);
  const fsbm::FsbmStats& fa = a.totals.fsbm;
  const fsbm::FsbmStats& fb = b.totals.fsbm;
  EXPECT_EQ(fa.cells_active, fb.cells_active);
  EXPECT_EQ(fa.cells_coal, fb.cells_coal);
  EXPECT_EQ(fa.kernel_table_fills, fb.kernel_table_fills);
  EXPECT_EQ(fa.kernel_entries, fb.kernel_entries);
  EXPECT_EQ(fa.coal_interactions, fb.coal_interactions);
  EXPECT_EQ(fa.coal_flops, fb.coal_flops);
  EXPECT_EQ(fa.cond_flops, fb.cond_flops);
  EXPECT_EQ(fa.nucl_flops, fb.nucl_flops);
  EXPECT_EQ(fa.sed_flops, fb.sed_flops);
  EXPECT_EQ(fa.sed_substeps, fb.sed_substeps);
  EXPECT_EQ(fa.surface_precip, fb.surface_precip);
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
    const auto& va = a.snapshots[s].variables();
    const auto& vb = b.snapshots[s].variables();
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t v = 0; v < va.size(); ++v) {
      EXPECT_EQ(va[v].name, vb[v].name);
      ASSERT_EQ(va[v].data.size(), vb[v].data.size()) << va[v].name;
      EXPECT_EQ(std::memcmp(va[v].data.data(), vb[v].data.data(),
                            va[v].data.size() * sizeof(float)),
                0)
          << va[v].name;
    }
  }
}

TEST(Fusion, AutoBitwiseMatchesOffAcrossTheMatrix) {
  // Every version x residency x exec cell: fuse=auto == fuse=off bit
  // for bit, whether or not the fused pair actually fires in that cell
  // (host versions, v2's collapse(2) coal, and hetero's split pass all
  // decline fusion — the contract still holds trivially).
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;
  exec::ExecConfig het2;
  het2.kind = exec::ExecKind::kHetero;
  het2.nthreads = 2;
  for (const fsbm::Version v :
       {fsbm::Version::kV0Baseline, fsbm::Version::kV1LookupOnDemand,
        fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    for (const mem::ResidencyMode res :
         {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
      for (const exec::ExecConfig& e : {dev, het2}) {
        const std::string label =
            std::string(fsbm::version_name(v)) + "/res=" +
            model::knob_name(res) + "/exec=" + e.describe();
        const auto off = run(
            fusion_case(v, exec::FuseMode::kOff, res, e));
        const auto fused = run(
            fusion_case(v, exec::FuseMode::kAuto, res, e));
        expect_same_physics(off, fused, label.c_str());
      }
    }
  }
}

TEST(Fusion, FusedRunSavesOneLaunchPerStep) {
  // v3 + offloaded condensation on the device: cond+coal collapse into
  // one launch, so fuse=auto issues exactly nsteps fewer launches and
  // proportionally less modeled launch latency.
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;
  const auto cfg_off = fusion_case(fsbm::Version::kV3Offload3,
                                   exec::FuseMode::kOff,
                                   mem::ResidencyMode::kStep, dev);
  const auto off = run(cfg_off);
  const auto fused = run(fusion_case(fsbm::Version::kV3Offload3,
                                     exec::FuseMode::kAuto,
                                     mem::ResidencyMode::kStep, dev));
  EXPECT_EQ(off.kernel_launches() - fused.kernel_launches(),
            static_cast<std::uint64_t>(cfg_off.nsteps));
  EXPECT_GT(off.kernel_launches(), 0u);
  EXPECT_LT(fused.launch_latency_ms(), off.launch_latency_ms());
}

/// Build a rank (no stepping needed — the schedule is fixed at
/// construction) and return its scheme for decision inspection.
struct BuiltRank {
  std::vector<grid::Patch> patches;
  std::unique_ptr<model::RankModel> rank;
  explicit BuiltRank(const model::RunConfig& cfg)
      : patches(grid::decompose(cfg.domain(), 1, 1, cfg.halo)) {
    rank = std::make_unique<model::RankModel>(cfg, patches[0], nullptr);
  }
  const exec::Schedule& schedule() const {
    return rank->scheme().schedule();
  }
  std::string reason(std::size_t a, std::size_t b) const {
    const exec::FusionDecision* d = schedule().decision(a, b);
    return d != nullptr ? d->reason : "(no decision)";
  }
};

TEST(Fusion, ScheduleRecordsAnalyzerBackedDecisions) {
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;

  // v3/device, fuse=auto: cond+coal fused (node ids 0,1), and the
  // coal->sed pair rejected by the analyzer's loop-carried diagnosis —
  // the reason must cite the dependence, not a blocklist.
  {
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kAuto,
                                  mem::ResidencyMode::kStep, dev));
    const auto& sched = r.schedule();
    ASSERT_GE(sched.groups.size(), 2u);
    EXPECT_EQ(sched.groups[0],
              (std::vector<std::size_t>{0, 1}));  // cond+coal fused
    ASSERT_NE(sched.decision(0, 1), nullptr);
    EXPECT_TRUE(sched.decision(0, 1)->fused);
    EXPECT_NE(r.reason(1, 2).find("neighboring"), std::string::npos)
        << r.reason(1, 2);
  }

  // v2's coal launch is collapse(2): structurally incompatible with the
  // collapse(3) cond launch even though the dependence is legal.
  {
    const BuiltRank r(fusion_case(fsbm::Version::kV2Offload2,
                                  exec::FuseMode::kAuto,
                                  mem::ResidencyMode::kStep, dev));
    ASSERT_NE(r.schedule().decision(0, 1), nullptr);
    EXPECT_FALSE(r.schedule().decision(0, 1)->fused);
    EXPECT_NE(r.reason(0, 1).find("collapse"), std::string::npos)
        << r.reason(0, 1);
  }

  // hetero: the coal pass is predicate-split across shards — never a
  // fusion candidate.
  {
    exec::ExecConfig het2;
    het2.kind = exec::ExecKind::kHetero;
    het2.nthreads = 2;
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kAuto,
                                  mem::ResidencyMode::kStep, het2));
    ASSERT_NE(r.schedule().decision(0, 1), nullptr);
    EXPECT_FALSE(r.schedule().decision(0, 1)->fused);
    EXPECT_NE(r.reason(0, 1).find("split"), std::string::npos)
        << r.reason(0, 1);
  }

  // exec=serial keeps sedimentation on the host: a host-shard pass.
  {
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kAuto,
                                  mem::ResidencyMode::kStep,
                                  exec::ExecConfig{}));
    EXPECT_NE(r.reason(1, 2).find("host"), std::string::npos)
        << r.reason(1, 2);
  }

  // fuse=off records itself as the reason on every pair.
  {
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kOff,
                                  mem::ResidencyMode::kStep, dev));
    for (const exec::FusionDecision& d : r.schedule().decisions) {
      EXPECT_FALSE(d.fused);
      EXPECT_EQ(d.reason, "fuse=off");
    }
  }
}

/// The grid-field read and write sets the dependence analysis derives
/// for a node's kernel shadow.  Roles map to access: read-only is a
/// read, write-first a write (prior values dead), and every other
/// written role (read-modify-write, reduction, loop-carried) both.
/// Rank-1 arrays are per-bin tables (the fall speeds vt), not fields.
struct ShadowAccess {
  std::set<std::string> reads, writes;
};

ShadowAccess shadow_access(const exec::PassNode& node) {
  const analyzer::ProgramUnit unit = analyzer::parse(*node.kernel_src);
  const analyzer::SemanticModel model(unit);
  const analyzer::Procedure* proc = model.find_procedure(node.procedure);
  ShadowAccess out;
  if (proc == nullptr) {
    ADD_FAILURE() << node.name << ": no procedure " << node.procedure;
    return out;
  }
  const auto loops = analyzer::outer_loops(*proc);
  if (loops.empty()) {
    ADD_FAILURE() << node.name << ": " << node.procedure << " has no loop";
    return out;
  }
  for (const analyzer::VarClass& v :
       analyzer::analyze_loop(model, *proc, *loops.front()).vars) {
    const analyzer::Decl* decl = model.find_decl(*proc, v.name);
    if (!v.is_array || decl == nullptr || decl->dims.size() < 2) continue;
    if (v.role != analyzer::VarClass::kWriteFirst) out.reads.insert(v.name);
    if (v.role != analyzer::VarClass::kReadOnly) out.writes.insert(v.name);
  }
  return out;
}

TEST(Fusion, KernelShadowsMatchDeclaredAccessSets) {
  // The executor derives transfers from PassNode::reads/writes, and
  // fusion legality is proven over the embedded shadows — so a node
  // whose declaration drifts from its shadow would move the wrong bytes
  // or fuse on a false proof.  Cover every node kind that carries a
  // shadow: the cond kernel, the full-range and split coal launches,
  // and sedimentation.
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;
  exec::ExecConfig het2;
  het2.kind = exec::ExecKind::kHetero;
  het2.nthreads = 2;
  std::size_t shadows = 0;
  for (const exec::ExecConfig& e : {dev, het2}) {
    const BuiltRank r(fusion_case(fsbm::Version::kV3Offload3,
                                  exec::FuseMode::kOff,
                                  mem::ResidencyMode::kStep, e));
    const exec::PassGraph& graph = r.rank->scheme().pass_graph();
    for (std::size_t id = 0; id < graph.size(); ++id) {
      const exec::PassNode& node = graph.node(id);
      if (node.kernel_src == nullptr) continue;
      SCOPED_TRACE(node.name + "/exec=" + e.describe());
      const ShadowAccess shadow = shadow_access(node);
      EXPECT_EQ(shadow.reads, std::set<std::string>(node.reads.begin(),
                                                    node.reads.end()));
      EXPECT_EQ(shadow.writes, std::set<std::string>(node.writes.begin(),
                                                     node.writes.end()));
      ++shadows;
    }
  }
  EXPECT_EQ(shadows, 6u);  // cond, coal, sed under each exec space
}

// ---------------------------------------------------------------------
// Golden transfer/launch ledger.  The other tests here compare modes
// against each other; this one pins absolute numbers.  Every cell of
// {v2, v3, v3-naive} x offload_condensation x fuse x res x exec runs
// fusion_case's two steps, and each step's FSBM traffic (h2d/d2h bytes
// and transfer counts), FSBM kernel launches and the names of every
// kernel the rank's device ran must match the recorded table, as must
// the run's final state hash and a digest of every launch's geometry
// (name, iterations, fused passes, occupancy, flops).  The table was
// recorded before the pass executor derived its transfers from the
// PassNode access sets, so any drift in the derived traffic or in the
// kernels it builds fails here.
//
// The modeled kernel milliseconds are pinned to 1%, not exactly: the
// cache model replays the traced lanes' real heap addresses, so hit
// rates move with the allocation layout from process to process (and
// from run to run inside one process, once threads have touched the
// heap).  Everything the model prices that does not depend on
// addresses is in the exact geometry digest.

struct LedgerRow {
  const char* label;
  std::uint64_t h2d_bytes[2], d2h_bytes[2];
  std::uint64_t h2d_transfers[2], d2h_transfers[2];
  std::uint64_t launches[2];
  const char* names[2];  ///< run-length encoded: "name*count,..."
  double kernel_ms;
  std::uint64_t geometry;
  std::uint64_t state_hash;
};

// clang-format off
const LedgerRow kLedger[] = {
    {"v2-offload-collapse2/cond=off/fuse=off/res=step/exec=threads:2",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     10.190943856333842, 0x40a7c7d7a7a979d2ull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=off/res=step/exec=device",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     11.190134201488, 0x702447ac052b10faull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=off/res=step/exec=hetero:2",
     {1433088u, 1433088u}, {1419264u, 1419264u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     10.190304413018104, 0x40a7c7d7a7a979d2ull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=off/res=persist/exec=threads:2",
     {2955744u, 2943072u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     10.190362683632006, 0x40a7c7d7a7a979d2ull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=off/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     11.190374951129662, 0x702447ac052b10faull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=off/res=persist/exec=hetero:2",
     {1433088u, 1426944u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     10.190304413018104, 0x40a7c7d7a7a979d2ull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=auto/res=step/exec=threads:2",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     10.190433221743575, 0x40a7c7d7a7a979d2ull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=auto/res=step/exec=device",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     11.190603433273656, 0x702447ac052b10faull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=auto/res=step/exec=hetero:2",
     {1433088u, 1433088u}, {1419264u, 1419264u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     10.190632568580611, 0x40a7c7d7a7a979d2ull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=auto/res=persist/exec=threads:2",
     {2955744u, 2943072u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     10.190661703887567, 0x40a7c7d7a7a979d2ull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=auto/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     11.189735507813912, 0x702447ac052b10faull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=off/fuse=auto/res=persist/exec=hetero:2",
     {1433088u, 1426944u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     10.189461022553694, 0x40a7c7d7a7a979d2ull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=off/res=step/exec=threads:2",
     {5924160u, 5924160u}, {5882976u, 5882976u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     10.418848030395473, 0xe65a4c40fcf4ba0aull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=off/res=step/exec=device",
     {5924160u, 5924160u}, {5882976u, 5882976u},
     {21u, 21u}, {17u, 17u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1"},
     11.398989106618599, 0xb0fd4a2952d4cfbcull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=off/res=step/exec=hetero:2",
     {4401504u, 4401504u}, {4375008u, 4375008u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     10.418848030395473, 0xe65a4c40fcf4ba0aull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=off/res=persist/exec=threads:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     10.418848030395473, 0xe65a4c40fcf4ba0aull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=off/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1"},
     11.398848030395461, 0xb0fd4a2952d4cfbcull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=off/res=persist/exec=hetero:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     10.419124415779741, 0xe65a4c40fcf4ba0aull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=auto/res=step/exec=threads:2",
     {5924160u, 5924160u}, {5882976u, 5882976u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     10.419528876515834, 0xe65a4c40fcf4ba0aull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=auto/res=step/exec=device",
     {5924160u, 5924160u}, {5882976u, 5882976u},
     {21u, 21u}, {17u, 17u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1"},
     11.398848030395461, 0xb0fd4a2952d4cfbcull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=auto/res=step/exec=hetero:2",
     {4401504u, 4401504u}, {4375008u, 4375008u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     10.418719221670003, 0xe65a4c40fcf4ba0aull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=auto/res=persist/exec=threads:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     10.419064245041799, 0xe65a4c40fcf4ba0aull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=auto/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1"},
     11.398719221669994, 0xb0fd4a2952d4cfbcull, 0xcb681b805842d6ffull},
    {"v2-offload-collapse2/cond=on/fuse=auto/res=persist/exec=hetero:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     10.418719221670003, 0xe65a4c40fcf4ba0aull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=off/res=step/exec=threads:2",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.72263354750009445, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=off/res=step/exec=device",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     1.7226832926967461, 0x58cb567660e099c4ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=off/res=step/exec=hetero:2",
     {1433088u, 1433088u}, {1419264u, 1419264u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.72269105548220991, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=off/res=persist/exec=threads:2",
     {2955744u, 2943072u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.72304655937165352, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=off/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     1.7231694965455435, 0x58cb567660e099c4ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=off/res=persist/exec=hetero:2",
     {1433088u, 1426944u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.723239520038918, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=auto/res=step/exec=threads:2",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.72263259695493565, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=auto/res=step/exec=device",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     1.7232395200389186, 0x58cb567660e099c4ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=auto/res=step/exec=hetero:2",
     {1433088u, 1433088u}, {1419264u, 1419264u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.72332649492096124, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=auto/res=persist/exec=threads:2",
     {2955744u, 2943072u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.72305891645871967, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=auto/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     1.7230791947554442, 0x58cb567660e099c4ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=off/fuse=auto/res=persist/exec=hetero:2",
     {1433088u, 1426944u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.72305764906517456, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=off/res=step/exec=threads:2",
     {5924160u, 5924160u}, {5882976u, 5882976u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.95289354148095817, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=off/res=step/exec=device",
     {5924160u, 5924160u}, {5882976u, 5882976u},
     {21u, 21u}, {17u, 17u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1"},
     1.9322300609600191, 0xb8c1715fe8853272ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=off/res=step/exec=hetero:2",
     {4401504u, 4401504u}, {4375008u, 4375008u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.95196279934616368, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=off/res=persist/exec=threads:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.95208668706521205, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=off/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1"},
     1.9320866870652127, 0xb8c1715fe8853272ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=off/res=persist/exec=hetero:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.95208969712488212, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=auto/res=step/exec=threads:2",
     {2968416u, 2968416u}, {2955744u, 2955744u},
     {11u, 11u}, {10u, 10u}, {1u, 1u},
     {"onecond_coal_fused*1",
      "onecond_coal_fused*1"},
     0.82367521356924045, 0x9642e3d0a925bd8cull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=auto/res=step/exec=device",
     {2968416u, 2968416u}, {2955744u, 2955744u},
     {11u, 11u}, {10u, 10u}, {2u, 2u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_coal_fused*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_coal_fused*1,sedimentation*1"},
     1.8036752135692411, 0x5ea647c9ec0069eaull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=auto/res=step/exec=hetero:2",
     {4401504u, 4401504u}, {4375008u, 4375008u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.95218110788433374, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=auto/res=persist/exec=threads:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {1u, 1u},
     {"onecond_coal_fused*1",
      "onecond_coal_fused*1"},
     0.82400035109028757, 0x9642e3d0a925bd8cull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=auto/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {2u, 2u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_coal_fused*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_coal_fused*1,sedimentation*1"},
     1.8039543560263349, 0x5ea647c9ec0069eaull, 0xcb681b805842d6ffull},
    {"v3-offload-collapse3/cond=on/fuse=auto/res=persist/exec=hetero:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.95216827552468764, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=off/res=step/exec=threads:2",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.71464055124869197, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=off/res=step/exec=device",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     1.7146405512486929, 0x58cb567660e099c4ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=off/res=step/exec=hetero:2",
     {1433088u, 1433088u}, {1419264u, 1419264u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.71462186248271942, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=off/res=persist/exec=threads:2",
     {2955744u, 2943072u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.71464055124869197, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=off/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     1.7146405512486929, 0x58cb567660e099c4ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=off/res=persist/exec=hetero:2",
     {1433088u, 1426944u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.71462186248271942, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=auto/res=step/exec=threads:2",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.71464601411874562, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=auto/res=step/exec=device",
     {2955744u, 2955744u}, {2927232u, 2927232u},
     {10u, 10u}, {7u, 7u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     1.7146460141187461, 0x58cb567660e099c4ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=auto/res=step/exec=hetero:2",
     {1433088u, 1433088u}, {1419264u, 1419264u},
     {10u, 10u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.71464601411874562, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=auto/res=persist/exec=threads:2",
     {2955744u, 2943072u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.71464055124869197, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=auto/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,pass_physics*1,coal_bott_new_loop*1,sedimentation*1"},
     1.7146405512486929, 0x58cb567660e099c4ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=off/fuse=auto/res=persist/exec=hetero:2",
     {1433088u, 1426944u}, {1419264u, 1419264u},
     {10u, 9u}, {7u, 7u}, {1u, 1u},
     {"coal_bott_new_loop*1",
      "coal_bott_new_loop*1"},
     0.71464055124869197, 0xbd46295a827c9c22ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=off/res=step/exec=threads:2",
     {5924160u, 5924160u}, {5882976u, 5882976u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.94403982658813657, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=off/res=step/exec=device",
     {5924160u, 5924160u}, {5882976u, 5882976u},
     {21u, 21u}, {17u, 17u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1"},
     1.9240320635622719, 0xb8c1715fe8853272ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=off/res=step/exec=hetero:2",
     {4401504u, 4401504u}, {4375008u, 4375008u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.94403982658813657, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=off/res=persist/exec=threads:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.94403982658813657, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=off/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {3u, 3u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_loop*1,coal_bott_new_loop*1,sedimentation*1"},
     1.9240398265881373, 0xb8c1715fe8853272ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=off/res=persist/exec=hetero:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.94405851535410945, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=auto/res=step/exec=threads:2",
     {2968416u, 2968416u}, {2955744u, 2955744u},
     {11u, 11u}, {10u, 10u}, {1u, 1u},
     {"onecond_coal_fused*1",
      "onecond_coal_fused*1"},
     0.79134148527336634, 0x9642e3d0a925bd8cull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=auto/res=step/exec=device",
     {2968416u, 2968416u}, {2955744u, 2955744u},
     {11u, 11u}, {10u, 10u}, {2u, 2u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_coal_fused*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_coal_fused*1,sedimentation*1"},
     1.7713414852733669, 0x5ea647c9ec0069eaull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=auto/res=step/exec=hetero:2",
     {4401504u, 4401504u}, {4375008u, 4375008u},
     {21u, 21u}, {17u, 17u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.94405851535410945, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=auto/res=persist/exec=threads:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {1u, 1u},
     {"onecond_coal_fused*1",
      "onecond_coal_fused*1"},
     0.79134148527336634, 0x9642e3d0a925bd8cull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=auto/res=persist/exec=device",
     {2968416u, 0u}, {0u, 0u},
     {11u, 0u}, {0u, 0u}, {2u, 2u},
     {"rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_coal_fused*1,sedimentation*1",
      "rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,rk_scalar_tend*1,rk_scalar_tend_bins*7,rk_update_scalar*1,rk_update_scalar_bins*7,onecond_coal_fused*1,sedimentation*1"},
     1.7713250180136946, 0x5ea647c9ec0069eaull, 0xcb681b805842d6ffull},
    {"v3-naive-collapse3/cond=on/fuse=auto/res=persist/exec=hetero:2",
     {2968416u, 2939904u}, {2927232u, 2939904u},
     {11u, 8u}, {7u, 8u}, {2u, 2u},
     {"onecond_loop*1,coal_bott_new_loop*1",
      "onecond_loop*1,coal_bott_new_loop*1"},
     0.94405851535410945, 0x706e5234a6fa9d66ull, 0xcb681b805842d6ffull},
};
// clang-format on

struct Measured {
  std::string label;
  std::uint64_t h2d_bytes[2], d2h_bytes[2];
  std::uint64_t h2d_transfers[2], d2h_transfers[2];
  std::uint64_t launches[2];
  std::string names[2];
  double kernel_ms;
  std::uint64_t geometry;
  std::uint64_t state_hash;
};

/// FNV-1a over the bytes of `v`, folded into `h`.
template <class T>
void fnv(std::uint64_t& h, const T& v) {
  unsigned char b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));
  for (const unsigned char c : b) {
    h = (h ^ c) * 1099511628211ull;
  }
}

Measured measure(const std::string& label, const model::RunConfig& cfg) {
  const auto patches = grid::decompose(cfg.domain(), 1, 1, cfg.halo);
  model::RankModel rank(cfg, patches[0], nullptr);
  rank.init();
  prof::Profiler prof;
  Measured m;
  m.label = label;
  gpu::Device& dev = *rank.device();
  for (int s = 0; s < 2; ++s) {
    const std::size_t n0 = dev.launches().size();
    const fsbm::FsbmStats st = rank.step(prof).fsbm;
    m.h2d_bytes[s] = st.h2d_bytes;
    m.d2h_bytes[s] = st.d2h_bytes;
    m.h2d_transfers[s] = st.h2d_transfers;
    m.d2h_transfers[s] = st.d2h_transfers;
    m.launches[s] = st.kernel_launches;
    const auto& ls = dev.launches();
    for (std::size_t n = n0; n < ls.size();) {
      std::size_t e = n;
      while (e < ls.size() && ls[e].name == ls[n].name) ++e;
      if (!m.names[s].empty()) m.names[s] += ",";
      m.names[s] += ls[n].name + "*" + std::to_string(e - n);
      n = e;
    }
  }
  m.kernel_ms = dev.total_kernel_ms();
  m.geometry = 14695981039346656037ull;
  for (const gpu::KernelStats& k : dev.launches()) {
    for (const char c : k.name) fnv(m.geometry, c);
    fnv(m.geometry, k.iterations);
    fnv(m.geometry, k.fused_passes);
    fnv(m.geometry, k.occupancy.blocks_per_sm_resource);
    fnv(m.geometry, k.occupancy.achieved);
    fnv(m.geometry, k.flops);
  }
  model::RunResult rr;
  rr.snapshots.push_back(rank.snapshot());
  m.state_hash = model::state_hash(rr);
  return m;
}

/// The measured row in kLedger's source syntax.
std::string format_row(const Measured& m) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "    {\"%s\",\n"
      "     {%lluu, %lluu}, {%lluu, %lluu},\n"
      "     {%lluu, %lluu}, {%lluu, %lluu}, {%lluu, %lluu},\n"
      "     {\"%s\",\n"
      "      \"%s\"},\n"
      "     %.17g, 0x%016llxull, 0x%016llxull},\n",
      m.label.c_str(), static_cast<unsigned long long>(m.h2d_bytes[0]),
      static_cast<unsigned long long>(m.h2d_bytes[1]),
      static_cast<unsigned long long>(m.d2h_bytes[0]),
      static_cast<unsigned long long>(m.d2h_bytes[1]),
      static_cast<unsigned long long>(m.h2d_transfers[0]),
      static_cast<unsigned long long>(m.h2d_transfers[1]),
      static_cast<unsigned long long>(m.d2h_transfers[0]),
      static_cast<unsigned long long>(m.d2h_transfers[1]),
      static_cast<unsigned long long>(m.launches[0]),
      static_cast<unsigned long long>(m.launches[1]), m.names[0].c_str(),
      m.names[1].c_str(), m.kernel_ms,
      static_cast<unsigned long long>(m.geometry),
      static_cast<unsigned long long>(m.state_hash));
  return buf;
}

TEST(Fusion, GoldenTransferAndLaunchLedger) {
  exec::ExecConfig thr2;
  thr2.kind = exec::ExecKind::kThreads;
  thr2.nthreads = 2;
  exec::ExecConfig dev;
  dev.kind = exec::ExecKind::kDevice;
  exec::ExecConfig het2;
  het2.kind = exec::ExecKind::kHetero;
  het2.nthreads = 2;
  std::size_t checked = 0;
  for (const fsbm::Version v :
       {fsbm::Version::kV2Offload2, fsbm::Version::kV3Offload3,
        fsbm::Version::kV3NaiveCollapse3}) {
    for (const bool cond : {false, true}) {
      for (const exec::FuseMode fuse :
           {exec::FuseMode::kOff, exec::FuseMode::kAuto}) {
        for (const mem::ResidencyMode res :
             {mem::ResidencyMode::kStep, mem::ResidencyMode::kPersist}) {
          for (const exec::ExecConfig& e : {thr2, dev, het2}) {
            model::RunConfig cfg = fusion_case(v, fuse, res, e);
            cfg.fsbm_params.offload_condensation = cond;
            const std::string label =
                std::string(fsbm::version_name(v)) +
                "/cond=" + (cond ? "on" : "off") +
                "/fuse=" + model::knob_name(fuse) +
                "/res=" + model::knob_name(res) +
                "/exec=" + e.describe();
            SCOPED_TRACE(label);
            const Measured m = measure(label, cfg);
            const LedgerRow* g = nullptr;
            for (const LedgerRow& row : kLedger) {
              if (label == row.label) g = &row;
            }
            if (g == nullptr) {
              ADD_FAILURE() << "no golden row; measured:\n" << format_row(m);
              continue;
            }
            ++checked;
            for (int s = 0; s < 2; ++s) {
              SCOPED_TRACE("step " + std::to_string(s));
              EXPECT_EQ(m.h2d_bytes[s], g->h2d_bytes[s]);
              EXPECT_EQ(m.d2h_bytes[s], g->d2h_bytes[s]);
              EXPECT_EQ(m.h2d_transfers[s], g->h2d_transfers[s]);
              EXPECT_EQ(m.d2h_transfers[s], g->d2h_transfers[s]);
              EXPECT_EQ(m.launches[s], g->launches[s]);
              EXPECT_EQ(m.names[s], g->names[s]);
            }
            EXPECT_NEAR(m.kernel_ms, g->kernel_ms, 0.01 * g->kernel_ms);
            EXPECT_EQ(m.geometry, g->geometry);
            EXPECT_EQ(m.state_hash, g->state_hash);
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kLedger));
}

}  // namespace
}  // namespace wrf
