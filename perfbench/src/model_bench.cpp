#include "model_bench.hpp"

#include <malloc.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "dyn/rk3.hpp"
#include "exec/exec.hpp"
#include "gpu/device.hpp"
#include "model/case_conus.hpp"
#include "model/driver.hpp"
#include "model/halo.hpp"
#include "prof/prof.hpp"
#include "spans.hpp"

namespace pb {

using namespace wrf;

namespace {

using Clock = std::chrono::steady_clock;
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Steps per model run.  Part of the recorded reference hashes: changing
// either changes every hash in reference_hashes.hpp.
constexpr int kConusSteps = 2;
constexpr int kDecompSteps = 3;

/// Return freed heap pages to the system before a model run, so every
/// run constructs its fields on fresh pages as a new process would.
/// Without it a later run in the same process sometimes reuses pages an
/// earlier one faulted in, and set-up time flips between a cold and a
/// warm mode from one benchmark run to the next (0.07 s vs 0.03 s on
/// decomp_2x2).
void fresh_heap() { malloc_trim(0); }

double domain_cells(const model::RunConfig& c) {
  return static_cast<double>(c.nx) * c.ny * c.nz;
}

double modeled_ms(const gpu::Device* d) {
  return d != nullptr ? d->total_kernel_ms() + d->transfers().modeled_time_ms
                      : 0.0;
}

gpu::TransferStats transfers(const gpu::Device* d) {
  return d != nullptr ? d->transfers() : gpu::TransferStats{};
}

std::uint64_t hash_of(std::vector<io::Snapshot> snaps) {
  model::RunResult r;
  r.snapshots = std::move(snaps);
  return model::state_hash(r);
}

// ------------------------------------------------------ traced composition

/// The output RankModel::snapshot produces, rebuilt from the composed
/// rank's state (the composition has no RankModel).  The fidelity guard
/// proves the two agree: the composition's state hash must equal
/// run_simulation's.
io::Snapshot output_snapshot(const fsbm::MicroState& st,
                             const grid::Patch& p) {
  io::Snapshot snap;
  const std::int64_t ni = p.ip.size(), nk = p.k.size(), nj = p.jp.size();
  auto dump3 = [&](const Field3D<float>& f, const char* name) {
    std::vector<float> data;
    data.reserve(static_cast<std::size_t>(ni * nk * nj));
    for (int j = p.jp.lo; j <= p.jp.hi; ++j)
      for (int k = p.k.lo; k <= p.k.hi; ++k)
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) data.push_back(f(i, k, j));
    snap.add(name, {nj, nk, ni}, std::move(data));
  };
  dump3(st.qv, "QVAPOR");
  dump3(st.temp, "T");
  for (int s = 0; s < fsbm::kNumSpecies; ++s) {
    std::vector<float> data;
    data.reserve(static_cast<std::size_t>(ni * nk * nj));
    const auto& f = st.ff[static_cast<std::size_t>(s)];
    for (int j = p.jp.lo; j <= p.jp.hi; ++j) {
      for (int k = p.k.lo; k <= p.k.hi; ++k) {
        for (int i = p.ip.lo; i <= p.ip.hi; ++i) {
          float q = 0.0f;
          const float* sl = f.slice(i, k, j);
          for (int n = 0; n < st.bins.nkr(); ++n) q += sl[n];
          data.push_back(q);
        }
      }
    }
    snap.add(std::string("Q_") +
                 fsbm::species_name(static_cast<fsbm::Species>(s)),
             {nj, nk, ni}, std::move(data));
  }
  std::vector<float> rain;
  rain.reserve(static_cast<std::size_t>(ni * nj));
  for (int j = p.jp.lo; j <= p.jp.hi; ++j)
    for (int i = p.ip.lo; i <= p.ip.hi; ++i) rain.push_back(st.precip(i, 0, j));
  snap.add("RAINNC", {nj, ni}, std::move(rain));
  return snap;
}

/// The bench-side dyn::HaloPhases: HaloExchange::begin/finish plus the
/// domain-boundary fill, each spanned, with the same transfer charging
/// and residency marks as the model driver's adapter.  Round 0 skips
/// the transport mark: its halo carries the previous step's state.
class SpannedHalo final : public dyn::HaloPhases {
 public:
  SpannedHalo(Track& tr, par::RankCtx& ctx, const grid::Patch& patch,
              model::HaloExchange& halo, fsbm::FastSbm& scheme,
              gpu::Device* device, fsbm::FsbmStats& st)
      : tr_(tr), ctx_(ctx), patch_(patch), halo_(halo), scheme_(scheme),
        device_(device), st_(st) {}

  void begin(fsbm::MicroState&) override {
    if (round_++ > 0) {
      tr_.time("fsbm.mark_transport_writes",
               [&] { scheme_.mark_transport_writes(&st_); });
    }
    tr_.time("model.halo_begin", [&] {
      if (ctx_.size() <= 1) return;
      const gpu::TransferStats x0 = transfers(device_);
      halo_.begin(ctx_);
      if (device_ != nullptr) st_.charge_transfer_delta(x0, transfers(device_));
    });
  }

  void finish(fsbm::MicroState& s) override {
    tr_.time("model.halo_finish", [&] {
      if (ctx_.size() > 1) halo_.finish(ctx_);
      dyn::fill_domain_boundaries(patch_, s.qv);
      for (auto& f : s.ff) dyn::fill_domain_boundaries_bins(patch_, f);
    });
  }

 private:
  Track& tr_;
  par::RankCtx& ctx_;
  const grid::Patch& patch_;
  model::HaloExchange& halo_;
  fsbm::FastSbm& scheme_;
  gpu::Device* device_;
  fsbm::FsbmStats& st_;
  int round_ = 0;
};

/// What one composed rank hands back.
struct RankOut {
  fsbm::FsbmStats fsbm;
  io::Snapshot snap;
  double dyn_cells = 0.0;
  double launches = 0.0, kernel_ms = 0.0, kernel_flops = 0.0,
         kernel_dram_bytes = 0.0;
  gpu::TransferStats xfer;  ///< stepping-window delta
};

void compose_rank(const model::RunConfig& cfg, const grid::Patch& patch,
                  par::RankCtx& ctx, Track& tr, RankOut& out) {
  prof::Profiler prof;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<exec::ExecSpace> space;
  std::unique_ptr<fsbm::MicroState> state;
  std::unique_ptr<fsbm::FastSbm> scheme;
  std::unique_ptr<dyn::Rk3> rk3;
  std::unique_ptr<model::HaloExchange> halo;
  {
    Track::Scope setup(tr, "run.setup");
    state = tr.time("model.state_ctor", [&] {
      return std::make_unique<fsbm::MicroState>(patch, cfg.nkr);
    });
    if (cfg.offloaded() || cfg.exec.kind == exec::ExecKind::kDevice ||
        cfg.exec.kind == exec::ExecKind::kHetero) {
      device = tr.time("gpu.device_ctor", [&] {
        auto d = std::make_unique<gpu::Device>(cfg.device_spec);
        d->set_stack_limit(cfg.stack_bytes);
        d->set_heap_limit(cfg.heap_bytes);
        return d;
      });
    }
    space = tr.time("exec.make_space",
                    [&] { return exec::make_space(cfg.exec, device.get()); });
    fsbm::FsbmParams params = cfg.fsbm_params;
    params.dt = cfg.dt;
    params.sed.dz = cfg.dz;
    params.sed_dispatch = cfg.sed;
    params.residency = cfg.res;
    params.fuse = cfg.fuse;
    params.phys = cfg.phys;
    scheme = tr.time("fsbm.ctor", [&] {
      return std::make_unique<fsbm::FastSbm>(patch, cfg.nkr, cfg.version,
                                             params, device.get(),
                                             space.get());
    });
    rk3 = tr.time("dyn.rk3_ctor", [&] {
      dyn::AdvConfig adv;
      adv.dx = cfg.dx;
      adv.dy = cfg.dx;
      adv.dz = cfg.dz;
      return std::make_unique<dyn::Rk3>(patch, cfg.nkr, adv, cfg.dt,
                                        space.get(), cfg.halo_mode);
    });
    halo = tr.time("model.halo_ctor", [&] {
      auto h = std::make_unique<model::HaloExchange>(patch, space.get());
      const auto& rf = scheme->residency_fields();
      const bool persist = cfg.res == mem::ResidencyMode::kPersist &&
                           scheme->region() != nullptr;
      if (persist) h->set_region(scheme->region());
      h->add(&state->qv, persist ? rf.qv : mem::kInvalidField);
      for (int s = 0; s < fsbm::kNumSpecies; ++s) {
        const auto si = static_cast<std::size_t>(s);
        h->add_bins(&state->ff[si], persist ? rf.ff[si] : mem::kInvalidField);
      }
      return h;
    });
    tr.time("model.init", [&] { model::init_case_conus(cfg, *state); });
  }

  dyn::AnalyticWinds winds;
  winds.domain = cfg.domain();
  winds.dx = cfg.dx;
  winds.dz = cfg.dz;
  winds.yc = 0.42;
  winds.xc = 0.5;

  const std::size_t launches0 =
      device != nullptr ? device->launches().size() : 0;
  const double kernel_ms0 = device != nullptr ? device->total_kernel_ms() : 0;
  const gpu::TransferStats x0 = transfers(device.get());
  {
    Track::Scope stepping(tr, "run.stepping");
    for (int s = 0; s < cfg.nsteps; ++s) {
      Track::Scope step(tr, "run.step");
      SpannedHalo phases(tr, ctx, patch, *halo, *scheme, device.get(),
                         out.fsbm);
      const dyn::Rk3Stats ds = tr.time("dyn.rk3_step", [&] {
        return rk3->step(*state, winds, phases, prof);
      });
      out.dyn_cells += static_cast<double>(ds.tend.cells + ds.update.cells);
      tr.time("fsbm.mark_transport_writes",
              [&] { scheme->mark_transport_writes(&out.fsbm); });
      out.fsbm.merge(
          tr.time("fsbm.step", [&] { return scheme->step(*state, prof); }));
      tr.time("par.barrier", [&] { ctx.barrier(); });
    }
  }
  if (device != nullptr) {
    const auto& ls = device->launches();
    out.launches = static_cast<double>(ls.size() - launches0);
    out.kernel_ms = device->total_kernel_ms() - kernel_ms0;
    for (std::size_t i = launches0; i < ls.size(); ++i) {
      out.kernel_flops += ls[i].flops;
      out.kernel_dram_bytes += (ls[i].dram_read_gb + ls[i].dram_write_gb) * 1e9;
    }
    const gpu::TransferStats x1 = device->transfers();
    out.xfer.h2d_bytes = x1.h2d_bytes - x0.h2d_bytes;
    out.xfer.d2h_bytes = x1.d2h_bytes - x0.d2h_bytes;
    out.xfer.h2d_count = x1.h2d_count - x0.h2d_count;
    out.xfer.d2h_count = x1.d2h_count - x0.d2h_count;
    out.xfer.modeled_time_ms = x1.modeled_time_ms - x0.modeled_time_ms;
  }

  tr.time("io.snapshot", [&] {
    // res=persist: the pre-output d2h flush RankModel::snapshot issues,
    // charged like the run helpers charge it.
    if (cfg.res == mem::ResidencyMode::kPersist &&
        scheme->region() != nullptr) {
      const gpu::TransferStats s0 = transfers(device.get());
      scheme->region()->update_from_all();
      out.fsbm.charge_transfer_delta(s0, transfers(device.get()));
    }
    out.snap = output_snapshot(*state, patch);
  });
}

/// Latest end among spans called `name` (the slowest rank).
double last_end(const std::vector<Span>& spans, const std::string& name) {
  double t = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) t = std::max(t, s.end);
  }
  return t;
}

}  // namespace

bool all_finite(const std::vector<io::Snapshot>& snaps) {
  for (const io::Snapshot& s : snaps) {
    for (const io::Variable& v : s.variables()) {
      for (float x : v.data) {
        if (!std::isfinite(x)) return false;
      }
    }
  }
  return true;
}

double payload_bytes(const std::vector<io::Snapshot>& snaps) {
  double b = 0.0;
  for (const io::Snapshot& s : snaps) {
    for (const io::Variable& v : s.variables()) {
      b += static_cast<double>(v.data.size() * sizeof(float));
    }
  }
  return b;
}

model::RunConfig conus_patch_config(std::uint64_t case_seed) {
  model::RunConfig c;
  c.nx = 107;
  c.ny = 75;
  c.nz = 50;
  c.npx = 1;
  c.npy = 1;
  c.nsteps = kConusSteps;
  c.version = fsbm::Version::kV3Offload3;
  c.fsbm_params.offload_condensation = true;
  c.fuse = exec::FuseMode::kAuto;
  c.res = mem::ResidencyMode::kPersist;
  c.exec = exec::ExecConfig::parse("device");
  c.sed = fsbm::SedDispatch::parse("block:32");
  c.phys = fsbm::PhysScheme::kBin;
  c.seed = case_seed;
  return c;
}

model::RunConfig decomp_2x2_config(std::uint64_t case_seed) {
  model::RunConfig c;  // 64x48x24 on 2x2 ranks, every knob at its default
  c.nsteps = kDecompSteps;
  c.seed = case_seed;
  return c;
}

ModelOp run_model_op(const model::RunConfig& cfg) {
  cfg.validate();
  fresh_heap();
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  const auto n = static_cast<std::size_t>(cfg.nranks());
  std::vector<double> setup_end(n), step_end(n), snap_end(n), snap_s(n),
      gpu_ms(n);
  std::vector<io::Snapshot> snaps(n);
  prof::Profiler prof;
  const auto t0 = Clock::now();
  par::run(cfg.nranks(), [&](par::RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    model::RankModel rm(cfg, patches[r], &ctx);
    rm.init();
    setup_end[r] = since(t0);
    const double g0 = modeled_ms(rm.device());
    for (int s = 0; s < cfg.nsteps; ++s) {
      rm.step(prof);
      ctx.barrier();
    }
    step_end[r] = since(t0);
    gpu_ms[r] = modeled_ms(rm.device()) - g0;
    const auto ts = Clock::now();
    snaps[r] = rm.snapshot();
    snap_s[r] = since(ts);
    snap_end[r] = since(t0);
  });
  ModelOp op;
  double gpu = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    op.setup_s = std::max(op.setup_s, setup_end[r]);
    op.stepping_s = std::max(op.stepping_s, step_end[r]);
    op.solution_s = std::max(op.solution_s, snap_end[r]);
    op.snapshot_s += snap_s[r];
    gpu += gpu_ms[r];
  }
  op.stepping_s -= op.setup_s;
  op.cellsteps = domain_cells(cfg) * cfg.nsteps;
  op.modeled_gpu_ms = gpu;
  op.snapshot_bytes = payload_bytes(snaps);
  op.out.finite = all_finite(snaps);
  op.out.hash = hash_of(std::move(snaps));
  return op;
}

std::uint64_t reference_hash(const model::RunConfig& cfg) {
  prof::Profiler prof;
  return model::state_hash(model::run_simulation(cfg, prof));
}

TracedModel run_traced_model(const model::RunConfig& cfg,
                             const std::string& spans_path) {
  cfg.validate();
  const double steps = cfg.nsteps;

  // 1. Untraced: the tracing-overhead baseline and the output payload.
  const ModelOp plain = run_model_op(cfg);

  // 2. The fidelity reference: the program's own entry point.
  model::RunResult ref;
  {
    fresh_heap();
    prof::Profiler prof;
    ref = model::run_simulation(cfg, prof);
  }
  const std::uint64_t ref_hash = model::state_hash(ref);

  // 3. The traced composition.
  const auto patches =
      grid::decompose(cfg.domain(), cfg.npx, cfg.npy, cfg.halo);
  const auto n = static_cast<std::size_t>(cfg.nranks());
  std::vector<RankOut> outs(n);
  SpanRecorder rec;
  fresh_heap();
  const par::RunStats comm = par::run(cfg.nranks(), [&](par::RankCtx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    Track tr(rec, 0, ctx.rank());
    Track::Scope root(tr, "run.rank");
    compose_rank(cfg, patches[r], ctx, tr, outs[r]);
  });
  if (!spans_path.empty()) rec.write_json(spans_path);

  fsbm::FsbmStats fs;
  RankOut sum;
  std::vector<io::Snapshot> snaps;
  for (RankOut& o : outs) {
    fs.merge(o.fsbm);
    sum.dyn_cells += o.dyn_cells;
    sum.launches += o.launches;
    sum.kernel_ms += o.kernel_ms;
    sum.kernel_flops += o.kernel_flops;
    sum.kernel_dram_bytes += o.kernel_dram_bytes;
    sum.xfer.h2d_bytes += o.xfer.h2d_bytes;
    sum.xfer.d2h_bytes += o.xfer.d2h_bytes;
    sum.xfer.h2d_count += o.xfer.h2d_count;
    sum.xfer.d2h_count += o.xfer.d2h_count;
    sum.xfer.modeled_time_ms += o.xfer.modeled_time_ms;
    snaps.push_back(std::move(o.snap));
  }

  Output composed;
  composed.finite = all_finite(snaps);
  composed.hash = hash_of(std::move(snaps));
  TracedModel out;
  out.outputs = {{"untraced run", plain.out},
                 {"run_simulation", {ref_hash, all_finite(ref.snapshots)}},
                 {"traced composition", composed}};
  const fsbm::FsbmStats& rf = ref.totals.fsbm;
  if (composed.hash != ref_hash || fs.h2d_bytes != rf.h2d_bytes ||
      fs.d2h_bytes != rf.d2h_bytes ||
      fs.kernel_launches != rf.kernel_launches) {
    throw std::runtime_error(
        "traced composition diverges from run_simulation: hash " +
        std::to_string(composed.hash) + " vs " + std::to_string(ref_hash) +
        ", h2d " + std::to_string(fs.h2d_bytes) + " vs " +
        std::to_string(rf.h2d_bytes) + ", d2h " + std::to_string(fs.d2h_bytes) +
        " vs " + std::to_string(rf.d2h_bytes) + ", launches " +
        std::to_string(fs.kernel_launches) + " vs " +
        std::to_string(rf.kernel_launches));
  }

  const std::vector<Span> spans = rec.spans();
  const double traced_stepping =
      last_end(spans, "run.stepping") - last_end(spans, "run.setup");
  const double cellsteps = domain_cells(cfg) * steps;

  Metrics& m = out.layers;
  m["dyn.busy_s"] = total_self(spans, "dyn.rk3_step") / steps;
  m["dyn.cells"] = sum.dyn_cells / steps;
  m["model.halo_begin_s"] = total_duration(spans, "model.halo_begin") / steps;
  m["model.halo_finish_s"] = total_duration(spans, "model.halo_finish") / steps;
  m["model.init_s"] = total_duration(spans, "model.init");
  m["par.barrier_wait_s"] = total_duration(spans, "par.barrier") / steps;
  m["par.comm_wait_s"] = comm.total_wait_sec() / steps;
  m["par.messages"] = static_cast<double>(comm.total_messages()) / steps;
  m["par.bytes"] = static_cast<double>(comm.total_bytes()) / steps;
  m["fsbm.busy_s"] = total_duration(spans, "fsbm.step") / steps;
  m["fsbm.ctor_s"] = total_duration(spans, "fsbm.ctor");
  m["fsbm.cells_active"] = static_cast<double>(fs.cells_active) / steps;
  m["fsbm.cells_coal"] = static_cast<double>(fs.cells_coal) / steps;
  m["fsbm.coal_interactions"] =
      static_cast<double>(fs.coal_interactions) / steps;
  m["fsbm.flops"] = (fs.coal_flops + fs.cond_flops + fs.nucl_flops +
                     fs.sed_flops + fs.bulk_flops) /
                    steps;
  m["fsbm.sed_substeps"] = static_cast<double>(fs.sed_substeps) / steps;
  m["fsbm.sed_tv_lookups"] = static_cast<double>(fs.sed_tv_lookups) / steps;
  m["fsbm.cells_bin"] = static_cast<double>(fs.cells_bin) / steps;
  m["fsbm.cells_bulk"] = static_cast<double>(fs.cells_bulk) / steps;
  m["gpu.kernel_launches"] = sum.launches / steps;
  m["gpu.kernel_modeled_ms"] = sum.kernel_ms / steps;
  m["gpu.kernel_flops"] = sum.kernel_flops / steps;
  m["gpu.kernel_dram_bytes"] = sum.kernel_dram_bytes / steps;
  m["gpu.device_ctor_s"] = total_duration(spans, "gpu.device_ctor");
  m["gpu.modeled_ms_per_step"] =
      (sum.kernel_ms + sum.xfer.modeled_time_ms) / steps;
  m["mem.h2d_bytes"] = static_cast<double>(sum.xfer.h2d_bytes) / steps;
  m["mem.d2h_bytes"] = static_cast<double>(sum.xfer.d2h_bytes) / steps;
  m["mem.transfers"] =
      static_cast<double>(sum.xfer.h2d_count + sum.xfer.d2h_count) / steps;
  m["mem.xfer_modeled_ms"] = sum.xfer.modeled_time_ms / steps;
  m["io.snapshot_s"] = plain.snapshot_s;
  m["io.snapshot_bytes"] = plain.snapshot_bytes;
  m["trace.overhead_frac"] =
      1.0 - (cellsteps / traced_stepping) /
                (plain.cellsteps / plain.stepping_s);
  m["trace.unattributed_frac"] = unattributed_fraction(spans, "run.stepping");
  return out;
}

}  // namespace pb
