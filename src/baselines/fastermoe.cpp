#include "baselines/fastermoe.h"

#include <algorithm>

#include "comm/collectives.h"
#include "comm/p2p.h"
#include "common/check.h"
#include "core/restore.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mpipe::baselines {

using core::MoeStepContext;
using sim::OpCategory;
using sim::StreamKind;

namespace {

std::uint64_t model_state_bytes(const FasterMoEOptions& options, int epd) {
  const std::uint64_t params =
      static_cast<std::uint64_t>(options.num_experts) * options.d_model +
      static_cast<std::uint64_t>(epd) *
          (2ull * options.d_model * options.d_hidden + options.d_hidden +
           options.d_model);
  return 4ull * params * sizeof(float);
}

std::string tag(const char* name, int j) {
  return std::string(name) + std::to_string(j);
}

// Hazard declarations for the parallel executor (sim/graph_executor.h):
// every functional op states the byte ranges it touches. The P2P
// gather/scatter ops self-annotate from their segment tables in comm/p2p;
// the expert parameter/gradient declarations are the shared helpers in
// core/restore.h.

}  // namespace

FasterMoELayer::FasterMoELayer(sim::Cluster& cluster,
                               FasterMoEOptions options)
    : cluster_(&cluster),
      options_(std::move(options)),
      world_(comm::ProcessGroup::world(cluster)) {
  const int P = cluster.num_devices();
  MPIPE_EXPECTS(options_.num_experts % P == 0,
                "num_experts must be a multiple of the device count");
  MPIPE_EXPECTS(options_.compute_scale > 0.0, "bad compute scale");
  const int epd = options_.num_experts / P;
  for (int d = 0; d < P; ++d) {
    allocators_.emplace_back(d);
    model_state_allocs_.push_back(allocators_.back().allocate(
        mem::Category::kModelState, model_state_bytes(options_, epd)));
  }
  if (options_.mode == core::ExecutionMode::kFull) {
    Rng master(options_.seed);
    Rng gate_rng = master.fork();
    for (int d = 0; d < P; ++d) {
      Rng replica = gate_rng;
      gates_.emplace_back(options_.d_model, options_.num_experts, replica);
    }
    experts_.resize(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      for (int k = 0; k < epd; ++k) {
        Rng expert_rng = master.fork();
        experts_[static_cast<std::size_t>(d)].emplace_back(
            options_.d_model, options_.d_hidden, options_.activation,
            expert_rng);
      }
    }
  }
}

mem::DeviceAllocator& FasterMoELayer::allocator(int device) {
  MPIPE_EXPECTS(device >= 0 && device < num_devices(),
                "device out of range");
  return allocators_[static_cast<std::size_t>(device)];
}

moe::GatingNetwork& FasterMoELayer::gate(int device) {
  MPIPE_EXPECTS(!gates_.empty(), "no parameters in timing-only mode");
  return gates_[static_cast<std::size_t>(device)];
}

moe::ExpertFFN& FasterMoELayer::expert(int device, int local_index) {
  MPIPE_EXPECTS(!experts_.empty(), "no parameters in timing-only mode");
  return experts_[static_cast<std::size_t>(device)]
                 [static_cast<std::size_t>(local_index)];
}

void FasterMoELayer::setup_forward_buffers(MoeStepContext& ctx) {
  const bool mat = ctx.functional();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const std::int64_t E = options_.num_experts;
  for (int d = 0; d < ctx.num_devices(); ++d) {
    auto& st = ctx.dev[static_cast<std::size_t>(d)];
    auto& alloc = allocator(d);
    st.x_alloc = alloc.allocate(
        mem::Category::kActivation,
        static_cast<std::uint64_t>(B) * M * sizeof(float));
    auto out = alloc.alloc_tensor(Shape{B, M}, mem::Category::kActivation,
                                  mat);
    st.out = out.tensor;
    st.out_alloc = std::move(out.allocation);
    st.gating_alloc = alloc.allocate(
        mem::Category::kActivation,
        static_cast<std::uint64_t>(B) * E * sizeof(float));
    const std::int64_t rows = std::max<std::int64_t>(
        1, ctx.plan.part(0).recv_rows[static_cast<std::size_t>(d)]);
    st.tdi_parts.push_back(
        alloc.alloc_tensor(Shape{rows, M}, mem::Category::kActivation, mat));
    st.tm_parts.push_back(
        alloc.alloc_tensor(Shape{rows, H}, mem::Category::kActivation, mat));
    st.tdo_parts.push_back(
        alloc.alloc_tensor(Shape{rows, M}, mem::Category::kActivation, mat));
  }
}

void FasterMoELayer::setup_backward_buffers(MoeStepContext& ctx) {
  const bool mat = ctx.functional();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  for (int d = 0; d < ctx.num_devices(); ++d) {
    auto& st = ctx.dev[static_cast<std::size_t>(d)];
    auto& alloc = allocator(d);
    auto dx = alloc.alloc_tensor(Shape{B, M}, mem::Category::kTempBuffer,
                                 mat);
    st.dx = dx.tensor;
    st.dx_alloc = std::move(dx.allocation);
    st.dgate.assign(static_cast<std::size_t>(B), 0.0f);
    // Serial gradient scratch, freed eagerly (Eq 3 peak).
    {
      auto walk = alloc.allocate(
          mem::Category::kTempBuffer,
          static_cast<std::uint64_t>(B) * (M + H) * sizeof(float));
    }
    const std::int64_t rows = std::max<std::int64_t>(
        1, ctx.plan.part(0).recv_rows[static_cast<std::size_t>(d)]);
    auto untracked = [&](Shape shape, bool materialize) {
      mem::TrackedTensor t;
      if (materialize) t.tensor = Tensor(shape);
      return t;
    };
    st.d_ys_parts.push_back(untracked(Shape{std::max<std::int64_t>(1, B), M},
                                      mat));
    st.d_tdo_parts.push_back(untracked(Shape{rows, M}, mat));
    st.d_tm_parts.push_back(untracked(Shape{rows, H}, false));
    st.d_tdi_parts.push_back(untracked(Shape{rows, M}, mat));
  }
}

std::int64_t FasterMoELayer::compute_rows(const MoeStepContext& ctx,
                                          int device,
                                          const ShadowingDecision& shadow)
    const {
  const auto& part = ctx.plan.part(0);
  std::int64_t rows = 0;
  if (shadow.is_shadowed(device)) {
    // Only the device's own tokens for its (shadowed) experts remain.
    rows += part.src[static_cast<std::size_t>(device)]
                .send_counts[static_cast<std::size_t>(device)];
  } else {
    rows += part.recv_rows[static_cast<std::size_t>(device)];
  }
  // Tokens this device processes locally on behalf of shadowed experts.
  for (int j : shadow.shadowed) {
    if (j == device) continue;
    rows += part.src[static_cast<std::size_t>(device)]
                .send_counts[static_cast<std::size_t>(j)];
  }
  return rows;
}

sim::OpGraph FasterMoELayer::build_forward(MoeStepContext& ctx,
                                           const ShadowingDecision& shadow) {
  const auto& cost = cluster_->cost_model();
  const int P = ctx.num_devices();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const std::int64_t E = options_.num_experts;
  const double cs = options_.compute_scale;
  const auto& part = ctx.plan.part(0);

  sim::OpGraph g;

  std::vector<int> gate_ops(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    gate_ops[static_cast<std::size_t>(d)] =
        g.add(tag("G", d), OpCategory::kGemm, StreamKind::kCompute, {d},
              cost.gemm_seconds(gemm_flops(B, E, M),
                                std::max<std::int64_t>(B, 1)) /
                  cs,
              {}, nullptr,
              cost.gemm_efficiency(std::max<std::int64_t>(B, 1)));
  }

  // Parameter broadcast for shadowed experts.
  std::vector<int> bcast_ops;
  if (!shadow.shadowed.empty()) {
    // Only the hot expert is replicated, not the destination's whole set.
    const std::uint64_t bytes =
        shadow_bytes_per_destination(M, H, 1) / 2;  // params only, fwd
    for (int j : shadow.shadowed) {
      bcast_ops.push_back(g.add(
          tag("Bcast", j), OpCategory::kBroadcast, StreamKind::kComm,
          world_.devices(),
          cost.broadcast_seconds(bytes, world_.devices()), gate_ops,
          nullptr));
    }
  }

  // Pre-split the functional segment tables by destination / holder.
  std::vector<std::vector<comm::RowSegment>> gather_by_dst(
      static_cast<std::size_t>(P));
  std::vector<std::vector<comm::RowSegment>> scatter_by_src(
      static_cast<std::size_t>(P));
  if (ctx.functional()) {
    for (auto& seg : core::dispatch_segments(ctx, 0)) {
      gather_by_dst[static_cast<std::size_t>(seg.dst_device)].push_back(seg);
    }
    for (auto& seg : core::combine_segments(ctx, 0, false)) {
      scatter_by_src[static_cast<std::size_t>(seg.src_device)].push_back(seg);
    }
  }

  std::vector<std::vector<int>> gather_ops(static_cast<std::size_t>(P));
  std::vector<int> c_ops(static_cast<std::size_t>(P), -1);
  std::vector<std::vector<int>> scatter_ops(static_cast<std::size_t>(P));
  // Per home device: scatter fragments writing into its T_O.
  std::vector<std::vector<int>> arrivals(static_cast<std::size_t>(P));

  auto emit_gather = [&](int j) {
    std::vector<int>& ops = gather_ops[static_cast<std::size_t>(j)];
    const bool shadowed = shadow.is_shadowed(j);
    for (int src = 0; src < P; ++src) {
      if (shadowed && src != j) continue;  // tokens stay home
      const std::int64_t count =
          part.src[static_cast<std::size_t>(src)]
              .send_counts[static_cast<std::size_t>(j)];
      if (count == 0 && src != j) continue;
      if (ctx.functional()) {
        std::vector<comm::RowSegment> segs;
        for (const auto& seg : gather_by_dst[static_cast<std::size_t>(j)]) {
          if (seg.src_device == src) segs.push_back(seg);
        }
        if (segs.empty()) continue;
        ops.push_back(comm::send_recv_multi(
            g, world_, std::move(segs),
            tag("Gth", j) + ".s" + std::to_string(src), gate_ops));
      } else {
        ops.push_back(comm::send_recv_timed(
            g, world_, src, j,
            static_cast<std::uint64_t>(count) * M * sizeof(float),
            tag("Gth", j) + ".s" + std::to_string(src), gate_ops));
      }
    }
  };

  auto emit_compute = [&](int j) {
    std::vector<int> deps = gather_ops[static_cast<std::size_t>(j)];
    for (int op : bcast_ops) deps.push_back(op);
    const std::int64_t rows =
        std::max<std::int64_t>(1, compute_rows(ctx, j, shadow));
    const std::int64_t er =
        std::max<std::int64_t>(1, rows / ctx.plan.experts_per_device);
    const std::uint64_t flops = 2 * gemm_flops(rows, H, M);
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      auto* experts = &experts_;
      fn = [c, experts, j] {
        const auto& spans_of =
            c->plan.part(0).expert_spans[static_cast<std::size_t>(j)];
        for (std::size_t k = 0; k < spans_of.size(); ++k) {
          (*experts)[static_cast<std::size_t>(j)][k].forward_rows(
              core::tdi_buffer(*c, j, 0), spans_of[k],
              core::tm_buffer(*c, j, 0), core::tdo_buffer(*c, j, 0));
        }
      };
    }
    const int id =
        g.add(tag("C", j), OpCategory::kGemm, StreamKind::kCompute, {j},
              cost.gemm_seconds(flops, er) / cs, std::move(deps),
              std::move(fn), cost.gemm_efficiency(er));
    if (ctx.functional()) {
      const std::int64_t recv =
          part.recv_rows[static_cast<std::size_t>(j)];
      sim::Op& op = g.op(id);
      op.reads.push_back(
          sim::access_rows(core::tdi_buffer(ctx, j, 0), 0, recv));
      op.writes.push_back(
          sim::access_rows(core::tm_buffer(ctx, j, 0), 0, recv));
      op.writes.push_back(
          sim::access_rows(core::tdo_buffer(ctx, j, 0), 0, recv));
      core::declare_expert_param_reads(
          op, experts_[static_cast<std::size_t>(j)], /*ffn1=*/true,
          /*ffn2=*/true);
    }
    c_ops[static_cast<std::size_t>(j)] = id;
  };

  auto emit_scatter = [&](int j) {
    const bool shadowed = shadow.is_shadowed(j);
    for (int dst = 0; dst < P; ++dst) {
      if (shadowed && dst != j) continue;
      const std::int64_t count =
          part.src[static_cast<std::size_t>(dst)]
              .send_counts[static_cast<std::size_t>(j)];
      if (count == 0 && dst != j) continue;
      int op = -1;
      if (ctx.functional()) {
        std::vector<comm::RowSegment> segs;
        for (const auto& seg : scatter_by_src[static_cast<std::size_t>(j)]) {
          if (seg.dst_device == dst) segs.push_back(seg);
        }
        if (segs.empty()) continue;
        op = comm::send_recv_multi(
            g, world_, std::move(segs),
            tag("Sct", j) + ".d" + std::to_string(dst),
            {c_ops[static_cast<std::size_t>(j)]});
      } else {
        op = comm::send_recv_timed(
            g, world_, j, dst,
            static_cast<std::uint64_t>(count) * M * sizeof(float),
            tag("Sct", j) + ".d" + std::to_string(dst),
            {c_ops[static_cast<std::size_t>(j)]});
      }
      scatter_ops[static_cast<std::size_t>(j)].push_back(op);
      arrivals[static_cast<std::size_t>(dst)].push_back(op);
    }
  };

  // Enqueue all gathers first so later destinations' receives are not
  // trapped behind earlier scatter arrivals in the receiver FIFO; computes
  // start as their gathers drain, scatters trail the computes.
  for (int j = 0; j < P; ++j) emit_gather(j);
  for (int j = 0; j < P; ++j) emit_compute(j);
  for (int j = 0; j < P; ++j) emit_scatter(j);

  // Gate scaling at home devices.
  for (int d = 0; d < P; ++d) {
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      fn = [c, d] {
        auto& st = c->dev[static_cast<std::size_t>(d)];
        std::vector<float> gate_copy = st.gating.gate;
        scale_rows_(st.out, gate_copy);
      };
    }
    const int id =
        g.add(tag("scale", d), OpCategory::kElementwise,
              StreamKind::kCompute, {d},
              cost.config().compute_launch_latency,
              arrivals[static_cast<std::size_t>(d)], std::move(fn));
    if (ctx.functional()) {
      auto& st = ctx.dev[static_cast<std::size_t>(d)];
      sim::Op& op = g.op(id);
      op.reads.push_back(sim::access_floats(
          st.gating.gate.data(), 0,
          static_cast<std::int64_t>(st.gating.gate.size())));
      op.reads.push_back(sim::access_whole(st.out));
      op.writes.push_back(sim::access_whole(st.out));
    }
  }
  return g;
}

sim::OpGraph FasterMoELayer::build_backward(
    MoeStepContext& ctx, const ShadowingDecision& shadow) {
  const auto& cost = cluster_->cost_model();
  const int P = ctx.num_devices();
  const std::int64_t M = ctx.d_model;
  const std::int64_t H = ctx.d_hidden;
  const std::int64_t B = ctx.plan.tokens_per_device;
  const std::int64_t E = options_.num_experts;
  const double cs = options_.compute_scale;
  const auto& part = ctx.plan.part(0);

  sim::OpGraph g;

  // Gradient scaling + dgate, per home device.
  std::vector<int> bs(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      fn = [c, d] { core::scale_output_grads(*c, d, 0); };
    }
    const int id =
        g.add(tag("bscale", d), OpCategory::kElementwise,
              StreamKind::kCompute, {d},
              cost.config().compute_launch_latency, {}, std::move(fn));
    if (ctx.functional()) {
      auto& st = ctx.dev[static_cast<std::size_t>(d)];
      const auto& routing = part.src[static_cast<std::size_t>(d)];
      sim::Op& op = g.op(id);
      op.reads.push_back(sim::access_whole(st.dy));
      op.reads.push_back(sim::access_whole(st.out));
      op.reads.push_back(sim::access_floats(
          st.gating.gate.data(), 0,
          static_cast<std::int64_t>(st.gating.gate.size())));
      op.writes.push_back(sim::access_floats(
          st.dgate.data(), 0, static_cast<std::int64_t>(st.dgate.size())));
      op.writes.push_back(sim::access_rows(
          core::d_ys_buffer(ctx, d, 0), 0,
          static_cast<std::int64_t>(routing.order.size())));
    }
    bs[static_cast<std::size_t>(d)] = id;
  }

  std::vector<std::vector<comm::RowSegment>> gather_by_dst(
      static_cast<std::size_t>(P));
  std::vector<std::vector<comm::RowSegment>> scatter_by_src(
      static_cast<std::size_t>(P));
  if (ctx.functional()) {
    for (auto& seg : core::grad_dispatch_segments(ctx, 0)) {
      gather_by_dst[static_cast<std::size_t>(seg.dst_device)].push_back(seg);
    }
    for (auto& seg : core::combine_segments(ctx, 0, true)) {
      scatter_by_src[static_cast<std::size_t>(seg.src_device)].push_back(seg);
    }
  }

  std::vector<std::vector<int>> gather_ops(static_cast<std::size_t>(P));
  std::vector<int> c_ops(static_cast<std::size_t>(P), -1);
  std::vector<std::vector<int>> arrivals(static_cast<std::size_t>(P));

  // Same phase ordering as forward: all gradient gathers, then expert
  // backwards, then the gradient scatters.
  for (int j = 0; j < P; ++j) {
    const bool shadowed = shadow.is_shadowed(j);
    for (int src = 0; src < P; ++src) {
      if (shadowed && src != j) continue;
      const std::int64_t count =
          part.src[static_cast<std::size_t>(src)]
              .send_counts[static_cast<std::size_t>(j)];
      if (count == 0 && src != j) continue;
      if (ctx.functional()) {
        std::vector<comm::RowSegment> segs;
        for (const auto& seg : gather_by_dst[static_cast<std::size_t>(j)]) {
          if (seg.src_device == src) segs.push_back(seg);
        }
        if (segs.empty()) continue;
        gather_ops[static_cast<std::size_t>(j)].push_back(
            comm::send_recv_multi(
                g, world_, std::move(segs),
                tag("Gth'", j) + ".s" + std::to_string(src),
                {bs[static_cast<std::size_t>(src)]}));
      } else {
        gather_ops[static_cast<std::size_t>(j)].push_back(
            comm::send_recv_timed(
                g, world_, src, j,
                static_cast<std::uint64_t>(count) * M * sizeof(float),
                tag("Gth'", j) + ".s" + std::to_string(src),
                {bs[static_cast<std::size_t>(src)]}));
      }
    }
  }

  for (int j = 0; j < P; ++j) {
    const bool shadowed = shadow.is_shadowed(j);
    (void)shadowed;
    // Expert backward on j.
    const std::int64_t rows =
        std::max<std::int64_t>(1, compute_rows(ctx, j, shadow));
    const std::int64_t er =
        std::max<std::int64_t>(1, rows / ctx.plan.experts_per_device);
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      auto* experts = &experts_;
      fn = [c, experts, j] {
        const auto& spans_of =
            c->plan.part(0).expert_spans[static_cast<std::size_t>(j)];
        for (std::size_t k = 0; k < spans_of.size(); ++k) {
          (*experts)[static_cast<std::size_t>(j)][k].backward_rows(
              core::d_tdo_buffer(*c, j, 0), core::tdi_buffer(*c, j, 0),
              core::tm_buffer(*c, j, 0), spans_of[k],
              core::d_tdi_buffer(*c, j, 0));
        }
      };
    }
    const int id =
        g.add(tag("Cb", j), OpCategory::kGemm, StreamKind::kCompute, {j},
              cost.gemm_seconds(4 * gemm_flops(rows, H, M), er) / cs,
              gather_ops[static_cast<std::size_t>(j)], std::move(fn),
              cost.gemm_efficiency(er));
    if (ctx.functional()) {
      const std::int64_t recv =
          part.recv_rows[static_cast<std::size_t>(j)];
      sim::Op& op = g.op(id);
      op.reads.push_back(
          sim::access_rows(core::d_tdo_buffer(ctx, j, 0), 0, recv));
      op.reads.push_back(
          sim::access_rows(core::tdi_buffer(ctx, j, 0), 0, recv));
      op.reads.push_back(
          sim::access_rows(core::tm_buffer(ctx, j, 0), 0, recv));
      op.writes.push_back(
          sim::access_rows(core::d_tdi_buffer(ctx, j, 0), 0, recv));
      auto& experts = experts_[static_cast<std::size_t>(j)];
      core::declare_expert_param_reads(op, experts, /*ffn1=*/true,
                                       /*ffn2=*/true);
      core::declare_expert_grad_accum(op, experts);
    }
    c_ops[static_cast<std::size_t>(j)] = id;
  }

  // Scatter input gradients home as each destination's backward finishes.
  for (int j = 0; j < P; ++j) {
    const bool shadowed = shadow.is_shadowed(j);
    for (int dst = 0; dst < P; ++dst) {
      if (shadowed && dst != j) continue;
      const std::int64_t count =
          part.src[static_cast<std::size_t>(dst)]
              .send_counts[static_cast<std::size_t>(j)];
      if (count == 0 && dst != j) continue;
      int op = -1;
      if (ctx.functional()) {
        std::vector<comm::RowSegment> segs;
        for (const auto& seg : scatter_by_src[static_cast<std::size_t>(j)]) {
          if (seg.dst_device == dst) segs.push_back(seg);
        }
        if (segs.empty()) continue;
        op = comm::send_recv_multi(
            g, world_, std::move(segs),
            tag("Sct'", j) + ".d" + std::to_string(dst),
            {c_ops[static_cast<std::size_t>(j)]});
      } else {
        op = comm::send_recv_timed(
            g, world_, j, dst,
            static_cast<std::uint64_t>(count) * M * sizeof(float),
            tag("Sct'", j) + ".d" + std::to_string(dst),
            {c_ops[static_cast<std::size_t>(j)]});
      }
      arrivals[static_cast<std::size_t>(dst)].push_back(op);
    }
  }

  // Shadowed experts trained on several devices need a gradient sync.
  if (!shadow.shadowed.empty()) {
    const std::uint64_t bytes =
        shadow_bytes_per_destination(M, H, 1) / 2;  // gradients
    std::vector<int> deps = c_ops;
    for (int j : shadow.shadowed) {
      g.add(tag("ARshadow", j), OpCategory::kAllReduce, StreamKind::kComm,
            world_.devices(),
            cost.allreduce_seconds(bytes, world_.devices()), deps, nullptr);
    }
  }

  // Gating backward + gradient sync.
  std::vector<int> gb(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    std::vector<int> deps = arrivals[static_cast<std::size_t>(d)];
    deps.push_back(bs[static_cast<std::size_t>(d)]);
    std::function<void()> fn;
    if (ctx.functional()) {
      auto* c = &ctx;
      auto* gates = &gates_;
      fn = [c, gates, d] {
        auto& st = c->dev[static_cast<std::size_t>(d)];
        Tensor dxg = (*gates)[static_cast<std::size_t>(d)].backward(
            st.x, st.gating, st.dgate);
        add_(st.dx, dxg);
      };
    }
    const int id =
        g.add(tag("Gb", d), OpCategory::kGemm, StreamKind::kCompute, {d},
              cost.gemm_seconds(2 * gemm_flops(B, E, M),
                                std::max<std::int64_t>(B, 1)) /
                  cs,
              std::move(deps), std::move(fn),
              cost.gemm_efficiency(std::max<std::int64_t>(B, 1)));
    if (ctx.functional()) {
      auto& st = ctx.dev[static_cast<std::size_t>(d)];
      auto& gate = gates_[static_cast<std::size_t>(d)];
      sim::Op& op = g.op(id);
      op.reads.push_back(sim::access_whole(st.x));
      op.reads.push_back(sim::access_whole(st.gating.probs));
      op.reads.push_back(sim::access_whole(gate.weight()));
      op.reads.push_back(sim::access_floats(
          st.dgate.data(), 0, static_cast<std::int64_t>(st.dgate.size())));
      op.reads.push_back(sim::access_whole(st.dx));
      op.writes.push_back(sim::access_whole(st.dx));
      op.reads.push_back(sim::access_whole(gate.weight_grad()));
      op.writes.push_back(sim::access_whole(gate.weight_grad()));
    }
    gb[static_cast<std::size_t>(d)] = id;
  }
  const std::uint64_t gate_bytes =
      static_cast<std::uint64_t>(M) * E * sizeof(float);
  if (ctx.functional()) {
    std::vector<Tensor*> grads;
    for (int d = 0; d < P; ++d) {
      grads.push_back(&gates_[static_cast<std::size_t>(d)].weight_grad());
    }
    comm::allreduce_sum(g, world_, std::move(grads), "ARg", gb);
  } else {
    g.add("ARg", OpCategory::kAllReduce, StreamKind::kComm,
          world_.devices(),
          cost.allreduce_seconds(gate_bytes, world_.devices()), gb, nullptr);
  }
  return g;
}

std::vector<Tensor> FasterMoELayer::forward(
    const std::vector<Tensor>& inputs) {
  MPIPE_EXPECTS(options_.mode == core::ExecutionMode::kFull,
                "forward() requires full execution mode");
  MPIPE_EXPECTS(static_cast<int>(inputs.size()) == num_devices(),
                "need one input batch per device");
  for (auto& a : allocators_) a.begin_step();

  ctx_.emplace();
  ctx_->mode = core::ExecutionMode::kFull;
  ctx_->strategy = core::ReuseStrategy::kNone;
  ctx_->d_model = options_.d_model;
  ctx_->d_hidden = options_.d_hidden;
  ctx_->dev.resize(static_cast<std::size_t>(num_devices()));

  std::vector<std::vector<std::int64_t>> expert_of;
  for (int d = 0; d < num_devices(); ++d) {
    auto& st = ctx_->dev[static_cast<std::size_t>(d)];
    st.x = inputs[static_cast<std::size_t>(d)];
    st.gating = gates_[static_cast<std::size_t>(d)].forward(st.x);
    expert_of.push_back(st.gating.expert_of);
  }
  ctx_->plan = moe::Dispatcher::build(expert_of, num_devices(),
                                      experts_per_device(), 1);
  setup_forward_buffers(*ctx_);

  // Functional steps validate the P2P pipeline without shadowing.
  ShadowingDecision no_shadow;
  sim::OpGraph graph = build_forward(*ctx_, no_shadow);
  report_ = core::StepReport{};
  report_.n_partitions = num_devices();
  report_.forward_timing = cluster_->run(
      graph, options_.parallel_execution ? sim::ExecutionPolicy::kParallel
                                         : sim::ExecutionPolicy::kSerial);
  report_.forward_seconds = report_.forward_timing.makespan;

  std::vector<Tensor> outputs;
  for (int d = 0; d < num_devices(); ++d) {
    outputs.push_back(ctx_->dev[static_cast<std::size_t>(d)].out);
  }
  return outputs;
}

std::vector<Tensor> FasterMoELayer::backward(
    const std::vector<Tensor>& grad_outputs) {
  MPIPE_EXPECTS(ctx_.has_value(), "backward() without a prior forward()");
  for (int d = 0; d < num_devices(); ++d) {
    ctx_->dev[static_cast<std::size_t>(d)].dy =
        grad_outputs[static_cast<std::size_t>(d)];
  }
  setup_backward_buffers(*ctx_);
  ShadowingDecision no_shadow;
  sim::OpGraph graph = build_backward(*ctx_, no_shadow);
  report_.backward_timing = cluster_->run(
      graph, options_.parallel_execution ? sim::ExecutionPolicy::kParallel
                                         : sim::ExecutionPolicy::kSerial);
  report_.backward_seconds = report_.backward_timing.makespan;
  report_.mean_gpu_utilization = core::combined_utilization(
      report_.forward_timing, report_.backward_timing);

  std::vector<core::MemorySnapshot> snaps;
  for (const auto& a : allocators_) snaps.push_back(core::snapshot_peaks(a));
  report_.memory = core::max_over_devices(snaps);

  std::vector<Tensor> grads;
  for (int d = 0; d < num_devices(); ++d) {
    grads.push_back(ctx_->dev[static_cast<std::size_t>(d)].dx);
  }
  ctx_.reset();
  return grads;
}

core::StepReport FasterMoELayer::step_timing(std::int64_t tokens_per_device,
                                             double skew) {
  MPIPE_EXPECTS(tokens_per_device > 0, "empty batch");
  for (auto& a : allocators_) a.begin_step();

  core::MoeStepContext ctx;
  ctx.mode = core::ExecutionMode::kTimingOnly;
  ctx.strategy = core::ReuseStrategy::kNone;
  ctx.d_model = options_.d_model;
  ctx.d_hidden = options_.d_hidden;
  ctx.plan = moe::Dispatcher::synthetic(tokens_per_device, num_devices(),
                                        experts_per_device(), 1, skew);
  ctx.dev.resize(static_cast<std::size_t>(num_devices()));
  setup_forward_buffers(ctx);

  const ShadowingDecision shadow =
      select_shadowed(ctx.plan.part(0).recv_rows, options_.shadowing);
  // Shadowed parameters are replicated on every device for the step.
  shadow_allocs_.clear();
  if (!shadow.shadowed.empty()) {
    const std::uint64_t bytes =
        shadow_bytes_per_destination(options_.d_model, options_.d_hidden,
                                     1) *
        shadow.shadowed.size();
    for (auto& a : allocators_) {
      shadow_allocs_.push_back(
          a.allocate(mem::Category::kModelState, bytes));
    }
  }

  core::StepReport report;
  report.n_partitions = num_devices();
  sim::OpGraph fwd = build_forward(ctx, shadow);
  report.forward_timing = cluster_->time_only(fwd);
  report.forward_seconds = report.forward_timing.makespan;

  setup_backward_buffers(ctx);
  sim::OpGraph bwd = build_backward(ctx, shadow);
  report.backward_timing = cluster_->time_only(bwd);
  report.backward_seconds = report.backward_timing.makespan;
  report.mean_gpu_utilization = core::combined_utilization(
      report.forward_timing, report.backward_timing);

  std::vector<core::MemorySnapshot> snaps;
  for (const auto& a : allocators_) snaps.push_back(core::snapshot_peaks(a));
  report.memory = core::max_over_devices(snaps);
  shadow_allocs_.clear();
  report_ = report;
  return report;
}

}  // namespace mpipe::baselines
