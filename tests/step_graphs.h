#pragma once
// Builds the functional forward and backward graphs of one MoELayer
// training step the way forward() and backward() do, without running them,
// so tests can inspect the declared accesses of real schedules.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/moe_layer.h"
#include "tensor/random_init.h"

namespace mpipe::core {

class MoELayerTestAccess {
 public:
  struct StepGraphs {
    sim::OpGraph forward;
    sim::OpGraph backward;
  };

  /// The step's graphs on `inputs`, with `dys` as the output gradients.
  /// The closures point into the layer's step state: they stay valid until
  /// the layer's next step and are never run here.
  static StepGraphs build(MoELayer& layer, const std::vector<Tensor>& inputs,
                          const std::vector<Tensor>& dys) {
    const std::int64_t B = inputs[0].dim(0);
    for (auto& a : layer.allocators_) a.begin_step();
    layer.staging_.clear();
    const int n = layer.configure_partitions(B);
    MoeStepContext& ctx = layer.ctx_.emplace();
    ctx.mode = ExecutionMode::kFull;
    ctx.strategy = layer.configure_strategy(B, n);
    ctx.d_model = layer.options_.d_model;
    ctx.d_hidden = layer.options_.d_hidden;
    ctx.dtype = layer.options_.compute_dtype;
    ctx.dev.resize(static_cast<std::size_t>(layer.num_devices()));
    std::vector<std::vector<std::int64_t>> expert_of;
    for (int d = 0; d < layer.num_devices(); ++d) {
      auto& st = ctx.dev[static_cast<std::size_t>(d)];
      st.x = inputs[static_cast<std::size_t>(d)];
      st.gating = layer.gates_[static_cast<std::size_t>(d)].forward(st.x);
      expert_of.push_back(st.gating.expert_of);
    }
    ctx.plan = moe::Dispatcher::build(expert_of, layer.num_devices(),
                                      layer.experts_per_device(), n);
    layer.setup_forward_buffers(ctx);
    StepGraphs graphs;
    graphs.forward = layer.builder_.build_forward(ctx, layer.refs());
    for (int d = 0; d < layer.num_devices(); ++d) {
      ctx.dev[static_cast<std::size_t>(d)].dy =
          dys[static_cast<std::size_t>(d)];
    }
    layer.setup_backward_buffers(ctx);
    graphs.backward = layer.builder_.build_backward(ctx, layer.refs());
    return graphs;
  }
};

/// A small full-mode layer on four devices with `n` partitions and
/// `strategy` pinned (kNone turns ring reuse off).
inline MoELayerOptions small_layer_options(int n, ReuseStrategy strategy,
                                           int num_experts = 4) {
  MoELayerOptions o;
  o.d_model = 16;
  o.d_hidden = 32;
  o.num_experts = num_experts;
  o.num_partitions = n;
  o.memory_reuse = strategy != ReuseStrategy::kNone;
  if (o.memory_reuse) o.strategy = strategy;
  o.seed = 17;
  return o;
}

/// Random (tokens, d_model) inputs and output gradients, one per device.
inline void random_step_inputs(int devices, std::int64_t tokens,
                               std::int64_t d_model, std::uint64_t seed,
                               std::vector<Tensor>& inputs,
                               std::vector<Tensor>& dys) {
  Rng rng(seed);
  for (int d = 0; d < devices; ++d) {
    Tensor x(Shape{tokens, d_model}), dy(Shape{tokens, d_model});
    init_normal(x, rng);
    init_normal(dy, rng);
    inputs.push_back(x);
    dys.push_back(dy);
  }
}

}  // namespace mpipe::core
