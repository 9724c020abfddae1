#pragma once
/// \file workload.h
/// Synthetic token workloads — the paper trains on "a dummy dataset by
/// generating random tokens". Adds the two workload properties that matter
/// to the systems results: dynamic batch sizes (drives the adaptive
/// granularity search) and routing skew (drives shadowing / stragglers).

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace mpipe::runtime {

struct WorkloadOptions {
  std::int64_t d_model = 64;
  std::int64_t tokens_per_device = 64;
  int num_devices = 4;
  /// Batch-size jitter: each step draws B from
  /// [tokens*(1-jitter), tokens*(1+jitter)].
  double batch_jitter = 0.0;
  std::uint64_t seed = 123;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadOptions options);

  /// One batch per device, all (B, d_model) with this step's B. Each
  /// device's batch comes from its own child of rng() and is filled on the
  /// shared pool; the result is the same for any pool size.
  std::vector<Tensor> next_batch();

  /// Matching regression targets (for a synthetic MSE objective).
  std::vector<Tensor> targets_for(const std::vector<Tensor>& batch);

  std::int64_t last_batch_tokens() const { return last_tokens_; }

  /// Generator-state access for checkpoint/restore and step-level retry:
  /// restoring the Rng (a cheap value copy) and the last batch size
  /// replays the exact token stream from that point — the property the
  /// bitwise-identical-resume tests pin.
  const Rng& rng() const { return rng_; }
  void set_rng(const Rng& rng) { rng_ = rng; }
  void set_last_batch_tokens(std::int64_t tokens) { last_tokens_ = tokens; }

 private:
  WorkloadOptions options_;
  Rng rng_;
  std::int64_t last_tokens_ = 0;
};

/// Dynamic batch-size trace generator (Fig 12's x-axis sweep and the cache
/// behaviour of Algorithm 1): `steps` sizes in [lo, hi], optionally drawn
/// from a small set of recurring values (mimicking dataloader buckets).
std::vector<std::int64_t> batch_size_trace(std::int64_t lo, std::int64_t hi,
                                           int steps, int buckets,
                                           std::uint64_t seed);

}  // namespace mpipe::runtime
