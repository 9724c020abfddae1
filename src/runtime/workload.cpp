#include "runtime/workload.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/random_init.h"

namespace mpipe::runtime {

WorkloadGenerator::WorkloadGenerator(WorkloadOptions options)
    : options_(options), rng_(options.seed) {
  MPIPE_EXPECTS(options_.tokens_per_device > 0, "empty workload");
  MPIPE_EXPECTS(options_.num_devices > 0, "no devices");
  MPIPE_EXPECTS(options_.batch_jitter >= 0.0 && options_.batch_jitter < 1.0,
                "jitter must be in [0, 1)");
}

std::vector<Tensor> WorkloadGenerator::next_batch() {
  std::int64_t tokens = options_.tokens_per_device;
  if (options_.batch_jitter > 0.0) {
    const double lo = static_cast<double>(tokens) *
                      (1.0 - options_.batch_jitter);
    const double hi = static_cast<double>(tokens) *
                      (1.0 + options_.batch_jitter);
    tokens = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(rng_.uniform(lo, hi)));
  }
  last_tokens_ = tokens;
  // One child stream per device, forked in device order on this thread, so
  // the batch depends only on rng_ and never on how the fills land on the
  // pool's workers.
  const auto devices = static_cast<std::size_t>(options_.num_devices);
  std::vector<Rng> streams;
  streams.reserve(devices);
  for (std::size_t d = 0; d < devices; ++d) streams.push_back(rng_.fork());
  std::vector<Tensor> batch(devices);
  ThreadPool::shared().parallel_for(
      devices,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t d = begin; d < end; ++d) {
          batch[d] = random_tokens(tokens, options_.d_model, streams[d]);
        }
      },
      1);
  return batch;
}

std::vector<Tensor> WorkloadGenerator::targets_for(
    const std::vector<Tensor>& batch) {
  std::vector<Tensor> targets;
  targets.reserve(batch.size());
  for (const Tensor& x : batch) {
    // A smooth deterministic function of the input keeps the regression
    // learnable: target = 0.5 * x (the layer must learn a contraction).
    Tensor t = x.clone();
    float* p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) p[i] *= 0.5f;
    targets.push_back(std::move(t));
  }
  return targets;
}

std::vector<std::int64_t> batch_size_trace(std::int64_t lo, std::int64_t hi,
                                           int steps, int buckets,
                                           std::uint64_t seed) {
  MPIPE_EXPECTS(lo >= 1 && hi >= lo, "bad batch range");
  MPIPE_EXPECTS(steps >= 1 && buckets >= 1, "bad trace arguments");
  Rng rng(seed);
  std::vector<std::int64_t> bucket_values;
  bucket_values.reserve(static_cast<std::size_t>(buckets));
  for (int i = 0; i < buckets; ++i) {
    bucket_values.push_back(
        lo + static_cast<std::int64_t>(rng.uniform_index(
                 static_cast<std::uint64_t>(hi - lo + 1))));
  }
  std::vector<std::int64_t> trace;
  trace.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    trace.push_back(bucket_values[rng.uniform_index(bucket_values.size())]);
  }
  return trace;
}

}  // namespace mpipe::runtime
