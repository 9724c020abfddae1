#include "tensor/random_init.h"

#include <cmath>
#include <random>

#include "common/check.h"

namespace mpipe {

void init_normal(Tensor& t, Rng& rng, float stddev) {
  MPIPE_EXPECTS(t.defined(), "init of null tensor");
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

void init_kaiming(Tensor& t, Rng& rng, std::int64_t fan_in) {
  MPIPE_EXPECTS(fan_in > 0, "fan_in must be positive");
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  init_uniform(t, rng, -bound, bound);
}

void init_uniform(Tensor& t, Rng& rng, float lo, float hi) {
  MPIPE_EXPECTS(t.defined(), "init of null tensor");
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
}

Tensor random_tokens(std::int64_t tokens, std::int64_t d_model, Rng& rng) {
  Tensor t(Shape{tokens, d_model});
  // One distribution for the whole fill: std::normal_distribution draws
  // values in pairs, and a fresh distribution per value (Rng::normal) would
  // discard the second value of every pair.
  std::normal_distribution<double> normal(0.0, 1.0);
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(normal(rng.engine()));
  }
  return t;
}

}  // namespace mpipe
