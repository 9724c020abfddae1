#pragma once
/// \file random_init.h
/// Weight / input initialisers shared by models and workload generators.

#include "common/rng.h"
#include "tensor/tensor.h"

namespace mpipe {

/// Fills with N(0, stddev^2).
void init_normal(Tensor& t, Rng& rng, float stddev = 0.02f);

/// Kaiming-uniform for a (fan_in, fan_out) weight matrix.
void init_kaiming(Tensor& t, Rng& rng, std::int64_t fan_in);

/// Uniform in [lo, hi).
void init_uniform(Tensor& t, Rng& rng, float lo, float hi);

/// Random token batch of shape (tokens, d_model), N(0, 1). Draws its own
/// stream from `rng` (both values of each normal pair), so for a given
/// seed its values differ from init_normal's.
Tensor random_tokens(std::int64_t tokens, std::int64_t d_model, Rng& rng);

}  // namespace mpipe
