#pragma once
/// \file ops.h
/// Elementwise and row-wise primitives with explicit backward counterparts.
/// Each forward/backward pair is finite-difference tested in
/// tests/test_tensor_ops.cpp.

#include <cmath>

#include "tensor/tensor.h"

namespace mpipe {

/// Scalar tanh-approximation GELU. Shared by the elementwise kernel and the
/// fused GEMM epilogue — the two paths must stay bit-identical.
inline float gelu_scalar(float v) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float t = std::tanh(kC * (v + 0.044715f * v * v * v));
  return 0.5f * v * (1.0f + t);
}

// ---- elementwise ----------------------------------------------------------

/// out = a + b (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);
/// a += b in place.
void add_(Tensor& a, const Tensor& b);
/// a += alpha * b in place (axpy).
void axpy_(Tensor& a, float alpha, const Tensor& b);
/// out = a * scalar.
Tensor scale(const Tensor& a, float s);
void scale_(Tensor& a, float s);
/// Hadamard product.
Tensor mul(const Tensor& a, const Tensor& b);

// ---- activations ----------------------------------------------------------

/// ReLU forward.
Tensor relu(const Tensor& x);
/// dx = dy * (x > 0).
Tensor relu_backward(const Tensor& dy, const Tensor& x);

/// tanh-approximation GELU forward (the FFN activation in BERT/GPT).
Tensor gelu(const Tensor& x);
/// GELU backward through the tanh approximation.
Tensor gelu_backward(const Tensor& dy, const Tensor& x);

// ---- row-wise -------------------------------------------------------------

/// Adds bias (length = cols) to each row of x, in place.
void add_bias_(Tensor& x, const Tensor& bias);
/// Column sums of dy — the bias gradient.
Tensor bias_backward(const Tensor& dy);

/// Row-wise softmax of a 2-D tensor.
Tensor softmax_rows(const Tensor& x);
/// Backward of row-wise softmax: dx_i = y_i * (dy_i - sum_j dy_j y_j).
Tensor softmax_rows_backward(const Tensor& dy, const Tensor& y);

/// Row-wise argmax indices.
std::vector<std::int64_t> argmax_rows(const Tensor& x);

/// Scales row r of x by s[r], in place.
void scale_rows_(Tensor& x, const std::vector<float>& s);
/// Same, for rows [row_begin, row_begin + rows) only; s covers all of x.
void scale_rows_(Tensor& x, const std::vector<float>& s,
                 std::int64_t row_begin, std::int64_t rows);

/// Mean squared error loss and its gradient w.r.t. pred.
double mse_loss(const Tensor& pred, const Tensor& target);
Tensor mse_loss_grad(const Tensor& pred, const Tensor& target);

/// True when every element is finite (no NaN, no ±inf). 8-lane scan over
/// the fp32 exponent bits (a float is non-finite iff its exponent field is
/// all ones), so the verdict is exact regardless of compiler float-math
/// flags. Read-only — the numerics guard's probe.
bool all_finite(const Tensor& t);

}  // namespace mpipe
