// Gating / expert / LayerNorm / attention numerics, including
// finite-difference gradient checks and row-indexed vs dense equivalence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/check.h"

#include "moe/attention.h"
#include "moe/expert.h"
#include "moe/gating.h"
#include "moe/layer_norm.h"
#include "moe/moe_block.h"
#include "tensor/ops.h"
#include "tensor/random_init.h"

namespace mpipe::moe {
namespace {

using mpipe::CheckError;

TEST(Gating, ProbabilitiesAndArgmaxConsistent) {
  Rng rng(2);
  GatingNetwork gate(16, 8, rng);
  Tensor x = random_tokens(12, 16, rng);
  const auto fwd = gate.forward(x);
  ASSERT_EQ(fwd.expert_of.size(), 12u);
  for (std::int64_t t = 0; t < 12; ++t) {
    double sum = 0.0;
    float mx = 0.0f;
    for (int e = 0; e < 8; ++e) {
      sum += fwd.probs.at(t, e);
      mx = std::max(mx, fwd.probs.at(t, e));
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_FLOAT_EQ(fwd.gate[static_cast<std::size_t>(t)], mx);
    EXPECT_GE(fwd.gate[static_cast<std::size_t>(t)], 1.0f / 8.0f - 1e-6f);
  }
}

TEST(Gating, BackwardFiniteDifference) {
  Rng rng(6);
  GatingNetwork gate(6, 4, rng);
  Tensor x = random_tokens(5, 6, rng);
  auto fwd = gate.forward(x);
  std::vector<float> dgate(5, 1.0f);
  Tensor dx = gate.backward(x, fwd, dgate);

  // Perturb one input coordinate; loss = sum of winning gate values.
  // (Perturbations small enough not to flip the argmax.)
  const float h = 1e-4f;
  auto loss = [&](const Tensor& input) {
    auto f = gate.forward(input);
    double acc = 0.0;
    for (std::int64_t t = 0; t < 5; ++t) {
      // Use the ORIGINAL winner so the objective stays differentiable.
      acc += f.probs.at(t, fwd.expert_of[static_cast<std::size_t>(t)]);
    }
    return acc;
  };
  for (std::int64_t idx : {0, 7, 19}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    const double numeric = (loss(xp) - loss(xm)) / (2 * h);
    EXPECT_NEAR(dx.at(idx), numeric, 1e-2) << "idx " << idx;
  }
}

TEST(Gating, LoadBalanceLossBoundsAndSkewSensitivity) {
  Rng rng(7);
  GatingNetwork gate(8, 4, rng);
  // Balanced: loss ~ 1; worst case (all to one expert): approaches E.
  GatingForward balanced;
  balanced.probs = Tensor::full(Shape{8, 4}, 0.25f);
  balanced.expert_of = {0, 1, 2, 3, 0, 1, 2, 3};
  balanced.gate.assign(8, 0.25f);
  EXPECT_NEAR(gate.load_balance_loss(balanced), 1.0, 1e-5);

  GatingForward skewed;
  skewed.probs = Tensor(Shape{8, 4});
  for (std::int64_t t = 0; t < 8; ++t) skewed.probs.at(t, 0) = 1.0f;
  skewed.expert_of.assign(8, 0);
  skewed.gate.assign(8, 1.0f);
  EXPECT_NEAR(gate.load_balance_loss(skewed), 4.0, 1e-5);
}

TEST(Expert, ForwardMatchesManualMath) {
  Rng rng(3);
  ExpertFFN expert(4, 6, ActivationKind::kReLU, rng);
  Tensor x = random_tokens(3, 4, rng);
  Tensor mid;
  Tensor y = expert.forward(x, mid);
  EXPECT_EQ(y.shape(), (Shape{3, 4}));
  EXPECT_EQ(mid.shape(), (Shape{3, 6}));
  // Middle is post-ReLU: non-negative.
  for (std::int64_t i = 0; i < mid.numel(); ++i) {
    EXPECT_GE(mid.at(i), 0.0f);
  }
}

TEST(Expert, BackwardFiniteDifference) {
  Rng rng(12);
  ExpertFFN expert(5, 7, ActivationKind::kReLU, rng);
  Tensor x = random_tokens(4, 5, rng);
  Tensor mid;
  Tensor y = expert.forward(x, mid);
  Tensor dy = Tensor::full(y.shape(), 1.0f);
  expert.zero_grad();
  Tensor dx = expert.backward(dy, x, mid);

  auto loss = [&](const Tensor& input) {
    Tensor m;
    return expert.forward(input, m).sum();
  };
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 9, 19}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    const double numeric = (loss(xp) - loss(xm)) / (2 * h);
    EXPECT_NEAR(dx.at(idx), numeric, 2e-2) << "idx " << idx;
  }
}

TEST(Expert, WeightGradFiniteDifference) {
  Rng rng(13);
  ExpertFFN expert(4, 5, ActivationKind::kReLU, rng);
  Tensor x = random_tokens(3, 4, rng);
  Tensor mid;
  Tensor y = expert.forward(x, mid);
  expert.zero_grad();
  expert.backward(Tensor::full(y.shape(), 1.0f), x, mid);
  Tensor* w1 = expert.parameters()[0];
  Tensor* gw1 = expert.gradients()[0];
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 11}) {
    const float saved = w1->at(idx);
    w1->at(idx) = saved + h;
    Tensor m1;
    const double lp = expert.forward(x, m1).sum();
    w1->at(idx) = saved - h;
    Tensor m2;
    const double lm = expert.forward(x, m2).sum();
    w1->at(idx) = saved;
    EXPECT_NEAR(gw1->at(idx), (lp - lm) / (2 * h), 2e-2) << "idx " << idx;
  }
}

TEST(Expert, SpanIndexedMatchesDense) {
  Rng rng(20);
  ExpertFFN expert(4, 8, ActivationKind::kReLU, rng);
  Tensor buf = random_tokens(6, 4, rng);
  Tensor mid_buf(Shape{6, 8});
  Tensor out_buf(Shape{6, 4});
  // Rows 1 and 3..4, as two contiguous spans.
  const RowSpanList spans = {{1, 1}, {3, 2}};
  const std::vector<std::int64_t> rows = {1, 3, 4};
  expert.forward_rows(buf, spans, mid_buf, out_buf);

  Tensor dense_in(Shape{3, 4});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    dense_in.copy_into_rows(static_cast<std::int64_t>(i),
                            buf.slice_rows(rows[i], rows[i] + 1));
  }
  Tensor dense_mid;
  Tensor dense_out = expert.forward(dense_in, dense_mid);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_LT(max_abs_diff(
                  out_buf.slice_rows(rows[i], rows[i] + 1),
                  dense_out.slice_rows(static_cast<std::int64_t>(i),
                                       static_cast<std::int64_t>(i) + 1)),
              1e-6f);
  }
  // Untouched rows stay zero.
  EXPECT_FLOAT_EQ(out_buf.slice_rows(0, 1).abs_max(), 0.0f);
  EXPECT_FLOAT_EQ(out_buf.slice_rows(2, 3).abs_max(), 0.0f);
  EXPECT_FLOAT_EQ(out_buf.slice_rows(5, 6).abs_max(), 0.0f);

  // Recompute reproduces the stored middle rows exactly.
  Tensor mid_recomputed(Shape{6, 8});
  expert.recompute_mid_rows(buf, spans, mid_recomputed);
  EXPECT_FLOAT_EQ(max_abs_diff(mid_recomputed, mid_buf), 0.0f);
  // And FFN2-only matches the fused output.
  Tensor out2(Shape{6, 4});
  expert.forward_out_rows(mid_buf, spans, out2);
  EXPECT_LT(max_abs_diff(out2, out_buf), 1e-6f);
}

/// `rows` with one NaN row inserted before row `at`: the same rows as a
/// two-span list with a gap, which forces the gather/scatter path.
Tensor with_gap(const Tensor& rows, std::int64_t at) {
  Tensor out = Tensor::full(Shape{rows.dim(0) + 1, rows.dim(1)}, NAN);
  out.copy_into_rows(0, rows.slice_rows(0, at));
  out.copy_into_rows(at + 1, rows.slice_rows(at, rows.dim(0)));
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.nbytes()) == 0;
}

bool all_nan(const Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isnan(t.at(i))) return false;
  }
  return true;
}

TEST(Expert, ContiguousRunWritesInPlaceLikeGatherAndDense) {
  for (ActivationKind act : {ActivationKind::kReLU, ActivationKind::kGELU}) {
    Rng rng(22);
    ExpertFFN expert(16, 40, act, rng);
    // Rows [2, 11) of a 13-row buffer as three in-order spans, one of
    // them empty: one contiguous run, so the row ops work on views.
    const RowSpanList run = {{2, 4}, {6, 0}, {6, 5}};
    const std::int64_t r0 = 2, r1 = 11;
    Tensor in = Tensor::full(Shape{13, 16}, NAN);
    in.copy_into_rows(r0, random_tokens(r1 - r0, 16, rng));
    Tensor mid_buf = Tensor::full(Shape{13, 40}, NAN);
    Tensor out_buf = Tensor::full(Shape{13, 16}, NAN);
    expert.forward_rows(in, run, mid_buf, out_buf);

    // Rows outside the run keep their NaN sentinels.
    for (const Tensor* buf : {&mid_buf, &out_buf}) {
      EXPECT_TRUE(all_nan(buf->slice_rows(0, r0)));
      EXPECT_TRUE(all_nan(buf->slice_rows(r1, 13)));
    }
    // Dense forward on the same rows: bitwise equal.
    Tensor dense_mid;
    const Tensor dense_out = expert.forward(in.slice_rows(r0, r1), dense_mid);
    EXPECT_TRUE(same_bits(mid_buf.slice_rows(r0, r1), dense_mid));
    EXPECT_TRUE(same_bits(out_buf.slice_rows(r0, r1), dense_out));

    // The gathered path over the same rows with a gap: bitwise equal.
    const RowSpanList gapped = {{0, 5}, {6, 4}};
    Tensor in_g = with_gap(in.slice_rows(r0, r1), 5);
    Tensor mid_g(Shape{10, 40}), out_g(Shape{10, 16});
    expert.forward_rows(in_g, gapped, mid_g, out_g);
    for (const auto& [view, gathered] :
         {std::pair{&mid_buf, &mid_g}, std::pair{&out_buf, &out_g}}) {
      EXPECT_TRUE(same_bits(view->slice_rows(r0, r0 + 5),
                            gathered->slice_rows(0, 5)));
      EXPECT_TRUE(same_bits(view->slice_rows(r0 + 5, r1),
                            gathered->slice_rows(6, 10)));
    }

    // The pipeline's split stages (C1, recompute, C2) on views agree too.
    Tensor mid2 = Tensor::full(Shape{13, 40}, NAN);
    Tensor mid3 = Tensor::full(Shape{13, 40}, NAN);
    Tensor out2 = Tensor::full(Shape{13, 16}, NAN);
    expert.forward_mid_rows(in, run, mid2);
    expert.recompute_mid_rows(in, run, mid3);
    expert.forward_out_rows(mid2, run, out2);
    for (const Tensor* t : {&mid2, &mid3}) {
      EXPECT_TRUE(same_bits(t->slice_rows(r0, r1), dense_mid));
      EXPECT_TRUE(all_nan(t->slice_rows(0, r0)));
      EXPECT_TRUE(all_nan(t->slice_rows(r1, 13)));
    }
    EXPECT_TRUE(same_bits(out2.slice_rows(r0, r1), dense_out));
    EXPECT_TRUE(all_nan(out2.slice_rows(0, r0)));
    EXPECT_TRUE(all_nan(out2.slice_rows(r1, 13)));

    // Empty and zero-count span lists are no-ops on every buffer.
    for (const RowSpanList& none : {RowSpanList{}, RowSpanList{{4, 0}}}) {
      const Tensor mid0 = mid_buf.clone(), out0 = out_buf.clone();
      expert.forward_rows(in, none, mid_buf, out_buf);
      expert.forward_mid_rows(in, none, mid_buf);
      expert.recompute_mid_rows(in, none, mid_buf);
      expert.forward_out_rows(mid_buf, none, out_buf);
      EXPECT_TRUE(same_bits(mid_buf, mid0));
      EXPECT_TRUE(same_bits(out_buf, out0));
    }
  }
}

TEST(LayerNorm, NormalisesRows) {
  Rng rng(4);
  LayerNorm ln(8);
  Tensor x = random_tokens(5, 8, rng);
  const auto fwd = ln.forward(x);
  for (std::int64_t r = 0; r < 5; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t c = 0; c < 8; ++c) mean += fwd.normalized.at(r, c);
    mean /= 8.0;
    for (std::int64_t c = 0; c < 8; ++c) {
      const double d = fwd.normalized.at(r, c) - mean;
      var += d * d;
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, BackwardFiniteDifference) {
  Rng rng(14);
  LayerNorm ln(6);
  init_normal(ln.gamma(), rng, 1.0f);
  Tensor x = random_tokens(3, 6, rng);
  auto fwd = ln.forward(x);
  Tensor dy(fwd.output.shape());
  init_normal(dy, rng, 1.0f);
  ln.zero_grad();
  Tensor dx = ln.backward(dy, fwd);
  const float h = 1e-3f;
  auto loss = [&](const Tensor& input) {
    auto f = ln.forward(input);
    double acc = 0.0;
    for (std::int64_t i = 0; i < f.output.numel(); ++i) {
      acc += static_cast<double>(dy.at(i)) * f.output.at(i);
    }
    return acc;
  };
  for (std::int64_t idx : {0, 10, 17}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    EXPECT_NEAR(dx.at(idx), (loss(xp) - loss(xm)) / (2 * h), 2e-2);
  }
}

class AttentionGrad : public testing::TestWithParam<bool> {};

TEST_P(AttentionGrad, BackwardFiniteDifference) {
  const bool causal = GetParam();
  Rng rng(15);
  MultiHeadAttention attn(8, 2, causal, rng);
  Tensor x = random_tokens(5, 8, rng);
  auto fwd = attn.forward(x);
  Tensor dy(fwd.output.shape());
  init_normal(dy, rng, 1.0f);
  attn.zero_grad();
  Tensor dx = attn.backward(dy, x, fwd);
  auto loss = [&](const Tensor& input) {
    auto f = attn.forward(input);
    double acc = 0.0;
    for (std::int64_t i = 0; i < f.output.numel(); ++i) {
      acc += static_cast<double>(dy.at(i)) * f.output.at(i);
    }
    return acc;
  };
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 13, 37}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    EXPECT_NEAR(dx.at(idx), (loss(xp) - loss(xm)) / (2 * h), 3e-2)
        << "causal=" << causal << " idx " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(Both, AttentionGrad, testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "causal" : "bidirectional";
                         });

TEST(Attention, CausalMaskBlocksFuture) {
  Rng rng(16);
  MultiHeadAttention attn(4, 1, /*causal=*/true, rng);
  Tensor x = random_tokens(4, 4, rng);
  auto fwd = attn.forward(x);
  // scores rows are post-softmax; upper triangle must be ~0.
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = r + 1; c < 4; ++c) {
      EXPECT_NEAR(fwd.scores.at(r, c), 0.0f, 1e-6f);
    }
  }
}

TEST(TransformerBlock, EndToEndGradCheck) {
  Rng rng(17);
  TransformerBlockPieces block(6, 2, false, rng);
  ExpertFFN ffn(6, 12, ActivationKind::kReLU, rng);
  Tensor x = random_tokens(4, 6, rng);

  auto run = [&](const Tensor& input, BlockForward* save_fwd,
                 Tensor* save_mid) {
    auto fwd = block.forward_pre_ffn(input);
    Tensor mid;
    Tensor ffn_out = ffn.forward(fwd.ffn_input, mid);
    Tensor y = TransformerBlockPieces::finish_forward(fwd, ffn_out);
    if (save_fwd != nullptr) *save_fwd = fwd;
    if (save_mid != nullptr) *save_mid = mid;
    return y;
  };

  BlockForward fwd;
  Tensor mid;
  Tensor y = run(x, &fwd, &mid);
  Tensor dy(y.shape());
  init_normal(dy, rng, 1.0f);
  block.zero_grad();
  ffn.zero_grad();
  Tensor d_ffn_in = ffn.backward(dy, fwd.ffn_input, mid);
  Tensor dx = block.backward(dy, d_ffn_in, x, fwd);

  auto loss = [&](const Tensor& input) {
    Tensor out = run(input, nullptr, nullptr);
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      acc += static_cast<double>(dy.at(i)) * out.at(i);
    }
    return acc;
  };
  const float h = 1e-3f;
  for (std::int64_t idx : {0, 11, 23}) {
    Tensor xp = x.clone();
    xp.at(idx) += h;
    Tensor xm = x.clone();
    xm.at(idx) -= h;
    EXPECT_NEAR(dx.at(idx), (loss(xp) - loss(xm)) / (2 * h), 5e-2)
        << "idx " << idx;
  }
}

}  // namespace
}  // namespace mpipe::moe
