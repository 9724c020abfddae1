// The packed GEMM micro-kernel path: every transpose variant and fused
// epilogue against a naive reference on ragged shapes, the bitwise
// accumulation contract of every entry point, the grain contract of the
// lock-light parallel_for, and span-vs-row-index equivalence of the
// dispatcher's receive-buffer layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "moe/dispatcher.h"
#include "moe/expert.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/random_init.h"

namespace mpipe {
namespace {

/// Scalar triple-loop reference with fp64 accumulation.
Tensor reference_gemm(const Tensor& a, const Tensor& b, bool trans_a,
                      bool trans_b, const Tensor* c_in = nullptr) {
  const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = c_in ? c_in->at(i, j) : 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a.at(kk, i) : a.at(i, kk);
        const float bv = trans_b ? b.at(j, kk) : b.at(kk, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_close(const Tensor& got, const Tensor& want, float rtol = 1e-3f) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(allclose(got, want, rtol, 1e-4f))
      << "max |diff| = " << max_abs_diff(got, want);
}

struct GemmShape {
  std::int64_t m, k, n;
};

class GemmVariants : public testing::TestWithParam<GemmShape> {};

TEST_P(GemmVariants, NNMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  Tensor a(Shape{m, k}), b(Shape{k, n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  gemm(a, b, c);
  expect_close(c, reference_gemm(a, b, false, false));
}

TEST_P(GemmVariants, NNAccumulates) {
  const auto [m, k, n] = GetParam();
  Rng rng(8);
  Tensor a(Shape{m, k}), b(Shape{k, n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(c, rng);
  const Tensor c0 = c.clone();
  gemm(a, b, c, /*accumulate=*/true);
  expect_close(c, reference_gemm(a, b, false, false, &c0));
}

TEST_P(GemmVariants, NTMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(9);
  Tensor a(Shape{m, k}), b(Shape{n, k}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  gemm_nt(a, b, c);
  expect_close(c, reference_gemm(a, b, false, true));
}

TEST_P(GemmVariants, NTAccumulates) {
  const auto [m, k, n] = GetParam();
  Rng rng(10);
  Tensor a(Shape{m, k}), b(Shape{n, k}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(c, rng);
  const Tensor c0 = c.clone();
  gemm_nt(a, b, c, /*accumulate=*/true);
  expect_close(c, reference_gemm(a, b, false, true, &c0));
}

TEST_P(GemmVariants, TNMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(11);
  Tensor a(Shape{k, m}), b(Shape{k, n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  gemm_tn(a, b, c);
  expect_close(c, reference_gemm(a, b, true, false));
}

TEST_P(GemmVariants, TNAccumulates) {
  const auto [m, k, n] = GetParam();
  Rng rng(12);
  Tensor a(Shape{k, m}), b(Shape{k, n}), c(Shape{m, n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(c, rng);
  const Tensor c0 = c.clone();
  gemm_tn(a, b, c, /*accumulate=*/true);
  expect_close(c, reference_gemm(a, b, true, false, &c0));
}

TEST_P(GemmVariants, FusedEpiloguesMatchSeparatePasses) {
  const auto [m, k, n] = GetParam();
  Rng rng(13);
  Tensor a(Shape{m, k}), b(Shape{k, n}), bias(Shape{n});
  init_normal(a, rng);
  init_normal(b, rng);
  init_normal(bias, rng);

  Tensor want = reference_gemm(a, b, false, false);
  add_bias_(want, bias);

  Tensor got(Shape{m, n});
  gemm_bias(a, b, bias, got);
  expect_close(got, want);

  gemm_bias_act(a, b, bias, GemmEpilogue::kBiasReLU, got);
  expect_close(got, relu(want));

  gemm_bias_act(a, b, bias, GemmEpilogue::kBiasGELU, got);
  expect_close(got, gelu(want));
}

// Ragged shapes around every blocking boundary: unit, primes, tall/skinny,
// wide/flat, and micro-tile edges (the packed kernel is 8x32, or 8x16
// without AVX-512, over 64x128x256 panels).
INSTANTIATE_TEST_SUITE_P(
    Ragged, GemmVariants,
    testing::Values(GemmShape{1, 1, 1}, GemmShape{17, 13, 29},
                    GemmShape{8, 16, 16}, GemmShape{9, 257, 17},
                    GemmShape{257, 8, 3}, GemmShape{3, 5, 301},
                    GemmShape{65, 129, 127}, GemmShape{64, 256, 128},
                    GemmShape{100, 300, 70}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

TEST(GemmEdge, MatmulAndZeroInput) {
  Rng rng(3);
  Tensor a(Shape{5, 4}), b(Shape{4, 6});
  init_normal(a, rng);
  init_normal(b, rng);
  expect_close(matmul(a, b), reference_gemm(a, b, false, false));

  // All-zero A must produce exactly zero (and not disturb accumulate).
  Tensor z(Shape{5, 4});
  Tensor c(Shape{5, 6});
  c.fill(2.0f);
  gemm(z, b, c, /*accumulate=*/true);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_FLOAT_EQ(c.at(i), 2.0f);
  }
  gemm(z, b, c, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(c.abs_max(), 0.0f);
}

// ---- accumulation contract (bitwise) --------------------------------------
//
// Every entry point is pinned bit for bit to a scalar model of the kernel's
// accumulation order: per K slice of 256, each C element starts from 0 and
// runs one std::fma chain in k order; the slice sum overwrites C (first
// slice without accumulate) or is added to it, slice by slice; the
// epilogue runs last. Bias grads sum each slice from 0 in k order and add
// the slice sum. Blocking, register tile and thread count are free; this
// order is not — it is what "bitwise identical" across kernel changes
// rests on.
#if defined(__FMA__)

constexpr std::int64_t kContractSlice = 256;

Tensor transposed(const Tensor& t) {
  Tensor out(Shape{t.dim(1), t.dim(0)});
  for (std::int64_t i = 0; i < t.dim(0); ++i) {
    for (std::int64_t j = 0; j < t.dim(1); ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}

/// The fp32 values the GEMM packs for a quantized matrix, in its stored
/// (rows x cols) layout.
Tensor dequantized(const QuantizedMatrix& q) {
  Tensor out(Shape{q.rows, q.cols});
  for (std::int64_t r = 0; r < q.rows; ++r) {
    for (std::int64_t c = 0; c < q.cols; ++c) {
      const std::size_t i = static_cast<std::size_t>(r * q.cols + c);
      out.at(r, c) =
          q.dtype == DType::kBF16
              ? f32_from_bf16(q.bf16[i])
              : static_cast<float>(q.i8[i]) *
                    q.scales[static_cast<std::size_t>(r)];
    }
  }
  return out;
}

QuantView view_of(const QuantizedMatrix& q) {
  return {q.dtype,
          q.dtype == DType::kBF16 ? static_cast<const void*>(q.bf16.data())
                                  : static_cast<const void*>(q.i8.data()),
          q.scales.empty() ? nullptr : q.scales.data(), q.rows, q.cols};
}

/// Per-slice products of logical A (m x k) and B (k x n): element (i, j)
/// of slice s is the fma chain over k in [256 s, min(k, 256 (s + 1))).
std::vector<Tensor> slice_products(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const Tensor bt = transposed(b);
  std::vector<Tensor> slices;
  for (std::int64_t k0 = 0; k0 < k; k0 += kContractSlice) {
    const std::int64_t k1 = std::min(k, k0 + kContractSlice);
    Tensor s(Shape{m, n});
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = a.data() + i * k;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* bcol = bt.data() + j * k;
        float acc = 0.0f;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          acc = std::fma(arow[kk], bcol[kk], acc);
        }
        s.at(i, j) = acc;
      }
    }
    slices.push_back(std::move(s));
  }
  return slices;
}

/// C as the kernel must leave it: slice products folded into `c0`, then
/// the epilogue.
Tensor contract_result(const std::vector<Tensor>& slices, const Tensor& c0,
                       bool accumulate, GemmEpilogue ep = GemmEpilogue::kNone,
                       const Tensor* bias = nullptr) {
  Tensor c = c0.clone();
  for (std::int64_t i = 0; i < c.dim(0); ++i) {
    for (std::int64_t j = 0; j < c.dim(1); ++j) {
      float v = c0.at(i, j);
      for (std::size_t s = 0; s < slices.size(); ++s) {
        v = s == 0 && !accumulate ? slices[s].at(i, j)
                                  : v + slices[s].at(i, j);
      }
      switch (ep) {
        case GemmEpilogue::kNone:
          break;
        case GemmEpilogue::kBias:
          v = v + bias->at(j);
          break;
        case GemmEpilogue::kBiasReLU:
          v = v + bias->at(j);
          v = v > 0.0f ? v : 0.0f;
          break;
        case GemmEpilogue::kBiasGELU:
          v = gelu_scalar(v + bias->at(j));
          break;
      }
      c.at(i, j) = v;
    }
  }
  return c;
}

/// bias_grad as the kernel must leave it: each slice's column sum of B,
/// from 0 in k order, added to `bg0` slice by slice.
Tensor contract_bias_grad(const Tensor& b, const Tensor& bg0) {
  Tensor bg = bg0.clone();
  for (std::int64_t j = 0; j < b.dim(1); ++j) {
    for (std::int64_t k0 = 0; k0 < b.dim(0); k0 += kContractSlice) {
      float acc = 0.0f;
      for (std::int64_t kk = k0;
           kk < std::min(b.dim(0), k0 + kContractSlice); ++kk) {
        acc += b.at(kk, j);
      }
      bg.at(j) += acc;
    }
  }
  return bg;
}

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  if (std::memcmp(got.data(), want.data(), got.nbytes()) == 0) return;
  std::int64_t i = 0;
  while (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) == 0) {
    ++i;
  }
  ADD_FAILURE() << what << ": first differing element " << i << " got "
                << got.at(i) << " want " << want.at(i);
}

class GemmContract : public testing::TestWithParam<GemmShape> {};

TEST_P(GemmContract, EveryEntryPointIsBitwiseTheSliceOrderedFmaChain) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + k * 1009 + n));
  Tensor a(Shape{m, k}), b(Shape{k, n}), c0(Shape{m, n}), bias(Shape{n}),
      bg0(Shape{n});
  for (Tensor* t : {&a, &b, &c0, &bias, &bg0}) init_normal(*t, rng, 1.0f);
  const Tensor at = transposed(a), bt = transposed(b);
  const QuantizedMatrix b_bf16 = quantize_matrix(b, DType::kBF16);
  const QuantizedMatrix bt_bf16 = quantize_matrix(bt, DType::kBF16);
  const QuantizedMatrix b_i8 = quantize_matrix(b, DType::kI8);
  const QuantizedMatrix bt_i8 = quantize_matrix(bt, DType::kI8);

  const std::vector<Tensor> fp32 = slice_products(a, b);
  const std::vector<Tensor> bf16 = slice_products(a, dequantized(b_bf16));
  const std::vector<Tensor> i8_nn = slice_products(a, dequantized(b_i8));
  const std::vector<Tensor> i8_nt =
      slice_products(a, transposed(dequantized(bt_i8)));
  const Tensor want_bg = contract_bias_grad(b, bg0);

  for (std::size_t threads : {1, 4}) {
    ThreadPool::reset_shared(threads);
    const std::string pool = " (pool " + std::to_string(threads) + ")";
    for (bool accumulate : {false, true}) {
      const std::string acc = accumulate ? " accumulate" : "";
      const Tensor want = contract_result(fp32, c0, accumulate);
      Tensor c = c0.clone();
      gemm(a, b, c, accumulate);
      expect_bitwise(c, want, "gemm" + acc + pool);
      c = c0.clone();
      gemm_nt(a, bt, c, accumulate);
      expect_bitwise(c, want, "gemm_nt" + acc + pool);
      c = c0.clone();
      gemm_tn(at, b, c, accumulate);
      expect_bitwise(c, want, "gemm_tn" + acc + pool);
      c = c0.clone();
      Tensor bg = bg0.clone();
      gemm_tn_bias_grad(at, b, c, bg, accumulate);
      expect_bitwise(c, want, "gemm_tn_bias_grad" + acc + pool);
      expect_bitwise(bg, want_bg, "gemm_tn_bias_grad db" + acc + pool);
      c = c0.clone();
      gemm_nt_q(a, view_of(bt_bf16), c, accumulate);
      expect_bitwise(c, contract_result(bf16, c0, accumulate),
                     "gemm_nt_q bf16" + acc + pool);
      c = c0.clone();
      gemm_nt_q(a, view_of(bt_i8), c, accumulate);
      expect_bitwise(c, contract_result(i8_nt, c0, accumulate),
                     "gemm_nt_q int8" + acc + pool);
    }
    for (GemmEpilogue ep : {GemmEpilogue::kNone, GemmEpilogue::kBias,
                            GemmEpilogue::kBiasReLU,
                            GemmEpilogue::kBiasGELU}) {
      const std::string name =
          " epilogue " + std::to_string(static_cast<int>(ep)) + pool;
      Tensor c = c0.clone();
      gemm_bias_act(a, b, bias, ep, c);
      expect_bitwise(c, contract_result(fp32, c0, false, ep, &bias),
                     "gemm_bias_act" + name);
      c = c0.clone();
      gemm_bias_act_q(a, view_of(b_bf16), bias, ep, c);
      expect_bitwise(c, contract_result(bf16, c0, false, ep, &bias),
                     "gemm_bias_act_q bf16" + name);
      c = c0.clone();
      gemm_bias_act_q(a, view_of(b_i8), bias, ep, c);
      expect_bitwise(c, contract_result(i8_nn, c0, false, ep, &bias),
                     "gemm_bias_act_q int8" + name);
    }
    Tensor c = c0.clone();
    gemm_bias(a, b, bias, c);
    expect_bitwise(
        c, contract_result(fp32, c0, false, GemmEpilogue::kBias, &bias),
        "gemm_bias" + pool);
  }
  ThreadPool::reset_shared(0);
}

// m, k and n each take every value of {1, 7, 8, 9, 31, 33, 255, 257, 513}
// in two rotations: edges of the 8-row and 16/32-column register tiles,
// of the 64 x 128 tile grid and of the 256-deep K slices (513 = 2 full
// slices + 1).
std::vector<GemmShape> contract_shapes() {
  const std::int64_t v[] = {1, 7, 8, 9, 31, 33, 255, 257, 513};
  std::vector<GemmShape> shapes;
  for (int i = 0; i < 9; ++i) {
    shapes.push_back({v[i], v[(i + 3) % 9], v[(i + 6) % 9]});
    shapes.push_back({v[i], v[(i + 1) % 9], v[(i + 2) % 9]});
  }
  shapes.push_back({513, 257, 255});
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(
    Ragged, GemmContract, testing::ValuesIn(contract_shapes()),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

#endif  // __FMA__

// ---- parallel_for contract ------------------------------------------------

TEST(ParallelFor, ChunkBoundariesHonorGrain) {
  ThreadPool pool(4);
  const std::size_t n = 100, grain = 16;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(begin, end);
      },
      grain);
  // Chunks start on grain multiples and tile [0, n) exactly once.
  std::vector<bool> covered(n, false);
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin % grain, 0u) << "chunk start off the grain grid";
    ASSERT_LT(begin, end);
    ASSERT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_FALSE(covered[i]);
      covered[i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool v) { return v; }));
}

TEST(ParallelFor, SmallRangeRunsInlineAsOneChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(
      10,
      [&](std::size_t begin, std::size_t end) {
        chunks.emplace_back(begin, end);
      },
      64);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 10}));
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   64,
                   [&](std::size_t begin, std::size_t) {
                     if (begin == 0) throw std::runtime_error("boom");
                   },
                   1),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_sum{0};
  pool.parallel_for(
      8,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          // Nested parallel_for on the same pool: must run (inline on a
          // worker, participating from the caller) without deadlocking.
          pool.parallel_for(
              4, [&](std::size_t b, std::size_t e) {
                inner_sum +=
                    static_cast<int>(e) - static_cast<int>(b);
              },
              1);
        }
      },
      1);
  EXPECT_EQ(inner_sum.load(), 8 * 4);
}

// ---- dispatcher span layout ----------------------------------------------

TEST(DispatcherSpans, SpansMatchPerRowIndexReconstruction) {
  // Reconstruct the per-row expert assignment of the receive buffer the
  // pre-span way (walk each source block in expert-sorted order) and check
  // the plan's spans cover exactly those rows.
  const int devices = 3, experts_per_device = 4, partitions = 2;
  const std::int64_t tokens = 53;
  Rng rng(99);
  std::vector<std::vector<std::int64_t>> expert_of(devices);
  for (auto& v : expert_of) {
    for (std::int64_t t = 0; t < tokens; ++t) {
      v.push_back(static_cast<std::int64_t>(
          rng.uniform_index(devices * experts_per_device)));
    }
  }
  const auto plan = moe::Dispatcher::build(expert_of, devices,
                                           experts_per_device, partitions);

  for (const auto& part : plan.parts) {
    for (int dst = 0; dst < devices; ++dst) {
      // Per-row reference: for each source block, tokens arrive sorted by
      // expert; rows for local expert e are the block rows whose token
      // routed to global expert dst*experts_per_device + e.
      std::vector<std::vector<std::int64_t>> want(
          static_cast<std::size_t>(experts_per_device));
      for (int srcd = 0; srcd < devices; ++srcd) {
        std::int64_t row = part.recv_offset[static_cast<std::size_t>(dst)]
                                           [static_cast<std::size_t>(srcd)];
        const auto& routing = part.src[static_cast<std::size_t>(srcd)];
        for (std::int64_t t : routing.order) {
          const std::int64_t e =
              expert_of[static_cast<std::size_t>(srcd)]
                       [static_cast<std::size_t>(t)];
          if (static_cast<int>(e / experts_per_device) != dst) continue;
          want[static_cast<std::size_t>(e % experts_per_device)].push_back(
              row);
          ++row;
        }
      }
      for (int local = 0; local < experts_per_device; ++local) {
        std::vector<std::int64_t> got;
        for (const moe::RowSpan& s :
             part.expert_spans[static_cast<std::size_t>(dst)]
                              [static_cast<std::size_t>(local)]) {
          for (std::int64_t r = s.offset; r < s.offset + s.count; ++r) {
            got.push_back(r);
          }
        }
        EXPECT_EQ(got, want[static_cast<std::size_t>(local)])
            << "dst " << dst << " expert " << local;
      }
    }
  }
}

TEST(DispatcherSpans, GatherScatterRoundTrip) {
  Rng rng(21);
  Tensor buf = Tensor(Shape{10, 3});
  init_normal(buf, rng);
  const moe::RowSpanList spans = {{0, 2}, {5, 1}, {7, 3}};
  EXPECT_EQ(moe::span_rows(spans), 6);
  Tensor packed = moe::gather_spans(buf, spans);
  ASSERT_EQ(packed.dim(0), 6);
  Tensor restored(Shape{10, 3});
  moe::scatter_spans(packed, restored, spans);
  for (const moe::RowSpan& s : spans) {
    EXPECT_FLOAT_EQ(
        max_abs_diff(restored.slice_rows(s.offset, s.offset + s.count),
                     buf.slice_rows(s.offset, s.offset + s.count)),
        0.0f);
  }
  // Rows outside the spans stay zero.
  EXPECT_FLOAT_EQ(restored.slice_rows(2, 5).abs_max(), 0.0f);
}

}  // namespace
}  // namespace mpipe
