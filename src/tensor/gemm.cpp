#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace mpipe {

namespace {

// ---- blocking parameters --------------------------------------------------
// One C tile is MC x NC; K is consumed in KC slices. Per K slice the packed
// B block (KC*NC floats) is shared by every row block of a task's run, and
// the micro-kernel streams one KC x NR B micro-panel against MR-row A
// micro-panels read in place. The register tile is MR x NR = 8 x 32
// (sixteen zmm accumulators) under AVX-512 and 8 x 16 elsewhere. KC is
// part of the numeric contract: every C element accumulates its k products
// in order in one FMA chain per KC slice, and the slice sums are added to C
// in slice order, so changing KC would change the bits of every result.
// MR, NR, MC and NC only change the schedule.
constexpr std::int64_t kMR = 8;
#if defined(__AVX512F__)
constexpr std::int64_t kNR = 32;
#else
constexpr std::int64_t kNR = 16;
#endif
constexpr std::int64_t kMC = 64;
constexpr std::int64_t kNC = 128;
constexpr std::int64_t kKC = 256;
static_assert(kMC % kMR == 0 && kNC % kNR == 0, "tile/micro mismatch");

/// 64-byte-aligned thread-local scratch for packed B blocks.
class AlignedScratch {
 public:
  float* get(std::size_t n) {
    if (raw_.size() < n + kPad) raw_.resize(n + kPad);
    const auto addr = reinterpret_cast<std::uintptr_t>(raw_.data());
    return raw_.data() + (64 - addr % 64) % 64 / sizeof(float);
  }

 private:
  static constexpr std::size_t kPad = 64 / sizeof(float);
  std::vector<float> raw_;
};

/// A matrix operand as the kernel sees it: `trans` means the logical
/// (rows x cols) element (r, c) lives at data[c * ld + r].
struct MatView {
  const float* data;
  std::int64_t ld;
  bool trans;
};

/// One MR-row A micro-panel, read in place rather than packed: element
/// (m, k) is row[m][k * kstep]. Both layouts stream unit-stride in one
/// direction (along k for A, along m for A^T), so the kernel's broadcasts
/// need no copy of A. Rows past a ragged edge alias the last real row: the
/// kernel computes them without branching and never stores them.
struct APanel {
  const float* row[kMR];
  std::int64_t kstep;
};

APanel a_panel(const MatView& a, std::int64_t i, std::int64_t k0,
               std::int64_t mr) {
  APanel p;
  p.kstep = a.trans ? a.ld : 1;
  const std::int64_t mstep = a.trans ? 1 : a.ld;
  const float* base =
      a.trans ? a.data + k0 * a.ld + i : a.data + i * a.ld + k0;
  for (std::int64_t m = 0; m < kMR; ++m) {
    p.row[m] = base + std::min(m, mr - 1) * mstep;
  }
  return p;
}

/// dst[c * ldd + r] = src[r * ld + c] for the 8 x 8 block at src: the
/// transposing step of the nt-B pack. Plain element loops of this shape
/// compile to scalar strided stores; the AVX form is 24 shuffles per 64
/// floats.
inline void transpose_8x8(const float* MPIPE_RESTRICT src, std::int64_t ld,
                          float* MPIPE_RESTRICT dst, std::int64_t ldd) {
#if defined(__AVX__)
  __m256 r[8], t[8];
  for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * ld);
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  for (int i = 0; i < 8; i += 4) {
    r[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * ldd,
                     _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * ldd,
                     _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
  }
#else
  for (int c = 0; c < 8; ++c) {
    for (int r = 0; r < 8; ++r) dst[c * ldd + r] = src[r * ld + c];
  }
#endif
}

/// The B operand in any storage dtype: `trans` means the logical
/// (k x n) element (k, j) lives at data[j * ld + k]. `scales` is the
/// per-stored-row fp32 scale array (kI8 only).
struct BView {
  const void* data;
  std::int64_t ld;
  bool trans;
  DType dtype = DType::kF32;
  const float* scales = nullptr;
};

/// Packs the logical B block [k0, k0+kc) x [j0, j0+nb) into NR-column micro
/// panels ([k][j] order), zero-padding ragged columns. Templated over the
/// stored element type with a converter mapping (element, stored row) to
/// fp32 — dequantization rides the same pass as the nt transpose, so the
/// micro-kernel always consumes fp32 panels. The fp32 instantiation's
/// converter is the identity: loop-for-loop the legacy copy.
template <typename T, typename Conv>
void pack_b_t(const T* MPIPE_RESTRICT data, std::int64_t ld, bool trans,
              const Conv& conv, std::int64_t k0, std::int64_t j0,
              std::int64_t kc, std::int64_t nb, float* MPIPE_RESTRICT out) {
  for (std::int64_t jp = 0; jp < nb; jp += kNR) {
    const std::int64_t nr = std::min(kNR, nb - jp);
    float* MPIPE_RESTRICT panel = out + jp * kc;
    if (trans) {
      // B stored (n x k): each output column is unit-stride in k. Full
      // fp32 panels transpose in 8 x 8 blocks; the remainder goes one
      // column at a time.
      std::int64_t kt = 0;
      if constexpr (std::is_same_v<T, float>) {
        if (nr == kNR) {
          for (; kt + 8 <= kc; kt += 8) {
            for (std::int64_t j = 0; j < kNR; j += 8) {
              transpose_8x8(data + (j0 + jp + j) * ld + k0 + kt, ld,
                            panel + kt * kNR + j, kNR);
            }
          }
        }
      }
      for (std::int64_t j = 0; j < nr; ++j) {
        const std::int64_t row = j0 + jp + j;
        const T* MPIPE_RESTRICT src = data + row * ld + k0;
        for (std::int64_t k = kt; k < kc; ++k) {
          panel[k * kNR + j] = conv(src[k], row);
        }
      }
      for (std::int64_t j = nr; j < kNR; ++j) {
        for (std::int64_t k = 0; k < kc; ++k) panel[k * kNR + j] = 0.0f;
      }
    } else {
      for (std::int64_t k = 0; k < kc; ++k) {
        const std::int64_t row = k0 + k;
        const T* MPIPE_RESTRICT src = data + row * ld + j0 + jp;
        float* MPIPE_RESTRICT dst = panel + k * kNR;
        if (nr == kNR) {
          for (std::int64_t j = 0; j < kNR; ++j) dst[j] = conv(src[j], row);
        } else {
          for (std::int64_t j = 0; j < nr; ++j) dst[j] = conv(src[j], row);
          for (std::int64_t j = nr; j < kNR; ++j) dst[j] = 0.0f;
        }
      }
    }
  }
}

/// Dtype dispatch for pack_b_t — one switch per panel, nothing in the
/// element loops.
void pack_b(const BView& b, std::int64_t k0, std::int64_t j0,
            std::int64_t kc, std::int64_t nb, float* MPIPE_RESTRICT out) {
  switch (b.dtype) {
    case DType::kF32:
      pack_b_t(
          static_cast<const float*>(b.data), b.ld, b.trans,
          [](float v, std::int64_t) { return v; }, k0, j0, kc, nb, out);
      return;
    case DType::kBF16:
      pack_b_t(
          static_cast<const std::uint16_t*>(b.data), b.ld, b.trans,
          [](std::uint16_t v, std::int64_t) { return f32_from_bf16(v); },
          k0, j0, kc, nb, out);
      return;
    case DType::kI8: {
      const float* MPIPE_RESTRICT scales = b.scales;
      pack_b_t(
          static_cast<const std::int8_t*>(b.data), b.ld, b.trans,
          [scales](std::int8_t v, std::int64_t row) {
            return static_cast<float>(v) * scales[row];
          },
          k0, j0, kc, nb, out);
      return;
    }
  }
  MPIPE_UNREACHABLE("unknown dtype");
}

/// Prefetches the A values the kernel reads 8 k steps after `ak`. A^T
/// panels step a whole row (often 4 KiB) per k, beyond what the hardware
/// stride prefetcher follows; the first and last row cover both cache lines
/// the 8 values can span. For A panels the hardware already streams the
/// rows and this only touches lines it has fetched.
inline void prefetch_a(const APanel& a, std::int64_t ak) {
#if defined(__GNUC__) || defined(__clang__)
  // Integer arithmetic: the address may lie past the end of A, and a
  // prefetch never faults, but forming such a pointer would be UB.
  const auto ahead = static_cast<std::uintptr_t>(8 * a.kstep) * sizeof(float);
  for (const float* row : {a.row[0], a.row[kMR - 1]}) {
    __builtin_prefetch(reinterpret_cast<const void*>(
        reinterpret_cast<std::uintptr_t>(row + ak) + ahead));
  }
#endif
}

/// C[0..mr) x [0..nr) (+)= A panel * packed B panel over kc steps. The
/// accumulator block (kMR rows of kNR floats) stays in registers for the
/// whole k loop; each k step loads one B row and broadcasts kMR A values
/// into FMAs.
#if defined(__AVX512F__)

// Two zmm accumulators per row, spelled with intrinsics: GCC 12 keeps the
// sixteen accumulators in registers this way, while the vector-extension
// form of the same 8 x 32 tile spills them.
void micro_kernel(const APanel& a, const float* MPIPE_RESTRICT bp,
                  std::int64_t kc, float* MPIPE_RESTRICT c, std::int64_t ldc,
                  std::int64_t mr, std::int64_t nr, bool overwrite) {
  static_assert(kNR == 32, "the AVX-512 tile is two zmm columns wide");
  __m512 lo[kMR], hi[kMR];
  for (std::int64_t m = 0; m < kMR; ++m) {
    lo[m] = _mm512_setzero_ps();
    hi[m] = _mm512_setzero_ps();
  }
  for (std::int64_t k = 0, ak = 0; k < kc; ++k, ak += a.kstep) {
    const __m512 b_lo = _mm512_load_ps(bp + k * kNR);
    const __m512 b_hi = _mm512_load_ps(bp + k * kNR + 16);
    prefetch_a(a, ak);
    for (std::int64_t m = 0; m < kMR; ++m) {
      const __m512 av = _mm512_set1_ps(a.row[m][ak]);
      lo[m] = _mm512_fmadd_ps(av, b_lo, lo[m]);
      hi[m] = _mm512_fmadd_ps(av, b_hi, hi[m]);
    }
  }
  // Ragged columns are masked; ragged rows are simply not written.
  const __mmask16 mask_lo =
      nr >= 16 ? __mmask16(0xFFFF) : __mmask16((1u << nr) - 1);
  const __mmask16 mask_hi =
      nr >= 32 ? __mmask16(0xFFFF)
               : nr > 16 ? __mmask16((1u << (nr - 16)) - 1) : __mmask16(0);
  for (std::int64_t m = 0; m < kMR; ++m) {
    if (m == mr) break;
    float* crow = c + m * ldc;
    __m512 v_lo = lo[m], v_hi = hi[m];
    if (!overwrite) {
      v_lo = _mm512_add_ps(_mm512_maskz_loadu_ps(mask_lo, crow), v_lo);
      v_hi = _mm512_add_ps(_mm512_maskz_loadu_ps(mask_hi, crow + 16), v_hi);
    }
    _mm512_mask_storeu_ps(crow, mask_lo, v_lo);
    _mm512_mask_storeu_ps(crow + 16, mask_hi, v_hi);
  }
}

#elif defined(__GNUC__) || defined(__clang__)

// The non-AVX-512 kernel, 8 x 16. Explicit vector type: GCC 12's
// auto-vectorizer turns the equivalent scalar loops into a permute
// cascade, so the kernel spells out the shape it wants. vector_size(64)
// compiles on any target (narrower ISAs split the ops); alignment 4 keeps
// loads/stores legal on unpadded C rows.
typedef float VRow __attribute__((vector_size(kNR * sizeof(float)),
                                  aligned(alignof(float))));

void micro_kernel(const APanel& a, const float* MPIPE_RESTRICT bp,
                  std::int64_t kc, float* MPIPE_RESTRICT c, std::int64_t ldc,
                  std::int64_t mr, std::int64_t nr, bool overwrite) {
  VRow acc[kMR] = {};
  for (std::int64_t k = 0, ak = 0; k < kc; ++k, ak += a.kstep) {
    const VRow brow = *reinterpret_cast<const VRow*>(bp + k * kNR);
    prefetch_a(a, ak);
    for (std::int64_t m = 0; m < kMR; ++m) {
      acc[m] += a.row[m][ak] * brow;
    }
  }
  if (mr == kMR && nr == kNR) {
    for (std::int64_t m = 0; m < kMR; ++m) {
      VRow* crow = reinterpret_cast<VRow*>(c + m * ldc);
      *crow = overwrite ? acc[m] : *crow + acc[m];
    }
    return;
  }
  for (std::int64_t m = 0; m < mr; ++m) {
    float* crow = c + m * ldc;
    if (overwrite) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = acc[m][j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += acc[m][j];
    }
  }
}

#else  // portable scalar fallback

void micro_kernel(const APanel& a, const float* MPIPE_RESTRICT bp,
                  std::int64_t kc, float* MPIPE_RESTRICT c, std::int64_t ldc,
                  std::int64_t mr, std::int64_t nr, bool overwrite) {
  float acc[kMR * kNR] = {};
  for (std::int64_t k = 0, ak = 0; k < kc; ++k, ak += a.kstep) {
    const float* brow = bp + k * kNR;
    for (std::int64_t m = 0; m < kMR; ++m) {
      const float am = a.row[m][ak];
      float* accrow = acc + m * kNR;
      for (std::int64_t j = 0; j < kNR; ++j) accrow[j] += am * brow[j];
    }
  }
  for (std::int64_t m = 0; m < mr; ++m) {
    float* crow = c + m * ldc;
    const float* accrow = acc + m * kNR;
    if (overwrite) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = accrow[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += accrow[j];
    }
  }
}

#endif

/// Bias/activation over one finished C tile, applied while the tile is
/// still cache-hot — the "fused" epilogue that replaces whole-tensor
/// add_bias_/relu passes.
void epilogue_tile(float* MPIPE_RESTRICT c, std::int64_t ldc,
                   std::int64_t mb, std::int64_t nb,
                   const float* MPIPE_RESTRICT bias, GemmEpilogue ep) {
  for (std::int64_t m = 0; m < mb; ++m) {
    float* MPIPE_RESTRICT crow = c + m * ldc;
    switch (ep) {
      case GemmEpilogue::kBias:
        for (std::int64_t j = 0; j < nb; ++j) crow[j] += bias[j];
        break;
      case GemmEpilogue::kBiasReLU:
        for (std::int64_t j = 0; j < nb; ++j) {
          const float v = crow[j] + bias[j];
          crow[j] = v > 0.0f ? v : 0.0f;
        }
        break;
      case GemmEpilogue::kBiasGELU:
        for (std::int64_t j = 0; j < nb; ++j) {
          crow[j] = gelu_scalar(crow[j] + bias[j]);
        }
        break;
      case GemmEpilogue::kNone:
        break;
    }
  }
}

/// bias_grad[j0+j] += colsum of one packed B panel (kc x nb, zero-padded
/// NR-column micro panels). Padding columns sum to zero, so the inner loop
/// runs full kNR lanes and only the write-back respects the ragged edge.
void reduce_b_panel(const float* MPIPE_RESTRICT bpack, std::int64_t kc,
                    std::int64_t nb, float* MPIPE_RESTRICT bias_grad) {
  for (std::int64_t jp = 0; jp < nb; jp += kNR) {
    const float* MPIPE_RESTRICT panel = bpack + jp * kc;
    float acc[kNR] = {};
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* MPIPE_RESTRICT brow = panel + kk * kNR;
      for (std::int64_t j = 0; j < kNR; ++j) acc[j] += brow[j];
    }
    const std::int64_t nr = std::min(kNR, nb - jp);
    for (std::int64_t j = 0; j < nr; ++j) bias_grad[jp + j] += acc[j];
  }
}

/// Shared driver: parallelizes over the M x N tile grid, numbered
/// column-block-major so that a task's contiguous tile range splits into
/// runs of row blocks under one column block. Per K slice a run packs its
/// B block once into thread-local scratch and reuses it for every row
/// block, packing only that block's A panel; a tile's epilogue runs right
/// after its last K slice. When `bias_grad` is set, the run that holds row
/// block 0 of a column range additionally accumulates colsum(B) from the
/// packed block it already holds; K slices reduce in order inside that one
/// task, keeping the sum deterministic under any thread count.
void gemm_driver(const MatView& a, const BView& b, float* c,
                 std::int64_t ldc, std::int64_t m, std::int64_t n,
                 std::int64_t k, bool accumulate, const float* bias,
                 GemmEpilogue ep, float* bias_grad = nullptr) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (std::int64_t i = 0; i < m; ++i) {
      if (!accumulate) std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    }
    if (ep != GemmEpilogue::kNone) {
      for (std::int64_t i0 = 0; i0 < m; i0 += kMC) {
        epilogue_tile(c + i0 * ldc, ldc, std::min(kMC, m - i0), n, bias, ep);
      }
    }
    return;
  }

  const std::int64_t mt = (m + kMC - 1) / kMC;
  const std::int64_t nt = (n + kNC - 1) / kNC;
  ThreadPool::shared().parallel_for(
      static_cast<std::size_t>(mt * nt),
      [&](std::size_t tile_begin, std::size_t tile_end) {
        static thread_local AlignedScratch b_scratch;
        float* bpack = b_scratch.get(static_cast<std::size_t>(kKC * kNC));
        const auto end = static_cast<std::int64_t>(tile_end);
        for (auto run = static_cast<std::int64_t>(tile_begin); run < end;) {
          const std::int64_t jb = run / mt;
          const std::int64_t run_end = std::min(end, (jb + 1) * mt);
          const std::int64_t j0 = jb * kNC;
          const std::int64_t nb = std::min(kNC, n - j0);
          for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
            const std::int64_t kc = std::min(kKC, k - k0);
            const bool overwrite = !accumulate && k0 == 0;
            const bool last_slice = k0 + kc == k;
            pack_b(b, k0, j0, kc, nb, bpack);
            if (bias_grad != nullptr && run % mt == 0) {
              reduce_b_panel(bpack, kc, nb, bias_grad + j0);
            }
            for (std::int64_t t = run; t < run_end; ++t) {
              const std::int64_t i0 = t % mt * kMC;
              const std::int64_t mb = std::min(kMC, m - i0);
              for (std::int64_t jp = 0; jp < nb; jp += kNR) {
                const std::int64_t nr = std::min(kNR, nb - jp);
                for (std::int64_t ip = 0; ip < mb; ip += kMR) {
                  const std::int64_t mr = std::min(kMR, mb - ip);
                  micro_kernel(a_panel(a, i0 + ip, k0, mr), bpack + jp * kc,
                               kc, c + (i0 + ip) * ldc + j0 + jp, ldc, mr, nr,
                               overwrite);
                }
              }
              if (last_slice && ep != GemmEpilogue::kNone) {
                epilogue_tile(c + i0 * ldc + j0, ldc, mb, nb, bias + j0, ep);
              }
            }
          }
          run = run_end;
        }
      },
      /*grain=*/1);
}

void check_2d(const Tensor& t, const char* name) {
  MPIPE_EXPECTS(t.defined(), std::string(name) + " is null");
  MPIPE_EXPECTS(t.shape().rank() == 2, std::string(name) + " must be 2-D");
}

}  // namespace

std::uint64_t gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(k);
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MPIPE_EXPECTS(b.dim(0) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  gemm_driver({a.data(), k, false}, {b.data(), n, false}, c.data(), n, m, n,
              k, accumulate, nullptr, GemmEpilogue::kNone);
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  MPIPE_EXPECTS(b.dim(1) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  gemm_driver({a.data(), k, false}, {b.data(), k, true}, c.data(), n, m, n,
              k, accumulate, nullptr, GemmEpilogue::kNone);
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  MPIPE_EXPECTS(b.dim(0) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  gemm_driver({a.data(), m, true}, {b.data(), n, false}, c.data(), n, m, n,
              k, accumulate, nullptr, GemmEpilogue::kNone);
}

void gemm_tn_bias_grad(const Tensor& a, const Tensor& b, Tensor& c,
                       Tensor& bias_grad, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  MPIPE_EXPECTS(b.dim(0) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  MPIPE_EXPECTS(bias_grad.defined() && bias_grad.shape().rank() == 1 &&
                    bias_grad.dim(0) == n,
                "bias_grad length must equal output columns");
  gemm_driver({a.data(), m, true}, {b.data(), n, false}, c.data(), n, m, n,
              k, accumulate, nullptr, GemmEpilogue::kNone, bias_grad.data());
}

void gemm_bias_act(const Tensor& a, const Tensor& b, const Tensor& bias,
                   GemmEpilogue epilogue, Tensor& c) {
  check_2d(a, "A");
  check_2d(b, "B");
  check_2d(c, "C");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MPIPE_EXPECTS(b.dim(0) == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  const float* bias_ptr = nullptr;
  if (epilogue != GemmEpilogue::kNone) {
    MPIPE_EXPECTS(bias.defined() && bias.shape().rank() == 1 &&
                      bias.dim(0) == n,
                  "bias length must equal output columns");
    bias_ptr = bias.data();
  }
  gemm_driver({a.data(), k, false}, {b.data(), n, false}, c.data(), n, m, n,
              k, /*accumulate=*/false, bias_ptr, epilogue);
}

void gemm_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
               Tensor& c) {
  gemm_bias_act(a, b, bias, GemmEpilogue::kBias, c);
}

namespace {

void check_quant_b(const QuantView& b) {
  MPIPE_EXPECTS(b.data != nullptr && b.rows > 0 && b.cols > 0,
                "quantized B operand is null");
  MPIPE_EXPECTS(b.dtype != DType::kI8 || b.row_scales != nullptr,
                "int8 B operand needs per-row scales");
}

}  // namespace

void gemm_bias_act_q(const Tensor& a, const QuantView& b, const Tensor& bias,
                     GemmEpilogue epilogue, Tensor& c) {
  check_2d(a, "A");
  check_2d(c, "C");
  check_quant_b(b);
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.cols;
  MPIPE_EXPECTS(b.rows == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  const float* bias_ptr = nullptr;
  if (epilogue != GemmEpilogue::kNone) {
    MPIPE_EXPECTS(bias.defined() && bias.shape().rank() == 1 &&
                      bias.dim(0) == n,
                  "bias length must equal output columns");
    bias_ptr = bias.data();
  }
  gemm_driver({a.data(), k, false}, {b.data, n, false, b.dtype, b.row_scales},
              c.data(), n, m, n, k, /*accumulate=*/false, bias_ptr, epilogue);
}

void gemm_nt_q(const Tensor& a, const QuantView& b, Tensor& c,
               bool accumulate) {
  check_2d(a, "A");
  check_2d(c, "C");
  check_quant_b(b);
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.rows;
  MPIPE_EXPECTS(b.cols == k, "inner dimension mismatch");
  MPIPE_EXPECTS(c.dim(0) == m && c.dim(1) == n, "output shape mismatch");
  gemm_driver({a.data(), k, false}, {b.data, k, true, b.dtype, b.row_scales},
              c.data(), n, m, n, k, accumulate, nullptr, GemmEpilogue::kNone);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c(Shape{a.dim(0), b.dim(1)});
  gemm(a, b, c);
  return c;
}

}  // namespace mpipe
