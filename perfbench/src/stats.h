#pragma once
/// \file stats.h
/// The benchmark's own arithmetic: percentiles, failure and padding shares,
/// and token accounting. Kept free of library types so that
/// tests/stats_selftest.cpp can pin every formula on hand-made inputs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile, p in [0, 1]. 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// The highest of the percentiles 0.5, 0.9, 0.99, 0.999 that leaves at least
/// `min_beyond` samples above it in a sample of `n`; 0 when even the median
/// is unsupported. Tail figures beyond this rest on too few samples to
/// repeat from run to run.
inline double highest_supported_percentile(std::size_t n,
                                           std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    // Samples strictly above the p-quantile: floor(n * (1 - p)), computed
    // in integers so that e.g. n = 100, p = 0.9 gives exactly 10.
    const auto per_mille = static_cast<std::size_t>(std::lround(p * 1000.0));
    const std::size_t beyond = n * (1000 - per_mille) / 1000;
    if (beyond >= min_beyond) best = p;
  }
  return best;
}

/// Failed operations over attempted ones. Nothing attempted counts as total
/// failure: a run that did no work must not read as a clean run.
inline double failure_share(std::int64_t failed, std::int64_t attempted) {
  if (attempted <= 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

/// One served micro-batch as the server dispatches it: `tokens` real rows
/// sharded over `devices`, every device padded to ceil(tokens / devices).
inline std::int64_t dispatched_rows(std::int64_t tokens, int devices) {
  const std::int64_t per_device = (tokens + devices - 1) / devices;
  return per_device * devices;
}

/// Padded rows over dispatched rows across a set of batches.
inline double padding_share(const std::vector<std::int64_t>& batch_tokens,
                            int devices) {
  std::int64_t real = 0, dispatched = 0;
  for (const std::int64_t t : batch_tokens) {
    real += t;
    dispatched += dispatched_rows(t, devices);
  }
  if (dispatched == 0) return 0.0;
  return static_cast<double>(dispatched - real) /
         static_cast<double>(dispatched);
}

/// Tokens a training step consumes: every device trains on its own batch of
/// the step's (jittered) size.
inline std::int64_t step_tokens(std::int64_t batch_per_device, int devices) {
  return batch_per_device * devices;
}

/// Throughput of a closed loop measured as per-sample (tokens, seconds)
/// pairs: the samples are cut into `chunks` consecutive groups, each group's
/// rate is tokens over seconds, and the median group rate is returned. A
/// median of chunk rates shrugs off a stall that would drag a plain total.
inline double median_chunk_rate(const std::vector<std::int64_t>& tokens,
                                const std::vector<double>& seconds,
                                std::size_t chunks) {
  const std::size_t n = std::min(tokens.size(), seconds.size());
  if (n == 0 || chunks == 0) return 0.0;
  chunks = std::min(chunks, n);
  std::vector<double> rates;
  rates.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    double tok = 0.0, sec = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      tok += static_cast<double>(tokens[i]);
      sec += seconds[i];
    }
    if (sec > 0.0) rates.push_back(tok / sec);
  }
  return median(rates);
}

}  // namespace perfbench
