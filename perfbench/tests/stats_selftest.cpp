/// Self-test of the benchmark's arithmetic (src/stats.h). Exits non-zero on
/// the first wrong figure; run.py runs it before every measurement and the
/// benchmark's own ctest registers it as perfbench_selftest.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_selftest: FAILED %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void percentiles() {
  using perfbench::highest_supported_percentile;
  // p90 needs ten samples beyond it: 100 is the first sample size that has.
  expect(highest_supported_percentile(99) == 0.5, "99 samples support p50");
  expect(highest_supported_percentile(100) == 0.9, "100 samples support p90");
  expect(highest_supported_percentile(999) == 0.9, "999 samples: p90");
  expect(highest_supported_percentile(1000) == 0.99, "1000 samples: p99");
  expect(highest_supported_percentile(10000) == 0.999, "10000: p99.9");
  expect(highest_supported_percentile(19) == 0.0, "19 samples: nothing");
  expect(highest_supported_percentile(20) == 0.5, "20 samples: p50");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(near(perfbench::percentile(v, 0.5), 50.5), "median of 1..100");
  expect(near(perfbench::percentile(v, 0.9), 90.1), "p90 of 1..100");
  expect(near(perfbench::percentile(v, 0.0), 1.0), "p0 is the minimum");
  expect(near(perfbench::percentile(v, 1.0), 100.0), "p100 is the maximum");
  expect(perfbench::percentile({}, 0.5) == 0.0, "empty sample");
  expect(near(perfbench::median({3.0}), 3.0), "single sample");
}

void failure_shares() {
  expect(perfbench::failure_share(0, 250) == 0.0, "clean run");
  expect(near(perfbench::failure_share(5, 250), 0.02), "5 of 250");
  expect(perfbench::failure_share(0, 0) == 1.0,
         "nothing attempted reads as total failure");
}

void padding_shares() {
  using perfbench::dispatched_rows;
  // 9 tokens on 4 devices shard as 3 rows per device: 12 rows, 3 padded.
  expect(dispatched_rows(9, 4) == 12, "9 tokens dispatch 12 rows");
  expect(dispatched_rows(8, 4) == 8, "8 tokens dispatch 8 rows");
  expect(dispatched_rows(1, 4) == 4, "1 token dispatches 4 rows");
  expect(near(perfbench::padding_share({9, 8, 1}, 4), (3.0 + 0 + 3) / 24.0),
         "padding over three batches");
  expect(perfbench::padding_share({}, 4) == 0.0, "no batches");
  expect(perfbench::padding_share({64, 128}, 4) == 0.0, "even batches");
}

void token_accounting() {
  // Batch jitter changes the per-device batch each step; every device
  // trains on the same size, so a step's tokens are size x devices.
  const std::vector<std::int64_t> sizes = {384, 640, 511};
  std::int64_t total = 0;
  for (const std::int64_t b : sizes) total += perfbench::step_tokens(b, 4);
  expect(total == (384 + 640 + 511) * 4, "jittered steps sum per step");

  // Chunked rate: two chunks of 2 steps each; rates 100/s and 300/s.
  const std::vector<std::int64_t> tokens = {100, 100, 300, 300};
  const std::vector<double> seconds = {1.0, 1.0, 1.0, 1.0};
  expect(near(perfbench::median_chunk_rate(tokens, seconds, 2), 200.0),
         "median of two chunk rates");
  // One slow step drags a total but not the median of three chunks.
  const std::vector<std::int64_t> t3 = {10, 10, 10, 10, 10, 10};
  const std::vector<double> s3 = {1.0, 1.0, 1.0, 1.0, 1.0, 9.0};
  expect(near(perfbench::median_chunk_rate(t3, s3, 3), 10.0),
         "a stall in one chunk leaves the median");
  // More chunks than samples degrades to one sample per chunk.
  expect(near(perfbench::median_chunk_rate({5, 15}, {1.0, 1.0}, 10), 10.0),
         "chunks capped at the sample count");
  expect(perfbench::median_chunk_rate({}, {}, 10) == 0.0, "no samples");
}

}  // namespace

int main() {
  percentiles();
  failure_shares();
  padding_shares();
  token_accounting();
  if (failures == 0) std::printf("stats_selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
