/// perfbench: the repository's end-to-end benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--commit <id>]
///
/// One workload per process. Training workloads run Trainer::train_step in a
/// closed loop (the next step starts when the previous one ends); the
/// serving workload replays open-arrival traces through Server::run, whose
/// arrivals are on the server's virtual clock while the host executes as
/// fast as it can. Every timing is wall clock (steady_clock), never thread
/// CPU time, because the pool workers do much of the work.
///
/// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
/// metrics: spans taken here, around the library's public calls, plus the
/// executed graph's own per-op profile (profile_execution). The last stdout
/// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// See perfbench/README.md for the workloads and the metric map.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/thread_pool.h"
#include "core/moe_layer.h"
#include "runtime/adam.h"
#include "runtime/trainer.h"
#include "runtime/workload.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "sim/cluster.h"
#include "stats.h"
#include "tensor/ops.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mpipe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kDevices = 4;
/// Set-ups per run: at least kMinSetups, then more while they have taken
/// less than kSetupBudgetSeconds in all, up to kMaxSetups. setup_s is their
/// median, so a cheap set-up, whose time is mostly noise, gets more samples.
constexpr std::size_t kMinSetups = 7;
constexpr std::size_t kMaxSetups = 31;
constexpr double kSetupBudgetSeconds = 2.0;
/// Each run measures at least this many steps or replays, so that p90 has
/// at least ten samples beyond it, even when --seconds is short.
constexpr std::size_t kMinSamples = 100;
/// A run never measures longer than this, whatever --seconds asks.
constexpr double kMaxMeasureSeconds = 120.0;
/// tokens_per_s is the median rate of this many consecutive sample chunks.
constexpr std::size_t kRateChunks = 10;
constexpr double kMB = 1e6;

// ---------------------------------------------------------------- output

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What --trace 0 prints, in order. BENCHMARK.json lists the same names.
constexpr MetricDef kEndToEnd[] = {
    {"tokens_per_s", "tokens/s"}, {"step_p50_ms", "ms"},
    {"setup_s", "s"},             {"peak_mem_mb", "MB"},
    {"peak_rss_mb", "MB"},        {"virtual_p50_ms", "ms"},
    {"virtual_p99_ms", "ms"},
};

/// What --trace 1 prints, in order. A layer the workload never enters
/// (serving's optimizer, training's batcher) reads 0.
constexpr MetricDef kPerLayer[] = {
    {"runtime.synth_ms", "ms"},
    {"runtime.loss_ms", "ms"},
    {"runtime.adam_ms", "ms"},
    {"core.forward_ms", "ms"},
    {"core.backward_ms", "ms"},
    {"core.zero_grad_ms", "ms"},
    {"core.offgraph_ms", "ms"},
    {"core.search_full_searches", "count"},
    {"core.search_hit_ratio", "ratio"},
    {"core.n_partitions_mean", "count"},
    {"sim.graph_ms", "ms"},
    {"sim.overlap_ratio", "ratio"},
    {"moe.compute_busy_ms", "ms"},
    {"comm.comm_busy_ms", "ms"},
    {"mem.memcpy_busy_ms", "ms"},
    {"tensor.gemm_gflop", "GFLOP"},
    {"comm.alltoall_payload_mb", "MB"},
    {"mem.activations_mb", "MB"},
    {"mem.temp_buffers_mb", "MB"},
    {"mem.comm_buffers_mb", "MB"},
    {"common.pool_tasks", "count"},
    {"serve.batches", "count"},
    {"serve.mean_batch_tokens", "tokens"},
    {"serve.padding_share", "ratio"},
    {"serve.forward_only_ms", "ms"},
    {"serve.loop_overhead_ms", "ms"},
    {"serve.plan_ms", "ms"},
    {"serve.queue_delay_p99_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_share", "ratio"},
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;
  /// Printed in the readable table only, not in the result object: the
  /// step-time tail moves too much with host noise to hold a bound.
  double step_p90_ms = 0.0;

  /// One output check: attempted once, failed when `ok` is false.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
  void add(const std::string& name, double value) { values[name] = value; }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints a readable table, then the result object as the last line.
template <std::size_t N>
void print_result(Result r, const MetricDef (&defs)[N], bool zero_if_missing) {
  std::string metrics;
  for (const MetricDef& d : defs) {
    const auto it = r.values.find(d.name);
    double v = 0.0;
    if (it != r.values.end()) {
      v = it->second;
    } else {
      r.check(zero_if_missing, std::string("metric ") + d.name + " measured");
    }
    r.check(std::isfinite(v), std::string("metric ") + d.name + " finite");
    if (!std::isfinite(v)) v = 0.0;
    std::printf("# %-28s %18.6f %s\n", d.name, v, d.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + d.name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + d.unit + "\"}";
  }
  if (!zero_if_missing) {
    std::printf("# %-28s %18.6f %s (not in the result)\n", "step_p90_ms",
                r.step_p90_ms, "ms");
  }
  std::printf("# failed_share %.6f (%lld of %lld)\n",
              perfbench::failure_share(r.failed, r.attempted),
              static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ host class

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string isa_flags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const std::pair<const char*, bool> known[] = {
      {"sse4.2", static_cast<bool>(__builtin_cpu_supports("sse4.2"))},
      {"avx", static_cast<bool>(__builtin_cpu_supports("avx"))},
      {"avx2", static_cast<bool>(__builtin_cpu_supports("avx2"))},
      {"fma", static_cast<bool>(__builtin_cpu_supports("fma"))},
      {"avx512f", static_cast<bool>(__builtin_cpu_supports("avx512f"))},
  };
  for (const auto& [name, on] : known) {
    if (!on) continue;
    if (!flags.empty()) flags += ",";
    flags += name;
  }
#endif
  return flags.empty() ? "none" : flags;
}

void print_host(const std::string& workload, std::uint64_t seed,
                std::size_t workers, const std::string& commit) {
  std::printf(
      "host {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
      "\"pool_workers\": %zu, \"cpu_model\": \"%s\", \"isa\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"clock\": \"steady_clock wall\"}\n",
      json_escape(workload).c_str(), static_cast<unsigned long long>(seed),
      online_cpus(), workers, json_escape(cpu_model()).c_str(),
      isa_flags().c_str(), json_escape(compiler()).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(commit).c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss: KiB
}

std::uint64_t pool_tasks() { return ThreadPool::shared().tasks_enqueued(); }

/// The i-th seed derived from `seed` (splitmix64 finalizer).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Seed of the k-th set-up before the measured one: each set-up runs on
/// inputs of its own, so that setup_s is not the cost of one seed's first
/// batch.
std::uint64_t setup_seed(std::uint64_t seed, std::size_t k) {
  return mix_seed(~seed, static_cast<std::uint64_t>(k));
}

bool more_setups(const std::vector<double>& setup_s) {
  if (setup_s.size() < kMinSetups) return true;
  if (setup_s.size() >= kMaxSetups) return false;
  double total = 0.0;
  for (const double t : setup_s) total += t;
  return total < kSetupBudgetSeconds;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Expert GEMM FLOPs for `rows` routed rows of a d_model x d_hidden FFN
/// (top-1 routing: each row visits one expert). Forward is two GEMMs of
/// 2*M*H each; backward is four (two input grads, two weight grads); a
/// strategy that restores T_M by recomputation reruns the first GEMM.
double expert_gemm_flops(std::int64_t rows, std::int64_t m, std::int64_t h,
                         bool backward, bool recompute) {
  double per_row = 4.0;
  if (backward) per_row += 8.0 + (recompute ? 2.0 : 0.0);
  return per_row * static_cast<double>(rows) * static_cast<double>(m) *
         static_cast<double>(h);
}

/// Per-step figures read from StepReport, shared by both tiers' traces.
struct GraphSample {
  double graph_s = 0.0;
  double busy_s = 0.0;
  std::array<double, sim::kNumOpClasses> class_s{};
  std::uint64_t payload_bytes = 0;
  core::MemorySnapshot memory;
  int n = 1;
};

GraphSample graph_sample(const core::StepReport& r) {
  GraphSample g;
  g.graph_s = r.forward_measured.makespan + r.backward_measured.makespan;
  for (int c = 0; c < sim::kNumOpClasses; ++c) {
    g.class_s[static_cast<std::size_t>(c)] =
        r.forward_diff.measured_class_seconds[static_cast<std::size_t>(c)] +
        r.backward_diff.measured_class_seconds[static_cast<std::size_t>(c)];
    g.busy_s += g.class_s[static_cast<std::size_t>(c)];
  }
  g.payload_bytes = r.alltoall_payload_bytes;
  g.memory = r.memory;
  g.n = r.n_partitions;
  return g;
}

/// Adds the graph-side per-layer metrics averaged over `samples`.
void add_graph_metrics(Result& res, const std::vector<GraphSample>& samples,
                       double wall_in_layer_s, double gemm_flops_per_step) {
  const double k =
      static_cast<double>(std::max<std::size_t>(1, samples.size()));
  double graph = 0.0, busy = 0.0, n = 0.0, payload = 0.0;
  std::array<double, sim::kNumOpClasses> cls{};
  core::MemorySnapshot peak;
  for (const GraphSample& g : samples) {
    graph += g.graph_s;
    busy += g.busy_s;
    n += g.n;
    payload += static_cast<double>(g.payload_bytes);
    for (std::size_t c = 0; c < cls.size(); ++c) cls[c] += g.class_s[c];
    peak.activations = std::max(peak.activations, g.memory.activations);
    peak.temp_buffers = std::max(peak.temp_buffers, g.memory.temp_buffers);
    peak.comm = std::max(peak.comm, g.memory.comm);
  }
  res.add("core.offgraph_ms", (wall_in_layer_s - graph) / k * 1e3);
  res.add("core.n_partitions_mean", n / k);
  res.add("sim.graph_ms", graph / k * 1e3);
  res.add("sim.overlap_ratio", graph > 0.0 ? busy / graph : 0.0);
  res.add("moe.compute_busy_ms",
          cls[static_cast<std::size_t>(sim::OpClass::kCompute)] / k * 1e3);
  res.add("comm.comm_busy_ms",
          cls[static_cast<std::size_t>(sim::OpClass::kComm)] / k * 1e3);
  res.add("mem.memcpy_busy_ms",
          cls[static_cast<std::size_t>(sim::OpClass::kMemcpy)] / k * 1e3);
  res.add("tensor.gemm_gflop", gemm_flops_per_step / 1e9);
  res.add("comm.alltoall_payload_mb", payload / k / kMB);
  res.add("mem.activations_mb", static_cast<double>(peak.activations) / kMB);
  res.add("mem.temp_buffers_mb", static_cast<double>(peak.temp_buffers) / kMB);
  res.add("mem.comm_buffers_mb", static_cast<double>(peak.comm) / kMB);
}

// -------------------------------------------------------------- training

struct TrainSpec {
  core::MoELayerOptions layer;
  runtime::TrainerOptions trainer;
};

core::MoELayerOptions narrow_layer() {
  core::MoELayerOptions o;
  o.d_model = 64;
  o.d_hidden = 256;
  o.num_experts = 4;
  o.num_partitions = 8;
  o.strategy = core::ReuseStrategy::kS1;
  o.parallel_execution = true;
  return o;
}

TrainSpec train_spec(const std::string& workload, std::uint64_t seed) {
  TrainSpec s;
  double jitter = 0.0;
  if (workload == "train_narrow_offload") {
    s.layer = narrow_layer();
  } else {
    // train_wide_adaptive: the library defaults (adaptive n and strategy)
    // except the parallel executor.
    s.layer.d_model = 256;
    s.layer.d_hidden = 1024;
    s.layer.num_experts = 4;
    s.layer.parallel_execution = true;
    jitter = 0.25;
  }
  s.trainer.workload.d_model = s.layer.d_model;
  s.trainer.workload.tokens_per_device = 512;
  s.trainer.workload.num_devices = kDevices;
  s.trainer.workload.batch_jitter = jitter;
  s.trainer.workload.seed = seed;
  s.trainer.load_calibration = false;
  return s;
}

/// A layer driven by the library's Trainer. Not movable: the layer and
/// trainer hold pointers into the members before them.
struct TrainerRig {
  sim::Cluster cluster;
  core::MoELayer layer;
  runtime::Trainer trainer;
  TrainerRig(const TrainSpec& s, bool parallel)
      : cluster(sim::Cluster::dgx_a100_pod(1, kDevices)),
        layer(cluster, with_parallel(s.layer, parallel)),
        trainer(layer, s.trainer) {}
  TrainerRig(const TrainerRig&) = delete;
  TrainerRig& operator=(const TrainerRig&) = delete;

  static core::MoELayerOptions with_parallel(core::MoELayerOptions o,
                                             bool parallel) {
    o.parallel_execution = parallel;
    return o;
  }
};

/// The same step composed from the public calls Trainer::train_step makes,
/// in the same order, with a span around each call.
struct ComposedRig {
  sim::Cluster cluster;
  core::MoELayer layer;
  runtime::WorkloadGenerator workload;
  runtime::Adam adam;
  ComposedRig(const TrainSpec& s)
      : cluster(sim::Cluster::dgx_a100_pod(1, kDevices)),
        layer(cluster, profiled(s.layer)),
        workload(s.trainer.workload),
        adam(layer.parameters(), layer.gradients(), s.trainer.adam) {}
  ComposedRig(const ComposedRig&) = delete;
  ComposedRig& operator=(const ComposedRig&) = delete;

  static core::MoELayerOptions profiled(core::MoELayerOptions o) {
    o.profile_execution = true;
    return o;
  }
};

/// Seconds spent in each call of one composed step; `step` is the whole
/// step's wall time, bookkeeping included.
struct Phases {
  double zero_grad = 0, synth = 0, forward = 0, loss = 0, backward = 0,
         adam = 0, refresh = 0, step = 0;
  double sum() const {
    return zero_grad + synth + forward + loss + backward + adam + refresh;
  }
  Phases& operator+=(const Phases& o) {
    zero_grad += o.zero_grad;
    synth += o.synth;
    forward += o.forward;
    loss += o.loss;
    backward += o.backward;
    adam += o.adam;
    refresh += o.refresh;
    step += o.step;
    return *this;
  }
};

double composed_step(ComposedRig& r, Phases& ph, std::int64_t& batch) {
  const auto t0 = Clock::now();
  r.layer.zero_grad();
  const auto t1 = Clock::now();
  auto inputs = r.workload.next_batch();
  auto targets = r.workload.targets_for(inputs);
  const auto t2 = Clock::now();
  auto outputs = r.layer.forward(inputs);
  const auto t3 = Clock::now();
  double loss = 0.0;
  std::vector<Tensor> grads;
  grads.reserve(outputs.size());
  for (std::size_t d = 0; d < outputs.size(); ++d) {
    loss += mse_loss(outputs[d], targets[d]);
    grads.push_back(mse_loss_grad(outputs[d], targets[d]));
  }
  loss /= static_cast<double>(outputs.size());
  const auto t4 = Clock::now();
  r.layer.backward(grads);
  const auto t5 = Clock::now();
  r.adam.step();
  const auto t6 = Clock::now();
  r.layer.refresh_quantized_weights();
  const auto t7 = Clock::now();
  auto s = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  ph.zero_grad = s(t0, t1);
  ph.synth = s(t1, t2);
  ph.forward = s(t2, t3);
  ph.loss = s(t3, t4);
  ph.backward = s(t4, t5);
  ph.adam = s(t5, t6);
  ph.refresh = s(t6, t7);
  batch = r.workload.last_batch_tokens();
  return loss;
}

/// What a closed loop over Trainer::train_step observed.
struct TrainLoop {
  std::vector<double> step_s;
  std::vector<double> modeled_s;
  std::vector<double> losses;
  std::uint64_t peak_bytes = 0;
  std::int64_t failed = 0;
};

void trainer_step(TrainerRig& rig, TrainLoop& out) {
  double loss = 0.0;
  bool ok = true;
  const auto t0 = Clock::now();
  try {
    loss = rig.trainer.train_step();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: step failed: " << e.what() << "\n";
    ok = false;
  }
  out.step_s.push_back(seconds_since(t0));
  if (!ok || !std::isfinite(loss)) ++out.failed;
  out.losses.push_back(loss);
  const core::StepReport& r = rig.layer.last_report();
  out.modeled_s.push_back(r.step_seconds());
  out.peak_bytes = std::max(out.peak_bytes, r.memory.total_peak);
}

/// True while a loop that started at `start` and has taken `samples`
/// samples should keep measuring: until `seconds` have passed and at least
/// `min_samples` were taken, but never past kMaxMeasureSeconds.
bool keep_measuring(Clock::time_point start, std::size_t samples,
                    double seconds, std::size_t min_samples = kMinSamples) {
  const double elapsed = seconds_since(start);
  if (elapsed > kMaxMeasureSeconds) return false;
  return samples < min_samples || elapsed < seconds;
}

/// Per-device batch size of each of the first `steps` steps a fresh
/// Trainer on `spec` consumes. The Trainer keeps its generator private, so
/// a twin generator on the same options replays the stream.
std::vector<std::int64_t> replay_batch_sizes(const TrainSpec& spec,
                                             std::size_t steps) {
  std::vector<std::int64_t> sizes;
  sizes.reserve(steps);
  if (spec.trainer.workload.batch_jitter == 0.0) {
    sizes.assign(steps, spec.trainer.workload.tokens_per_device);
    return sizes;
  }
  runtime::WorkloadGenerator twin(spec.trainer.workload);
  for (std::size_t i = 0; i < steps; ++i) {
    twin.next_batch();
    sizes.push_back(twin.last_batch_tokens());
  }
  return sizes;
}

double first_loss_trainer(const TrainSpec& spec, bool parallel) {
  TrainerRig rig(spec, parallel);
  return rig.trainer.train_step();
}

/// The output checks both training modes make, against the first-step loss
/// of a parallel-executor Trainer.
void check_training(Result& res, const TrainSpec& spec, double trainer_first,
                    double traced_first, double last_loss) {
  res.check(std::isfinite(last_loss), "loss finite after the run");
  res.check(same_bits(traced_first, trainer_first),
            "traced composition's first-step loss equals "
            "Trainer::train_step's bitwise");
  res.check(same_bits(first_loss_trainer(spec, false), trainer_first),
            "serial and parallel executors give bitwise-equal first-step "
            "loss");
}

Result train_end_to_end(const std::string& workload, std::uint64_t seed,
                        double seconds) {
  Result res;
  const TrainSpec spec = train_spec(workload, seed);

  // Set up several times (construction + one warm-up step); the last
  // set-up, on the run's seed, is the rig measured.
  std::vector<double> setup_s;
  std::unique_ptr<TrainerRig> rig;
  double first_loss = 0.0;
  for (bool last = false; !last;) {
    last = !more_setups(setup_s);
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<TrainerRig>(
        last ? spec : train_spec(workload, setup_seed(seed, setup_s.size())),
        true);
    first_loss = rig->trainer.train_step();
    setup_s.push_back(seconds_since(t0));
  }

  TrainLoop loop;
  const auto start = Clock::now();
  while (keep_measuring(start, loop.step_s.size(), seconds)) {
    trainer_step(*rig, loop);
  }
  res.attempted += static_cast<std::int64_t>(loop.step_s.size());
  res.failed += loop.failed;
  // Read before the checks below build rigs of their own.
  const double rss_mb = peak_rss_mb();

  // Warm-up consumed batch 0; the timed steps are batches 1..N.
  const auto sizes = replay_batch_sizes(spec, loop.step_s.size() + 1);
  std::vector<std::int64_t> tokens;
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    tokens.push_back(perfbench::step_tokens(sizes[i], kDevices));
  }

  {
    ComposedRig composed(spec);
    Phases ph;
    std::int64_t batch = 0;
    const double traced_first = composed_step(composed, ph, batch);
    check_training(res, spec, first_loss, traced_first, loop.losses.back());
  }
  res.check(perfbench::highest_supported_percentile(loop.step_s.size()) >= 0.9,
            "enough steps for p90");

  res.add("tokens_per_s",
          perfbench::median_chunk_rate(tokens, loop.step_s, kRateChunks));
  res.add("step_p50_ms", perfbench::percentile(loop.step_s, 0.5) * 1e3);
  res.step_p90_ms = perfbench::percentile(loop.step_s, 0.9) * 1e3;
  res.add("setup_s", perfbench::median(setup_s));
  res.add("peak_mem_mb", static_cast<double>(loop.peak_bytes) / kMB);
  res.add("peak_rss_mb", rss_mb);
  res.add("virtual_p50_ms", perfbench::percentile(loop.modeled_s, 0.5) * 1e3);
  res.add("virtual_p99_ms", perfbench::percentile(loop.modeled_s, 0.99) * 1e3);
  return res;
}

double search_hit_ratio(const core::SearchStats& st) {
  const auto lookups = st.cache_hits + st.range_hits + st.full_searches;
  if (lookups == 0) return 0.0;
  return static_cast<double>(st.cache_hits + st.range_hits) /
         static_cast<double>(lookups);
}

/// Steps per block when a traced run alternates untraced and traced steps,
/// so that drift in the host's speed hits both sides of
/// trace.overhead_share alike.
constexpr int kTraceBlock = 10;

Result train_traced(const std::string& workload, std::uint64_t seed,
                    double seconds) {
  Result res;
  const TrainSpec spec = train_spec(workload, seed);

  // The untraced Trainer is the reference for trace.overhead_share; the
  // composed rig makes the same calls with a span around each and the
  // executed graphs profiled per op.
  TrainerRig plain(spec, true);
  TrainLoop untraced;
  const double trainer_first = plain.trainer.train_step();
  ComposedRig rig(spec);
  Phases ph;
  std::int64_t batch = 0;
  const double traced_first = composed_step(rig, ph, batch);

  Phases total;
  std::vector<GraphSample> graphs;
  std::vector<double> step_s;
  double gemm_flops = 0.0, pool = 0.0, last_loss = 0.0;
  const auto start = Clock::now();
  while (keep_measuring(start, step_s.size(), seconds, 1)) {
    for (int i = 0; i < kTraceBlock; ++i) trainer_step(plain, untraced);
    for (int i = 0; i < kTraceBlock; ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t tasks0 = pool_tasks();
      bool ok = true;
      try {
        last_loss = composed_step(rig, ph, batch);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: traced step failed: " << e.what() << "\n";
        ok = false;
      }
      ++res.attempted;
      if (!ok || !std::isfinite(last_loss)) ++res.failed;
      const core::StepReport& r = rig.layer.last_report();
      pool += static_cast<double>(pool_tasks() - tasks0);
      gemm_flops += expert_gemm_flops(
          perfbench::step_tokens(batch, kDevices), spec.layer.d_model,
          spec.layer.d_hidden, true,
          core::restores_tm_by_recompute(r.strategy));
      graphs.push_back(graph_sample(r));
      ph.step = seconds_since(t0);
      step_s.push_back(ph.step);
      total += ph;
    }
  }
  res.attempted += static_cast<std::int64_t>(untraced.step_s.size());
  res.failed += untraced.failed;
  check_training(res, spec, trainer_first, traced_first, last_loss);

  const double k = static_cast<double>(step_s.size());
  const auto& st = rig.layer.searcher().stats();
  res.add("runtime.synth_ms", total.synth / k * 1e3);
  res.add("runtime.loss_ms", total.loss / k * 1e3);
  res.add("runtime.adam_ms", total.adam / k * 1e3);
  res.add("core.forward_ms", total.forward / k * 1e3);
  res.add("core.backward_ms", total.backward / k * 1e3);
  res.add("core.zero_grad_ms", total.zero_grad / k * 1e3);
  res.add("core.search_full_searches", static_cast<double>(st.full_searches));
  res.add("core.search_hit_ratio", search_hit_ratio(st));
  add_graph_metrics(res, graphs, total.forward + total.backward,
                    gemm_flops / k);
  res.add("common.pool_tasks", pool / k);
  res.add("trace.coverage", total.sum() / total.step);
  res.add("trace.overhead_share",
          perfbench::median(step_s) / perfbench::median(untraced.step_s) - 1.0);
  return res;
}

// --------------------------------------------------------------- serving

constexpr std::int64_t kServeRequests = 512;
/// Distinct traces a run cycles through. Their requests are pooled for the
/// virtual-clock percentiles, which would otherwise rest on one burst
/// pattern per seed.
constexpr int kServeTraces = 8;


std::vector<std::vector<serve::ServeRequest>> serve_traces(
    std::uint64_t seed) {
  std::vector<std::vector<serve::ServeRequest>> traces;
  for (int i = 0; i < kServeTraces; ++i) {
    serve::TrafficOptions t;
    t.num_requests = kServeRequests;
    t.rate_rps = 4000.0;
    t.min_tokens = 1;
    t.max_tokens = 64;
    t.d_model = narrow_layer().d_model;
    t.seed = mix_seed(seed, static_cast<std::uint64_t>(i));
    traces.push_back(serve::bursty_trace(t));
  }
  return traces;
}

core::MoELayerOptions serve_layer() {
  core::MoELayerOptions o = narrow_layer();
  o.num_partitions = 0;  // the SLO plan chooses n per dispatch
  return o;
}

serve::ServerOptions server_options(bool profiled, bool keep_outputs) {
  serve::ServerOptions o;
  o.slo.max_tokens_per_device = 64;
  o.profile_execution = profiled;
  o.keep_outputs = keep_outputs;
  return o;
}

struct ServeRig {
  sim::Cluster cluster;
  core::MoELayer layer;
  std::vector<std::vector<serve::ServeRequest>> traces;
  ServeRig(std::uint64_t seed)
      : cluster(sim::Cluster::dgx_a100_pod(1, kDevices)),
        layer(cluster, serve_layer()),
        traces(serve_traces(seed)) {}
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
};

/// Requests in `m` that break "ids 0..expected-1, each answered once":
/// unknown or repeated ids, plus ids never answered.
std::int64_t misanswered(const serve::ServeMetrics& m, std::int64_t expected) {
  std::vector<int> seen(static_cast<std::size_t>(expected), 0);
  std::int64_t bad = 0;
  for (const serve::RequestRecord& r : m.requests()) {
    if (r.id < 0 || r.id >= expected ||
        seen[static_cast<std::size_t>(r.id)]++ > 0) {
      ++bad;
    }
  }
  for (const int s : seen) bad += s == 0 ? 1 : 0;
  return bad;
}

struct Replay {
  double wall_s = 0.0;
  std::int64_t tokens = 0;
};

/// One timed replay of a trace via Server::run. A replay that throws fails
/// every request of its trace.
Replay replay(ServeRig& rig, int trace, Result& res) {
  serve::Server server(rig.layer, server_options(false, false));
  auto requests = rig.traces[static_cast<std::size_t>(trace)];
  res.attempted += kServeRequests;
  const auto t0 = Clock::now();
  try {
    const serve::ServeMetrics& m = server.run(std::move(requests));
    const Replay r{seconds_since(t0),
                   static_cast<std::int64_t>(m.total_tokens())};
    res.failed += misanswered(m, kServeRequests);
    return r;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: replay failed: " << e.what() << "\n";
    res.failed += kServeRequests;
    return {seconds_since(t0), 0};
  }
}

/// What batch-by-batch passes over the traces observe.
struct ServePass {
  std::vector<double> latency_s, queue_delay_s;
  std::vector<std::int64_t> batch_tokens;
  std::vector<double> forward_only_s;  ///< BatchRecord::measured_seconds
  std::vector<GraphSample> graphs;
  double drain_s = 0.0;  ///< wall of the one-batch drains
  double gemm_flops = 0.0, pool = 0.0, plan_s = 0.0;
  std::size_t servers = 0;
  std::uint64_t peak_bytes = 0;
};

/// Serves every trace one batch at a time, adding to `p`. drain(served + 1)
/// executes exactly one batch — the loop body Server::run iterates — so the
/// per-batch StepReport can be read after every dispatch.
void batch_pass(ServeRig& rig, bool profiled, bool keep_outputs, Result& res,
                ServePass& p) {
  const std::int64_t M = rig.layer.options().d_model;
  for (const auto& trace : rig.traces) {
    const auto t_plan = Clock::now();
    serve::Server server(rig.layer, server_options(profiled, keep_outputs));
    p.plan_s += seconds_since(t_plan);
    ++p.servers;
    for (const serve::ServeRequest& r : trace) server.queue().push(r);
    const std::size_t total = trace.size();
    while (server.metrics().requests_served() < total) {
      const std::uint64_t tasks0 = pool_tasks();
      const auto t0 = Clock::now();
      server.drain(server.metrics().requests_served() + 1);
      p.drain_s += seconds_since(t0);
      p.pool += static_cast<double>(pool_tasks() - tasks0);
      const serve::BatchRecord& b = server.metrics().batches().back();
      const core::StepReport& r = rig.layer.last_report();
      p.batch_tokens.push_back(b.tokens);
      p.forward_only_s.push_back(b.measured_seconds);
      p.graphs.push_back(graph_sample(r));
      p.peak_bytes = std::max(p.peak_bytes, r.memory.total_peak);
      p.gemm_flops += expert_gemm_flops(
          perfbench::dispatched_rows(b.tokens, kDevices), M,
          rig.layer.options().d_hidden, false, false);
    }
    const serve::ServeMetrics& m = server.metrics();
    for (const serve::RequestRecord& r : m.requests()) {
      p.latency_s.push_back(r.latency());
      p.queue_delay_s.push_back(r.queue_delay());
    }
    res.attempted += static_cast<std::int64_t>(total);
    res.failed += misanswered(m, static_cast<std::int64_t>(total));
    if (keep_outputs) {
      bool ok = true;
      for (const serve::ServeRequest& r : trace) {
        try {
          const Tensor& out = server.output_for(r.id);
          ok = ok && out.shape() == r.tokens.shape() && all_finite(out);
        } catch (const std::exception&) {
          ok = false;  // never served
        }
      }
      res.check(ok, "served outputs have the request's shape and are finite");
    }
  }
}

Result serve_end_to_end(std::uint64_t seed, double seconds) {
  Result res;
  std::vector<double> setup_s;
  std::unique_ptr<ServeRig> rig;
  for (bool last = false; !last;) {
    last = !more_setups(setup_s);
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<ServeRig>(
        last ? seed : setup_seed(seed, setup_s.size()));
    replay(*rig, 0, res);  // warm-up
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> replay_s;
  std::vector<std::int64_t> replay_tokens;
  const auto start = Clock::now();
  while (replay_s.size() < kServeTraces ||
         keep_measuring(start, replay_s.size(), seconds)) {
    const int trace = static_cast<int>(replay_s.size() % kServeTraces);
    const Replay r = replay(*rig, trace, res);
    replay_s.push_back(r.wall_s);
    replay_tokens.push_back(r.tokens);
  }
  const double rss_mb = peak_rss_mb();

  // Untimed accounting pass: the virtual clock's latencies and the
  // per-batch memory peak are deterministic per trace, and keep_outputs
  // checks the served rows.
  ServePass pass;
  batch_pass(*rig, false, true, res, pass);
  res.check(perfbench::highest_supported_percentile(pass.latency_s.size()) >=
                0.99,
            "enough requests for virtual p99");
  res.check(perfbench::highest_supported_percentile(replay_s.size()) >= 0.9,
            "enough replays for p90");

  res.add("tokens_per_s",
          perfbench::median_chunk_rate(replay_tokens, replay_s, kRateChunks));
  res.add("step_p50_ms", perfbench::percentile(replay_s, 0.5) * 1e3);
  res.step_p90_ms = perfbench::percentile(replay_s, 0.9) * 1e3;
  res.add("setup_s", perfbench::median(setup_s));
  res.add("peak_mem_mb", static_cast<double>(pass.peak_bytes) / kMB);
  res.add("peak_rss_mb", rss_mb);
  res.add("virtual_p50_ms", perfbench::percentile(pass.latency_s, 0.5) * 1e3);
  res.add("virtual_p99_ms", perfbench::percentile(pass.latency_s, 0.99) * 1e3);
  return res;
}

Result serve_traced(std::uint64_t seed, double seconds) {
  Result res;
  ServeRig rig(seed);
  replay(rig, 0, res);  // warm-up

  // Alternate untraced sweeps (Server::run over every trace, the reference
  // for trace.overhead_share) with traced ones (one batch per drain, every
  // dispatch profiled).
  ServePass traced;
  std::vector<double> untraced_sweep_s, traced_sweep_s;
  const auto start = Clock::now();
  while (keep_measuring(start, traced.servers, seconds, 1)) {
    double sweep = 0.0;
    for (int t = 0; t < kServeTraces; ++t) sweep += replay(rig, t, res).wall_s;
    untraced_sweep_s.push_back(sweep);
    const double before = traced.drain_s;
    batch_pass(rig, true, false, res, traced);
    traced_sweep_s.push_back(traced.drain_s - before);
  }

  const double batches = static_cast<double>(traced.batch_tokens.size());
  double forward = 0.0, mean_tokens = 0.0;
  for (const double s : traced.forward_only_s) forward += s;
  for (const std::int64_t t : traced.batch_tokens) {
    mean_tokens += static_cast<double>(t);
  }
  const auto& st = rig.layer.searcher().stats();
  res.add("core.forward_ms", forward / batches * 1e3);
  res.add("core.search_full_searches", static_cast<double>(st.full_searches));
  res.add("core.search_hit_ratio", search_hit_ratio(st));
  add_graph_metrics(res, traced.graphs, forward,
                    traced.gemm_flops / batches);
  res.add("common.pool_tasks", traced.pool / batches);
  res.add("serve.batches", batches / static_cast<double>(traced.servers));
  res.add("serve.mean_batch_tokens", mean_tokens / batches);
  res.add("serve.padding_share",
          perfbench::padding_share(traced.batch_tokens, kDevices));
  res.add("serve.forward_only_ms", forward / batches * 1e3);
  res.add("serve.loop_overhead_ms", (traced.drain_s - forward) / batches * 1e3);
  res.add("serve.plan_ms",
          traced.plan_s / static_cast<double>(traced.servers) * 1e3);
  res.add("serve.queue_delay_p99_ms",
          perfbench::percentile(traced.queue_delay_s, 0.99) * 1e3);
  res.add("trace.coverage", forward / traced.drain_s);
  res.add("trace.overhead_share", perfbench::median(traced_sweep_s) /
                                          perfbench::median(untraced_sweep_s) -
                                      1.0);
  return res;
}

// ------------------------------------------------------------------ main

int usage() {
  std::cerr << "usage: perfbench --workload "
               "<train_narrow_offload|train_wide_adaptive|serve_bursty> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return usage();
  }
  const std::string workload = args["workload"];
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  try {
    seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
    trace = std::stoi(args["trace"]) != 0;
  } catch (const std::exception&) {
    return usage();
  }
  const bool training = workload == "train_narrow_offload" ||
                        workload == "train_wide_adaptive";
  if (!training && workload != "serve_bursty") return usage();
  if (!(seconds > 0.0)) return usage();

  // The caller plus the workers use the CPUs this process may use (one
  // worker at least: 0 would mean "machine size").
  const std::size_t workers =
      static_cast<std::size_t>(std::max(1, online_cpus() - 1));
  ThreadPool::reset_shared(workers);
  print_host(workload, seed, workers,
             args.count("commit") ? args["commit"] : "unknown");

  try {
    Result res;
    if (training) {
      res = trace ? train_traced(workload, seed, seconds)
                  : train_end_to_end(workload, seed, seconds);
    } else {
      res = trace ? serve_traced(seed, seconds)
                  : serve_end_to_end(seed, seconds);
    }
    if (trace) {
      print_result(std::move(res), kPerLayer, true);
    } else {
      print_result(std::move(res), kEndToEnd, false);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
