#include "sim/profile.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/units.h"

namespace mpipe::sim {

void ExecutionProfile::begin(int num_ops) {
  MPIPE_EXPECTS(num_ops >= 0, "negative op count");
  samples_.assign(static_cast<std::size_t>(num_ops), OpSample{});
  origin_ns_ = now_ns();
}

void ExecutionProfile::record(int id, int worker, std::int64_t start_ns,
                              std::int64_t end_ns) {
  // Each op id is executed exactly once, so this slot is written by exactly
  // one thread; the executor's completion join publishes the stores.
  OpSample& s = samples_[static_cast<std::size_t>(id)];
  s.start_ns = start_ns - origin_ns_;
  s.end_ns = end_ns - origin_ns_;
  s.worker = worker;
}

const OpSample& ExecutionProfile::sample(int id) const {
  MPIPE_EXPECTS(id >= 0 && id < size(), "op id out of range");
  return samples_[static_cast<std::size_t>(id)];
}

std::int64_t ExecutionProfile::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MeasuredTimeline build_timeline(const OpGraph& graph,
                                const ExecutionProfile& profile,
                                int num_devices) {
  MPIPE_EXPECTS(profile.size() == graph.size(),
                "profile does not match graph");
  MPIPE_EXPECTS(num_devices > 0, "need at least one device");
  MeasuredTimeline tl;
  tl.ops.assign(static_cast<std::size_t>(graph.size()), MeasuredOp{});
  tl.stream_busy.assign(static_cast<std::size_t>(num_devices),
                        {0.0, 0.0, 0.0});
  if (graph.size() == 0) return tl;

  std::int64_t first_start = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_end = std::numeric_limits<std::int64_t>::min();
  for (const OpSample& s : profile.samples()) {
    if (!s.recorded()) continue;
    MPIPE_CHECK(s.end_ns >= s.start_ns, "sample ends before it starts");
    first_start = std::min(first_start, s.start_ns);
    last_end = std::max(last_end, s.end_ns);
  }
  if (first_start > last_end) return tl;  // nothing recorded

  constexpr double kNsToS = 1e-9;
  for (const Op& op : graph.ops()) {
    const OpSample& s = profile.sample(op.id);
    if (!s.recorded()) continue;
    MeasuredOp& m = tl.ops[static_cast<std::size_t>(op.id)];
    m.id = op.id;
    m.start = static_cast<double>(s.start_ns - first_start) * kNsToS;
    m.end = static_cast<double>(s.end_ns - first_start) * kNsToS;
    m.worker = s.worker;
    for (int device : op.devices) {
      MPIPE_CHECK(device >= 0 && device < num_devices,
                  "op device out of range");
      tl.stream_busy[static_cast<std::size_t>(device)]
                    [static_cast<int>(op.stream)] += m.seconds();
    }
  }
  tl.makespan = static_cast<double>(last_end - first_start) * kNsToS;

  // Critical path: longest measured-duration chain through the dependency
  // graph (explicit deps + stream FIFO edges), over the recorded subgraph.
  // Processing in topological order makes each op's best predecessor final
  // before its successors look at it.
  const OpGraph::DependencyView view = graph.dependency_view();
  std::vector<double> path_cost(static_cast<std::size_t>(graph.size()), 0.0);
  std::vector<int> best_pred(static_cast<std::size_t>(graph.size()), -1);
  for (int u : view.order) {
    const MeasuredOp& m = tl.ops[static_cast<std::size_t>(u)];
    if (m.id >= 0) path_cost[static_cast<std::size_t>(u)] += m.seconds();
    for (int v : view.successors[static_cast<std::size_t>(u)]) {
      if (path_cost[static_cast<std::size_t>(u)] >
          path_cost[static_cast<std::size_t>(v)]) {
        path_cost[static_cast<std::size_t>(v)] =
            path_cost[static_cast<std::size_t>(u)];
        best_pred[static_cast<std::size_t>(v)] = u;
      }
    }
  }
  int tail = -1;
  for (int id = 0; id < graph.size(); ++id) {
    const double total = path_cost[static_cast<std::size_t>(id)];
    if (tail < 0 || total > tl.critical_path_seconds) {
      // path_cost excludes the op's own duration only for sources that
      // were never recorded; the comparison still finds the heaviest
      // chain endpoint.
      tl.critical_path_seconds = total;
      tail = id;
    }
  }
  for (int id = tail; id >= 0; id = best_pred[static_cast<std::size_t>(id)]) {
    if (tl.ops[static_cast<std::size_t>(id)].id >= 0) {
      tl.critical_path.push_back(id);
    }
  }
  std::reverse(tl.critical_path.begin(), tl.critical_path.end());
  return tl;
}

std::string to_string(OpClass c) {
  switch (c) {
    case OpClass::kCompute: return "compute";
    case OpClass::kComm: return "comm";
    case OpClass::kMemcpy: return "memcpy";
    case OpClass::kHost: return "host";
  }
  return "?";
}

OpClass op_class(OpCategory category) {
  switch (category) {
    case OpCategory::kGemm:
    case OpCategory::kElementwise:
      return OpClass::kCompute;
    case OpCategory::kAllToAll:
    case OpCategory::kP2P:
    case OpCategory::kAllReduce:
    case OpCategory::kBroadcast:
      return OpClass::kComm;
    case OpCategory::kMemcpyD2H:
    case OpCategory::kMemcpyH2D:
      return OpClass::kMemcpy;
    case OpCategory::kHostCompute:
      return OpClass::kHost;
  }
  MPIPE_UNREACHABLE("unknown op category");
}

double ScheduleDiff::class_ratio(OpClass c) const {
  const double sim = simulated_class_seconds[static_cast<int>(c)];
  const double meas = measured_class_seconds[static_cast<int>(c)];
  if (sim <= 0.0 || meas <= 0.0) return 1.0;
  return meas / sim;
}

double ScheduleDiff::makespan_error() const {
  if (simulated_makespan <= 0.0) return 0.0;
  return (measured_makespan - simulated_makespan) / simulated_makespan;
}

std::string ScheduleDiff::summary() const {
  std::ostringstream os;
  os << "sim " << to_ms(simulated_makespan) << " ms, measured "
     << to_ms(measured_makespan) << " ms ("
     << (makespan_error() >= 0.0 ? "+" : "") << makespan_error() * 100.0
     << "%)";
  for (OpClass c :
       {OpClass::kCompute, OpClass::kComm, OpClass::kMemcpy}) {
    os << ", " << to_string(c) << " x" << class_ratio(c);
  }
  return os.str();
}

ScheduleDiff diff_schedules(const OpGraph& graph,
                            const TimingResult& simulated,
                            const MeasuredTimeline& measured) {
  MPIPE_EXPECTS(static_cast<int>(simulated.op_times.size()) == graph.size(),
                "simulated timing does not match graph");
  MPIPE_EXPECTS(static_cast<int>(measured.ops.size()) == graph.size(),
                "measured timeline does not match graph");
  ScheduleDiff diff;
  diff.simulated_makespan = simulated.makespan;
  diff.measured_makespan = measured.makespan;
  for (const Op& op : graph.ops()) {
    const OpTiming& sim = simulated.op_times[static_cast<std::size_t>(op.id)];
    const MeasuredOp& meas = measured.ops[static_cast<std::size_t>(op.id)];
    if (!sim.started() || meas.id < 0) continue;
    ScheduleDiff::OpDiff d;
    d.id = op.id;
    d.simulated = sim.seconds();
    d.measured = meas.seconds();
    diff.ops.push_back(d);
    const int cls = static_cast<int>(op_class(op.category));
    diff.simulated_class_seconds[cls] += d.simulated;
    diff.measured_class_seconds[cls] += d.measured;
  }
  return diff;
}

double OpClassCorrections::factor(OpCategory category) const {
  switch (op_class(category)) {
    case OpClass::kCompute: return compute;
    case OpClass::kComm: return comm;
    case OpClass::kMemcpy: return memcpy;
    case OpClass::kHost: return 1.0;
  }
  return 1.0;
}

void CorrectionFit::add(const ScheduleDiff& diff) {
  for (int c = 0; c < kNumOpClasses; ++c) {
    simulated_[static_cast<std::size_t>(c)] +=
        diff.simulated_class_seconds[static_cast<std::size_t>(c)];
    measured_[static_cast<std::size_t>(c)] +=
        diff.measured_class_seconds[static_cast<std::size_t>(c)];
  }
  ++steps_;
}

OpClassCorrections CorrectionFit::fit() const {
  auto ratio = [&](OpClass c) {
    const double sim = simulated_[static_cast<std::size_t>(c)];
    const double meas = measured_[static_cast<std::size_t>(c)];
    // No observed time in the class (or a degenerate zero measurement)
    // is no evidence: keep the identity factor.
    if (sim <= 0.0 || meas <= 0.0) return 1.0;
    return meas / sim;
  };
  OpClassCorrections c;
  c.compute = ratio(OpClass::kCompute);
  c.comm = ratio(OpClass::kComm);
  c.memcpy = ratio(OpClass::kMemcpy);
  return c;
}

std::vector<StragglerFlag> detect_stragglers(const OpGraph& graph,
                                             const ScheduleDiff& diff,
                                             double threshold,
                                             double min_excess_seconds) {
  std::vector<StragglerFlag> out;
  if (threshold <= 0.0) return out;
  // Per-class median measured/simulated ratio as the normalizer. A mean or
  // a total would let a single injected straggler dominate its class and
  // raise its own expectation enough to slip under the threshold.
  std::array<std::vector<double>, kNumOpClasses> ratios;
  for (const ScheduleDiff::OpDiff& od : diff.ops) {
    if (od.simulated <= 0.0) continue;
    const OpClass c = op_class(graph.op(od.id).category);
    ratios[static_cast<std::size_t>(c)].push_back(od.measured / od.simulated);
  }
  std::array<double, kNumOpClasses> median{};
  for (std::size_t c = 0; c < ratios.size(); ++c) {
    auto& r = ratios[c];
    if (r.empty()) continue;
    const std::size_t mid = r.size() / 2;
    std::nth_element(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(mid),
                     r.end());
    median[c] = r[mid];
  }
  for (const ScheduleDiff::OpDiff& od : diff.ops) {
    if (od.simulated <= 0.0) continue;
    const Op& op = graph.op(od.id);
    const double m = median[static_cast<std::size_t>(op_class(op.category))];
    const double expected = od.simulated * m;
    if (expected <= 0.0) continue;
    if (od.measured > threshold * expected &&
        od.measured - expected >= min_excess_seconds) {
      StragglerFlag flag;
      flag.id = od.id;
      flag.label = op.label;
      flag.simulated = od.simulated;
      flag.measured = od.measured;
      flag.expected = expected;
      out.push_back(std::move(flag));
    }
  }
  return out;
}

void apply_corrections(OpGraph& graph,
                       const OpClassCorrections& corrections) {
  if (corrections.identity()) return;
  MPIPE_EXPECTS(corrections.compute > 0.0 && corrections.comm > 0.0 &&
                    corrections.memcpy > 0.0,
                "correction factors must be positive");
  for (int id = 0; id < graph.size(); ++id) {
    Op& op = graph.op(id);
    op.base_seconds *= corrections.factor(op.category);
  }
}

}  // namespace mpipe::sim
