#include "sim/op_graph.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/check.h"

namespace mpipe::sim {

std::string to_string(OpCategory category) {
  switch (category) {
    case OpCategory::kGemm: return "gemm";
    case OpCategory::kElementwise: return "elementwise";
    case OpCategory::kAllToAll: return "alltoall";
    case OpCategory::kP2P: return "p2p";
    case OpCategory::kAllReduce: return "allreduce";
    case OpCategory::kBroadcast: return "broadcast";
    case OpCategory::kMemcpyD2H: return "memcpy_d2h";
    case OpCategory::kMemcpyH2D: return "memcpy_h2d";
    case OpCategory::kHostCompute: return "host";
  }
  return "?";
}

int OpGraph::add(Op op) {
  MPIPE_EXPECTS(!op.devices.empty(), "op must name at least one device");
  MPIPE_EXPECTS(op.base_seconds >= 0.0, "negative duration");
  for (int dep : op.deps) {
    MPIPE_EXPECTS(dep >= 0 && dep < size(),
                  "dependency on unknown op: " + op.label);
  }
  op.id = size();
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

int OpGraph::add(std::string label, OpCategory category, StreamKind stream,
                 std::vector<int> devices, double base_seconds,
                 std::vector<int> deps, std::function<void()> fn,
                 double compute_efficiency) {
  Op op;
  op.label = std::move(label);
  op.category = category;
  op.stream = stream;
  op.devices = std::move(devices);
  op.base_seconds = base_seconds;
  op.deps = std::move(deps);
  op.fn = std::move(fn);
  op.compute_efficiency = compute_efficiency;
  return add(std::move(op));
}

const Op& OpGraph::op(int id) const {
  MPIPE_EXPECTS(id >= 0 && id < size(), "op id out of range");
  return ops_[static_cast<std::size_t>(id)];
}

Op& OpGraph::op(int id) {
  MPIPE_EXPECTS(id >= 0 && id < size(), "op id out of range");
  return ops_[static_cast<std::size_t>(id)];
}

OpGraph::DependencyView OpGraph::dependency_view() const {
  // Adjacency over explicit deps plus the implicit FIFO edge from each
  // stream's previous op to the next one enqueued on the same stream.
  const std::size_t n = ops_.size();
  DependencyView view;
  view.successors.resize(n);
  view.in_degree.assign(n, 0);
  int max_device = -1;
  for (const Op& op : ops_) {
    for (int dep : op.deps) {
      view.successors[static_cast<std::size_t>(dep)].push_back(op.id);
      ++view.in_degree[static_cast<std::size_t>(op.id)];
    }
    for (int device : op.devices) {
      MPIPE_CHECK(device >= 0,
                  "op '" + op.label + "' references a negative device");
      max_device = std::max(max_device, device);
    }
  }
  // Last op enqueued per (device, kind) stream; -1 while the stream is idle.
  std::vector<int> last_on_stream(
      static_cast<std::size_t>(max_device + 1) * kNumStreamKinds, -1);
  for (const Op& op : ops_) {
    for (int device : op.devices) {
      int& last = last_on_stream[static_cast<std::size_t>(device) *
                                     kNumStreamKinds +
                                 static_cast<std::size_t>(op.stream)];
      if (last >= 0) {
        view.successors[static_cast<std::size_t>(last)].push_back(op.id);
        ++view.in_degree[static_cast<std::size_t>(op.id)];
      }
      last = op.id;
    }
  }

  // Kahn's algorithm, always taking the smallest ready id.
  std::vector<int> in_deg = view.in_degree;
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
  for (std::size_t id = 0; id < n; ++id) {
    if (in_deg[id] == 0) ready.push(static_cast<int>(id));
  }
  view.order.reserve(n);
  while (!ready.empty()) {
    const int id = ready.top();
    ready.pop();
    view.order.push_back(id);
    for (int next : view.successors[static_cast<std::size_t>(id)]) {
      if (--in_deg[static_cast<std::size_t>(next)] == 0) ready.push(next);
    }
  }
  MPIPE_CHECK(view.order.size() == n,
              "op graph has a cycle (deps conflict with stream FIFO order)");
  return view;
}

bool OpGraph::is_timing_only() const {
  for (const Op& op : ops_) {
    if (op.fn) return false;
  }
  return true;
}

OpGraph::DependencyView OpGraph::validate(int num_devices) const {
  for (const Op& op : ops_) {
    for (int device : op.devices) {
      MPIPE_CHECK(device >= 0 && device < num_devices,
                  "op '" + op.label + "' references device out of range");
    }
    // A collective occupies each participant exactly once.
    if (op.devices.size() <= 1) continue;
    std::vector<int> devs = op.devices;
    std::sort(devs.begin(), devs.end());
    MPIPE_CHECK(std::adjacent_find(devs.begin(), devs.end()) == devs.end(),
                "op '" + op.label + "' lists a device twice");
  }
  // Cycle check over the combined graph.
  return dependency_view();
}

std::vector<int> OpGraph::topo_order() const {
  return dependency_view().order;
}

}  // namespace mpipe::sim
