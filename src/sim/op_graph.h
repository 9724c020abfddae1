#pragma once
/// \file op_graph.h
/// The unit of execution handed to the cluster: a DAG of operations, each
/// bound to one stream kind on one or more devices. Layer implementations
/// (MPipeMoE core, baselines) build one OpGraph per training step; the
/// cluster then (1) runs the functional closures — in a deterministic
/// topological order, or concurrently on the shared thread pool under
/// ExecutionPolicy::kParallel (sim/graph_executor.h) — and (2) simulates
/// the timed schedule with stream FIFO semantics and interference.
///
/// Functional ops declare the byte ranges they read and write
/// (BufferAccess). The declarations are the contract the concurrent
/// executor's hazard validator checks: any two ops left unordered by the
/// dependency graph must touch disjoint memory.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/stream.h"
#include "tensor/tensor.h"

namespace mpipe::sim {

/// One contiguous byte range of one storage buffer an op reads or writes.
/// `id` names the storage (a tensor's data pointer, a staging-slot token —
/// any address that is stable for the graph's lifetime and unique per
/// buffer); [begin, end) is the byte span within it. Ring-buffer slots
/// shared by several pipeline partitions naturally produce the same `id`,
/// which is exactly how the validator sees through the §III-D reuse
/// aliasing. Empty ranges (begin == end) never overlap anything.
struct BufferAccess {
  const void* id = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = std::numeric_limits<std::int64_t>::max();

  bool overlaps(const BufferAccess& other) const {
    return id == other.id && begin < end && other.begin < other.end &&
           begin < other.end && other.begin < end;
  }
};

/// The whole backing buffer of a tensor.
inline BufferAccess access_whole(const Tensor& t) {
  return {static_cast<const void*>(t.data()), 0,
          static_cast<std::int64_t>(t.nbytes())};
}

/// Rows [row_begin, row_begin + rows) of a 2-D tensor.
inline BufferAccess access_rows(const Tensor& t, std::int64_t row_begin,
                                std::int64_t rows) {
  const std::int64_t row_bytes =
      t.dim(1) * static_cast<std::int64_t>(sizeof(float));
  return {static_cast<const void*>(t.data()), row_begin * row_bytes,
          (row_begin + rows) * row_bytes};
}

/// Elements [begin, begin + count) of a flat float buffer (e.g. a
/// std::vector<float> accumulator).
inline BufferAccess access_floats(const float* base, std::int64_t begin,
                                  std::int64_t count) {
  return {static_cast<const void*>(base),
          begin * static_cast<std::int64_t>(sizeof(float)),
          (begin + count) * static_cast<std::int64_t>(sizeof(float))};
}

/// An opaque whole-buffer token (e.g. a host-staging slot).
inline BufferAccess access_token(const void* token) {
  return {token, 0, std::numeric_limits<std::int64_t>::max()};
}

enum class OpCategory : std::uint8_t {
  kGemm,
  kElementwise,
  kAllToAll,
  kP2P,
  kAllReduce,
  kBroadcast,
  kMemcpyD2H,
  kMemcpyH2D,
  kHostCompute,  ///< gating / dispatch bookkeeping; negligible device time
};

std::string to_string(OpCategory category);

struct Op {
  int id = -1;
  std::string label;
  OpCategory category = OpCategory::kElementwise;
  StreamKind stream = StreamKind::kCompute;
  /// Participating devices; collectives list the whole group, local ops one.
  std::vector<int> devices;
  /// Duration at full stream speed (seconds) — from the CostModel.
  double base_seconds = 0.0;
  /// For compute ops: achieved fraction of peak (for utilisation reports).
  double compute_efficiency = 1.0;
  /// Explicit dependencies (op ids). Per-stream FIFO order is implicit.
  std::vector<int> deps;
  /// Functional action; may be empty for timing-only graphs.
  std::function<void()> fn;
  /// Byte ranges `fn` reads/writes — required on every functional op that
  /// can run concurrently with another (sim::validate_hazards enforces
  /// this before parallel execution). Timing-only ops leave them empty.
  std::vector<BufferAccess> reads;
  std::vector<BufferAccess> writes;
};

class OpGraph {
 public:
  /// Appends an op; returns its id. Deps may reference any existing op.
  int add(Op op);

  /// Convenience builder.
  int add(std::string label, OpCategory category, StreamKind stream,
          std::vector<int> devices, double base_seconds,
          std::vector<int> deps, std::function<void()> fn = nullptr,
          double compute_efficiency = 1.0);

  const Op& op(int id) const;
  Op& op(int id);
  int size() const { return static_cast<int>(ops_.size()); }
  const std::vector<Op>& ops() const { return ops_; }

  /// The dependency structure the executors schedule against: successor
  /// lists and in-degrees over explicit deps *plus* the implicit per-stream
  /// FIFO edges (duplicate edges between the same pair are kept, so
  /// in-degree counts match successor multiplicity), and the deterministic
  /// topological order over them (Kahn, min-id first). Computing the order
  /// proves the graph acyclic. One view serves every consumer of one
  /// execution — validation, the hazard proof, the serial and parallel
  /// executors and the timing engine — so a graph is analysed once per run.
  struct DependencyView {
    std::vector<std::vector<int>> successors;
    std::vector<int> in_degree;
    std::vector<int> order;
  };
  /// Throws CheckError on a cycle.
  DependencyView dependency_view() const;

  /// Checks the DAG including the implicit per-stream FIFO edges; throws
  /// CheckError on cycles, bad deps, or bad device ids. Returns the
  /// dependency view the check computed, for reuse by the executors.
  DependencyView validate(int num_devices) const;

  /// Deterministic topological order (Kahn, min-id first) over explicit
  /// deps + stream FIFO edges; throws on a cycle.
  std::vector<int> topo_order() const;

  /// True when no op carries a functional closure (probe/timing graphs).
  bool is_timing_only() const;

 private:
  std::vector<Op> ops_;
};

}  // namespace mpipe::sim
