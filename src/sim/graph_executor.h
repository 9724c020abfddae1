#pragma once
/// \file graph_executor.h
/// Concurrent functional execution of an OpGraph: a dependency-counting
/// worklist over the shared ThreadPool. An op becomes ready when every
/// predecessor (explicit dep or implicit per-stream FIFO edge) has
/// finished, so independent partitions'/devices' S / C1 / C2 / R ops — and
/// the mem-stream offload copies — genuinely overlap instead of merely
/// being *simulated* to overlap by the timing engine. Nested parallel_for
/// calls issued from op bodies keep the PR-1 contract: on a pool worker
/// they run inline, so op-level and kernel-level parallelism compose
/// without deadlock.
///
/// Safety is proved, not assumed: validate_hazards() checks that every two
/// ops the dependency graph leaves unordered declare disjoint read/write
/// byte ranges (Op::reads / Op::writes), in one sorted sweep over all
/// declared ranges. The ring-buffer WAR
/// edges of §III-D reuse already encode most of the ordering; the
/// validator is what catches a missing edge before it becomes a data race.
/// Because all cross-op ordering comes from graph edges — never from
/// execution timing — parallel execution is bitwise identical to the
/// serial topological reference order for any pool size.

#include "common/thread_pool.h"
#include "sim/op_graph.h"
#include "sim/profile.h"

namespace mpipe::sim {

/// How Cluster::run / run_functional execute a graph's closures.
enum class ExecutionPolicy {
  kSerial,    ///< deterministic topological order (reference mode)
  kParallel,  ///< dependency-counting worklist on the shared ThreadPool
};

/// Runs every functional closure of `graph` concurrently on `pool`,
/// honouring explicit deps + per-stream FIFO edges. Blocks until all ops
/// finished. The calling thread participates in draining ready ops. The
/// first exception thrown by a closure is rethrown after the remaining
/// ops are cancelled (their closures are skipped, dependency counts still
/// propagate so the executor always terminates). Called from inside a
/// pool worker it degrades to the serial reference order — enqueueing
/// sub-tasks the blocked parent waits on could deadlock the pool.
///
/// A non-null `profile` records each op's wall-clock start/end and the
/// executing drain loop's id (0 = caller, 1..k = pool helpers) into the
/// op's own pre-sized slot — race-free without locks because every op runs
/// exactly once, and published to the caller by the completion join. A
/// null profile costs one pointer test per op (the default, and the PR-4
/// behaviour bit for bit).
void run_graph_parallel(const OpGraph& graph, ThreadPool& pool,
                        ExecutionProfile* profile = nullptr);
/// The same, scheduling against a dependency view the caller already
/// computed for this graph (OpGraph::validate / dependency_view).
void run_graph_parallel(const OpGraph& graph,
                        const OpGraph::DependencyView& view, ThreadPool& pool,
                        ExecutionProfile* profile = nullptr);

/// The serial reference order (deterministic Kahn topo order), optionally
/// profiled the same way (every op records worker 0). This is the loop
/// Cluster::run_functional uses under ExecutionPolicy::kSerial and the
/// degraded path run_graph_parallel falls back to.
void run_graph_serial(const OpGraph& graph,
                      ExecutionProfile* profile = nullptr);
void run_graph_serial(const OpGraph& graph,
                      const OpGraph::DependencyView& view,
                      ExecutionProfile* profile = nullptr);

/// Throws CheckError naming the offending op pair when two ops that the
/// dependency graph leaves unordered declare overlapping byte ranges with
/// at least one write — or when a functional op that can run concurrently
/// with another functional op declares no accesses at all (an undeclared
/// closure is unverifiable, which is treated as a hazard). Timing-only
/// ops (no closure) are ignored. Cluster::run_functional calls this
/// before every parallel execution; tests call it directly on
/// deliberately broken graphs.
///
/// The declared ranges of all functional ops are sorted by (buffer,
/// begin) and swept once per buffer, so only ranges that actually
/// intersect are compared; each intersecting pair with a write is then
/// checked for a dependency path in a per-op ancestor bitset.
void validate_hazards(const OpGraph& graph);
/// The same proof against a dependency view already computed for `graph`.
void validate_hazards(const OpGraph& graph,
                      const OpGraph::DependencyView& view);

}  // namespace mpipe::sim
