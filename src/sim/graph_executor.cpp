#include "sim/graph_executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace mpipe::sim {

namespace {

/// Shared state of one parallel graph run. Ready ops are handed out from a
/// mutex-guarded deque (ops are coarse — GEMMs, collectives — so queue
/// contention is negligible next to op bodies); dependency counts are
/// atomics so completions from different workers never serialise on the
/// lock while propagating.
struct ExecState {
  const OpGraph* graph = nullptr;
  /// Successor lists of the caller's dependency view. Like `graph`, read
  /// only while ops remain: every propagation happens before `done`
  /// reaches `total`, and the caller does not return before that.
  const std::vector<std::vector<int>>* succ = nullptr;
  std::vector<std::atomic<int>> pending;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;
  int done = 0;
  int total = 0;
  std::atomic<bool> cancelled{false};
  std::once_flag error_once;
  std::exception_ptr error;
  /// Profile sink; null when profiling is off. Recording is a store into
  /// the op's own pre-sized slot, so concurrent drains never contend.
  ExecutionProfile* profile = nullptr;

  explicit ExecState(int n) : pending(static_cast<std::size_t>(n)) {}

  /// Runs ops until every op in the graph has completed. Any thread may
  /// drain; all of them exit once `done == total`. `worker` is the drain
  /// loop's identity for the profile (0 = caller, 1..k = pool helpers).
  void drain(int worker) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return !ready.empty() || done == total; });
      if (ready.empty()) return;  // done == total: nothing left to run
      const int id = ready.front();
      ready.pop_front();
      lock.unlock();

      const Op& op = graph->op(id);
      // After a failure the remaining ops are cancelled: their closures
      // are skipped but dependency counts still propagate, so the run
      // always terminates and can rethrow the first error. Cancelled ops
      // are not recorded — the profile shows what actually executed.
      if (!cancelled.load(std::memory_order_acquire)) {
        const std::int64_t start_ns =
            profile ? ExecutionProfile::now_ns() : 0;
        if (op.fn) {
          try {
            op.fn();
          } catch (...) {
            std::call_once(error_once,
                           [this] { error = std::current_exception(); });
            cancelled.store(true, std::memory_order_release);
          }
        }
        if (profile) {
          profile->record(id, worker, start_ns, ExecutionProfile::now_ns());
        }
      }

      std::vector<int> newly_ready;
      for (int next : (*succ)[static_cast<std::size_t>(id)]) {
        if (pending[static_cast<std::size_t>(next)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          newly_ready.push_back(next);
        }
      }

      lock.lock();
      for (int next : newly_ready) ready.push_back(next);
      ++done;
      // Wake helpers for any extra ready ops, and everyone on completion.
      if (done == total || newly_ready.size() > 1) {
        cv.notify_all();
      } else if (newly_ready.size() == 1 && !ready.empty()) {
        cv.notify_one();
      }
    }
  }
};

std::string access_list(const std::vector<BufferAccess>& v) {
  std::ostringstream os;
  for (const BufferAccess& a : v) {
    os << " [" << a.id << " +" << a.begin << ".." << a.end << ")";
  }
  return os.str();
}

std::string conflict_message(const OpGraph& graph, int x, int y) {
  const Op& a = graph.op(std::min(x, y));
  const Op& b = graph.op(std::max(x, y));
  return "hazard validation: ops '" + a.label + "' and '" + b.label +
         "' are unordered (no dependency path, different streams) but "
         "touch overlapping memory — a WAR/WAW/RAW edge is missing.\n  " +
         a.label + " writes:" + access_list(a.writes) + "\n  " + b.label +
         " writes:" + access_list(b.writes);
}

}  // namespace

void run_graph_serial(const OpGraph& graph, ExecutionProfile* profile) {
  run_graph_serial(graph, graph.dependency_view(), profile);
}

void run_graph_serial(const OpGraph& graph,
                      const OpGraph::DependencyView& view,
                      ExecutionProfile* profile) {
  if (profile) profile->begin(graph.size());
  for (int id : view.order) {
    const Op& op = graph.op(id);
    const std::int64_t start_ns = profile ? ExecutionProfile::now_ns() : 0;
    if (op.fn) op.fn();
    if (profile) {
      profile->record(id, /*worker=*/0, start_ns,
                      ExecutionProfile::now_ns());
    }
  }
}

void run_graph_parallel(const OpGraph& graph, ThreadPool& pool,
                        ExecutionProfile* profile) {
  run_graph_parallel(graph, graph.dependency_view(), pool, profile);
}

void run_graph_parallel(const OpGraph& graph,
                        const OpGraph::DependencyView& view, ThreadPool& pool,
                        ExecutionProfile* profile) {
  const int total = graph.size();
  if (total == 0) {
    if (profile) profile->begin(0);
    return;
  }
  if (pool.in_worker() || pool.size() <= 1 || total == 1) {
    // From a pool worker, queueing sub-tasks the blocked parent waits on
    // could starve the pool; with one worker (or one op) there is nothing
    // to overlap. Degrade to the reference order — bitwise identical by
    // construction.
    run_graph_serial(graph, view, profile);
    return;
  }

  auto state = std::make_shared<ExecState>(total);
  state->graph = &graph;
  state->succ = &view.successors;
  state->total = total;
  if (profile) {
    profile->begin(total);
    state->profile = profile;
  }
  for (int id = 0; id < total; ++id) {
    state->pending[static_cast<std::size_t>(id)].store(
        view.in_degree[static_cast<std::size_t>(id)],
        std::memory_order_relaxed);
    if (view.in_degree[static_cast<std::size_t>(id)] == 0) {
      state->ready.push_back(id);
    }
  }
  MPIPE_CHECK(!state->ready.empty(),
              "op graph has no source op (cycle?) — validate() first");

  const std::size_t helpers =
      std::min(pool.size(), static_cast<std::size_t>(total) - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    const int worker = static_cast<int>(h) + 1;
    pool.post([state, worker] { state->drain(worker); });
  }
  state->drain(/*worker=*/0);
  if (state->error) std::rethrow_exception(state->error);
}

void validate_hazards(const OpGraph& graph) {
  validate_hazards(graph, graph.dependency_view());
}

void validate_hazards(const OpGraph& graph,
                      const OpGraph::DependencyView& view) {
  const int n = graph.size();
  std::vector<int> functional;
  for (const Op& op : graph.ops()) {
    if (op.fn) functional.push_back(op.id);
  }
  if (functional.size() <= 1) return;  // a lone closure cannot race

  // Reachability over explicit deps + stream FIFO edges, as one bitset row
  // per op, filled in topological order: reach[v] accumulates every
  // ancestor of v.
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> reach(static_cast<std::size_t>(n) * words, 0);
  for (int u : view.order) {
    const std::uint64_t* ru = &reach[static_cast<std::size_t>(u) * words];
    for (int v : view.successors[static_cast<std::size_t>(u)]) {
      std::uint64_t* rv = &reach[static_cast<std::size_t>(v) * words];
      for (std::size_t w = 0; w < words; ++w) rv[w] |= ru[w];
      rv[static_cast<std::size_t>(u) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(u) % 64);
    }
  }
  auto is_ancestor = [&](int a, int b) {
    return (reach[static_cast<std::size_t>(b) * words +
                  static_cast<std::size_t>(a) / 64] >>
            (static_cast<std::size_t>(a) % 64)) &
           1u;
  };
  auto unordered = [&](int a, int b) {
    return !is_ancestor(a, b) && !is_ancestor(b, a);
  };

  // An undeclared closure is unverifiable: it may not run next to any
  // other closure.
  for (int id : functional) {
    const Op& op = graph.op(id);
    if (!op.reads.empty() || !op.writes.empty()) continue;
    for (int other : functional) {
      MPIPE_CHECK(other == id || !unordered(id, other),
                  "hazard validation: op '" + op.label +
                      "' has a functional closure but declares no "
                      "read/write buffer accesses, and is unordered "
                      "against '" +
                      graph.op(other).label +
                      "' — an undeclared closure cannot be proven safe "
                      "for concurrent execution");
    }
  }

  // Every non-empty declared range, sorted by (buffer, begin). Within one
  // buffer a sweep keeps the ranges that still extend past the current
  // begin; exactly those intersect the current range. Reads and writes are
  // kept apart so read/read pairs, which never conflict, cost nothing.
  struct Span {
    const void* buffer;
    std::int64_t begin;
    std::int64_t end;
    int op;
    bool write;
  };
  std::vector<Span> spans;
  for (int id : functional) {
    const Op& op = graph.op(id);
    for (const BufferAccess& a : op.reads) {
      if (a.begin < a.end) spans.push_back({a.id, a.begin, a.end, id, false});
    }
    for (const BufferAccess& a : op.writes) {
      if (a.begin < a.end) spans.push_back({a.id, a.begin, a.end, id, true});
    }
  }
  std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
    if (x.buffer != y.buffer) {
      return std::less<const void*>()(x.buffer, y.buffer);
    }
    return x.begin < y.begin;
  });

  std::vector<std::size_t> live_reads;
  std::vector<std::size_t> live_writes;
  auto retire = [&](std::vector<std::size_t>& live, std::int64_t begin) {
    std::size_t kept = 0;
    for (std::size_t k : live) {
      if (spans[k].end > begin) live[kept++] = k;
    }
    live.resize(kept);
  };
  auto check = [&](const std::vector<std::size_t>& live, const Span& s) {
    for (std::size_t k : live) {
      const int other = spans[k].op;
      MPIPE_CHECK(other == s.op || !unordered(other, s.op),
                  conflict_message(graph, other, s.op));
    }
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0 && spans[i - 1].buffer != s.buffer) {
      live_reads.clear();
      live_writes.clear();
    }
    retire(live_reads, s.begin);
    retire(live_writes, s.begin);
    check(live_writes, s);
    if (s.write) check(live_reads, s);
    (s.write ? live_writes : live_reads).push_back(i);
  }
}

}  // namespace mpipe::sim
