#include "sim/cluster.h"

#include "common/check.h"
#include "common/thread_pool.h"

namespace mpipe::sim {

Cluster::Cluster(ClusterConfig config)
    : topology_(config.topology),
      cost_model_(config.cost, Topology(config.topology)),
      interference_(config.interference) {
  devices_.reserve(static_cast<std::size_t>(topology_.num_devices()));
  for (int d = 0; d < topology_.num_devices(); ++d) {
    devices_.emplace_back(d, topology_.node_of(d));
  }
}

Cluster Cluster::dgx_a100_pod(int nodes, int gpus_per_node) {
  ClusterConfig cfg;
  cfg.topology.num_devices = nodes * gpus_per_node;
  cfg.topology.devices_per_node = gpus_per_node;
  return Cluster(cfg);
}

const Device& Cluster::device(int id) const {
  MPIPE_EXPECTS(id >= 0 && id < num_devices(), "device id out of range");
  return devices_[static_cast<std::size_t>(id)];
}

std::vector<int> Cluster::all_device_ids() const {
  std::vector<int> ids(static_cast<std::size_t>(num_devices()));
  for (int d = 0; d < num_devices(); ++d) {
    ids[static_cast<std::size_t>(d)] = d;
  }
  return ids;
}

void Cluster::set_cost_config(CostModelConfig config) {
  cost_model_ = CostModel(std::move(config), topology_);
}

void Cluster::set_fault_injection(FaultInjectionConfig config) {
  fault_injector_ = std::make_shared<const FaultInjector>(config);
}

void Cluster::clear_fault_injection() { fault_injector_.reset(); }

namespace {

/// Runs the closures of a validated graph under `policy`.
void run_closures(const OpGraph& graph, const OpGraph::DependencyView& view,
                  ExecutionPolicy policy, ExecutionProfile* profile) {
  if (policy == ExecutionPolicy::kParallel && !graph.is_timing_only()) {
    // Prove the schedule safe before overlapping it: every op pair the
    // dependency graph leaves unordered must have declared, disjoint
    // read/write sets. The proof runs on every execution (sim/README.md
    // says why a cached verdict would be wrong).
    validate_hazards(graph, view);
    run_graph_parallel(graph, view, ThreadPool::shared(), profile);
    return;
  }
  run_graph_serial(graph, view, profile);
}

}  // namespace

TimingResult Cluster::run(const OpGraph& graph, ExecutionPolicy policy,
                          ExecutionProfile* profile) {
  // One dependency analysis serves validation, the hazard proof, the
  // executor and the timing engine.
  const OpGraph::DependencyView view = graph.validate(num_devices());
  run_closures(graph, view, policy, profile);
  return TimingEngine(interference_, num_devices()).run(graph, view);
}

TimingResult Cluster::time_only(const OpGraph& graph) {
  TimingEngine engine(interference_, num_devices());
  return engine.run(graph);
}

void Cluster::run_functional(const OpGraph& graph, ExecutionPolicy policy,
                             ExecutionProfile* profile) {
  run_closures(graph, graph.validate(num_devices()), policy, profile);
}

}  // namespace mpipe::sim
