#pragma once
// Reference hazard validator for the tests: the straightforward pairwise
// algorithm. Every two functional ops that no dependency path orders are
// compared access by access. sim::validate_hazards must reach the same
// verdict on every graph; the tests that include this header check that.

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/graph_executor.h"
#include "sim/op_graph.h"

namespace mpipe::sim::reference {

/// Two ranges conflict when they name one buffer and share at least one
/// byte; an empty range shares none.
inline bool ranges_overlap(const BufferAccess& x, const BufferAccess& y) {
  return x.id == y.id && x.begin < x.end && y.begin < y.end &&
         x.begin < y.end && y.begin < x.end;
}

inline bool any_overlap(const std::vector<BufferAccess>& a,
                        const std::vector<BufferAccess>& b) {
  for (const BufferAccess& x : a) {
    for (const BufferAccess& y : b) {
      if (ranges_overlap(x, y)) return true;
    }
  }
  return false;
}

/// Throws CheckError exactly when validate_hazards' contract is broken:
/// an unordered pair of functional ops where one declares nothing, or
/// where both declare and a write of one overlaps any access of the other.
inline void validate_hazards_pairwise(const OpGraph& graph) {
  const int n = graph.size();
  std::vector<int> functional;
  for (const Op& op : graph.ops()) {
    if (op.fn) functional.push_back(op.id);
  }
  if (functional.size() <= 1) return;

  const OpGraph::DependencyView view = graph.dependency_view();
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

  for (std::size_t i = 0; i < functional.size(); ++i) {
    for (std::size_t j = i + 1; j < functional.size(); ++j) {
      const Op& a = graph.op(functional[i]);
      const Op& b = graph.op(functional[j]);
      if (is_ancestor(a.id, b.id) || is_ancestor(b.id, a.id)) continue;
      for (const Op* op : {&a, &b}) {
        MPIPE_CHECK(!op->reads.empty() || !op->writes.empty(),
                    "reference: undeclared closure '" + op->label + "'");
      }
      MPIPE_CHECK(!any_overlap(a.writes, b.writes) &&
                      !any_overlap(a.writes, b.reads) &&
                      !any_overlap(b.writes, a.reads),
                  "reference: '" + a.label + "' and '" + b.label +
                      "' overlap unordered");
    }
  }
}

/// True when `validate` throws CheckError on `graph`.
template <typename Validate>
bool rejects(Validate validate, const OpGraph& graph) {
  try {
    validate(graph);
  } catch (const CheckError&) {
    return true;
  }
  return false;
}

/// The verdicts of the pairwise reference and of sim::validate_hazards.
struct Verdicts {
  bool reference = false;
  bool sweep = false;
};

inline Verdicts verdicts(const OpGraph& graph) {
  return {rejects(validate_hazards_pairwise, graph),
          rejects([](const OpGraph& g) { validate_hazards(g); }, graph)};
}

}  // namespace mpipe::sim::reference
