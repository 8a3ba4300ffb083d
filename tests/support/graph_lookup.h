// Linear-scan lookups the unit tests use to inspect graphs.  Production has
// no use for them: WcgBuilder interns its hosts, and the graph metrics build
// their adjacency once per call.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/wcg.h"
#include "graph/digraph.h"

namespace dm::graph {

/// Edge ids leaving / entering `v`, in insertion order.  O(edges).
inline std::vector<EdgeId> out_edges(const Digraph& g, NodeId v) {
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).src == v) ids.push_back(e);
  }
  return ids;
}

inline std::vector<EdgeId> in_edges(const Digraph& g, NodeId v) {
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).dst == v) ids.push_back(e);
  }
  return ids;
}

}  // namespace dm::graph

namespace dm::core {

/// The node of `host`, or kInvalidNode when the WCG has none.  O(nodes).
inline dm::graph::NodeId find_host(const Wcg& wcg, std::string_view host) {
  for (std::size_t id = 0; id < wcg.node_count(); ++id) {
    if (wcg.nodes()[id].host == host) return static_cast<dm::graph::NodeId>(id);
  }
  return dm::graph::kInvalidNode;
}

/// The node of `host`, appended when the WCG has none yet.  O(nodes).
inline dm::graph::NodeId add_host(Wcg& wcg, const std::string& host) {
  const auto id = find_host(wcg, host);
  return id != dm::graph::kInvalidNode ? id : wcg.add_node(host);
}

}  // namespace dm::core
