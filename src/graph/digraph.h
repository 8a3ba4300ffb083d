// Directed multigraph.
//
// This is the structural backbone of the Web Conversation Graph (WCG,
// paper §III-A).  The graph is purely structural: nodes and edges are dense
// integer ids, and all domain attributes (hosts, payloads, timestamps) live
// in the owning layer (src/core/wcg.h) keyed by those ids.  Multi-edges are
// allowed because a conversation pair exchanges many request/response edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dm::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// One directed edge of the multigraph.
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
};

/// Directed multigraph with O(1) amortized insertion and O(1) degrees.
/// Nodes cannot be removed (WCGs only grow during a conversation, paper
/// §V-B), which keeps ids stable for attribute side-tables.  Only the edge
/// list and per-node degree counts are stored, so growing a graph allocates
/// nothing per node or per edge beyond those flat tables; per-node
/// incidence queries scan the edge list.
class Digraph {
 public:
  Digraph() = default;

  /// Creates a graph with `n` isolated nodes.
  explicit Digraph(std::size_t n);

  /// Removes every node and edge, keeping the tables' capacity.
  void clear() noexcept;
  /// Reserves room for `nodes` nodes and `edges` edges.
  void reserve(std::size_t nodes, std::size_t edges);

  /// Adds a node, returning its id.
  NodeId add_node();

  /// Adds a directed edge src -> dst (parallel edges allowed; self-loops
  /// allowed but ignored by most metrics).  Both endpoints must exist.
  EdgeId add_edge(NodeId src, NodeId dst);

  std::size_t node_count() const noexcept { return out_degree_.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }
  bool empty() const noexcept { return out_degree_.empty(); }

  const Edge& edge(EdgeId e) const { return edges_.at(e); }
  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Multigraph degrees (parallel edges counted individually).  O(1).
  std::size_t out_degree(NodeId v) const { return out_degree_.at(v); }
  std::size_t in_degree(NodeId v) const { return in_degree_.at(v); }
  std::size_t degree(NodeId v) const { return out_degree(v) + in_degree(v); }

  /// True if at least one edge src -> dst exists.  O(edges).
  bool has_edge(NodeId src, NodeId dst) const;

  /// Unique out-/in-/undirected neighbors (parallel edges collapsed,
  /// self-loops dropped).  Results are sorted.  O(edges).
  std::vector<NodeId> out_neighbors(NodeId v) const;
  std::vector<NodeId> in_neighbors(NodeId v) const;
  std::vector<NodeId> neighbors(NodeId v) const;

  /// Undirected simple adjacency for the whole graph: adjacency[v] is the
  /// sorted unique neighbor set of v.  Most WCG metrics (diameter,
  /// centralities, clustering) are computed on this view; building it once
  /// amortizes the dedup cost across algorithms.
  std::vector<std::vector<NodeId>> undirected_adjacency() const;

  /// Directed simple adjacency (parallel edges collapsed, self-loops kept
  /// out); used by PageRank.
  std::vector<std::vector<NodeId>> directed_adjacency() const;

 private:
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> out_degree_;
  std::vector<std::uint32_t> in_degree_;
};

}  // namespace dm::graph
