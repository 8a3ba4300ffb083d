#include "graph/digraph.h"

#include <algorithm>
#include <stdexcept>

namespace dm::graph {

Digraph::Digraph(std::size_t n) : out_degree_(n), in_degree_(n) {}

void Digraph::clear() noexcept {
  edges_.clear();
  out_degree_.clear();
  in_degree_.clear();
}

void Digraph::reserve(std::size_t nodes, std::size_t edges) {
  edges_.reserve(edges);
  out_degree_.reserve(nodes);
  in_degree_.reserve(nodes);
}

NodeId Digraph::add_node() {
  out_degree_.push_back(0);
  in_degree_.push_back(0);
  return static_cast<NodeId>(out_degree_.size() - 1);
}

EdgeId Digraph::add_edge(NodeId src, NodeId dst) {
  if (src >= node_count() || dst >= node_count()) {
    throw std::out_of_range("Digraph::add_edge: endpoint does not exist");
  }
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({src, dst});
  ++out_degree_[src];
  ++in_degree_[dst];
  return id;
}

bool Digraph::has_edge(NodeId src, NodeId dst) const {
  if (out_degree(src) == 0) return false;
  return std::any_of(edges_.begin(), edges_.end(), [&](const Edge& e) {
    return e.src == src && e.dst == dst;
  });
}

namespace {
std::vector<NodeId> sorted_unique(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}
}  // namespace

std::vector<NodeId> Digraph::out_neighbors(NodeId v) const {
  std::vector<NodeId> nbrs;
  nbrs.reserve(out_degree(v));
  for (const Edge& e : edges_) {
    if (e.src == v && e.dst != v) nbrs.push_back(e.dst);
  }
  return sorted_unique(std::move(nbrs));
}

std::vector<NodeId> Digraph::in_neighbors(NodeId v) const {
  std::vector<NodeId> nbrs;
  nbrs.reserve(in_degree(v));
  for (const Edge& e : edges_) {
    if (e.dst == v && e.src != v) nbrs.push_back(e.src);
  }
  return sorted_unique(std::move(nbrs));
}

std::vector<NodeId> Digraph::neighbors(NodeId v) const {
  std::vector<NodeId> nbrs;
  nbrs.reserve(degree(v));
  for (const Edge& e : edges_) {
    if (e.src == e.dst) continue;
    if (e.src == v) nbrs.push_back(e.dst);
    if (e.dst == v) nbrs.push_back(e.src);
  }
  return sorted_unique(std::move(nbrs));
}

std::vector<std::vector<NodeId>> Digraph::undirected_adjacency() const {
  std::vector<std::vector<NodeId>> adj(node_count());
  for (const Edge& e : edges_) {
    if (e.src == e.dst) continue;
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  for (auto& nbrs : adj) nbrs = sorted_unique(std::move(nbrs));
  return adj;
}

std::vector<std::vector<NodeId>> Digraph::directed_adjacency() const {
  std::vector<std::vector<NodeId>> adj(node_count());
  for (const Edge& e : edges_) {
    if (e.src == e.dst) continue;
    adj[e.src].push_back(e.dst);
  }
  for (auto& nbrs : adj) nbrs = sorted_unique(std::move(nbrs));
  return adj;
}

}  // namespace dm::graph
