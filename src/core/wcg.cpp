#include "core/wcg.h"

namespace dm::core {

std::string_view node_type_name(NodeType type) noexcept {
  switch (type) {
    case NodeType::kVictim: return "victim";
    case NodeType::kRemote: return "remote";
    case NodeType::kMalicious: return "malicious";
    case NodeType::kIntermediary: return "intermediary";
    case NodeType::kOrigin: return "origin";
  }
  return "?";
}

std::string_view edge_kind_name(EdgeKind kind) noexcept {
  switch (kind) {
    case EdgeKind::kRequest: return "req";
    case EdgeKind::kResponse: return "res";
    case EdgeKind::kRedirect: return "redirect";
  }
  return "?";
}

dm::graph::NodeId Wcg::add_node(std::string_view host) {
  const auto id = graph_.add_node();
  WcgNode& node = nodes_.emplace_back();
  node.host = host;
  ++topology_version_;
  return id;
}

dm::graph::EdgeId Wcg::add_edge(dm::graph::NodeId src, dm::graph::NodeId dst,
                                WcgEdge attributes) {
  const auto id = graph_.add_edge(src, dst);
  edges_.push_back(std::move(attributes));
  ++topology_version_;
  return id;
}

bool Wcg::add_uri(dm::graph::NodeId id, const std::string& uri) {
  if (!nodes_.at(id).uris.insert(uri).second) return false;
  ++total_uris_;
  total_uri_length_ += uri.size();
  return true;
}

void Wcg::clear() noexcept {
  graph_.clear();
  nodes_.clear();
  edges_.clear();
  annotations_ = {};
  victim_ = dm::graph::kInvalidNode;
  origin_ = dm::graph::kInvalidNode;
  total_uris_ = 0;
  total_uri_length_ = 0;
  topology_version_ = 0;
}

void Wcg::reserve(std::size_t nodes, std::size_t edges) {
  graph_.reserve(nodes, edges);
  nodes_.reserve(nodes);
  edges_.reserve(edges);
}

}  // namespace dm::core
