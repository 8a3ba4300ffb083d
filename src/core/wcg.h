// Web Conversation Graph (WCG) — the paper's central abstraction (§III-A).
//
// A WCG is a directed graph capturing the interaction between a victim host
// and remote hosts.  Nodes are unique hosts (victim, remote/malicious,
// redirect intermediaries, plus a synthetic "origin" node naming the
// enticement source).  Edges are requests, responses, and redirect
// relations, annotated with the attributes of §III-C (timestamp,
// conversation stage, HTTP method, URI length, response code, payload type
// and size).  Graph-level annotations aggregate what the 37 features need.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.h"
#include "http/classify.h"

namespace dm::core {

enum class NodeType {
  kVictim,        // the client being watched
  kRemote,        // any remote host
  kMalicious,     // at least one exploit payload downloaded from it
  kIntermediary,  // participates only in redirect chaining
  kOrigin,        // synthetic enticement-source node ("bing.com" / "empty")
};

std::string_view node_type_name(NodeType type) noexcept;

/// Conversation stage of an edge (§III-C "Conversation stage"):
/// 0 = pre-download, 1 = payload download, 2 = post-download.
enum class Stage : int { kPreDownload = 0, kDownload = 1, kPostDownload = 2 };

enum class EdgeKind { kRequest, kResponse, kRedirect };

std::string_view edge_kind_name(EdgeKind kind) noexcept;

struct WcgNode {
  std::string host;  // lower-case hostname or IP literal; origin node uses
                     // the referrer name or "empty"
  std::string ip;    // dotted quad when known
  NodeType type = NodeType::kRemote;
  std::set<std::string> uris;  // unique URIs addressed at this host
  /// Payload-type counts for payloads originating from this node.
  std::map<dm::http::PayloadType, std::uint32_t> payloads_served;
};

struct WcgEdge {
  EdgeKind kind = EdgeKind::kRequest;
  Stage stage = Stage::kPreDownload;
  std::uint64_t ts_micros = 0;
  // Request edges:
  std::string method;
  std::uint32_t uri_length = 0;
  bool has_referrer = false;
  // Response edges:
  int response_code = 0;
  dm::http::PayloadType payload_type = dm::http::PayloadType::kNone;
  std::uint64_t payload_size = 0;
};

/// Graph-level annotations (§III-C "Graph-Level").
struct WcgAnnotations {
  bool origin_known = false;         // f1
  bool do_not_track = false;
  bool x_flash_version_set = false;  // f2
  std::string x_flash_version;

  std::uint32_t get_count = 0;       // f26
  std::uint32_t post_count = 0;      // f27
  std::uint32_t other_method_count = 0;  // f28
  std::array<std::uint32_t, 5> response_class_counts{};  // [0]=10x .. [4]=50x

  std::uint32_t referrer_count = 0;     // f34: requests with Referer set
  std::uint32_t no_referrer_count = 0;  // f35

  std::uint32_t total_redirects = 0;        // all redirect edges (sum rule §III-D)
  std::uint32_t longest_redirect_chain = 0; // unique hops
  std::uint32_t cross_domain_redirects = 0;
  std::uint32_t tld_diversity = 0;          // unique TLDs in redirect chains
  double avg_redirect_delay_s = 0.0;        // between successive redirects

  std::uint64_t total_payload_bytes = 0;
  std::uint32_t payload_count = 0;
  std::map<dm::http::PayloadType, std::uint32_t> payload_type_counts;

  double duration_s = 0.0;              // conversation duration
  double avg_inter_transaction_s = 0.0; // f37
  std::uint32_t transaction_count = 0;

  bool has_download_stage = false;
  bool has_post_download_stage = false;
};

/// The annotated conversation graph.  Structure lives in a Digraph; node and
/// edge attributes are parallel side tables indexed by the graph's ids.
class Wcg {
 public:
  /// Appends a node for `host`.  The caller guarantees that no node has
  /// that host yet (WcgBuilder interns hosts itself).
  dm::graph::NodeId add_node(std::string_view host);

  /// Adds an annotated edge.
  dm::graph::EdgeId add_edge(dm::graph::NodeId src, dm::graph::NodeId dst,
                             WcgEdge attributes);

  /// Records `uri` against a node, keeping the graph-wide unique-URI count
  /// and total URI length in sync.  This is the only sanctioned way to grow
  /// a node's `uris` set — inserting into WcgNode::uris directly desyncs
  /// total_unique_uris()/total_uri_length().  Returns true if the URI was
  /// new for that node.
  bool add_uri(dm::graph::NodeId id, const std::string& uri);

  /// Empties the graph back to a default-constructed one (topology version
  /// 0 included), keeping the node and edge tables' capacity.
  void clear() noexcept;
  /// Reserves room for `nodes` nodes and `edges` edges.
  void reserve(std::size_t nodes, std::size_t edges);

  const dm::graph::Digraph& graph() const noexcept { return graph_; }
  std::size_t node_count() const noexcept { return graph_.node_count(); }
  std::size_t edge_count() const noexcept { return graph_.edge_count(); }

  WcgNode& node(dm::graph::NodeId id) { return nodes_.at(id); }
  const WcgNode& node(dm::graph::NodeId id) const { return nodes_.at(id); }
  WcgEdge& edge(dm::graph::EdgeId id) { return edges_.at(id); }
  const WcgEdge& edge(dm::graph::EdgeId id) const { return edges_.at(id); }
  const std::vector<WcgNode>& nodes() const noexcept { return nodes_; }
  const std::vector<WcgEdge>& edges() const noexcept { return edges_; }

  WcgAnnotations& annotations() noexcept { return annotations_; }
  const WcgAnnotations& annotations() const noexcept { return annotations_; }

  /// The victim node (set by the builder); kInvalidNode if never set.
  dm::graph::NodeId victim() const noexcept { return victim_; }
  void set_victim(dm::graph::NodeId v) noexcept { victim_ = v; }

  /// The synthetic origin node, if one was added.
  dm::graph::NodeId origin() const noexcept { return origin_; }
  void set_origin(dm::graph::NodeId v) noexcept { origin_ = v; }

  /// Total unique URIs across all nodes.  O(1): maintained by add_uri().
  std::size_t total_unique_uris() const noexcept { return total_uris_; }

  /// Sum of the lengths of every unique URI (feature f6's numerator).
  /// O(1): maintained by add_uri().
  std::uint64_t total_uri_length() const noexcept { return total_uri_length_; }

  /// Monotone counter bumped by every *structural* mutation — a new node or
  /// a new edge.  Attribute updates (URIs, payload tallies, node typing) do
  /// not bump it.  The graph features f7–f25 depend only on structure, so
  /// this is the invalidation key for FeatureCache: equal versions on the
  /// same live Wcg object imply bit-identical graph metrics.
  std::uint64_t topology_version() const noexcept { return topology_version_; }

  /// Forces the version strictly above `version`.  Used by WcgBuilder when
  /// a full re-fold replaces the graph in place: the rebuilt graph's
  /// naturally-counted version could coincide with one a cache already
  /// observed on the old structure, so the builder carries the old
  /// generation's version forward to keep the key monotone.
  void ensure_topology_version_above(std::uint64_t version) noexcept {
    if (topology_version_ <= version) topology_version_ = version + 1;
  }

 private:
  dm::graph::Digraph graph_;
  std::vector<WcgNode> nodes_;
  std::vector<WcgEdge> edges_;
  WcgAnnotations annotations_;
  dm::graph::NodeId victim_ = dm::graph::kInvalidNode;
  dm::graph::NodeId origin_ = dm::graph::kInvalidNode;
  std::size_t total_uris_ = 0;
  std::uint64_t total_uri_length_ = 0;
  std::uint64_t topology_version_ = 0;
};

}  // namespace dm::core
