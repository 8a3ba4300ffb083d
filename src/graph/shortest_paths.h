// BFS-based shortest-path primitives shared by the centrality and diameter
// computations.  All distances are hop counts on the undirected simple view
// of the WCG, matching how the paper reports diameter/closeness on
// conversation graphs that mix request, response and redirect edges.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/digraph.h"

namespace dm::graph {

inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Adjacency type produced by Digraph::undirected_adjacency /
/// directed_adjacency.
using Adjacency = std::vector<std::vector<NodeId>>;

/// Single-source BFS hop distances; kUnreachable for nodes not reached.
std::vector<std::uint32_t> bfs_distances(const Adjacency& adj, NodeId source);

/// Eccentricity of `source`: the largest finite distance from it.
/// Returns 0 for an isolated node.
std::uint32_t eccentricity(const Adjacency& adj, NodeId source);

/// Diameter: max eccentricity over all nodes, ignoring unreachable pairs
/// (the WCG may briefly be disconnected while a conversation grows).
std::uint32_t diameter(const Adjacency& adj);

/// Connected components of the undirected view; returns component id per
/// node and the number of components.
struct Components {
  std::vector<std::uint32_t> component_of;
  std::uint32_t count = 0;
};
Components connected_components(const Adjacency& adj);

/// Number of nodes within hop distance <= k of `source` (excluding source).
std::size_t nodes_within(const Adjacency& adj, NodeId source, std::uint32_t k);

/// The all-sources BFS metrics a PathSweep can produce (bit flags).
enum PathMetric : unsigned {
  kPathCloseness = 1u << 0,
  kPathBetweenness = 1u << 1,
  kPathLoad = 1u << 2,
  kPathDiameter = 1u << 3,
  kPathKnn = 1u << 4,
  kPathAll = (1u << 5) - 1,
};

/// Results of one all-sources sweep; fields not requested stay empty / 0.
/// Each field equals the like-named function's result bit for bit
/// (closeness_centrality, betweenness_centrality, load_centrality,
/// diameter, average_k_nearest_neighbors).
struct PathMetrics {
  std::vector<double> closeness;
  std::vector<double> betweenness;
  std::vector<double> load;
  std::uint32_t diameter = 0;
  double avg_k_nearest_neighbors = 0.0;
};

/// One BFS per source yields dist, the shortest-path counts sigma and the
/// predecessor DAG, and every requested metric folds its share of that
/// source in before the next one starts.  All per-source state lives in
/// flat buffers reused across sources.
PathMetrics path_metrics(const Adjacency& adj, unsigned which,
                         std::uint32_t knn_hops = 2);

}  // namespace dm::graph
