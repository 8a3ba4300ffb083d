// Connectivity / neighborhood metrics: local & average node connectivity
// (block-cut decomposition, then max-flow on vertex-split unit-capacity
// networks only inside biconnected blocks), clustering coefficient,
// average neighbor degree, degree connectivity, and k-nearest-neighbor
// counts.  These back features f20-f24 and the §II-C study (Figure 7).
#pragma once

#include <cstdint>
#include <map>

#include "graph/shortest_paths.h"
#include "util/rng.h"

namespace dm::graph {

/// Local node connectivity between s and t on the undirected view: the
/// minimum number of nodes whose removal disconnects t from s (Menger).
/// Pairs in different components score 0 and connected pairs without a
/// shared biconnected block 1; a pair inside one block is a max-flow with
/// unit node capacities (vertex splitting, BFS augmenting paths) on that
/// block alone.  If s and t are adjacent the edge bypasses node limits,
/// following the standard convention: 1 + connectivity without the edge.
std::uint32_t local_node_connectivity(const Adjacency& adj, NodeId s, NodeId t);

/// Average node connectivity over node pairs.  Exact when the number of
/// pairs is <= max_pairs; otherwise averages over `max_pairs` pairs sampled
/// uniformly with the provided RNG (WCGs can reach 404 nodes — 81k pairs).
/// The graph is decomposed into blocks once per call, and each block's flow
/// network is built once and reused by every pair inside it.
double average_node_connectivity(const Adjacency& adj, dm::util::Rng& rng,
                                 std::size_t max_pairs = 2000);

/// Per-node clustering coefficient on the undirected simple view.
std::vector<double> clustering_coefficients(const Adjacency& adj);

/// Average clustering coefficient; 0 for empty graphs.
double average_clustering(const Adjacency& adj);

/// Average degree of each node's neighbors (nodes with no neighbors -> 0).
std::vector<double> average_neighbor_degrees(const Adjacency& adj);

/// networkx-style average degree connectivity: for each degree k present in
/// the graph, the mean average-neighbor-degree of nodes with degree k.
std::map<std::size_t, double> average_degree_connectivity(const Adjacency& adj);

/// Mean over nodes of |{u : 1 <= dist(v,u) <= k}| — "average number of
/// nodes at k-nodes distance" (feature f24).  k defaults to 2 hops.
double average_k_nearest_neighbors(const Adjacency& adj, std::uint32_t k = 2);

/// Reciprocity of a directed graph: fraction of directed simple edges whose
/// reverse also exists (feature f15).  0 for edgeless graphs.
double reciprocity(const Digraph& g);
/// The same over a directed simple adjacency (Digraph::directed_adjacency).
double reciprocity(const Adjacency& directed);

}  // namespace dm::graph
