// Reference implementations of the graph metrics that src/graph computes
// through shared machinery (the block-cut connectivity and the all-sources
// path sweep).  Each is the straightforward textbook form: a fresh
// vertex-split max-flow per pair for node connectivity, and one BFS per
// source per metric for the centralities, diameter and k-NN.  The
// differential tests hold production to these bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/shortest_paths.h"
#include "util/rng.h"

namespace dm::graph::oracle {

/// Max-flow on the whole graph's vertex-split unit-capacity network
/// (adjacent pairs: 1 + the flow with the edge removed).
std::uint32_t local_node_connectivity(const Adjacency& adj, NodeId s, NodeId t);

/// Same pair order and RNG draws as graph::average_node_connectivity.
double average_node_connectivity(const Adjacency& adj, dm::util::Rng& rng,
                                 std::size_t max_pairs = 2000);

std::vector<double> closeness_centrality(const Adjacency& adj);
std::vector<double> betweenness_centrality(const Adjacency& adj);
std::vector<double> load_centrality(const Adjacency& adj);
std::uint32_t diameter(const Adjacency& adj);
double average_k_nearest_neighbors(const Adjacency& adj, std::uint32_t k = 2);

}  // namespace dm::graph::oracle
