#include "graph/digraph.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "support/graph_lookup.h"

namespace dm::graph {
namespace {

TEST(DigraphTest, EmptyGraph) {
  Digraph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(DigraphTest, AddNodesSequentialIds) {
  Digraph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.add_node(), 2u);
  EXPECT_EQ(g.node_count(), 3u);
}

TEST(DigraphTest, PreSizedConstructor) {
  Digraph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.add_node(), 5u);
}

TEST(DigraphTest, AddEdgeAndIncidence) {
  Digraph g(3);
  const auto e0 = g.add_edge(0, 1);
  const auto e1 = g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge(e0).src, 0u);
  EXPECT_EQ(g.edge(e0).dst, 1u);
  ASSERT_EQ(out_edges(g, 0).size(), 1u);
  EXPECT_EQ(out_edges(g, 0)[0], e0);
  ASSERT_EQ(in_edges(g, 2).size(), 1u);
  EXPECT_EQ(in_edges(g, 2)[0], e1);
}

TEST(DigraphTest, AddEdgeRejectsBadEndpoints) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW(g.add_edge(5, 0), std::out_of_range);
}

TEST(DigraphTest, ParallelEdgesCountedInDegrees) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.out_degree(0), 3u);
  EXPECT_EQ(g.in_degree(1), 3u);
  EXPECT_EQ(g.degree(0), 3u);
  // ...but collapsed in neighbor lists.
  EXPECT_EQ(g.out_neighbors(0).size(), 1u);
}

TEST(DigraphTest, HasEdge) {
  Digraph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(DigraphTest, NeighborsMergeBothDirections) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 0);
  g.add_edge(0, 1);  // parallel
  const auto nbrs = g.neighbors(0);
  EXPECT_EQ(nbrs, (std::vector<NodeId>{1, 2}));
}

TEST(DigraphTest, SelfLoopsExcludedFromNeighbors) {
  Digraph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  EXPECT_EQ(g.out_neighbors(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(g.degree(0), 3u);  // self-loop contributes out + in
}

TEST(DigraphTest, UndirectedAdjacencySymmetricSortedUnique) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // reverse direction collapses in undirected view
  g.add_edge(1, 2);
  const auto adj = g.undirected_adjacency();
  EXPECT_EQ(adj[0], (std::vector<NodeId>{1}));
  EXPECT_EQ(adj[1], (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(adj[2], (std::vector<NodeId>{1}));
}

TEST(DigraphTest, DirectedAdjacencyKeepsDirection) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 0);  // self-loop dropped
  const auto adj = g.directed_adjacency();
  EXPECT_EQ(adj[0], (std::vector<NodeId>{1}));
  EXPECT_EQ(adj[1], (std::vector<NodeId>{2}));
  EXPECT_TRUE(adj[2].empty());
}

}  // namespace
}  // namespace dm::graph
