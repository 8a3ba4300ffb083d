// Differential fences: the block-cut node connectivity (f20) and the shared
// all-sources path sweep (f12, f17-f19, f24) against the textbook reference
// implementations in tests/support/graph_oracle.  Every comparison is on
// the exact double bits, and the connectivity fences also check that both
// sides leave the sampling RNG in the same state.
#include <bit>
#include <cstdint>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "graph/centrality.h"
#include "graph/connectivity.h"
#include "graph/digraph.h"
#include "graph/shortest_paths.h"
#include "support/graph_oracle.h"
#include "util/rng.h"

namespace dm::graph {
namespace {

using dm::util::Rng;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A WCG-like shape: node 0 is the victim, talking to every server; random
/// redirect edges link servers (chains and the odd back-link), and an
/// origin may entice the victim.  Cut at the victim, it splits into many
/// small blocks plus bridges.
Digraph victim_fan(Rng& rng, std::size_t n) {
  Digraph g(n);
  for (NodeId v = 1; v < n; ++v) {
    if (rng.chance(0.9)) g.add_edge(0, v);
    if (rng.chance(0.8)) g.add_edge(v, 0);
  }
  const auto redirects = rng.uniform_int(0, static_cast<std::int64_t>(n));
  for (std::int64_t i = 0; i < redirects && n > 2; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
    const auto b = rng.chance(0.7) && a + 1 < n
                       ? a + 1
                       : static_cast<NodeId>(rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
    if (a != b) g.add_edge(a, b);
  }
  return g;
}

/// Random recursive tree plus `chords` extra edges.
Digraph tree_with_chords(Rng& rng, std::size_t n, std::size_t chords) {
  Digraph g(n);
  for (NodeId v = 1; v < n; ++v) {
    g.add_edge(static_cast<NodeId>(rng.uniform_int(0, v - 1)), v);
  }
  for (std::size_t i = 0; i < chords && n > 1; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (a != b) g.add_edge(a, b);
  }
  return g;
}

/// Erdos-Renyi G(n, p) on the undirected view.
Digraph gnp(Rng& rng, std::size_t n, double p) {
  Digraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) g.add_edge(u, v);
    }
  }
  return g;
}

/// Several disjoint random trees (some with a chord) plus isolated nodes.
Digraph forest(Rng& rng, std::size_t n) {
  Digraph g(n);
  NodeId start = 0;
  while (start < n) {
    const auto size = static_cast<NodeId>(
        std::min<std::int64_t>(rng.uniform_int(1, 9), static_cast<std::int64_t>(n - start)));
    for (NodeId v = start + 1; v < start + size; ++v) {
      g.add_edge(static_cast<NodeId>(rng.uniform_int(start, v - 1)), v);
    }
    if (size > 3 && rng.chance(0.5)) g.add_edge(start, start + size - 1);
    start += size;
  }
  return g;
}

struct Shape {
  std::string name;
  std::function<Digraph(Rng&, std::size_t)> make;
};

std::vector<Shape> shapes() {
  return {
      {"victim_fan", victim_fan},
      {"tree_with_chords",
       [](Rng& rng, std::size_t n) { return tree_with_chords(rng, n, n / 4 + 1); }},
      {"gnp_sparse", [](Rng& rng, std::size_t n) { return gnp(rng, n, 2.5 / static_cast<double>(n)); }},
      {"gnp_dense", [](Rng& rng, std::size_t n) { return gnp(rng, n, 0.3); }},
      {"forest", forest},
  };
}

/// f20 on `adj` with a fresh RNG on each side; equal bits, equal next draw.
void expect_connectivity_matches(const Adjacency& adj, std::size_t max_pairs,
                                 std::uint64_t seed, const std::string& label) {
  Rng fast_rng(seed);
  Rng oracle_rng(seed);
  const double fast = average_node_connectivity(adj, fast_rng, max_pairs);
  const double slow = oracle::average_node_connectivity(adj, oracle_rng, max_pairs);
  ASSERT_EQ(bits(fast), bits(slow)) << label << " fast=" << fast << " oracle=" << slow;
  ASSERT_EQ(fast_rng.next_u64(), oracle_rng.next_u64()) << label;
}

TEST(BlockConnectivityOracleTest, ExactPathMatchesOnEveryShape) {
  Rng rng(20260101);
  int graphs = 0;
  for (const auto& shape : shapes()) {
    for (int trial = 0; trial < 30; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 63));
      const auto adj = shape.make(rng, n).undirected_adjacency();
      expect_connectivity_matches(adj, 2000, 7 + trial,
                                  shape.name + " n=" + std::to_string(n));
      ++graphs;
    }
  }
  EXPECT_EQ(graphs, 150);
}

TEST(BlockConnectivityOracleTest, SampledPathMatchesOnEveryShape) {
  Rng rng(424242);
  for (const auto& shape : shapes()) {
    for (int trial = 0; trial < 3; ++trial) {
      // Large graphs take the sampled path at the default budget.
      const auto n = static_cast<std::size_t>(rng.uniform_int(64, 96));
      const auto adj = shape.make(rng, n).undirected_adjacency();
      expect_connectivity_matches(adj, 2000, 99 + trial,
                                  shape.name + " n=" + std::to_string(n));
    }
    for (int trial = 0; trial < 20; ++trial) {
      // Small graphs with a small pair budget sample too, with repeats.
      const auto n = static_cast<std::size_t>(rng.uniform_int(6, 40));
      const auto adj = shape.make(rng, n).undirected_adjacency();
      expect_connectivity_matches(adj, 12, 1234 + trial,
                                  shape.name + " small n=" + std::to_string(n));
    }
  }
}

TEST(BlockConnectivityOracleTest, EveryPairMatchesLocalConnectivity) {
  Rng rng(77);
  for (const auto& shape : shapes()) {
    for (int trial = 0; trial < 8; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(2, 24));
      const auto adj = shape.make(rng, n).undirected_adjacency();
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = 0; t < n; ++t) {
          ASSERT_EQ(local_node_connectivity(adj, s, t),
                    oracle::local_node_connectivity(adj, s, t))
              << shape.name << " n=" << n << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

void expect_same_bits(const std::vector<double>& fast,
                      const std::vector<double>& slow, const std::string& label) {
  ASSERT_EQ(fast.size(), slow.size()) << label;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(bits(fast[i]), bits(slow[i])) << label << " node " << i;
  }
}

TEST(PathSweepOracleTest, EveryMetricMatchesItsOwnBfsLoop) {
  Rng rng(31337);
  for (const auto& shape : shapes()) {
    for (int trial = 0; trial < 25; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 80));
      const auto adj = shape.make(rng, n).undirected_adjacency();
      const std::string label = shape.name + " n=" + std::to_string(n);
      const auto knn_hops = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      const PathMetrics all = path_metrics(adj, kPathAll, knn_hops);

      expect_same_bits(all.closeness, oracle::closeness_centrality(adj), label);
      expect_same_bits(all.betweenness, oracle::betweenness_centrality(adj), label);
      expect_same_bits(all.load, oracle::load_centrality(adj), label);
      ASSERT_EQ(all.diameter, oracle::diameter(adj)) << label;
      ASSERT_EQ(bits(all.avg_k_nearest_neighbors),
                bits(oracle::average_k_nearest_neighbors(adj, knn_hops)))
          << label;

      // The single-metric views agree with the fused sweep.
      expect_same_bits(closeness_centrality(adj), all.closeness, label);
      expect_same_bits(betweenness_centrality(adj), all.betweenness, label);
      expect_same_bits(load_centrality(adj), all.load, label);
      ASSERT_EQ(diameter(adj), all.diameter) << label;
      ASSERT_EQ(bits(average_k_nearest_neighbors(adj, knn_hops)),
                bits(all.avg_k_nearest_neighbors))
          << label;
    }
  }
}

}  // namespace
}  // namespace dm::graph
