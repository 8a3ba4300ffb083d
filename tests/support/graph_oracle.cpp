#include "support/graph_oracle.h"

#include <algorithm>
#include <queue>

namespace dm::graph::oracle {
namespace {

/// Unit-capacity flow network for vertex connectivity.  Each original node v
/// becomes v_in (2v) and v_out (2v+1) joined by a capacity-1 arc; each
/// undirected edge {u, v} becomes u_out->v_in and v_out->u_in with large
/// capacity (edges are never the bottleneck for NODE connectivity).
class UnitFlowNetwork {
 public:
  UnitFlowNetwork(const Adjacency& adj, NodeId s, NodeId t) : s_(s), t_(t) {
    const std::size_t n = adj.size();
    head_.assign(2 * n, {});
    for (NodeId v = 0; v < n; ++v) {
      // Source and sink are not node-capacity constrained.
      const int cap = (v == s || v == t) ? kInf : 1;
      add_arc(node_in(v), node_out(v), cap);
    }
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId w : adj[v]) {
        if (v < w) {
          add_arc(node_out(v), node_in(w), kInf);
          add_arc(node_out(w), node_in(v), kInf);
        }
      }
    }
  }

  /// Edmonds-Karp max-flow from s_out to t_in, capped at `limit` augmenting
  /// paths (connectivity is bounded by min-degree so a cap keeps this fast).
  std::uint32_t max_flow(std::uint32_t limit) {
    std::uint32_t flow = 0;
    while (flow < limit && augment()) ++flow;
    return flow;
  }

 private:
  static constexpr int kInf = 1 << 29;

  struct Arc {
    std::uint32_t to;
    int cap;
    std::size_t rev;  // index of reverse arc in head_[to]
  };

  static std::uint32_t node_in(NodeId v) noexcept { return 2 * v; }
  static std::uint32_t node_out(NodeId v) noexcept { return 2 * v + 1; }

  void add_arc(std::uint32_t from, std::uint32_t to, int cap) {
    head_[from].push_back({to, cap, head_[to].size()});
    head_[to].push_back({from, 0, head_[from].size() - 1});
  }

  bool augment() {
    const std::uint32_t source = node_out(s_);
    const std::uint32_t sink = node_in(t_);
    std::vector<std::pair<std::uint32_t, std::size_t>> parent(
        head_.size(), {~0u, 0});  // (node, arc index in that node's list)
    std::queue<std::uint32_t> q;
    parent[source] = {source, 0};
    q.push(source);
    while (!q.empty() && parent[sink].first == ~0u) {
      const std::uint32_t v = q.front();
      q.pop();
      for (std::size_t i = 0; i < head_[v].size(); ++i) {
        const Arc& a = head_[v][i];
        if (a.cap > 0 && parent[a.to].first == ~0u) {
          parent[a.to] = {v, i};
          q.push(a.to);
        }
      }
    }
    if (parent[sink].first == ~0u) return false;
    // All arcs on the path have cap >= 1; push one unit.
    std::uint32_t v = sink;
    while (v != source) {
      const auto [u, i] = parent[v];
      Arc& a = head_[u][i];
      a.cap -= 1;
      head_[a.to][a.rev].cap += 1;
      v = u;
    }
    return true;
  }

  NodeId s_;
  NodeId t_;
  std::vector<std::vector<Arc>> head_;
};

}  // namespace

std::uint32_t local_node_connectivity(const Adjacency& adj, NodeId s, NodeId t) {
  if (s == t || adj.size() < 2) return 0;
  // Adjacent nodes: connectivity counts the direct edge as one disjoint path
  // plus the connectivity of the graph without that edge; the standard
  // shortcut is 1 + connectivity in G - {s,t edge}.  We implement it by
  // removing the edge from a copy.
  const bool adjacent = std::binary_search(adj[s].begin(), adj[s].end(), t);
  if (!adjacent) {
    UnitFlowNetwork net(adj, s, t);
    const auto bound = static_cast<std::uint32_t>(
        std::min(adj[s].size(), adj[t].size()));
    return net.max_flow(bound);
  }
  Adjacency reduced = adj;
  auto erase_from = [](std::vector<NodeId>& v, NodeId x) {
    v.erase(std::remove(v.begin(), v.end(), x), v.end());
  };
  erase_from(reduced[s], t);
  erase_from(reduced[t], s);
  UnitFlowNetwork net(reduced, s, t);
  const auto bound = static_cast<std::uint32_t>(
      std::min(reduced[s].size(), reduced[t].size()));
  return 1 + net.max_flow(bound);
}

double average_node_connectivity(const Adjacency& adj, dm::util::Rng& rng,
                                 std::size_t max_pairs) {
  const std::size_t n = adj.size();
  if (n < 2) return 0.0;
  const std::size_t total_pairs = n * (n - 1) / 2;
  double sum = 0.0;
  std::size_t counted = 0;
  if (total_pairs <= max_pairs) {
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = s + 1; t < n; ++t) {
        sum += local_node_connectivity(adj, s, t);
        ++counted;
      }
    }
  } else {
    while (counted < max_pairs) {
      const auto s = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto t = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (s == t) continue;
      sum += local_node_connectivity(adj, s, t);
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

std::vector<double> closeness_centrality(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> c(n, 0.0);
  if (n < 2) return c;
  for (NodeId v = 0; v < n; ++v) {
    const auto dist = bfs_distances(adj, v);
    double total = 0.0;
    std::size_t reachable = 0;
    for (std::uint32_t d : dist) {
      if (d != kUnreachable && d > 0) {
        total += static_cast<double>(d);
        ++reachable;
      }
    }
    if (total > 0.0) {
      const double r = static_cast<double>(reachable);
      c[v] = r / total * r / static_cast<double>(n - 1);
    }
  }
  return c;
}

namespace {

/// Shared single-source shortest-path DAG state for Brandes-style sweeps.
struct SsspDag {
  std::vector<std::uint32_t> dist;
  std::vector<double> sigma;                 // shortest-path counts
  std::vector<std::vector<NodeId>> preds;    // predecessors on shortest paths
  std::vector<NodeId> order;                 // nodes in non-decreasing distance
};

SsspDag build_dag(const Adjacency& adj, NodeId source) {
  const std::size_t n = adj.size();
  SsspDag dag;
  dag.dist.assign(n, kUnreachable);
  dag.sigma.assign(n, 0.0);
  dag.preds.assign(n, {});
  dag.order.reserve(n);

  std::queue<NodeId> frontier;
  dag.dist[source] = 0;
  dag.sigma[source] = 1.0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    dag.order.push_back(v);
    for (NodeId w : adj[v]) {
      if (dag.dist[w] == kUnreachable) {
        dag.dist[w] = dag.dist[v] + 1;
        frontier.push(w);
      }
      if (dag.dist[w] == dag.dist[v] + 1) {
        dag.sigma[w] += dag.sigma[v];
        dag.preds[w].push_back(v);
      }
    }
  }
  return dag;
}

double pair_normalization(std::size_t n) {
  // Undirected: each unordered pair is counted twice by the source loop.
  if (n < 3) return 0.0;
  return 1.0 / (static_cast<double>(n - 1) * static_cast<double>(n - 2));
}

}  // namespace

std::vector<double> betweenness_centrality(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> bc(n, 0.0);
  const double norm = pair_normalization(n);
  if (norm == 0.0) return bc;

  for (NodeId s = 0; s < n; ++s) {
    auto dag = build_dag(adj, s);
    std::vector<double> delta(n, 0.0);
    // Accumulate dependencies in reverse BFS order.
    for (auto it = dag.order.rbegin(); it != dag.order.rend(); ++it) {
      const NodeId w = *it;
      for (NodeId v : dag.preds[w]) {
        delta[v] += dag.sigma[v] / dag.sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) bc[w] += delta[w];
    }
  }
  for (double& x : bc) x *= norm;
  return bc;
}

std::vector<double> load_centrality(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> lc(n, 0.0);
  const double norm = pair_normalization(n);
  if (norm == 0.0) return lc;

  for (NodeId s = 0; s < n; ++s) {
    auto dag = build_dag(adj, s);
    // Each reachable target starts with one unit of "load"; load at a node
    // splits EQUALLY among its shortest-path predecessors (this equal split
    // is what distinguishes load from betweenness).
    std::vector<double> load(n, 0.0);
    for (NodeId v = 0; v < n; ++v) {
      if (v != s && dag.dist[v] != kUnreachable) load[v] += 1.0;
    }
    for (auto it = dag.order.rbegin(); it != dag.order.rend(); ++it) {
      const NodeId w = *it;
      if (dag.preds[w].empty()) continue;
      const double share = load[w] / static_cast<double>(dag.preds[w].size());
      for (NodeId v : dag.preds[w]) load[v] += share;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (v != s) lc[v] += load[v] - 1.0;  // subtract the unit that terminates at v
    }
  }
  for (double& x : lc) x = std::max(0.0, x) * norm;
  return lc;
}

std::uint32_t diameter(const Adjacency& adj) {
  std::uint32_t diam = 0;
  for (NodeId v = 0; v < adj.size(); ++v) {
    diam = std::max(diam, eccentricity(adj, v));
  }
  return diam;
}

double average_k_nearest_neighbors(const Adjacency& adj, std::uint32_t k) {
  if (adj.empty()) return 0.0;
  double sum = 0.0;
  for (NodeId v = 0; v < adj.size(); ++v) {
    sum += static_cast<double>(nodes_within(adj, v, k));
  }
  return sum / static_cast<double>(adj.size());
}

}  // namespace dm::graph::oracle
