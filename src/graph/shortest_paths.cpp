#include "graph/shortest_paths.h"

#include <algorithm>
#include <queue>

namespace dm::graph {

std::vector<std::uint32_t> bfs_distances(const Adjacency& adj, NodeId source) {
  std::vector<std::uint32_t> dist(adj.size(), kUnreachable);
  if (source >= adj.size()) return dist;
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (NodeId w : adj[v]) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[v] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

std::uint32_t eccentricity(const Adjacency& adj, NodeId source) {
  const auto dist = bfs_distances(adj, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Adjacency& adj) {
  return path_metrics(adj, kPathDiameter).diameter;
}

Components connected_components(const Adjacency& adj) {
  Components result;
  result.component_of.assign(adj.size(), kUnreachable);
  for (NodeId start = 0; start < adj.size(); ++start) {
    if (result.component_of[start] != kUnreachable) continue;
    const std::uint32_t id = result.count++;
    std::queue<NodeId> frontier;
    result.component_of[start] = id;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (NodeId w : adj[v]) {
        if (result.component_of[w] == kUnreachable) {
          result.component_of[w] = id;
          frontier.push(w);
        }
      }
    }
  }
  return result;
}

std::size_t nodes_within(const Adjacency& adj, NodeId source, std::uint32_t k) {
  const auto dist = bfs_distances(adj, source);
  std::size_t count = 0;
  for (NodeId v = 0; v < adj.size(); ++v) {
    if (v != source && dist[v] != kUnreachable && dist[v] <= k) ++count;
  }
  return count;
}

PathMetrics path_metrics(const Adjacency& adj, unsigned which,
                         std::uint32_t knn_hops) {
  const std::size_t n = adj.size();
  PathMetrics out;
  // Betweenness and load normalise by 2/((n-1)(n-2)) over unordered pairs
  // and are all-zero below three nodes; closeness is all-zero below two.
  const bool closeness = (which & kPathCloseness) != 0 && n >= 2;
  const bool betweenness = (which & kPathBetweenness) != 0 && n >= 3;
  const bool load = (which & kPathLoad) != 0 && n >= 3;
  const bool dag = betweenness || load;
  if (which & kPathCloseness) out.closeness.assign(n, 0.0);
  if (which & kPathBetweenness) out.betweenness.assign(n, 0.0);
  if (which & kPathLoad) out.load.assign(n, 0.0);
  if (n == 0) return out;

  std::vector<std::uint32_t> dist(n);
  std::vector<NodeId> order(n);  // nodes in non-decreasing distance
  std::vector<double> sigma;     // shortest-path counts
  std::vector<double> acc;       // dependency (betweenness) / load
  // Predecessor lists as CSR: w's predecessors are among the nodes that
  // list w as a neighbour, so its in-degree bounds its slot.
  std::vector<std::uint32_t> pred_first;
  std::vector<std::uint32_t> pred_count;
  std::vector<NodeId> preds;
  if (dag) {
    sigma.resize(n);
    acc.resize(n);
    pred_count.assign(n, 0);
    pred_first.assign(n + 1, 0);
    for (const auto& nbrs : adj) {
      for (NodeId w : nbrs) ++pred_first[w + 1];
    }
    for (std::size_t v = 0; v < n; ++v) pred_first[v + 1] += pred_first[v];
    preds.resize(pred_first[n]);
  }

  std::uint64_t knn_total = 0;
  for (NodeId s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), kUnreachable);
    if (dag) {
      std::fill(sigma.begin(), sigma.end(), 0.0);
      std::fill(pred_count.begin(), pred_count.end(), 0u);
      sigma[s] = 1.0;
    }
    dist[s] = 0;
    order[0] = s;
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {  // `order` doubles as the BFS queue
      const NodeId v = order[head++];
      for (NodeId w : adj[v]) {
        if (dist[w] == kUnreachable) {
          dist[w] = dist[v] + 1;
          order[tail++] = w;
        }
        if (dag && dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          preds[pred_first[w] + pred_count[w]++] = v;
        }
      }
    }

    // Distances are integers, so integer totals convert to exactly the
    // double sums the per-node loops accumulate.
    std::uint64_t dist_total = 0;
    for (std::size_t i = 1; i < tail; ++i) {
      const std::uint32_t d = dist[order[i]];
      dist_total += d;
      if (d <= knn_hops) ++knn_total;
    }
    out.diameter = std::max(out.diameter, dist[order[tail - 1]]);
    if (closeness && dist_total > 0) {
      const double r = static_cast<double>(tail - 1);
      out.closeness[s] =
          r / static_cast<double>(dist_total) * r / static_cast<double>(n - 1);
    }

    if (betweenness) {
      // Brandes: accumulate dependencies in reverse BFS order.
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t i = tail; i-- > 0;) {
        const NodeId w = order[i];
        for (std::uint32_t p = pred_first[w]; p < pred_first[w] + pred_count[w]; ++p) {
          const NodeId v = preds[p];
          acc[v] += sigma[v] / sigma[w] * (1.0 + acc[w]);
        }
        if (w != s) out.betweenness[w] += acc[w];
      }
    }
    if (load) {
      // Each reachable target starts with one unit of load, which splits
      // EQUALLY among its shortest-path predecessors (unlike betweenness).
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t i = 1; i < tail; ++i) acc[order[i]] = 1.0;
      for (std::size_t i = tail; i-- > 0;) {
        const NodeId w = order[i];
        if (pred_count[w] == 0) continue;
        const double share = acc[w] / static_cast<double>(pred_count[w]);
        for (std::uint32_t p = pred_first[w]; p < pred_first[w] + pred_count[w]; ++p) {
          acc[preds[p]] += share;
        }
      }
      for (NodeId v = 0; v < n; ++v) {
        // Subtract the unit that terminates at v (unreachable v: -1).
        if (v != s) out.load[v] += acc[v] - 1.0;
      }
    }
  }

  const double pair_norm =
      n >= 3 ? 1.0 / (static_cast<double>(n - 1) * static_cast<double>(n - 2))
             : 0.0;
  if (betweenness) {
    for (double& x : out.betweenness) x *= pair_norm;
  }
  if (load) {
    for (double& x : out.load) x = std::max(0.0, x) * pair_norm;
  }
  if (which & kPathKnn) {
    out.avg_k_nearest_neighbors =
        static_cast<double>(knn_total) / static_cast<double>(n);
  }
  return out;
}

}  // namespace dm::graph
