#include "graph/connectivity.h"

#include <algorithm>
#include <span>

namespace dm::graph {
namespace {

/// Local node connectivity for every pair of one graph, answered from its
/// block-cut structure.  Tarjan's iterative DFS splits the undirected view
/// into biconnected blocks in O(n + m).  By Menger's theorem on that
/// structure:
///  * nodes in different components have kappa = 0;
///  * connected nodes that share no block are separated by a cut vertex,
///    and an adjacent pair whose only shared block is its bridge loses its
///    last path with the edge, so both have kappa = 1;
///  * every other pair shares exactly one block with >= 3 nodes, and all
///    internally disjoint paths between them stay inside it, so kappa is a
///    max-flow on that block alone.
/// Each such block gets one vertex-split unit-capacity flow network, built
/// once as flat CSR arrays: block node v becomes v_in (2v) and v_out
/// (2v + 1) joined by a capacity-1 arc, and each block edge {u, v} becomes
/// u_out->v_in and v_out->u_in with unbounded capacity.  A query pushes
/// unit augmenting paths (Edmonds-Karp, BFS) and then restores only the
/// arcs it touched, so a pair costs no allocation and no rebuild.
class BlockConnectivity {
 public:
  explicit BlockConnectivity(const Adjacency& adj) : adj_(adj) {
    decompose();
    build_networks();
  }

  std::uint32_t operator()(NodeId s, NodeId t) {
    if (s == t || component_[s] != component_[t]) return 0;
    const std::uint32_t b = shared_block(s, t);
    if (b == kNoBlock || block_size(b) == 2) return 1;  // cut vertex / bridge
    const bool adjacent = std::binary_search(adj_[s].begin(), adj_[s].end(), t);
    return (adjacent ? 1 : 0) + block_flow(b, s, t, adjacent);
  }

 private:
  static constexpr std::uint32_t kNoBlock = ~0u;
  static constexpr int kInf = 1 << 29;

  std::uint32_t block_size(std::uint32_t b) const {
    return block_first_[b + 1] - block_first_[b];
  }

  /// Position of `v` in block b's sorted node list (b must contain v).
  std::uint32_t slot_of(std::uint32_t b, NodeId v) const {
    const auto first = block_nodes_.begin() + block_first_[b];
    const auto last = block_nodes_.begin() + block_first_[b + 1];
    return static_cast<std::uint32_t>(std::lower_bound(first, last, v) -
                                      block_nodes_.begin());
  }

  std::span<const std::uint32_t> blocks_of(NodeId v) const {
    return {node_blocks_.data() + node_block_first_[v],
            node_blocks_.data() + node_block_first_[v + 1]};
  }

  /// The block containing both s and t, or kNoBlock.  Two blocks share at
  /// most one node, so the answer is unique.  A cut vertex such as the
  /// victim can sit in many blocks; the search walks the shorter list.
  std::uint32_t shared_block(NodeId s, NodeId t) const {
    auto few = blocks_of(s);
    auto many = blocks_of(t);
    if (few.size() > many.size()) std::swap(few, many);
    for (const std::uint32_t b : few) {
      if (std::binary_search(many.begin(), many.end(), b)) return b;
    }
    return kNoBlock;
  }

  /// Iterative Hopcroft-Tarjan: components, and blocks as sorted node lists.
  void decompose() {
    const std::size_t n = adj_.size();
    constexpr std::uint32_t kUnseen = ~0u;
    component_.assign(n, kUnseen);
    std::vector<std::uint32_t> disc(n, kUnseen);
    std::vector<std::uint32_t> low(n, 0);
    std::vector<NodeId> parent(n, kInvalidNode);
    std::vector<std::uint32_t> next_edge(n, 0);
    std::vector<NodeId> stack;       // nodes of blocks still open
    std::vector<NodeId> call_stack;  // the DFS path
    std::vector<std::vector<std::uint32_t>> blocks_per_node(n);
    std::uint32_t time = 0;
    std::uint32_t components = 0;
    block_first_.assign(1, 0);
    block_nodes_.clear();

    for (NodeId root = 0; root < n; ++root) {
      if (disc[root] != kUnseen) continue;
      component_[root] = components;
      disc[root] = low[root] = time++;
      call_stack.push_back(root);
      stack.push_back(root);
      while (!call_stack.empty()) {
        const NodeId v = call_stack.back();
        if (next_edge[v] < adj_[v].size()) {
          const NodeId w = adj_[v][next_edge[v]++];
          if (w == v || w == parent[v]) continue;
          if (disc[w] == kUnseen) {
            component_[w] = components;
            parent[w] = v;
            disc[w] = low[w] = time++;
            call_stack.push_back(w);
            stack.push_back(w);
          } else {
            low[v] = std::min(low[v], disc[w]);
          }
          continue;
        }
        call_stack.pop_back();
        const NodeId u = parent[v];
        if (u == kInvalidNode) continue;
        low[u] = std::min(low[u], low[v]);
        if (low[v] >= disc[u]) {
          // u separates the subtree at v: everything stacked since v, plus
          // u, is one block.
          const auto id = static_cast<std::uint32_t>(block_first_.size() - 1);
          const std::size_t begin = block_nodes_.size();
          NodeId x;
          do {
            x = stack.back();
            stack.pop_back();
            block_nodes_.push_back(x);
          } while (x != v);
          block_nodes_.push_back(u);
          std::sort(block_nodes_.begin() + static_cast<std::ptrdiff_t>(begin),
                    block_nodes_.end());
          for (std::size_t i = begin; i < block_nodes_.size(); ++i) {
            blocks_per_node[block_nodes_[i]].push_back(id);
          }
          block_first_.push_back(static_cast<std::uint32_t>(block_nodes_.size()));
        }
      }
      stack.clear();
      ++components;
    }

    node_block_first_.assign(n + 1, 0);
    node_blocks_.clear();
    for (NodeId v = 0; v < n; ++v) {
      node_blocks_.insert(node_blocks_.end(), blocks_per_node[v].begin(),
                          blocks_per_node[v].end());
      node_block_first_[v + 1] = static_cast<std::uint32_t>(node_blocks_.size());
    }
  }

  /// Flow node ids are global across blocks: slot i of block_nodes_ owns
  /// in = 2i and out = 2i + 1.  Bridge blocks never run a flow and get no
  /// arcs.
  void build_networks() {
    const std::size_t flow_nodes = 2 * block_nodes_.size();
    arc_first_.assign(flow_nodes + 1, 0);
    // Pass 1: arc counts per flow node x, kept in arc_first_[x + 1].  Each
    // arc is counted at its tail and its reverse at its head.
    for (std::uint32_t b = 0; b + 1 < block_first_.size(); ++b) {
      if (block_size(b) == 2) continue;
      for (std::uint32_t i = block_first_[b]; i < block_first_[b + 1]; ++i) {
        ++arc_first_[2 * i + 1];  // v_in -> v_out
        ++arc_first_[2 * i + 2];
        for (NodeId w : adj_[block_nodes_[i]]) {
          if (!in_block(b, w)) continue;
          ++arc_first_[2 * i + 2];               // v_out -> w_in
          ++arc_first_[2 * slot_of(b, w) + 1];
        }
      }
    }
    for (std::size_t i = 0; i < flow_nodes; ++i) arc_first_[i + 1] += arc_first_[i];
    const std::uint32_t arcs = arc_first_[flow_nodes];
    to_.assign(arcs, 0);
    rev_.assign(arcs, 0);
    base_cap_.assign(arcs, 0);
    std::vector<std::uint32_t> fill(arc_first_.begin(), arc_first_.end() - 1);
    const auto add_arc = [&](std::uint32_t from, std::uint32_t to, int cap) {
      const std::uint32_t a = fill[from]++;
      const std::uint32_t r = fill[to]++;
      to_[a] = to;
      base_cap_[a] = cap;
      rev_[a] = r;
      to_[r] = from;
      rev_[r] = a;
    };
    // Pass 2: every arc is added once from its tail (edge arcs from the
    // out side), so each undirected edge contributes two arcs here.
    for (std::uint32_t b = 0; b + 1 < block_first_.size(); ++b) {
      if (block_size(b) == 2) continue;
      for (std::uint32_t i = block_first_[b]; i < block_first_[b + 1]; ++i) {
        add_arc(2 * i, 2 * i + 1, 1);
        for (NodeId w : adj_[block_nodes_[i]]) {
          if (in_block(b, w)) add_arc(2 * i + 1, 2 * slot_of(b, w), kInf);
        }
      }
    }
    cap_ = base_cap_;
    reached_.assign(flow_nodes, 0);
    via_arc_.assign(flow_nodes, 0);
    queue_.assign(flow_nodes, 0);
  }

  bool in_block(std::uint32_t b, NodeId w) const {
    return std::binary_search(block_nodes_.begin() + block_first_[b],
                              block_nodes_.begin() + block_first_[b + 1], w);
  }

  void set_cap(std::uint32_t a, int cap) {
    cap_[a] = cap;
    touched_.push_back(a);
  }

  /// Closes the edge arc from flow node `from` to flow node `to`.
  void cut_arc(std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t a = arc_first_[from]; a < arc_first_[from + 1]; ++a) {
      if (to_[a] == to && base_cap_[a] > 0) set_cap(a, 0);
    }
  }

  /// Max-flow from s_out to t_in inside block b.  An adjacent pair counts
  /// its edge separately, so the flow runs without that edge's arcs.
  std::uint32_t block_flow(std::uint32_t b, NodeId s, NodeId t, bool adjacent) {
    const std::uint32_t si = slot_of(b, s);
    const std::uint32_t ti = slot_of(b, t);
    const std::uint32_t source = 2 * si + 1;
    const std::uint32_t sink = 2 * ti;
    std::uint32_t bound = std::min(arc_first_[source + 1] - arc_first_[source],
                                   arc_first_[sink + 1] - arc_first_[sink]) - 1;
    if (adjacent) {
      cut_arc(source, sink);
      cut_arc(2 * ti + 1, 2 * si);
      --bound;
    }
    std::uint32_t flow = 0;
    while (flow < bound && augment(source, sink)) ++flow;
    for (const std::uint32_t a : touched_) cap_[a] = base_cap_[a];
    touched_.clear();
    return flow;
  }

  /// One BFS augmenting path of one unit; false when none is left.
  bool augment(std::uint32_t source, std::uint32_t sink) {
    ++stamp_;
    reached_[source] = stamp_;
    std::size_t head = 0;
    std::size_t tail = 0;
    queue_[tail++] = source;
    while (head < tail && reached_[sink] != stamp_) {
      const std::uint32_t v = queue_[head++];
      for (std::uint32_t a = arc_first_[v]; a < arc_first_[v + 1]; ++a) {
        const std::uint32_t w = to_[a];
        if (cap_[a] > 0 && reached_[w] != stamp_) {
          reached_[w] = stamp_;
          via_arc_[w] = a;
          queue_[tail++] = w;
        }
      }
    }
    if (reached_[sink] != stamp_) return false;
    for (std::uint32_t v = sink; v != source;) {
      const std::uint32_t a = via_arc_[v];
      set_cap(a, cap_[a] - 1);
      set_cap(rev_[a], cap_[rev_[a]] + 1);
      v = to_[rev_[a]];
    }
    return true;
  }

  const Adjacency& adj_;
  std::vector<std::uint32_t> component_;
  // Blocks as CSR: block b owns block_nodes_[block_first_[b], block_first_[b+1]).
  std::vector<std::uint32_t> block_first_;
  std::vector<NodeId> block_nodes_;
  // Blocks of each node, ascending.
  std::vector<std::uint32_t> node_block_first_;
  std::vector<std::uint32_t> node_blocks_;
  // Flow networks as CSR over flow nodes.
  std::vector<std::uint32_t> arc_first_;
  std::vector<std::uint32_t> to_;
  std::vector<std::uint32_t> rev_;
  std::vector<int> base_cap_;
  std::vector<int> cap_;
  std::vector<std::uint32_t> touched_;  // arcs whose cap_ differs from base
  // Augmenting-path BFS scratch; a stamp marks the nodes reached this round.
  std::vector<std::uint32_t> reached_;
  std::vector<std::uint32_t> via_arc_;
  std::vector<std::uint32_t> queue_;
  std::uint32_t stamp_ = 0;
};

}  // namespace

std::uint32_t local_node_connectivity(const Adjacency& adj, NodeId s, NodeId t) {
  if (s == t || adj.size() < 2) return 0;
  return BlockConnectivity(adj)(s, t);
}

double average_node_connectivity(const Adjacency& adj, dm::util::Rng& rng,
                                 std::size_t max_pairs) {
  const std::size_t n = adj.size();
  if (n < 2) return 0.0;
  BlockConnectivity kappa(adj);
  const std::size_t total_pairs = n * (n - 1) / 2;
  double sum = 0.0;
  std::size_t counted = 0;
  if (total_pairs <= max_pairs) {
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = s + 1; t < n; ++t) {
        sum += kappa(s, t);
        ++counted;
      }
    }
  } else {
    while (counted < max_pairs) {
      const auto s = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto t = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (s == t) continue;
      sum += kappa(s, t);
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

std::vector<double> clustering_coefficients(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> cc(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    const auto& nbrs = adj[v];
    const std::size_t k = nbrs.size();
    if (k < 2) continue;
    std::size_t links = 0;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) {
        if (std::binary_search(adj[nbrs[i]].begin(), adj[nbrs[i]].end(), nbrs[j])) {
          ++links;
        }
      }
    }
    cc[v] = 2.0 * static_cast<double>(links) /
            (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  return cc;
}

double average_clustering(const Adjacency& adj) {
  if (adj.empty()) return 0.0;
  const auto cc = clustering_coefficients(adj);
  double sum = 0.0;
  for (double x : cc) sum += x;
  return sum / static_cast<double>(cc.size());
}

std::vector<double> average_neighbor_degrees(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> and_(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    if (adj[v].empty()) continue;
    double sum = 0.0;
    for (NodeId w : adj[v]) sum += static_cast<double>(adj[w].size());
    and_[v] = sum / static_cast<double>(adj[v].size());
  }
  return and_;
}

std::map<std::size_t, double> average_degree_connectivity(const Adjacency& adj) {
  const auto and_ = average_neighbor_degrees(adj);
  std::map<std::size_t, std::pair<double, std::size_t>> acc;  // degree -> (sum, count)
  for (NodeId v = 0; v < adj.size(); ++v) {
    const std::size_t k = adj[v].size();
    if (k == 0) continue;
    auto& [sum, count] = acc[k];
    sum += and_[v];
    ++count;
  }
  std::map<std::size_t, double> out;
  for (const auto& [k, sc] : acc) out[k] = sc.first / static_cast<double>(sc.second);
  return out;
}

double average_k_nearest_neighbors(const Adjacency& adj, std::uint32_t k) {
  return path_metrics(adj, kPathKnn, k).avg_k_nearest_neighbors;
}

double reciprocity(const Digraph& g) {
  return reciprocity(g.directed_adjacency());
}

double reciprocity(const Adjacency& adj) {
  std::size_t total = 0;
  std::size_t mutual = 0;
  for (NodeId v = 0; v < adj.size(); ++v) {
    for (NodeId w : adj[v]) {
      ++total;
      if (std::binary_search(adj[w].begin(), adj[w].end(), v)) ++mutual;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(mutual) / static_cast<double>(total);
}

}  // namespace dm::graph
