#include "harness/replay.h"

#include <algorithm>
#include <map>

#include "core/features.h"
#include "graph/centrality.h"
#include "graph/connectivity.h"
#include "graph/metrics.h"
#include "graph/pagerank.h"
#include "graph/shortest_paths.h"
#include "util/rng.h"

namespace pb {

std::string victim_of(const dm::core::Wcg& wcg) {
  for (const auto& node : wcg.nodes()) {
    if (node.type == dm::core::NodeType::kVictim) return node.host;
  }
  return {};
}

bool same_score_stream(std::vector<TapRecord> a, std::vector<TapRecord> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

SequentialPass run_sequential(std::shared_ptr<const dm::core::Detector> detector,
                              std::vector<dm::http::HttpTransaction>& stream,
                              bool traced, bool consume) {
  SequentialPass pass;
  std::uint64_t observe_start = 0;
  std::uint64_t tap_ns = 0;  // tap work inside the current observe()
  dm::core::OnlineOptions options;
  options.verdict_tap = [&](const dm::core::Wcg& wcg, double score, bool,
                            std::uint64_t ts) {
    const std::uint64_t entered = now_ns();
    pass.verdict_us.push_back(
        static_cast<double>(entered - observe_start - tap_ns) / 1e3);
    std::string client = victim_of(wcg);
    if (traced) pass.wcgs.push_back({client, wcg, score});
    pass.taps.push_back({std::move(client), ts, double_bits(score)});
    tap_ns += now_ns() - entered;
  };
  dm::core::OnlineDetector online(std::move(detector), options);
  if (traced) pass.observe_us.reserve(stream.size());

  const auto start = Clock::now();
  for (auto& txn : stream) {
    auto input = consume ? std::move(txn) : txn;
    tap_ns = 0;
    observe_start = now_ns();
    online.observe(std::move(input));
    if (!traced) continue;
    const std::uint64_t self = now_ns() - observe_start - tap_ns;
    pass.observe_us.push_back(static_cast<double>(self) / 1e3);
    pass.observe_ms += static_cast<double>(self) / 1e6;
  }
  pass.wall_s = seconds_since(start);
  pass.alerts = online.alerts();
  pass.stats = online.stats();
  return pass;
}

namespace {

/// Time and calls per graph metric function (features f7-f25).
struct GraphLayer {
  LayerTotals metrics;  // graph::compute_metrics, all of f7-f25
  LayerTotals connectivity, betweenness, load, closeness, diameter, knn,
      pagerank, clustering;
  std::size_t max_order = 0;
};

struct ReplayBreakdown {
  GraphLayer graph;
  LayerTotals features_self;
  LayerTotals infer;
  std::size_t cache_hits = 0;
  /// Every replayed score equals the tapped one, bit for bit.
  bool scores_match = true;
  std::vector<double> orders;
};

double mean_of(const std::vector<double>& xs) {
  double s = 0;
  for (const double x : xs) s += x;
  return xs.empty() ? 0 : s / static_cast<double>(xs.size());
}

/// Each graph metric function compute_metrics calls, timed on its own.
void time_graph_functions(const dm::graph::Digraph& g,
                          const dm::graph::MetricsOptions& options,
                          GraphLayer& graph) {
  namespace dg = dm::graph;
  const auto undirected = g.undirected_adjacency();
  const auto directed = g.directed_adjacency();
  timed(graph.diameter, [&] { return dg::diameter(undirected); });
  timed(graph.closeness,
        [&] { return mean_of(dg::closeness_centrality(undirected)); });
  timed(graph.betweenness,
        [&] { return mean_of(dg::betweenness_centrality(undirected)); });
  timed(graph.load, [&] { return mean_of(dg::load_centrality(undirected)); });
  timed(graph.connectivity, [&] {
    dm::util::Rng rng(options.sample_seed);
    return dg::average_node_connectivity(undirected, rng,
                                         options.connectivity_max_pairs);
  });
  timed(graph.clustering, [&] { return dg::average_clustering(undirected); });
  timed(graph.knn, [&] {
    return dg::average_k_nearest_neighbors(undirected, options.knn_hops);
  });
  timed(graph.pagerank, [&] { return mean_of(dg::pagerank(directed)); });
  graph.max_order = std::max(graph.max_order, g.node_count());
}

/// Uncached feature extraction split into its layers: compute_metrics (and,
/// separately, each graph metric function) plus extract_features' own work
/// over `cache`, primed with those metrics.  Returns the 37 features.
std::vector<double> traced_features(const dm::core::Wcg& wcg, GraphLayer& graph,
                                    LayerTotals& features_self,
                                    dm::core::FeatureCache& cache) {
  const dm::core::FeatureExtractorOptions options;
  cache.metrics = timed(graph.metrics, [&] {
    return dm::graph::compute_metrics(wcg.graph(), options.metrics);
  });
  cache.wcg = &wcg;
  cache.topology_version = wcg.topology_version();
  time_graph_functions(wcg.graph(), options.metrics, graph);
  return timed(features_self,
               [&] { return dm::core::extract_features(wcg, options, &cache); });
}

/// Replays tapped WCGs through extract_features and predict_proba.  Graph
/// metrics are recomputed only where the online path had to: when the
/// client's WCG topology changed since its previous verdict.
ReplayBreakdown replay_wcgs(const std::vector<TappedWcg>& wcgs,
                            const dm::core::Detector& detector) {
  ReplayBreakdown out;
  const dm::core::FeatureExtractorOptions options;
  // Last graph metrics per client, keyed by topology version: the online
  // path's per-session FeatureCache.
  std::map<std::string, dm::core::FeatureCache> last;
  for (const auto& tapped : wcgs) {
    out.orders.push_back(static_cast<double>(tapped.wcg.node_count()));
    auto& memo = last[tapped.client];
    std::vector<double> features;
    if (memo.wcg != nullptr &&
        memo.topology_version == tapped.wcg.topology_version()) {
      ++out.cache_hits;
      memo.wcg = &tapped.wcg;  // same topology: a hit, as online
      features = timed(out.features_self, [&] {
        return dm::core::extract_features(tapped.wcg, options, &memo);
      });
    } else {
      features =
          traced_features(tapped.wcg, out.graph, out.features_self, memo);
    }
    const double score = timed(out.infer, [&] {
      return detector.flat_forest().predict_proba(features);
    });
    out.scores_match =
        out.scores_match && double_bits(score) == double_bits(tapped.score);
  }
  return out;
}

void report_graph_layer(const GraphLayer& graph, Report& report) {
  report.add("graph.metrics_ms", graph.metrics.ms, "ms");
  report.add("graph.calls", static_cast<double>(graph.metrics.calls), "count");
  report.add("graph.connectivity_ms", graph.connectivity.ms, "ms");
  report.add("graph.betweenness_ms", graph.betweenness.ms, "ms");
  report.add("graph.load_ms", graph.load.ms, "ms");
  report.add("graph.closeness_ms", graph.closeness.ms, "ms");
  report.add("graph.diameter_ms", graph.diameter.ms, "ms");
  report.add("graph.knn_ms", graph.knn.ms, "ms");
  report.add("graph.pagerank_ms", graph.pagerank.ms, "ms");
  report.add("graph.clustering_ms", graph.clustering.ms, "ms");
  report.add("graph.max_order", static_cast<double>(graph.max_order), "count");
}

}  // namespace

void report_online_layers(const SequentialPass& pass,
                          const dm::core::Detector& detector, Report& report) {
  const auto replay = replay_wcgs(pass.wcgs, detector);
  report.check(replay.scores_match,
               "replaying a tapped WCG through extract_features + "
               "predict_proba did not reproduce its online score");
  report.check(replay.infer.calls == pass.taps.size(),
               "tap replay count differs from the verdict count");
  const auto& s = pass.stats;
  report.add("core.observe_ms", pass.observe_ms, "ms");
  report.add("core.observe_p50_us", quantile(pass.observe_us, 0.5), "us");
  report.add("core.observe_p99_us", quantile(pass.observe_us, 0.99), "us");
  report.add("core.sessions_opened", static_cast<double>(s.sessions_opened), "count");
  report.add("core.clues", static_cast<double>(s.clues_fired), "count");
  report.add("core.queries", static_cast<double>(s.classifier_queries), "count");
  report.add("core.queries_skipped",
             static_cast<double>(s.queries_skipped_unchanged), "count");
  report.add("core.scope_rescans", static_cast<double>(s.scope_rescans), "count");
  report.add("core.alerts", static_cast<double>(s.alerts), "count");
  report.add("core.verdict_wcg_order_p50", quantile(replay.orders, 0.5), "count");
  report.add("core.verdict_wcg_order_max", quantile(replay.orders, 1.0), "count");
  report.add("core.feature_cache_hits", static_cast<double>(replay.cache_hits),
             "count");
  report.add("core.features_ms", replay.features_self.ms, "ms");
  report_graph_layer(replay.graph, report);
  report.add("ml.infer_ns",
             replay.infer.calls ? replay.infer.ms * 1e6 /
                                      static_cast<double>(replay.infer.calls)
                                : 0,
             "ns");
  report.add("ml.infer_ms", replay.infer.ms, "ms");
  // Self-time identity: observe = features (self) + graph + forest + the
  // residual no replayed layer accounts for (session, clue, whitelist and
  // builder upkeep).
  const double residual = pass.observe_ms - replay.features_self.ms -
                          replay.graph.metrics.ms - replay.infer.ms;
  report.add("core.residual_ms", residual, "ms");
  report.check(residual >= 0,
               "negative core.residual_ms: the replayed layers take longer "
               "than observe() itself");
}

}  // namespace pb
