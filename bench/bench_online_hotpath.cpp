// Online hot-path bench: the production engine on one long-session corpus,
// fenced against the reference scorer and the sharded engine, plus the
// causal-tracing overhead arms.
//
// The workload is the regime the incremental path exists for: long-lived
// proxy sessions (hundreds of transactions under one session cookie) where
// a clue fires mid-stream and the session then KEEPS STREAMING — every
// further transaction re-queries the classifier until the session ends.
// The engine folds only the delta into the scoped WCG, serves graph metrics
// from the topology-version cache, skips provably-unchanged queries
// outright, and scores through the flattened ERF.
//
// Before any timing, the correctness invariant is enforced on the verdict
// tap's score stream, (client, trace timestamp, score bits) per completed
// query.  The production stream must be IDENTICAL to that of the same
// engine scoring through the test-support ReferenceScorer (uncached
// extraction, pointer forest), and to the sharded engine's at 1/2/8 shards.
// An empty stream fails too: a fence over zero verdicts proves nothing.
// The process exits nonzero on divergence; a number for a wrong answer is
// worthless.
//
// `--json <path>` appends the result record as one JSON line;
// BENCH_hotpath.json at the repo root is the checked-in baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/online.h"
#include "core/trainer.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sharded_online.h"
#include "support/online_reference.h"
#include "synth/dataset.h"

namespace {

using dm::core::Alert;
using dm::core::OnlineOptions;
using dm::core::ScoreKey;
using dm::core::ScoreStream;
using dm::http::HttpTransaction;

struct TraceShape {
  std::size_t clients = 16;     // crafted long sessions
  std::size_t pre_clue = 600;   // benign browsing before the clue
  std::size_t post_clue = 400;  // post-clue stream (mostly unrelated noise)
};

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* s = std::getenv(name)) {
    const long long v = std::atoll(s);
    if (v >= 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

TraceShape trace_shape(double scale) {
  TraceShape shape;
  shape.clients = std::max<std::size_t>(
      4, static_cast<std::size_t>(16 * scale));
  shape.pre_clue = env_size("DM_BENCH_PRE", shape.pre_clue);
  shape.post_clue = env_size("DM_BENCH_POST", shape.post_clue);
  return shape;
}

std::shared_ptr<const dm::core::Detector> trained_detector() {
  static const auto detector = [] {
    const auto corpus = dm::bench::build_corpus(42, 0.05);
    return std::make_shared<const dm::core::Detector>(
        dm::core::train_dynaminer(dm::bench::corpus_dataset(corpus), 42));
  }();
  return detector;
}

HttpTransaction make_txn(const std::string& client, const std::string& cookie,
                         const std::string& server, const std::string& uri,
                         std::uint64_t ts_micros,
                         const std::string& referrer = {}) {
  HttpTransaction txn;
  txn.client_host = client;
  txn.server_host = server;
  txn.server_ip = "93.184.216.34";
  txn.request.method = "GET";
  txn.request.uri = uri;
  txn.request.ts_micros = ts_micros;
  // Realistic browser request: every transaction carries a full header
  // block, as the fold inputs are derived from it.
  txn.request.headers.add("User-Agent", "Mozilla/5.0 (Windows NT 10.0)");
  txn.request.headers.add("Accept", "text/html,application/xhtml+xml");
  txn.request.headers.add("Accept-Language", "en-US,en;q=0.9");
  txn.request.headers.add("Accept-Encoding", "gzip, deflate");
  txn.request.headers.add("Connection", "keep-alive");
  txn.request.headers.add("Cookie", "PHPSESSID=" + cookie);
  if (!referrer.empty()) {
    txn.request.headers.add("Referer", referrer);
  }
  dm::http::HttpResponse res;
  res.status_code = 200;
  res.ts_micros = ts_micros + 15'000;
  res.headers.add("Content-Type", "text/html");
  res.body.assign(96, 'x');
  txn.response = res;
  return txn;
}

HttpTransaction make_redirect(const std::string& client,
                              const std::string& cookie,
                              const std::string& from, const std::string& to,
                              std::uint64_t ts_micros) {
  auto txn = make_txn(client, cookie, from, "/r", ts_micros);
  txn.response->status_code = 302;
  txn.response->headers = {};
  txn.response->headers.add("Location", "http://" + to + "/r");
  txn.response->body.clear();
  return txn;
}

/// One crafted long session: `pre_clue` benign requests, a 2-hop redirect
/// chain into a risky download (fires the clue under threshold 2), then
/// `post_clue` transactions — unrelated noise punctuated every 64 steps by
/// a callback POST to a never-seen host (retroactive implication: forces a
/// scope rescan) and a request referred from the drop host (scoped-WCG
/// growth, so not every post-clue query can be skipped).
void append_client_session(std::vector<HttpTransaction>& stream,
                           const TraceShape& shape, std::size_t c,
                           std::uint64_t start_micros) {
  const std::string client = "10.9." + std::to_string(c % 250) + ".7";
  const std::string cookie = "hot" + std::to_string(c);
  const std::string tag = std::to_string(c);
  constexpr std::uint64_t kStepMicros = 200'000;  // 5 txn/s per session
  std::uint64_t ts = start_micros;
  auto step = [&ts]() {
    const std::uint64_t now = ts;
    ts += kStepMicros;
    return now;
  };

  const std::string portal = "portal-" + tag + ".example";
  for (std::size_t i = 0; i < shape.pre_clue; ++i) {
    stream.push_back(make_txn(client, cookie,
                              "cdn" + std::to_string(i % 7) + "-site" + tag +
                                  ".example",
                              "/page/" + std::to_string(i), step(),
                              "http://" + portal + "/"));
  }

  const std::string landing = "landing-" + tag + ".example";
  const std::string hop = "hop-" + tag + ".example";
  const std::string drop = "drop-" + tag + ".example";
  stream.push_back(make_redirect(client, cookie, landing, hop, step()));
  stream.push_back(make_redirect(client, cookie, hop, drop, step()));
  auto payload = make_txn(client, cookie, drop, "/update.exe", step());
  payload.response->headers = {};
  payload.response->headers.add("Content-Type", "application/octet-stream");
  stream.push_back(payload);

  for (std::size_t i = 0; i < shape.post_clue; ++i) {
    if (i % 96 == 95) {
      auto callback = make_txn(client, cookie,
                               "c2-" + tag + "-" + std::to_string(i / 96) +
                                   ".example",
                               "/report", step());
      callback.request.method = "POST";
      stream.push_back(callback);
      stream.push_back(make_txn(client, cookie, drop,
                                "/module/" + std::to_string(i / 96), step(),
                                "http://" + drop + "/update.exe"));
    } else {
      stream.push_back(make_txn(client, cookie,
                                "news" + std::to_string(i % 9) + ".example",
                                "/a/" + std::to_string(i), step(),
                                "http://" + portal + "/"));
    }
  }
}

/// Full benchmark trace: the crafted long sessions interleaved with synth
/// benign browsing.  The verdicts the fence compares come from the crafted
/// sessions themselves (their post-clue call-back growth keeps re-querying
/// the classifier); synth infection episodes are deliberately absent —
/// their sessions are short and would not exercise the long-session regime
/// this bench times.
std::vector<HttpTransaction> build_trace(const TraceShape& shape,
                                         std::uint64_t seed) {
  std::vector<HttpTransaction> stream;
  std::uint64_t start = 1'700'000'000ULL * 1'000'000;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    append_client_session(stream, shape, c, start);
    start += 50'000;  // stagger session starts
  }

  dm::synth::TraceGenerator gen(seed);
  std::vector<dm::synth::Episode> episodes;
  for (int i = 0; i < 32; ++i) episodes.push_back(gen.benign());
  std::uint64_t episode_start = 1'700'000'000ULL * 1'000'000 + 10'000'000;
  for (auto& episode : episodes) {
    if (episode.transactions.empty()) continue;
    const std::uint64_t base = episode.transactions.front().request.ts_micros;
    for (auto& txn : episode.transactions) {
      txn.request.ts_micros = txn.request.ts_micros - base + episode_start;
      if (txn.response) {
        txn.response->ts_micros =
            txn.response->ts_micros - base + episode_start;
      }
      stream.push_back(std::move(txn));
    }
    episode_start += 2'000'000;
  }

  std::stable_sort(stream.begin(), stream.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

/// Production options; `scores` (when set) becomes the verdict tap.
OnlineOptions online_options(dm::obs::MetricsRegistry* metrics,
                             ScoreStream* scores = nullptr) {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  options.metrics = metrics;
  if (scores != nullptr) options.verdict_tap = scores->tap();
  return options;
}

/// One production pass with causal tracing at `sample_period`
/// (0 = sink disabled).  A private sink and an in-memory flight recorder
/// keep the arm self-contained.  Returns txn/s.
double traced_pass(const std::vector<HttpTransaction>& trace,
                   std::uint64_t sample_period) {
  dm::obs::TraceSink sink([&] {
    dm::obs::TraceOptions options;
    options.ring_capacity = 1 << 14;
    options.sample_period = sample_period;
    return options;
  }());
  sink.set_enabled(sample_period != 0);
  dm::obs::FlightRecorder flight{[] {
    dm::obs::FlightRecorderOptions options;  // no dir: in-memory dumps only
    return options;
  }()};
  dm::obs::MetricsRegistry metrics;
  auto options = online_options(&metrics);
  options.trace = &sink;
  options.flight = &flight;
  dm::core::OnlineDetector detector(trained_detector(), options);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& txn : trace) detector.observe(txn);
  const auto t1 = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(trace.size()) / s;
}

/// Best-of-`reps` throughput for the off / default-sampled / always-on
/// tracing arms, interleaved round-robin so scheduler and thermal drift on
/// small containers hits every arm alike (a sequential A-then-B layout
/// routinely shows ±20% phantom deltas on one core).
struct TraceOverheadRow {
  double off = 0;
  double sampled = 0;
  double always = 0;
};

TraceOverheadRow trace_overhead(const std::vector<HttpTransaction>& trace,
                                int reps) {
  TraceOverheadRow row;
  for (int rep = 0; rep < reps; ++rep) {
    row.off = std::max(row.off, traced_pass(trace, 0));
    row.sampled = std::max(row.sampled, traced_pass(trace, 16));
    row.always = std::max(row.always, traced_pass(trace, 1));
  }
  return row;
}

struct PassResult {
  std::string name;
  double elapsed_ms = 0;
  double txn_per_s = 0;
  double c2v_p50_ns = 0;
  double c2v_p95_ns = 0;
  std::uint64_t c2v_count = 0;
  dm::core::OnlineStats stats;
  std::vector<Alert> alerts;
  std::vector<ScoreKey> scores;  // tap order
};

/// One sequential pass; `reference` scores through the ReferenceScorer.
PassResult run_sequential(const std::vector<HttpTransaction>& trace,
                          const std::string& name, bool reference) {
  // Private registry per run, so no pass mixes clue-to-verdict samples
  // into another's histogram.
  dm::obs::MetricsRegistry metrics;
  ScoreStream scores;
  auto options = online_options(&metrics, &scores);
  if (reference) {
    options.scorer =
        std::make_shared<dm::core::ReferenceScorer>(trained_detector());
  }
  dm::core::OnlineDetector detector(trained_detector(), options);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& txn : trace) detector.observe(txn);
  const auto t1 = std::chrono::steady_clock::now();

  PassResult result;
  result.name = name;
  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.txn_per_s =
      static_cast<double>(trace.size()) / (result.elapsed_ms / 1e3);
  result.stats = detector.stats();
  result.alerts = detector.alerts();
  result.scores = scores.keys();
  const auto snap = metrics.snapshot();
  if (const auto* h = snap.histogram("dm.detect.clue_to_verdict_ns")) {
    result.c2v_p50_ns = h->p50();
    result.c2v_p95_ns = h->p95();
    result.c2v_count = h->count;
  }
  return result;
}

/// The sorted score stream of a run over `shards` shards.
std::vector<ScoreKey> run_sharded(std::size_t shards,
                                  const std::vector<HttpTransaction>& trace) {
  ScoreStream scores;
  dm::runtime::ShardedOptions options;
  options.num_shards = shards;
  options.batch_size = 64;
  options.queue_capacity = 128;
  options.online = online_options(nullptr, &scores);
  dm::runtime::ShardedOnlineEngine engine(trained_detector(), options);
  for (const auto& txn : trace) engine.observe(txn);
  engine.finish();
  return scores.sorted();
}

void print_pass(const PassResult& r) {
  std::printf("%-13s %9.1f ms  %9.0f txn/s  queries=%-6zu skipped=%-6zu "
              "rescans=%-4zu alerts=%zu\n",
              r.name.c_str(), r.elapsed_ms, r.txn_per_s,
              r.stats.classifier_queries, r.stats.queries_skipped_unchanged,
              r.stats.scope_rescans, r.stats.alerts);
  std::printf("%-13s clue-to-verdict: n=%llu p50=%.1f us p95=%.1f us\n",
              "", static_cast<unsigned long long>(r.c2v_count),
              r.c2v_p50_ns / 1e3, r.c2v_p95_ns / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = dm::bench::extract_json_path(argc, argv);
  const double scale = dm::bench::scale_from_env(1.0);
  const std::uint64_t seed = dm::bench::seed_from_env();
  dm::bench::print_header(
      "bench_online_hotpath: production scoring, fenced against the reference",
      scale, seed);

  const auto shape = trace_shape(scale);
  const auto trace = build_trace(shape, seed);
  std::printf("trace: %zu transactions (%zu long sessions: %zu pre-clue + "
              "%zu post-clue each)\n\n",
              trace.size(), shape.clients, shape.pre_clue, shape.post_clue);

  dm::obs::set_enabled(true);

  // Warm-up untimed pass (page in the trace, the model, the allocator).
  run_sequential(trace, "warmup", false);

  const auto reference = run_sequential(trace, "reference", true);
  const auto production = run_sequential(trace, "production", false);
  print_pass(production);

  // --- correctness fence: score streams, bit for bit ----------------------
  if (production.scores.empty()) {
    std::fprintf(stderr, "FATAL: no verdicts; the score-stream fence would "
                         "compare empty streams\n");
    return 1;
  }
  if (production.scores != reference.scores) {
    std::fprintf(stderr, "FATAL: production score stream diverged from the "
                         "reference scorer's (%zu vs %zu verdicts)\n",
                 production.scores.size(), reference.scores.size());
    return 1;
  }
  auto sorted_scores = production.scores;
  std::sort(sorted_scores.begin(), sorted_scores.end());
  for (const std::size_t shards : {1, 2, 8}) {
    if (run_sharded(shards, trace) != sorted_scores) {
      std::fprintf(stderr,
                   "FATAL: %zu-shard score stream diverged from the "
                   "sequential one\n",
                   shards);
      return 1;
    }
  }
  std::printf("\nscore streams identical: reference scorer, sequential, "
              "1/2/8 shards (%zu verdicts, %zu alerts)\n",
              production.scores.size(), production.alerts.size());

  // --- tracing overhead arms: off vs default sampling vs always-on.
  constexpr int kTraceReps = 7;
  const auto overhead = trace_overhead(trace, kTraceReps);
  const double trace_off = overhead.off;
  const double trace_sampled = overhead.sampled;
  const double trace_always = overhead.always;
  const double sampled_overhead_pct = (1.0 - trace_sampled / trace_off) * 100.0;
  const double always_overhead_pct = (1.0 - trace_always / trace_off) * 100.0;
  std::printf("\ntracing overhead (best of %d):\n", kTraceReps);
  std::printf("  off        %9.0f txn/s\n", trace_off);
  std::printf("  sampled/16 %9.0f txn/s  (%+.2f%%, target <= 3%%)\n",
              trace_sampled, sampled_overhead_pct);
  std::printf("  always-on  %9.0f txn/s  (%+.2f%%)\n", trace_always,
              always_overhead_pct);

  if (json_path) {
    dm::bench::JsonRecord record;
    record.set("bench", "bench_online_hotpath");
    record.set("transactions", static_cast<std::uint64_t>(trace.size()));
    record.set("long_sessions", static_cast<std::uint64_t>(shape.clients));
    record.set("alerts", static_cast<std::uint64_t>(production.alerts.size()));
    record.set("verdicts", static_cast<std::uint64_t>(production.scores.size()));
    record.set("incremental_ms", production.elapsed_ms);
    record.set("incremental_txn_per_s", production.txn_per_s);
    record.set("incremental_queries",
               static_cast<std::uint64_t>(production.stats.classifier_queries));
    record.set("incremental_skipped",
               static_cast<std::uint64_t>(
                   production.stats.queries_skipped_unchanged));
    record.set("incremental_rescans",
               static_cast<std::uint64_t>(production.stats.scope_rescans));
    record.set("incremental_c2v_p50_ns", production.c2v_p50_ns);
    record.set("incremental_c2v_p95_ns", production.c2v_p95_ns);
    record.set("trace_off_txn_per_s", trace_off);
    record.set("trace_sampled_txn_per_s", trace_sampled);
    record.set("trace_alwayson_txn_per_s", trace_always);
    record.set("trace_sampled_overhead_pct", sampled_overhead_pct);
    record.set("trace_alwayson_overhead_pct", always_overhead_pct);
    if (record.append_to(*json_path)) {
      std::printf("result record appended to %s\n", json_path->c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write %s\n", json_path->c_str());
    }
  }
  return 0;
}
