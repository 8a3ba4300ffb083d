// Determinism fences around the incremental scoring hot path:
//   * WcgBuilder::current() must equal WcgBuilder::build() bitwise after
//     every single append — including the retroactive events (new exploit
//     download, origin invalidation) that force a transparent re-fold;
//   * OnlineDetector's verdict-tap score stream must equal, bit for bit,
//     that of an engine scoring through the test-support ReferenceScorer
//     (uncached extraction, pointer forest), including when a host is
//     implicated retroactively (scope rescan), and its scoped builders must
//     pass OnlineDetectorPeer's scope check at every verdict and after
//     every observe();
//   * the sharded engine must match the sequential reference at 1/2/8
//     shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>

#include "core/online.h"
#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "runtime/sharded_online.h"
#include "support/graph_lookup.h"
#include "support/online_reference.h"
#include "support/wcg_fold_oracle.h"
#include "synth/dataset.h"

namespace dm::core {
namespace {

using dm::http::HttpTransaction;

/// Asserts two feature vectors agree to the last bit, reporting the first
/// differing feature by name.
void expect_features_identical(const std::vector<double>& a,
                               const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "feature " << i << " (" << feature_names()[i] << "): " << a[i]
        << " vs " << b[i];
  }
}

/// Replays an episode through one builder, checking current() == build()
/// after every append.  Returns the number of full re-folds current() used.
std::uint64_t check_episode(const std::vector<HttpTransaction>& txns) {
  WcgBuilder builder;
  const FeatureExtractorOptions features;
  for (const auto& txn : txns) {
    builder.add(txn);
    const Wcg& incremental = builder.current();
    const Wcg rebuilt = builder.build();
    expect_wcgs_identical(incremental, rebuilt);
    expect_features_identical(extract_features(incremental, features),
                              extract_features(rebuilt, features));
  }
  return builder.full_refolds();
}

TEST(HotpathBuilderTest, IncrementalMatchesRebuildOnInfectionEpisodes) {
  dm::synth::TraceGenerator gen(7001);
  for (const char* family : {"Angler", "Nuclear"}) {
    const auto episode = gen.infection(dm::synth::family_by_name(family));
    check_episode(episode.transactions);
  }
}

TEST(HotpathBuilderTest, IncrementalMatchesRebuildOnBenignEpisodes) {
  dm::synth::TraceGenerator gen(7002);
  for (int i = 0; i < 3; ++i) {
    const auto episode = gen.benign();
    // Benign browsing has no exploit downloads; incremental folding should
    // rarely if ever fall back (origin invalidation remains possible).
    const auto refolds = check_episode(episode.transactions);
    EXPECT_LE(refolds, episode.transactions.size() / 2);
  }
}

/// Entries shared from another builder (as the online detector's scoped
/// builder shares the session builder's) must fold exactly like
/// transactions whose inputs the builder derives itself — through scope
/// rescans, which restart the receiving builder, and through the full
/// re-folds a new exploit download forces.
TEST(HotpathBuilderTest, CarriedFoldInputsMatchDerivedAcrossRescansAndRefolds) {
  dm::synth::TraceGenerator gen(7003);
  std::uint64_t refolds = 0;
  std::uint64_t rescans = 0;
  for (const char* family : {"Angler", "Nuclear", "Magnitude", "Fiesta"}) {
    const auto txns = gen.infection(dm::synth::family_by_name(family)).transactions;
    WcgBuilder session;  // derives every transaction's inputs once
    WcgBuilder derived;  // scope copy through add(txn)
    WcgBuilder carried;  // scope sharing the session's entries
    std::size_t consumed = 0;
    const FeatureExtractorOptions features;
    for (std::size_t i = 0; i < txns.size(); ++i) {
      ASSERT_TRUE(session.add(txns[i]));
      const FoldInputs& stored = session.entries().back()->inputs;
      const FoldInputs fresh = derive_fold_inputs(txns[i], BuilderOptions{}.miner);
      ASSERT_EQ(stored.payload, fresh.payload);
      ASSERT_EQ(stored.redirect_hosts, fresh.redirect_hosts);
      ASSERT_EQ(stored.referrer_host, fresh.referrer_host);
      if (i == txns.size() / 3 || i == 2 * txns.size() / 3) {
        // Rescan: the scope restarts from the first transaction.
        refolds += carried.full_refolds();
        derived = WcgBuilder();
        carried = WcgBuilder();
        consumed = 0;
        ++rescans;
      }
      for (; consumed < session.transaction_count(); ++consumed) {
        const auto& entry = session.entries()[consumed];
        derived.add(entry->txn);
        ASSERT_TRUE(carried.add(entry));
        ASSERT_EQ(carried.entries().back(), entry);  // shared, not copied
      }
      const Wcg& a = derived.current();
      const Wcg& b = carried.current();
      expect_wcgs_identical(a, b);
      expect_features_identical(extract_features(a, features),
                                extract_features(b, features));
      expect_wcgs_identical(derived.build(), carried.build());
      ASSERT_EQ(derived.full_refolds(), carried.full_refolds());
    }
    refolds += carried.full_refolds();
  }
  EXPECT_EQ(rescans, 8u);
  EXPECT_GT(refolds, 0u);  // the exploit-triggered re-fold path ran
}

HttpTransaction make_txn(const std::string& server, const std::string& uri,
                         std::uint64_t ts_micros) {
  HttpTransaction txn;
  txn.client_host = "10.0.5.77";
  txn.server_host = server;
  txn.server_ip = "93.184.216.34";
  txn.request.method = "GET";
  txn.request.uri = uri;
  txn.request.ts_micros = ts_micros;
  // Shared cookie: the online tests below need every hand-crafted
  // transaction to land in one session.
  txn.request.headers.add("Cookie", "PHPSESSID=hotpath");
  dm::http::HttpResponse res;
  res.status_code = 200;
  res.ts_micros = ts_micros + 20'000;
  res.headers.add("Content-Type", "text/html");
  res.body.assign(64, 'x');
  txn.response = res;
  return txn;
}

TEST(HotpathBuilderTest, OriginInvalidationForcesRefoldAndStaysIdentical) {
  WcgBuilder builder;
  builder.add(make_txn("a.example", "/", 1'000'000));
  auto with_ref = make_txn("b.example", "/page", 2'000'000);
  with_ref.request.headers.add("Referer", "http://portal.example/");
  builder.add(with_ref);
  builder.current();
  EXPECT_TRUE(builder.current().annotations().origin_known);

  // portal.example now joins the conversation as a server: the origin scan
  // must stop treating it as the enticement source.
  builder.add(make_txn("portal.example", "/self", 3'000'000));
  const Wcg& incremental = builder.current();
  EXPECT_GE(builder.full_refolds(), 1u);
  EXPECT_FALSE(incremental.annotations().origin_known);
  expect_wcgs_identical(incremental, builder.build());
}

TEST(HotpathBuilderTest, LateExploitDownloadForcesRefoldAndStaysIdentical) {
  WcgBuilder builder;
  for (int i = 0; i < 6; ++i) {
    builder.add(make_txn("site" + std::to_string(i) + ".example", "/p",
                         1'000'000 * (static_cast<std::uint64_t>(i) + 1)));
    builder.current();
  }
  EXPECT_EQ(builder.full_refolds(), 0u);

  // A late exploit download restages everything before it.
  auto exploit = make_txn("evil.example", "/payload.exe", 10'000'000);
  exploit.response->headers = {};
  exploit.response->headers.add("Content-Type", "application/octet-stream");
  builder.add(exploit);
  const Wcg& incremental = builder.current();
  EXPECT_GE(builder.full_refolds(), 1u);
  EXPECT_TRUE(incremental.annotations().has_download_stage);
  expect_wcgs_identical(incremental, builder.build());
}

TEST(HotpathBuilderTest, OutOfOrderTimestampsResortExactly) {
  // Timestamp regressions flip the dirty flag; the re-sorted averages must
  // still match the from-scratch sort bit for bit.
  WcgBuilder builder;
  builder.add(make_txn("a.example", "/1", 5'000'000));
  builder.current();
  builder.add(make_txn("b.example", "/2", 3'000'000));  // regressed clock
  builder.current();
  builder.add(make_txn("c.example", "/3", 4'000'000));
  const Wcg& incremental = builder.current();
  expect_wcgs_identical(incremental, builder.build());
  expect_features_identical(extract_features(incremental, {}),
                            extract_features(builder.build(), {}));
}

// ---------------------------------------------------------------------------
// Online-engine equivalence: production vs reference scoring.
// ---------------------------------------------------------------------------

const Detector& shared_detector() {
  static const Detector detector = [] {
    const auto gt = dm::synth::generate_ground_truth(100, 0.06);
    std::vector<Wcg> infections;
    std::vector<Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) benign.push_back(build_wcg(e.transactions));
    return Detector(train_dynaminer(dataset_from_wcgs(infections, benign), 5));
  }();
  return detector;
}

std::shared_ptr<const Detector> shared_detector_ptr() {
  static const auto ptr =
      std::shared_ptr<const Detector>(&shared_detector(), [](const Detector*) {});
  return ptr;
}

/// Production options with `scores` as the verdict tap.
OnlineOptions online_options(ScoreStream& scores) {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  options.verdict_tap = scores.tap();
  return options;
}

/// The same, scoring through the ReferenceScorer.
OnlineOptions reference_options(ScoreStream& scores) {
  OnlineOptions options = online_options(scores);
  options.scorer = std::make_shared<ReferenceScorer>(shared_detector_ptr());
  return options;
}

/// Runs OnlineDetectorPeer's scope check from a verdict tap, i.e. at every
/// completed query while the scored session is still resident: an alerting
/// session is erased before its observe() returns, so a check made after
/// observe() never sees the scope that was scored.
struct VerdictScopeCheck {
  const OnlineDetector* engine = nullptr;  // set once the engine is built
  std::size_t checked = 0;  // non-empty scopes compared from the tap

  /// Wraps `options`' verdict tap; `this` must outlive the engine.
  void install(OnlineOptions& options) {
    options.verdict_tap = [this, tap = std::move(options.verdict_tap)](
                              const Wcg& wcg, double score, bool alert,
                              std::uint64_t ts) {
      checked += OnlineDetectorPeer::check_scopes(*engine);
      tap(wcg, score, alert, ts);
    };
  }
};

/// Mixed multi-family trace, episodes staggered onto one clock.
std::vector<HttpTransaction> mixed_trace(std::uint64_t seed) {
  dm::synth::TraceGenerator gen(seed);
  std::vector<dm::synth::Episode> episodes;
  for (int i = 0; i < 10; ++i) episodes.push_back(gen.benign());
  const auto& families = dm::synth::exploit_kit_families();
  for (int i = 0; i < 8; ++i) {
    episodes.push_back(
        gen.infection(families[static_cast<std::size_t>(i) % families.size()]));
  }
  // Each victim first opens an unrelated result from the page that referred
  // the infection, so clue-bearing sessions carry a transaction their scope
  // must reject: neither that host nor its referrer is ever implicated.
  for (std::size_t i = 10; i < episodes.size(); ++i) {
    auto& txns = episodes[i].transactions;
    if (txns.empty()) continue;
    const auto referer = txns.front().request.headers.get("Referer");
    if (!referer) continue;
    auto visit = make_txn("news.example", "/story",
                          txns.front().request.ts_micros - 500'000);
    visit.client_host = txns.front().client_host;
    visit.request.headers = {};  // no session cookie: joins by host link
    visit.request.headers.add("Referer", std::string(*referer));
    txns.insert(txns.begin(), std::move(visit));
  }
  std::vector<HttpTransaction> stream;
  std::uint64_t start = 1'600'000'000ULL * 1'000'000;
  for (auto& episode : episodes) {
    if (episode.transactions.empty()) continue;
    const std::uint64_t base = episode.transactions.front().request.ts_micros;
    for (auto& txn : episode.transactions) {
      txn.request.ts_micros = txn.request.ts_micros - base + start;
      if (txn.response) {
        txn.response->ts_micros = txn.response->ts_micros - base + start;
      }
      stream.push_back(std::move(txn));
    }
    start += 400'000;
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

using AlertKey = std::tuple<std::uint64_t, std::string, std::string,
                            std::uint64_t, std::string, std::size_t, std::size_t>;

AlertKey key_of(const Alert& alert) {
  // Scores compared through their bit patterns: the two modes must agree
  // exactly, not approximately.
  return {alert.ts_micros,    alert.session_key,
          alert.client,       std::bit_cast<std::uint64_t>(alert.score),
          alert.trigger_host, alert.wcg_order,
          alert.wcg_size};
}

std::vector<AlertKey> sorted_keys(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& alert : alerts) keys.push_back(key_of(alert));
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(HotpathOnlineTest, ScoreStreamMatchesReferenceOnMixedTrace) {
  const auto stream = mixed_trace(7100);

  ScoreStream production_scores;
  ScoreStream reference_scores;
  VerdictScopeCheck scope_check;
  auto options = online_options(production_scores);
  scope_check.install(options);
  OnlineDetector production(shared_detector(), options);
  scope_check.engine = &production;
  OnlineDetector reference(shared_detector(),
                           reference_options(reference_scores));
  for (const auto& txn : stream) {
    production.observe(txn);
    reference.observe(txn);
    OnlineDetectorPeer::check_scopes(production);
  }

  EXPECT_FALSE(production_scores.keys().empty());
  EXPECT_EQ(production_scores.keys(), reference_scores.keys());
  EXPECT_GT(production.alerts().size(), 0u);  // the corpus must alert
  EXPECT_EQ(sorted_keys(production.alerts()), sorted_keys(reference.alerts()));
  EXPECT_EQ(production.stats().clues_fired, reference.stats().clues_fired);
  // Post-clue scope expansion implicates hosts in this corpus, so scopes
  // are rescanned; the peer check at every verdict fences what was scored.
  EXPECT_GE(production.stats().scope_rescans, 1u);
  // Every scored scope was checked (a scored WCG has at least two nodes).
  EXPECT_GE(scope_check.checked, production_scores.keys().size());
}

TEST(HotpathOnlineTest, RetroactiveSuspiciousHostRescansAndStaysIdentical) {
  // cnc.example is contacted *before* the clue; only a post-clue request
  // referred from the clue host implicates it, forcing the scoped builder
  // to rescan history and re-admit the earlier transaction.
  std::vector<HttpTransaction> stream;
  auto at = [](std::uint64_t s) { return s * 1'000'000; };

  stream.push_back(make_txn("cnc.example", "/beacon", at(1)));

  auto chain = [&](const std::string& from, const std::string& to,
                   std::uint64_t ts) {
    auto txn = make_txn(from, "/r", ts);
    txn.response->status_code = 302;
    txn.response->headers = {};
    txn.response->headers.add("Location", "http://" + to + "/r");
    txn.response->body.clear();
    return txn;
  };
  stream.push_back(chain("landing.example", "hop1.example", at(2)));
  stream.push_back(chain("hop1.example", "hop2.example", at(3)));
  stream.push_back(chain("hop2.example", "drop.example", at(4)));

  auto payload = make_txn("drop.example", "/update.exe", at(5));
  payload.response->headers = {};
  payload.response->headers.add("Content-Type", "application/octet-stream");
  stream.push_back(payload);

  auto callback = make_txn("cnc.example", "/report", at(6));
  callback.request.headers.add("Referer", "http://drop.example/update.exe");
  stream.push_back(callback);

  // Unrelated noise afterwards: scope unchanged -> queries skipped.
  for (int i = 0; i < 5; ++i) {
    stream.push_back(make_txn("news.example", "/a" + std::to_string(i),
                              at(7 + static_cast<std::uint64_t>(i))));
  }

  // Keep the session alive past the clue (an alert would terminate it
  // before the retroactive implication happens) so the rescan and the
  // unchanged-scope skip are both reached deterministically.  The verdict
  // tap still sees every completed query, alert or not.
  ScoreStream production_scores;
  ScoreStream reference_scores;
  auto options = online_options(production_scores);
  options.decision_threshold = 2.0;
  Wcg last_scored;
  const auto tap = options.verdict_tap;
  options.verdict_tap = [&](const Wcg& wcg, double score, bool alert,
                            std::uint64_t ts) {
    last_scored = wcg;
    tap(wcg, score, alert, ts);
  };
  VerdictScopeCheck scope_check;
  scope_check.install(options);
  auto ref_options = reference_options(reference_scores);
  ref_options.decision_threshold = 2.0;

  OnlineDetector production(shared_detector(), options);
  scope_check.engine = &production;
  OnlineDetector reference(shared_detector(), ref_options);
  for (const auto& txn : stream) {
    production.observe(txn);
    reference.observe(txn);
    OnlineDetectorPeer::check_scopes(production);
  }

  EXPECT_GE(production.stats().scope_rescans, 1u);
  EXPECT_GE(production.stats().queries_skipped_unchanged, 1u);
  EXPECT_EQ(production.stats().clues_fired, 1u);
  EXPECT_EQ(reference.stats().clues_fired, 1u);
  EXPECT_FALSE(production_scores.keys().empty());
  EXPECT_GE(scope_check.checked, production_scores.keys().size());
  EXPECT_EQ(production_scores.keys(), reference_scores.keys());
  // The rescan re-admitted the pre-clue beacon into the scored WCG.
  const auto cnc = find_host(last_scored, "cnc.example");
  ASSERT_NE(cnc, dm::graph::kInvalidNode);
  EXPECT_EQ(last_scored.node(cnc).uris.count("/beacon"), 1u);
}

TEST(HotpathOnlineTest, ShardedMatchesSequentialReferenceAt1_2_8Shards) {
  const auto stream = mixed_trace(7200);

  ScoreStream reference_scores;
  OnlineDetector reference(shared_detector(),
                           reference_options(reference_scores));
  for (const auto& txn : stream) reference.observe(txn);
  const auto expected_alerts = sorted_keys(reference.alerts());
  const auto expected_scores = reference_scores.sorted();
  EXPECT_GT(expected_alerts.size(), 0u);
  EXPECT_GT(expected_scores.size(), 0u);

  for (const std::size_t shards : {1u, 2u, 8u}) {
    ScoreStream scores;
    dm::runtime::ShardedOptions options;
    options.num_shards = shards;
    options.online = online_options(scores);
    dm::runtime::ShardedOnlineEngine engine(shared_detector_ptr(), options);
    for (const auto& txn : stream) engine.observe(txn);
    engine.finish();
    EXPECT_EQ(sorted_keys(engine.merged_alerts()), expected_alerts)
        << shards << " shards";
    EXPECT_EQ(scores.sorted(), expected_scores) << shards << " shards";
  }
}

}  // namespace
}  // namespace dm::core
