// Determinism fences around the incremental scoring hot path:
//   * WcgBuilder::current() must equal WcgBuilder::build() bitwise after
//     every single append — including the retroactive events (new exploit
//     download, origin invalidation) that force a transparent re-fold;
//   * OnlineDetector in ScoringMode::kIncremental must produce the same
//     alert set, score-bit-for-score-bit, as ScoringMode::kFromScratch,
//     including when a host is implicated retroactively (scope rescan);
//   * the sharded engine (incremental shards) must match the sequential
//     from-scratch reference at 1/2/8 shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>

#include "core/online.h"
#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "runtime/sharded_online.h"
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
// Online-engine equivalence: incremental vs from-scratch scoring.
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

OnlineOptions mode_options(ScoringMode mode) {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  options.scoring = mode;
  return options;
}

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

TEST(HotpathOnlineTest, IncrementalAlertsMatchFromScratchOnMixedTrace) {
  const auto stream = mixed_trace(7100);

  OnlineDetector incremental(shared_detector(),
                             mode_options(ScoringMode::kIncremental));
  OnlineDetector reference(shared_detector(),
                           mode_options(ScoringMode::kFromScratch));
  for (const auto& txn : stream) {
    incremental.observe(txn);
    reference.observe(txn);
  }

  EXPECT_GT(reference.alerts().size(), 0u);  // the corpus must exercise alerts
  EXPECT_EQ(sorted_keys(incremental.alerts()), sorted_keys(reference.alerts()));
  EXPECT_EQ(incremental.stats().clues_fired, reference.stats().clues_fired);
  // The hot path must actually be exercised: scoring work was skipped or
  // served from the delta, never silently routed to full rebuilds.
  EXPECT_LE(incremental.stats().classifier_queries,
            reference.stats().classifier_queries);
  // Post-clue scope expansion implicates hosts retroactively in this corpus,
  // so the score-bit equality above covers the rescan path too.
  EXPECT_GE(incremental.stats().scope_rescans, 1u);
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
  // unchanged-scope skip are both reached deterministically.
  auto inc_options = mode_options(ScoringMode::kIncremental);
  inc_options.decision_threshold = 2.0;
  auto ref_options = mode_options(ScoringMode::kFromScratch);
  ref_options.decision_threshold = 2.0;

  OnlineDetector incremental(shared_detector(), inc_options);
  OnlineDetector reference(shared_detector(), ref_options);
  for (const auto& txn : stream) {
    incremental.observe(txn);
    reference.observe(txn);
  }

  EXPECT_GE(incremental.stats().scope_rescans, 1u);
  EXPECT_GE(incremental.stats().queries_skipped_unchanged, 1u);
  EXPECT_EQ(incremental.stats().clues_fired, 1u);
  EXPECT_EQ(reference.stats().clues_fired, 1u);
  EXPECT_EQ(sorted_keys(incremental.alerts()), sorted_keys(reference.alerts()));
}

TEST(HotpathOnlineTest, ShardedIncrementalMatchesFromScratchAt1_2_8Shards) {
  const auto stream = mixed_trace(7200);

  OnlineDetector reference(shared_detector(),
                           mode_options(ScoringMode::kFromScratch));
  for (const auto& txn : stream) reference.observe(txn);
  const auto expected = sorted_keys(reference.alerts());
  EXPECT_GT(expected.size(), 0u);

  for (const std::size_t shards : {1u, 2u, 8u}) {
    dm::runtime::ShardedOptions options;
    options.num_shards = shards;
    options.online = mode_options(ScoringMode::kIncremental);
    dm::runtime::ShardedOnlineEngine engine(shared_detector_ptr(), options);
    for (const auto& txn : stream) engine.observe(txn);
    engine.finish();
    EXPECT_EQ(sorted_keys(engine.merged_alerts()), expected)
        << shards << " shards";
  }
}

}  // namespace
}  // namespace dm::core
