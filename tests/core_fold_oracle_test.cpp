// Differential fence for the WCG fold: WcgBuilder::build() and current()
// (after every append) must equal the reference fold in
// tests/support/wcg_fold_oracle — same nodes and edges in the same order,
// every attribute and annotation, and the same 37 features bit for bit —
// on the golden corpus and on randomized session shapes built to hit the
// fold's retroactive paths: late exploit downloads that re-stage earlier
// edges, origin invalidation, out-of-order timestamps, trusted redirect
// targets, the referrer-timing rule, builders restarted with clear(), and
// a 1,000-host fan-out.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "core/features.h"
#include "core/wcg_builder.h"
#include "support/wcg_fold_oracle.h"
#include "synth/dataset.h"
#include "synth/families.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace dm::core {
namespace {

using dm::http::HttpTransaction;

void expect_features_identical(const Wcg& a, const Wcg& b) {
  const auto fa = extract_features(a);
  const auto fb = extract_features(b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fa[i]),
              std::bit_cast<std::uint64_t>(fb[i]))
        << "feature " << feature_names()[i];
  }
}

void expect_matches_oracle(const Wcg& wcg,
                           const std::vector<HttpTransaction>& txns,
                           const BuilderOptions& options) {
  const Wcg reference = oracle::build_wcg(txns, options);
  expect_wcgs_identical(wcg, reference);
  if (wcg.node_count() > 0) expect_features_identical(wcg, reference);
}

/// Feeds `txns` one at a time, holding current() to the oracle on every
/// prefix (every `stride`-th one when the episode is long), and build() to
/// it at the end.
void check_against_oracle(const std::vector<HttpTransaction>& txns,
                          const BuilderOptions& options = {},
                          std::size_t stride = 1) {
  WcgBuilder builder(options);
  std::vector<HttpTransaction> prefix;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    builder.add(txns[i]);
    prefix.push_back(txns[i]);
    if (i % stride != 0 && i + 1 != txns.size()) continue;
    SCOPED_TRACE("prefix of " + std::to_string(prefix.size()));
    expect_matches_oracle(builder.current(), prefix, options);
    if (::testing::Test::HasFailure()) return;
  }
  expect_matches_oracle(builder.build(), txns, options);
}

TEST(FoldOracleTest, GoldenCorpusMatchesOracle) {
  const auto gt = dm::synth::generate_ground_truth(42, 0.05);
  std::size_t episodes = 0;
  for (const auto* set : {&gt.infections, &gt.benign}) {
    for (const auto& episode : *set) {
      check_against_oracle(episode.transactions);
      ++episodes;
      if (HasFailure()) return;
    }
  }
  for (const auto& family : dm::synth::trace_family_catalog()) {
    SCOPED_TRACE(family.name);
    check_against_oracle(dm::synth::episode_for_family(777, family).transactions);
    ++episodes;
    if (HasFailure()) return;
  }
  EXPECT_GT(episodes, 80u);
}

/// Random sessions over a small host pool, so hosts recur and referrers
/// point both inside and outside the conversation.
class SessionShapes {
 public:
  explicit SessionShapes(std::uint64_t seed) : rng_(seed) {}

  std::vector<HttpTransaction> session(std::size_t length) {
    std::vector<HttpTransaction> txns;
    std::uint64_t ts = 1'000'000;
    for (std::size_t i = 0; i < length; ++i) {
      // Mostly forward in time; sometimes a step back (out of order).
      if (rng_.chance(0.2)) {
        ts -= std::min<std::uint64_t>(ts - 1, rng_.uniform_int(1, 3'000'000));
      } else {
        ts += rng_.uniform_int(0, 4'000'000);
      }
      txns.push_back(transaction(ts));
    }
    return txns;
  }

 private:
  std::string pick(const std::vector<std::string>& pool) {
    return pool[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }

  HttpTransaction transaction(std::uint64_t ts) {
    static const std::vector<std::string> kHosts = {
        "a.example.com", "b.example.com", "cdn.example.net", "ek.evil.ru",
        "gate.bad.top",  "10.9.8.7",      "drop.evil.ru",    "empty",
        "search.portal.org"};
    static const std::vector<std::string> kOutside = {
        "search.portal.org", "news.site.io", "mail.host.co"};
    static const std::vector<std::string> kTrusted = {
        "update.microsoft.com", "swcdn.apple.com", "github.com"};

    HttpTransaction txn;
    txn.client_host = "10.0.0.2";
    txn.server_host = pick(kHosts);
    txn.server_ip = "1.2.3." + std::to_string(rng_.uniform_int(1, 4));
    txn.request.method = rng_.chance(0.2)   ? "POST"
                         : rng_.chance(0.1) ? "HEAD"
                                               : "GET";
    txn.request.uri = "/p" + std::to_string(rng_.uniform_int(0, 6)) +
                      (rng_.chance(0.3) ? "/landing/page.php?id=1234567"
                                           : "");
    txn.request.version = "HTTP/1.1";
    txn.request.ts_micros = ts;
    txn.request.headers.add("Host", txn.server_host);
    const double r = rng_.next_double();
    if (r < 0.3) {
      txn.request.headers.add("Referer", "http://" + pick(kHosts) + "/x");
    } else if (r < 0.45) {
      txn.request.headers.add("Referer", "https://" + pick(kOutside) + "/q");
    } else if (r < 0.5) {
      txn.request.headers.add("Referer", "  " + pick(kOutside) + " ");  // bare
    } else if (r < 0.55) {
      txn.request.headers.add("Referer", "/relative/only");
    }
    if (rng_.chance(0.1)) txn.request.headers.add("DNT", rng_.chance(0.5) ? "1" : "0");
    if (rng_.chance(0.1)) {
      txn.request.headers.add("X-Flash-Version",
                              "11," + std::to_string(rng_.uniform_int(0, 9)));
    }
    if (rng_.chance(0.1)) return txn;  // capture ended mid-transaction

    dm::http::HttpResponse res;
    res.ts_micros = rng_.chance(0.1) ? 0 : ts + rng_.uniform_int(0, 500'000);
    const double kind = rng_.next_double();
    if (kind < 0.25) {
      res.status_code = 302;
      const std::string target = rng_.chance(0.15) ? pick(kTrusted) : pick(kHosts);
      res.headers.add("Location", "http://" + target + "/next");
    } else if (kind < 0.35) {
      res.status_code = 200;
      res.headers.add("Content-Type", "text/html");
      res.body = "<html><iframe src=\"http://" + pick(kHosts) +
                 "/f\"></iframe></html>";
    } else if (kind < 0.5) {
      // Exploit payloads, anywhere in the session: a late one moves the
      // download timeline and re-stages earlier edges.
      res.status_code = 200;
      res.headers.add("Content-Type", rng_.chance(0.5)
                                          ? "application/x-shockwave-flash"
                                          : "application/octet-stream");
      txn.request.uri += rng_.chance(0.5) ? "/x.swf" : "/setup.exe";
      res.body = std::string(static_cast<std::size_t>(rng_.uniform_int(0, 64)), 'M');
    } else {
      res.status_code = static_cast<int>(rng_.uniform_int(1, 5) * 100 +
                                         rng_.uniform_int(0, 4));
      res.headers.add("Content-Type", rng_.chance(0.5) ? "text/html" : "image/png");
      res.body = rng_.chance(0.8) ? "<html>ok</html>" : "";
    }
    txn.response = std::move(res);
    return txn;
  }

  dm::util::Rng rng_;
};

TEST(FoldOracleTest, RandomizedSessionShapesMatchOracle) {
  SessionShapes shapes(20260);
  BuilderOptions timing;
  timing.referrer_timing_redirects = true;
  for (int round = 0; round < 120; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto txns = shapes.session(2 + static_cast<std::size_t>(round % 23));
    check_against_oracle(txns);
    check_against_oracle(txns, timing);
    if (HasFailure()) return;
  }
}

TEST(FoldOracleTest, SharedEntriesAndClearMatchOracle) {
  // The online detector's scoped builder: entries shared from a session
  // builder, restarted with clear() on a rescan, then refilled.
  SessionShapes shapes(424242);
  WcgBuilder scoped;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    WcgBuilder session;
    for (const auto& txn : shapes.session(12)) session.add(txn);
    scoped.clear();
    EXPECT_EQ(scoped.transaction_count(), 0u);
    EXPECT_EQ(scoped.current().node_count(), 0u);
    std::vector<HttpTransaction> prefix;
    for (const auto& entry : session.entries()) {
      scoped.add(entry);
      prefix.push_back(entry->txn);
      expect_matches_oracle(scoped.current(), prefix, {});
    }
    const WcgBuilder copy = scoped;  // copies share the stored entries
    expect_matches_oracle(copy.build(), prefix, {});
    if (HasFailure()) return;
  }
}

TEST(FoldOracleTest, ThousandHostFanOutMatchesOracle) {
  // One landing page redirecting to 1,000 distinct hosts, each then
  // fetched with the landing page as referrer, ending in a download.
  std::vector<HttpTransaction> txns;
  std::uint64_t ts = 5'000'000;
  for (int i = 0; i < 1000; ++i) {
    const std::string host = "h" + std::to_string(i) + ".fan" +
                             std::to_string(i % 7) + ".example";
    HttpTransaction hub;
    hub.client_host = "10.0.0.9";
    hub.server_host = "hub.example.com";
    hub.server_ip = "5.5.5.5";
    hub.request.method = "GET";
    hub.request.uri = "/r?" + std::to_string(i);
    hub.request.ts_micros = ts;
    hub.request.headers.add("Referer", "http://portal.example.org/");
    dm::http::HttpResponse res;
    res.status_code = 302;
    res.ts_micros = ts + 1000;
    res.headers.add("Location", "http://" + host + "/");
    hub.response = res;
    txns.push_back(hub);

    HttpTransaction leaf;
    leaf.client_host = "10.0.0.9";
    leaf.server_host = host;
    leaf.server_ip = "6.6.6." + std::to_string(i % 250);
    leaf.request.method = i % 10 == 0 ? "POST" : "GET";
    leaf.request.uri = "/";
    leaf.request.ts_micros = ts + 2000;
    leaf.request.headers.add("Referer", "http://hub.example.com/r");
    dm::http::HttpResponse page;
    page.status_code = 200;
    page.ts_micros = ts + 3000;
    page.headers.add("Content-Type", i == 999 ? "application/x-msdownload" : "text/html");
    page.body = "<html></html>";
    leaf.response = page;
    txns.push_back(leaf);
    ts += 10'000;
  }
  check_against_oracle(txns, {}, 250);
  const Wcg wcg = [&] {
    WcgBuilder builder;
    for (const auto& txn : txns) builder.add(txn);
    return builder.build();
  }();
  EXPECT_EQ(wcg.node_count(), 1003u);  // origin, victim, hub, 1,000 leaves
}

}  // namespace
}  // namespace dm::core
