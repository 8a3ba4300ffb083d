// Session-index fences.
//
// OnlineDetector keeps each client's sessions in that client's own record
// and finds a transaction's candidates there, instead of a key-range scan of
// one engine-wide session map.  These cases pin down the exact session each
// transaction joins, so any change in candidate order or erasure shows as a
// different key:
//
//  * candidates are visited in ascending key order — with eleven or more
//    sessions "c#10" sorts before "c#2", and the first of two equally
//    recent candidates wins the referrer/timestamp join;
//  * clients whose names share a prefix ("10.9.0.1" / "10.9.0.10") never
//    see each other's sessions;
//  * a session-id match on a session that went idle opens a new session;
//  * idle expiry, alert termination and budget eviction take sessions out
//    of their client's record (AddressSanitizer checks the erase paths).
//
// Which session a transaction joined is read from the trace: every traced
// observe() is tagged with fnv1a(session key).
#include "core/online.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/dataset.h"
#include "util/hash.h"

namespace dm::core {
namespace {

using dm::http::HttpTransaction;

/// Trains a small detector once; shared by every test in this binary.
std::shared_ptr<const Detector> shared_detector() {
  static const auto detector = [] {
    const auto gt = dm::synth::generate_ground_truth(100, 0.06);
    std::vector<Wcg> infections;
    std::vector<Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) benign.push_back(build_wcg(e.transactions));
    return std::make_shared<const Detector>(
        Detector(train_dynaminer(dataset_from_wcgs(infections, benign), 5)));
  }();
  return detector;
}

constexpr std::uint64_t kEpoch = 1'700'000'000ULL * 1'000'000;
constexpr std::uint64_t kMs = 1'000;
constexpr std::uint64_t kSecond = 1'000'000;

/// GET to `server` at `ts`, with an optional session cookie and referrer;
/// a 200 text/html answer unless the caller replaces the response.
HttpTransaction txn(const std::string& client, const std::string& server,
                    std::uint64_t ts, const std::string& sid = "",
                    const std::string& referrer = "") {
  HttpTransaction t;
  t.client_host = client;
  t.server_host = server;
  t.server_ip = "198.51.100.7";
  t.request.method = "GET";
  t.request.uri = "/";
  t.request.ts_micros = ts;
  if (!sid.empty()) t.request.headers.add("Cookie", "PHPSESSID=" + sid);
  if (!referrer.empty()) t.request.headers.add("Referer", referrer);
  dm::http::HttpResponse res;
  res.status_code = 200;
  res.ts_micros = ts + 100;
  res.headers.add("Content-Type", "text/html");
  res.body = "<html></html>";
  t.response = std::move(res);
  return t;
}

/// One engine with a private, fully sampled trace sink.
class IndexRig {
 public:
  explicit IndexRig(OnlineOptions options = {}) {
    dm::obs::TraceOptions trace;
    trace.sample_period = 1;
    sink_.configure(trace);
    sink_.set_enabled(true);
    options.metrics = &registry_;
    options.trace = &sink_;
    online_ = std::make_unique<OnlineDetector>(shared_detector(),
                                               std::move(options));
  }

  /// Observes `t` and returns the key hash of the session it joined.
  std::uint64_t joined(HttpTransaction t) {
    sink_.clear();
    last_alert_ = online_->observe(std::move(t));
    for (const auto& event : sink_.snapshot()) {
      if (event.op == dm::obs::TraceOp::kObserve) return event.session;
    }
    ADD_FAILURE() << "observe() emitted no traced span";
    return 0;
  }

  const OnlineDetector& online() const { return *online_; }
  const std::optional<Alert>& last_alert() const { return last_alert_; }

 private:
  dm::obs::MetricsRegistry registry_;
  dm::obs::TraceSink sink_;
  std::unique_ptr<OnlineDetector> online_;
  std::optional<Alert> last_alert_;
};

std::uint64_t key(const std::string& k) { return dm::util::fnv1a(k); }

TEST(SessionIndexTest, CandidatesAreVisitedInKeyOrder) {
  IndexRig rig;
  const std::string c = "10.9.0.1";
  // Twelve sessions of one client: distinct hosts and session ids, so no
  // transaction links to an earlier session.
  for (int k = 0; k < 12; ++k) {
    const std::string host = "h" + std::to_string(k) + ".example";
    ASSERT_EQ(rig.joined(txn(c, host, kEpoch + k * kMs, "s" + std::to_string(k))),
              key(c + "#" + std::to_string(k)));
  }
  EXPECT_EQ(rig.online().stats().sessions_opened, 12u);

  // Sessions #2 and #10 both reach shared.example at the same instant.
  const std::uint64_t t1 = kEpoch + 100 * kMs;
  EXPECT_EQ(rig.joined(txn(c, "shared.example", t1, "s2")), key(c + "#2"));
  EXPECT_EQ(rig.joined(txn(c, "shared.example", t1, "s10")), key(c + "#10"));

  // A cookie-less request for shared.example links to both with equal
  // last activity: the first candidate in key order wins, and "c#10" sorts
  // before "c#2" (creation order would pick #2).
  EXPECT_EQ(rig.joined(txn(c, "shared.example", t1 + kMs)), key(c + "#10"));
  // Strictly more recent activity still decides: #2 moves ahead.
  EXPECT_EQ(rig.joined(txn(c, "shared.example", t1 + 2 * kMs, "s2")),
            key(c + "#2"));
  EXPECT_EQ(rig.joined(txn(c, "shared.example", t1 + 3 * kMs)), key(c + "#2"));
  // A referrer link counts like a server link.
  EXPECT_EQ(rig.joined(txn(c, "cdn.example", t1 + 4 * kMs, "",
                           "http://h7.example/page")),
            key(c + "#7"));
  EXPECT_EQ(rig.online().stats().sessions_opened, 12u);
  EXPECT_EQ(rig.online().active_sessions(), 12u);
}

TEST(SessionIndexTest, ClientsSharingANamePrefixStayApart) {
  IndexRig rig;
  EXPECT_EQ(rig.joined(txn("10.9.0.10", "shared.example", kEpoch, "s")),
            key("10.9.0.10#0"));
  // Same host, same session id, but another client: a new session.
  EXPECT_EQ(rig.joined(txn("10.9.0.1", "shared.example", kEpoch + kMs, "s")),
            key("10.9.0.1#0"));
  EXPECT_EQ(rig.joined(txn("10.9.0.10", "shared.example", kEpoch + 2 * kMs)),
            key("10.9.0.10#0"));
  EXPECT_EQ(rig.joined(txn("10.9.0.1", "shared.example", kEpoch + 3 * kMs)),
            key("10.9.0.1#0"));
  EXPECT_EQ(rig.online().stats().sessions_opened, 2u);
}

TEST(SessionIndexTest, IdleSessionIdMatchOpensANewSessionAndExpiryUnindexes) {
  IndexRig rig;  // idle timeout 120 s
  const std::string c = "10.9.0.3";
  EXPECT_EQ(rig.joined(txn(c, "i1.example", kEpoch, "x")), key(c + "#0"));
  EXPECT_EQ(rig.joined(txn(c, "i1.example", kEpoch + 10 * kSecond, "x")),
            key(c + "#0"));
  // 200 s later the id still matches #0, which is resident but idle past the
  // timeout: a new session opens, and the same observe() expires #0.
  const std::uint64_t late = kEpoch + 210 * kSecond;
  EXPECT_EQ(rig.joined(txn(c, "i1.example", late, "x")), key(c + "#1"));
  EXPECT_EQ(rig.online().stats().sessions_expired, 1u);
  EXPECT_EQ(rig.online().active_sessions(), 1u);
  // Only #1 is left to match, by id and by host.
  EXPECT_EQ(rig.joined(txn(c, "i1.example", late + kSecond, "x")),
            key(c + "#1"));
  EXPECT_EQ(rig.joined(txn(c, "i1.example", late + 2 * kSecond)),
            key(c + "#1"));
  EXPECT_EQ(rig.online().stats().sessions_opened, 2u);
}

TEST(SessionIndexTest, AlertedSessionLeavesTheIndex) {
  OnlineOptions options;
  options.redirect_chain_threshold = 1;
  options.decision_threshold = 0.0;  // every completed query alerts
  IndexRig rig(options);
  const std::string c = "10.9.0.2";

  auto hop = txn(c, "r1.example", kEpoch, "a");
  hop.response->status_code = 302;
  hop.response->headers.add("Location", "http://dl.example/p.exe");
  EXPECT_EQ(rig.joined(std::move(hop)), key(c + "#0"));

  auto download = txn(c, "dl.example", kEpoch + 200 * kMs, "a");
  download.request.uri = "/p.exe";
  download.response->headers = {};
  download.response->headers.add("Content-Type", "application/octet-stream");
  download.response->body = "MZ\x90";
  EXPECT_EQ(rig.joined(std::move(download)), key(c + "#0"));
  ASSERT_TRUE(rig.last_alert().has_value());
  EXPECT_EQ(rig.last_alert()->session_key, c + "#0");
  EXPECT_EQ(rig.online().active_sessions(), 0u);

  // The terminated session is gone: the same id and host open #1.
  EXPECT_EQ(rig.joined(txn(c, "r1.example", kEpoch + 400 * kMs, "a")),
            key(c + "#1"));
  EXPECT_EQ(rig.joined(txn(c, "r1.example", kEpoch + 500 * kMs)),
            key(c + "#1"));
  EXPECT_EQ(rig.online().stats().sessions_opened, 2u);
  EXPECT_EQ(rig.online().stats().sessions_expired, 1u);
}

TEST(SessionIndexTest, BudgetEvictionUnindexes) {
  OnlineOptions options;
  options.budget.max_sessions = 3;
  IndexRig rig(options);
  const std::string c = "10.9.0.4";
  const auto open = [&](int k, std::uint64_t ts) {
    return rig.joined(txn(c, "b" + std::to_string(k) + ".example", ts,
                          "s" + std::to_string(k)));
  };
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(open(k, kEpoch + k * kMs), key(c + "#" + std::to_string(k)));
  }
  // #0 was least recently active: evicted.  LRU is now #1, #2, #3.
  EXPECT_EQ(rig.online().stats().sessions_evicted, 1u);
  EXPECT_EQ(open(1, kEpoch + 10 * kMs), key(c + "#1"));  // LRU: #2 #3 #1
  EXPECT_EQ(open(0, kEpoch + 11 * kMs), key(c + "#4"));  // evicts #2
  EXPECT_EQ(open(2, kEpoch + 12 * kMs), key(c + "#5"));  // evicts #3
  EXPECT_EQ(open(1, kEpoch + 13 * kMs), key(c + "#1"));
  EXPECT_EQ(open(3, kEpoch + 14 * kMs), key(c + "#6"));  // evicts #4
  EXPECT_EQ(rig.online().stats().sessions_opened, 7u);
  EXPECT_EQ(rig.online().stats().sessions_evicted, 4u);
  EXPECT_EQ(rig.online().active_sessions(), 3u);
}

}  // namespace
}  // namespace dm::core
