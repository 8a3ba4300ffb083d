#include "support/online_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <utility>

namespace dm::core {

ReferenceScorer::ReferenceScorer(std::shared_ptr<const Detector> detector)
    : detector_(std::move(detector)) {}

double ReferenceScorer::score(const Wcg& wcg, FeatureCache* /*cache*/) {
  return detector_->forest().predict_proba(extract_features(wcg, detector_->options()));
}

std::size_t OnlineDetectorPeer::check_scopes(const OnlineDetector& detector) {
  std::size_t non_empty = 0;
  for (const auto& [client, record] : detector.clients_) {
    for (const auto& [key, session] : record.sessions) {
      const auto implicated = [&](const std::string& host) {
        return session.suspicious_hosts.find(host) !=
               session.suspicious_hosts.end();
      };
      std::vector<std::shared_ptr<const WcgBuilder::Entry>> related;
      for (const auto& entry : session.builder.entries()) {
        const std::string& referrer = entry->inputs.referrer_host;
        if (implicated(entry->txn.server_host) ||
            (!referrer.empty() && implicated(referrer))) {
          related.push_back(entry);
        }
      }
      EXPECT_EQ(session.scoped.entries(), related)
          << "session " << key << " of client " << client;
      if (!related.empty()) ++non_empty;
    }
  }
  return non_empty;
}

std::function<void(const Wcg&, double, bool, std::uint64_t)>
ScoreStream::tap() {
  return [this](const Wcg& wcg, double score, bool, std::uint64_t ts) {
    ScoreKey key{wcg.node(wcg.victim()).host, ts,
                 std::bit_cast<std::uint64_t>(score)};
    const std::lock_guard<std::mutex> lock(mutex_);
    keys_.push_back(std::move(key));
  };
}

std::vector<ScoreKey> ScoreStream::keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return keys_;
}

std::vector<ScoreKey> ScoreStream::sorted() const {
  auto out = keys();
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dm::core
