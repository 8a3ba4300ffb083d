// Reference pieces the online-engine fences hold OnlineDetector to.
//
// ReferenceScorer scores a WCG the plain way: uncached feature extraction
// and the pointer-based forest the ERF was trained as.  Installed through
// OnlineOptions::scorer, it yields an engine that differs from production
// only in how a WCG is scored, so equal verdict-tap score streams show that
// the feature cache and the flat forest change no score bit.
//
// OnlineDetectorPeer checks the scope maintenance: every resident session's
// scoped builder must hold exactly the clue-related entries of its session
// builder, under a relatedness rule restated here rather than shared with
// the engine.  The fold itself (current() == build() == oracle::build_wcg)
// is fenced by core_fold_oracle_test and core_hotpath_test's check_episode.
//
// ScoreStream records a verdict tap as (client, trace timestamp, score bits)
// per completed query, the stream both fences compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/detector.h"
#include "core/online.h"

namespace dm::core {

/// Scores with extract_features (no cache, the detector's own extractor
/// options) and RandomForest::predict_proba.
class ReferenceScorer final : public WcgScorer {
 public:
  explicit ReferenceScorer(std::shared_ptr<const Detector> detector);

  /// Ignores `cache`.
  double score(const Wcg& wcg, FeatureCache* cache) override;

 private:
  std::shared_ptr<const Detector> detector_;
};

class OnlineDetectorPeer {
 public:
  /// Expects, for every resident session of `detector`, that the scoped
  /// builder's entries are the session builder's entries (the same shared
  /// pointers, in order) whose server host, or non-empty referrer host, is
  /// in suspicious_hosts.  Returns the number of sessions whose scope held
  /// at least one entry, so callers can tell a real check from a vacuous
  /// one.
  static std::size_t check_scopes(const OnlineDetector& detector);
};

/// One completed verdict: (client, trace timestamp, score bits).
using ScoreKey = std::tuple<std::string, std::uint64_t, std::uint64_t>;

/// Verdict-tap recorder; safe to feed from several shard threads.
class ScoreStream {
 public:
  /// A verdict tap appending to this stream, which must outlive every
  /// engine the tap is installed in.
  std::function<void(const Wcg&, double, bool, std::uint64_t)> tap();

  /// The verdicts in tap order (deterministic for one sequential engine).
  std::vector<ScoreKey> keys() const;
  /// The verdicts sorted: the order-free form sharded runs compare in.
  std::vector<ScoreKey> sorted() const;

 private:
  mutable std::mutex mutex_;
  std::vector<ScoreKey> keys_;
};

}  // namespace dm::core
