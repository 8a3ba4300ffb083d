// The sequential detector pass shared by live_mix (reference stream) and
// pcap_scan (the scan itself), and the traced layer breakdown: tapped WCGs
// replayed through features, each graph metric and the forest, timed
// around the public call of each layer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/online.h"
#include "harness/common.h"
#include "http/message.h"

namespace pb {

/// One completed classifier query seen at OnlineOptions::verdict_tap.
struct TapRecord {
  std::string client;
  std::uint64_t ts_micros = 0;
  std::uint64_t score_bits = 0;
  friend auto operator<=>(const TapRecord&, const TapRecord&) = default;
};

/// Host of the WCG's victim node: the client whose session was scored.
std::string victim_of(const dm::core::Wcg& wcg);

/// Multiset equality of two score streams, bit for bit.
bool same_score_stream(std::vector<TapRecord> a, std::vector<TapRecord> b);

struct TappedWcg {
  std::string client;
  dm::core::Wcg wcg;
  double score = 0;
};

struct SequentialPass {
  std::vector<TapRecord> taps;
  std::vector<dm::core::Alert> alerts;
  dm::core::OnlineStats stats;
  double wall_s = 0;
  /// Per verdict, in tap order: microseconds from the start of the
  /// observe() call whose transaction triggered it to its verdict_tap.
  std::vector<double> verdict_us;
  // Traced passes only:
  /// Per-transaction observe() time, tap work excluded, in microseconds.
  std::vector<double> observe_us;
  double observe_ms = 0;
  /// A copy of every scored WCG.
  std::vector<TappedWcg> wcgs;
};

/// Feeds `stream` through one sequential OnlineDetector.  Traced passes
/// time every observe() and copy each scored WCG for the layer replay.
/// With `consume`, transactions are moved out of `stream` instead of
/// copied.
SequentialPass run_sequential(std::shared_ptr<const dm::core::Detector> detector,
                              std::vector<dm::http::HttpTransaction>& stream,
                              bool traced, bool consume);

/// Adds the core.* / graph.* / ml.infer per-layer metrics of a traced
/// sequential pass to `report`, checking that the layer self times and the
/// residual add up to core.observe_ms.
void report_online_layers(const SequentialPass& pass,
                          const dm::core::Detector& detector, Report& report);

}  // namespace pb
