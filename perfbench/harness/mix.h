// Workload inputs shared by live_mix and pcap_scan: the family mix and the
// paper-scale detector, both pure functions of the seed.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/detector.h"
#include "core/online.h"
#include "harness/common.h"
#include "http/message.h"
#include "ml/parallel_trainer.h"
#include "synth/dataset.h"
#include "synth/generator.h"

namespace pb {


/// Every catalog family `per_family` times plus as many classic benign
/// episodes, each on its own client, start times moved into one
/// kTraceWindowS window.
struct Mix {
  std::vector<dm::synth::Episode> episodes;
  std::vector<bool> malicious;  // per episode
  std::unordered_map<std::string, std::size_t> episode_of_client;
  std::size_t transactions = 0;
};

Mix generate_mix(std::uint64_t seed, std::size_t per_family);

/// Moves every mix transaction into one time-ordered stream (stable on
/// ties) and drops the episodes; the per-episode labels stay.
std::vector<dm::http::HttpTransaction> take_stream(Mix& mix);

/// Stage-1 trainer settings: kTrainerThreads threads.
dm::ml::TrainerOptions trainer_options();

/// Ground-truth transactions to a trained Detector, as Stage 1 runs it:
/// build_wcg per episode, 37 features, the paper's ERF.
dm::core::Detector train_stage1(const dm::synth::GroundTruth& gt);

/// train_stage1 split at each layer's public call: build_wcg per episode
/// (core.wcg_build_ms), extract_features per WCG, graph metrics included
/// (core.train_features_ms), train_dynaminer + Detector (ml.train_ms).
/// Builds the same dataset in the same order, so the forest is the same.
dm::core::Detector train_stage1_traced(const dm::synth::GroundTruth& gt,
                                       Report& report);

/// The detector's forest in its serialized form, for identity checks.
std::string forest_bytes(const dm::core::Detector& detector);

/// Detector trained on the ground-truth corpus at `scale`, as every live
/// deployment would load it.
std::shared_ptr<const dm::core::Detector> train_detector(std::uint64_t seed,
                                                         double scale);

/// Episode-level detection quality of a set of alerted clients.
struct Quality {
  double recall = 0;          // malicious episodes with >= 1 alert
  double benign_fp_rate = 0;  // benign episodes with >= 1 alert
  double f1 = 0;
};

Quality episode_quality(const Mix& mix,
                        const std::vector<dm::core::Alert>& alerts);

}  // namespace pb
