#include "harness/mix.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>

#include "core/features.h"
#include "core/trainer.h"
#include "core/wcg_builder.h"
#include "harness/config.h"
#include "ml/dataset.h"
#include "ml/serialization.h"
#include "synth/families.h"
#include "util/rng.h"

namespace pb {
namespace {

/// Client address of mix episode `i`: unique per episode, so every alert
/// names the episode that caused it.
std::string client_of(std::size_t i) {
  return "10." + std::to_string(i / 62500) + "." +
         std::to_string(i / 250 % 250) + "." + std::to_string(2 + i % 250);
}

void shift_episode(dm::synth::Episode& episode, std::uint64_t new_start) {
  if (episode.transactions.empty()) return;
  const std::uint64_t old_start = episode.transactions.front().request.ts_micros;
  for (auto& txn : episode.transactions) {
    txn.request.ts_micros = txn.request.ts_micros - old_start + new_start;
    if (txn.response) {
      txn.response->ts_micros = txn.response->ts_micros - old_start + new_start;
    }
  }
}

}  // namespace

Mix generate_mix(std::uint64_t seed, std::size_t per_family) {
  const auto& catalog = dm::synth::trace_family_catalog();
  const auto& classic_benign = dm::synth::trace_family_by_name("Benign");
  std::vector<const dm::synth::TraceFamily*> plan;
  for (const auto& family : catalog) {
    for (std::size_t i = 0; i < per_family; ++i) plan.push_back(&family);
  }
  const std::size_t family_episodes = plan.size();
  for (std::size_t i = 0; i < family_episodes; ++i) plan.push_back(&classic_benign);

  Mix mix;
  dm::util::Rng placement(dm::util::stream_seed(seed, 0x5747u));
  const std::uint64_t base = dm::synth::GeneratorOptions{}.base_ts_micros;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    auto episode = dm::synth::episode_for_family(dm::util::stream_seed(seed, i),
                                                 *plan[i]);
    const std::string client = client_of(i);
    for (auto& txn : episode.transactions) txn.client_host = client;
    shift_episode(episode, base + static_cast<std::uint64_t>(
                                      placement.uniform(0, kTraceWindowS) * 1e6));
    mix.transactions += episode.transactions.size();
    mix.episode_of_client.emplace(client, i);
    mix.malicious.push_back(plan[i]->malicious);
    mix.episodes.push_back(std::move(episode));
  }
  return mix;
}

std::vector<dm::http::HttpTransaction> take_stream(Mix& mix) {
  std::vector<dm::http::HttpTransaction> stream;
  stream.reserve(mix.transactions);
  for (auto& episode : mix.episodes) {
    std::move(episode.transactions.begin(), episode.transactions.end(),
              std::back_inserter(stream));
  }
  mix.episodes.clear();
  std::stable_sort(stream.begin(), stream.end(),
                   [](const dm::http::HttpTransaction& a,
                      const dm::http::HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

dm::ml::TrainerOptions trainer_options() {
  dm::ml::TrainerOptions trainer;
  trainer.threads = kTrainerThreads;
  return trainer;
}

dm::core::Detector train_stage1(const dm::synth::GroundTruth& gt) {
  std::vector<dm::core::Wcg> infections, benign;
  for (const auto& episode : gt.infections) {
    infections.push_back(dm::core::build_wcg(episode.transactions));
  }
  for (const auto& episode : gt.benign) {
    benign.push_back(dm::core::build_wcg(episode.transactions));
  }
  const auto data =
      dm::core::dataset_from_wcgs(infections, benign, {}, trainer_options());
  return dm::core::Detector(dm::core::train_dynaminer(
      data, dm::ml::kDefaultTrainingSeed, trainer_options()));
}

dm::core::Detector train_stage1_traced(const dm::synth::GroundTruth& gt,
                                       Report& report) {
  LayerTotals build, features, train;
  const auto& names = dm::core::feature_names();
  dm::ml::Dataset data(std::vector<std::string>(names.begin(), names.end()));
  const auto add = [&](const std::vector<dm::synth::Episode>& episodes, int label) {
    std::vector<dm::core::Wcg> wcgs;
    for (const auto& episode : episodes) {
      wcgs.push_back(
          timed(build, [&] { return dm::core::build_wcg(episode.transactions); }));
    }
    for (const auto& wcg : wcgs) {
      data.add_row(timed(features, [&] { return dm::core::extract_features(wcg); }),
                   label);
    }
  };
  add(gt.infections, dm::ml::kInfection);
  add(gt.benign, dm::ml::kBenign);
  auto detector = timed(train, [&] {
    return dm::core::Detector(dm::core::train_dynaminer(
        data, dm::ml::kDefaultTrainingSeed, trainer_options()));
  });
  report.add("core.wcg_build_ms", build.ms, "ms");
  report.add("core.train_features_ms", features.ms, "ms");
  report.add("ml.train_ms", train.ms, "ms");
  report.add("ml.forest_nodes",
             static_cast<double>(detector.flat_forest().node_count()), "count");
  return detector;
}

std::string forest_bytes(const dm::core::Detector& detector) {
  std::ostringstream out;
  dm::ml::save_forest(detector.forest(), out);
  return out.str();
}

std::shared_ptr<const dm::core::Detector> train_detector(std::uint64_t seed,
                                                         double scale) {
  return std::make_shared<const dm::core::Detector>(
      train_stage1(dm::synth::generate_ground_truth(seed, scale)));
}

Quality episode_quality(const Mix& mix,
                        const std::vector<dm::core::Alert>& alerts) {
  std::set<std::size_t> alerted;
  for (const auto& alert : alerts) {
    const auto it = mix.episode_of_client.find(alert.client);
    if (it != mix.episode_of_client.end()) alerted.insert(it->second);
  }
  std::size_t malicious = 0, benign = 0, tp = 0, fp = 0;
  for (std::size_t i = 0; i < mix.malicious.size(); ++i) {
    const bool hit = alerted.count(i) > 0;
    if (mix.malicious[i]) {
      ++malicious;
      tp += hit;
    } else {
      ++benign;
      fp += hit;
    }
  }
  Quality q;
  q.recall = malicious ? static_cast<double>(tp) / static_cast<double>(malicious) : 0;
  q.benign_fp_rate = benign ? static_cast<double>(fp) / static_cast<double>(benign) : 0;
  const std::size_t fn = malicious - tp;
  q.f1 = tp ? 2.0 * static_cast<double>(tp) /
                  static_cast<double>(2 * tp + fp + fn)
            : 0;
  return q;
}

}  // namespace pb
