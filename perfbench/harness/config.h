// Fixed benchmark constants.  Every workload size, thread count and rate
// lives here so the numbers a run measures depend only on the code under
// test, the --seed and the host — never on hardware_concurrency() or on a
// measurement taken at run time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pb {

/// Input sizes for one workload.  `full` is what the benchmark measures;
/// `tiny` is the smoke-test size (same code paths, seconds instead of
/// minutes).
struct Sizes {
  /// live_mix: episodes per catalog family (18 families), plus as many
  /// classic benign episodes as all families together.
  std::size_t live_per_family;
  /// pcap_scan: the same mix shape, smaller, exported to one capture
  /// (about 37 MB and 150 verdicts at 12 per family).  A larger capture
  /// makes scan speed follow the other tenants' use of the shared cache
  /// (over five seeds the fastest-scan rate spread 24% at 16 per family);
  /// a smaller one leaves too few verdicts for a p50 that does not move
  /// with the seed (14% over ten seeds at 8 per family).
  std::size_t pcap_per_family;
  /// Ground-truth scale of the corpus every detector is trained on
  /// (1.0 = the paper's 770 infection + 980 benign episodes).
  double train_scale;
  /// Set-up repetitions per run (setup_s is their median).
  int setup_reps;
  /// live_mix: verdicts every open-loop pass must complete, so that its
  /// p99 has at least 10 samples beyond it.  At 220 episodes per family
  /// the kModelSeed detector completes about 2500 per pass (2534 to 2680
  /// over seeds 1 to 5).
  std::size_t min_open_loop_verdicts;
};

inline constexpr Sizes kFullSizes{220, 12, 1.0, 3, 1000};
inline constexpr Sizes kTinySizes{4, 2, 0.05, 2, 1};

/// Seed of the ground-truth corpus the detector is trained on.  Both
/// workloads load one fixed model, as a deployment does; --seed picks the
/// traffic it sees.  A model per seed moved verdict latency by a third
/// between seeds (it decides which sessions are scored and when they end).
inline constexpr std::uint64_t kModelSeed = 0x5eed0001;

/// Episodes of a mix start uniformly inside one trace window this long, so
/// thousands of short sessions are resident at once.
inline constexpr double kTraceWindowS = 300.0;

/// live_mix: sharded engine geometry.  kShards + the dispatcher stay within
/// the 4 hardware threads of the reference host.
inline constexpr std::size_t kShards = 3;
inline constexpr std::size_t kBatchSize = 64;
inline constexpr std::size_t kQueueCapacity = 256;
/// The open loop dispatches every transaction on its own, so verdict
/// latency measures the verdict path and queue wait, not how long a batch
/// of kBatchSize takes to fill at the offered rate (about 4.5 ms per shard).
inline constexpr std::size_t kOpenLoopBatchSize = 1;

/// live_mix open loop: trace time runs this many times faster than wall
/// time.  At kFullSizes the trace spans about 450 s and holds about 213k
/// transactions, so about 42k txn/s are offered: near half the closed-loop
/// rate of the reference host (4 vCPUs) when it grants only one core, so
/// the open loop keeps up on average however many cores are free.  A pass
/// takes about 5 s.
inline constexpr double kOpenLoopCompression = 90.0;

/// Stage-1 training runs on one thread; the forest is identical at any
/// thread count, so this only fixes the cost being measured.
inline constexpr std::size_t kTrainerThreads = 1;

/// Threads spun by the effective-parallelism probe.
inline constexpr unsigned kProbeThreads = 4;

}  // namespace pb
