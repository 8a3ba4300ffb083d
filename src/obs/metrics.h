// Process-wide metrics: named counters, gauges and log-bucketed latency
// histograms behind one MetricsRegistry, plus plain-value snapshots.
//
// Design rules (the instrument panel must never slow the instrumented):
//   * Hot-path writes are wait-free: a Counter::add / Histogram::record is a
//     single relaxed fetch-add into a per-thread shard (threads are spread
//     over kShards cache-line-isolated slots, so concurrent writers do not
//     share lines).  No locks, no allocation, no branches on the fast path.
//   * Histograms are fixed-size and log-bucketed (4 sub-buckets per power of
//     two, full uint64 range) — recording never allocates, and a snapshot
//     merges the shards into one plain-value HistogramSnapshot from which
//     p50/p95/p99 are interpolated.
//   * Registration (name -> metric lookup) takes a mutex and is meant for
//     cold paths: resolve metric references once, keep them, then hit the
//     wait-free handles from the hot loop (see obs/pipeline.h).
//   * Counters owned elsewhere (e.g. each ShardedOnlineEngine's runtime
//     Counters, kept per engine) join the registry as *callback sources*:
//     snapshot() polls them, multiple registrations under one name sum — so
//     one dm::obs::snapshot() covers the whole process.
//
// The process-global registry is obs::registry(); tests and benches can
// construct private MetricsRegistry instances for isolation.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cacheline.h"

namespace dm::obs {

/// Global kill switch checked by Span (and honored by the instrumentation
/// sites): when false, stage timing skips its clock reads and records
/// nothing, so "metrics compiled in but idle" costs a predicted-not-taken
/// branch.  Counters stay live (a sharded fetch-add is cheaper than the
/// branch protecting it would be worth).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

namespace detail {

/// Writer shards per metric.  Threads are assigned round-robin, so up to
/// kShards concurrent writers never touch the same cache line.
inline constexpr std::size_t kShards = 8;

/// Stable per-thread shard index in [0, kShards).
std::size_t thread_shard() noexcept;

struct alignas(kCacheLineSize) PaddedAtomic {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Monotone event count.  add() is a single relaxed fetch-add into the
/// calling thread's shard; value() merges the shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedAtomic, detail::kShards> shards_{};
};

/// Last-value instrument for levels (queue depth, live sessions).  set() is
/// a relaxed store, add() a relaxed fetch-add — additive deltas make one
/// gauge correct even when N shards each own part of the level.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// --- log-bucketed histogram ------------------------------------------------

/// Bucket layout: values 0..3 get exact buckets; beyond that each power of
/// two splits into 4 sub-buckets (HDR-style, ~12% relative error), covering
/// the full uint64 range in a fixed 252-slot array.
inline constexpr std::size_t kHistogramBuckets = 252;

constexpr std::size_t histogram_bucket(std::uint64_t v) noexcept {
  if (v < 4) return static_cast<std::size_t>(v);
  const unsigned octave = std::bit_width(v) - 1;  // >= 2
  return (static_cast<std::size_t>(octave) - 1) * 4 +
         static_cast<std::size_t>((v >> (octave - 2)) & 3);
}

/// Smallest / largest value mapping to bucket `idx` (inclusive bounds).
std::uint64_t histogram_bucket_lo(std::size_t idx) noexcept;
std::uint64_t histogram_bucket_hi(std::size_t idx) noexcept;

/// Plain-value merged view of one histogram; quantiles interpolate inside
/// the winning bucket, so they are exact for v < 4 and within one
/// sub-bucket (~12%) elsewhere.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// q in [0, 1]; 0 observations -> 0.
  std::uint64_t quantile(double q) const noexcept;
  std::uint64_t p50() const noexcept { return quantile(0.50); }
  std::uint64_t p95() const noexcept { return quantile(0.95); }
  std::uint64_t p99() const noexcept { return quantile(0.99); }
  /// Upper bound of the highest non-empty bucket (approximate max).
  std::uint64_t max_bound() const noexcept;
};

/// Fixed-size concurrent histogram.  record() is two relaxed fetch-adds
/// (bucket + sum) into the calling thread's shard; snapshot() merges.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    Shard& s = shards_[detail::thread_shard()];
    s.buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  void reset() noexcept {
    for (auto& shard : shards_) {
      for (auto& bucket : shard.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      shard.sum.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, detail::kShards> shards_{};
};

// --- registry --------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

/// One consistent-enough view of every registered metric (counters are read
/// relaxed; exact totals are guaranteed once writers have quiesced, e.g.
/// after ShardedOnlineEngine::finish()).
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;  // name-sorted; callback sources merged in
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of the named counter, 0 when absent.
  std::uint64_t counter_value(std::string_view name) const noexcept;
  std::int64_t gauge_value(std::string_view name) const noexcept;
  /// Named histogram or nullptr.
  const HistogramSnapshot* histogram(std::string_view name) const noexcept;
};

class MetricsRegistry;

/// RAII registration of a callback counter source; unregisters on
/// destruction.  The registry must outlive the handle.
class CallbackHandle {
 public:
  CallbackHandle() = default;
  CallbackHandle(CallbackHandle&& other) noexcept;
  CallbackHandle& operator=(CallbackHandle&& other) noexcept;
  CallbackHandle(const CallbackHandle&) = delete;
  CallbackHandle& operator=(const CallbackHandle&) = delete;
  ~CallbackHandle();

  void release();  // unregister now (idempotent)

 private:
  friend class MetricsRegistry;
  CallbackHandle(MetricsRegistry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Named metric directory.  Lookup/creation is mutex-guarded (cold path);
/// the returned references are stable for the registry's lifetime and are
/// the wait-free hot-path handles.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Registers an external counter source polled at snapshot time; multiple
  /// registrations under one name (e.g. one per engine) sum.
  CallbackHandle register_callback(std::string_view name,
                                   std::function<std::uint64_t()> fn);

  RegistrySnapshot snapshot() const;

  /// Zeroes every owned metric (callback sources are external and keep
  /// their own state).  Test/bench plumbing; not safe concurrently with
  /// hot-path writers you care about.
  void reset();

 private:
  friend class CallbackHandle;
  void unregister_callback(std::uint64_t id);

  struct CallbackSource {
    std::string name;
    std::function<std::uint64_t()> fn;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::uint64_t, CallbackSource> callbacks_;
  std::uint64_t next_callback_id_ = 1;
};

/// The process-wide registry every default-constructed instrumentation site
/// reports into.
MetricsRegistry& registry();

/// snapshot() of the process-wide registry — the one call that covers
/// runtime throughput/shed counters, decode-fault counters and every stage
/// latency histogram.
RegistrySnapshot snapshot();

}  // namespace dm::obs
