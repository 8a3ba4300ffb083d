// Shared harness plumbing: clocks, order statistics, the run report and
// the JSON lines the benchmark prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "harness/config.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// CPU time used so far by every thread of this process, in seconds.
double process_cpu_s();

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Each verdict's lowest latency over the passes of a run.  The passes
/// score the same input, so they tap the same verdicts in the same order.
/// The host slows passes in bursts, and one vCPU more than another, so a
/// verdict's fastest time is its cost with the least interference; a run
/// reports the p50 and p99 over verdicts of those times.
struct FastestPerVerdict {
  std::vector<double> us;
  std::size_t passes = 0;
  /// False when the pass tapped a different number of verdicts.
  bool add(const std::vector<double>& pass) {
    ++passes;
    if (passes == 1) us = pass;
    if (pass.size() != us.size()) return false;
    for (std::size_t i = 0; i < us.size(); ++i) us[i] = std::min(us[i], pass[i]);
    return true;
  }
};

double peak_rss_mb();

/// Effective parallelism of this host right now: the same spin work on 1
/// thread and on `threads` threads; threads * t1 / tN.  A 4-thread box that
/// grants one core reads about 1.
double effective_parallelism(unsigned threads);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Sizes sizes = kFullSizes;
  /// Smoke-test hook: deliberately corrupts this workload's input so its
  /// correctness check must trip.
  bool corrupt = false;
  /// Scratch directory inside the checkout (capture file).
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a workload run reports.  `metrics` is what the last line
/// carries (end-to-end without --trace, per-layer with it); `detail` holds
/// workload-specific figures printed on their own line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  /// Records a failed correctness check; the run then exits non-zero.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (std::find(problems.begin(), problems.end(), what) == problems.end()) {
      problems.push_back(what);
    }
  }
};

std::string metrics_json(const std::vector<Metric>& metrics);
std::string json_string(const std::string& s);

/// Per-layer time and count accumulator for the traced passes.
struct LayerTotals {
  double ms = 0;
  std::uint64_t calls = 0;
  void add_ns(std::uint64_t ns) {
    ms += static_cast<double>(ns) / 1e6;
    ++calls;
  }
};

/// Calls `fn`, adding its wall time to `totals`; returns its result.
template <typename Fn>
auto timed(LayerTotals& totals, Fn&& fn) {
  const std::uint64_t start = now_ns();
  auto result = fn();
  totals.add_ns(now_ns() - start);
  return result;
}

/// Moves the calling thread from CPU to CPU between passes.  On a shared
/// host each vCPU runs at its own speed (the other tenants on its core
/// differ): the same scan ran 25% slower on one vCPU than on another at the
/// same moment.  A single-threaded pass pinned to the next CPU in turn
/// samples every CPU the process may use instead of the one the scheduler
/// happened to pick.  Threads created while pinned inherit the pin, so
/// call unpin() before starting worker threads.
class CpuRotation {
 public:
  CpuRotation();
  void pin(int pass);
  void unpin();

 private:
  std::vector<int> cpus_;
};

/// Runs `body` repeatedly until `seconds` of wall time have passed (at
/// least `min_reps` times).
template <typename Body>
int repeat_for(double seconds, int min_reps, Body&& body) {
  const auto start = Clock::now();
  int reps = 0;
  while (reps < min_reps || seconds_since(start) < seconds) {
    body(reps);
    ++reps;
  }
  return reps;
}

}  // namespace pb
