// dm_perfbench: the repository's end-to-end benchmark.
//
//   dm_perfbench --workload live_mix|pcap_scan --seed N
//                --seconds S --trace 0|1 [--size full|tiny] [--corrupt]
//                [--work-dir DIR] [--commit ID]
//
// Prints a host line, a detail line and, last, one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced pass with --trace 1
// (only those of the layers the workload runs; run.py fills in the rest).
// Exits 1 when an output check fails, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness/common.h"
#include "harness/workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "dm_perfbench: %s\nusage: dm_perfbench --workload "
               "live_mix|pcap_scan --seed N --seconds S --trace "
               "0|1 [--size full|tiny] [--corrupt] [--work-dir DIR] [--commit "
               "ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(usage(("missing value for " + arg).c_str()));
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--size") {
      const auto size = value();
      if (size != "full" && size != "tiny") return usage("bad --size");
      opt.sizes = size == "tiny" ? pb::kTinySizes : pb::kFullSizes;
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opt.seconds <= 0) return usage("--seconds must be positive");

  std::printf(
      "{\"host\": {\"nproc\": %u, \"effective_parallelism\": %.3f, "
      "\"probe_threads\": %u, \"shards\": %zu, \"trainer_threads\": %zu, "
      "\"open_loop_compression\": %.1f, \"commit\": %s}}\n",
      std::thread::hardware_concurrency(),
      pb::effective_parallelism(pb::kProbeThreads), pb::kProbeThreads,
      pb::kShards, pb::kTrainerThreads, pb::kOpenLoopCompression,
      pb::json_string(commit).c_str());
  std::fflush(stdout);

  pb::Report report;
  try {
    if (opt.workload == "live_mix") {
      report = pb::run_live_mix(opt);
    } else if (opt.workload == "pcap_scan") {
      report = pb::run_pcap_scan(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dm_perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.check(report.attempted > 0, "no work was attempted");
  report.note("fail_ratio",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, report.attempted)),
              "ratio");

  for (const auto& problem : report.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("{\"detail\": %s}\n", pb::metrics_json(report.detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              pb::metrics_json(report.metrics).c_str());
  return report.correct ? 0 : 1;
}
