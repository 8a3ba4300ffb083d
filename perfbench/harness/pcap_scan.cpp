// pcap_scan: the forensic path (§VI-C) and the single-threaded baseline.  A
// family mix exported once to one capture file; each pass maps it,
// decodes, reassembles TCP, parses HTTP and replays the transactions
// through one sequential OnlineDetector.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "harness/mix.h"
#include "harness/replay.h"
#include "harness/workloads.h"
#include "http/parser.h"
#include "http/transaction_stream.h"
#include "net/packet.h"
#include "net/pcap_mmap.h"
#include "net/tcp_reassembly.h"
#include "synth/pcap_export.h"
#include "util/rng.h"

namespace pb {
namespace {

using dm::util::DecodeErrorCode;

/// Writes every mix episode into one time-ordered capture; returns the
/// number of transactions it carries that have a response.
std::size_t write_capture(Mix& mix, const std::string& path) {
  dm::net::PcapFile capture;
  std::size_t complete = 0;
  for (const auto& episode : mix.episodes) {
    for (const auto& txn : episode.transactions) complete += txn.response.has_value();
    auto packets = dm::synth::episode_to_pcap(episode).packets;
    std::move(packets.begin(), packets.end(), std::back_inserter(capture.packets));
  }
  mix.episodes.clear();
  std::stable_sort(capture.packets.begin(), capture.packets.end(),
                   [](const dm::net::PcapPacket& a, const dm::net::PcapPacket& b) {
                     return a.ts_micros < b.ts_micros;
                   });
  dm::net::write_pcap_file(path, capture);
  return complete;
}

/// Smoke-test corruption: cut the last tenth of the capture, so
/// transactions go missing and the conservation check must trip.
void truncate_capture(const std::string& path) {
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - size / 10);
}

std::uint64_t http_quarantined(const dm::util::FaultStats& faults) {
  std::uint64_t n = 0;
  for (const auto code :
       {DecodeErrorCode::kHttpBadRequestLine, DecodeErrorCode::kHttpBadStatusLine,
        DecodeErrorCode::kHttpBadContentLength, DecodeErrorCode::kHttpBadChunk,
        DecodeErrorCode::kHttpTruncatedMessage}) {
    n += faults.count(code);
  }
  return n;
}

/// The scan as the program runs it: MappedPcap + transactions_from_pcap,
/// then a sequential replay.
struct Scan {
  SequentialPass pass;
  double wall_s = 0;  // mapping the file to the last verdict
  double cpu_s = 0;    // the same span in CPU time
  std::size_t reconstructed = 0;
  std::size_t complete = 0;  // reconstructed with their response
  std::uint64_t quarantined = 0;
};

std::size_t count_complete(const std::vector<dm::http::HttpTransaction>& txns) {
  std::size_t n = 0;
  for (const auto& txn : txns) n += txn.response.has_value();
  return n;
}

Scan scan_untraced(const std::string& path,
                   std::shared_ptr<const dm::core::Detector> detector) {
  Scan scan;
  dm::util::FaultStats faults;
  const auto start = Clock::now();
  const double cpu0 = process_cpu_s();
  const dm::net::MappedPcap capture(path, {}, &faults);
  auto txns = dm::http::transactions_from_pcap(capture.file(), &faults);
  scan.reconstructed = txns.size();
  scan.complete = count_complete(txns);
  scan.pass = run_sequential(std::move(detector), txns, false, true);
  scan.wall_s = seconds_since(start);
  scan.cpu_s = process_cpu_s() - cpu0;
  scan.quarantined = http_quarantined(faults);
  return scan;
}

/// The same scan split at each layer's public call: decode, frame parse +
/// reassembly, per-flow HTTP parse, then a traced sequential replay.
Scan scan_traced(const std::string& path,
                 std::shared_ptr<const dm::core::Detector> detector,
                 Report& report) {
  Scan scan;
  dm::util::FaultStats faults;
  const auto start = Clock::now();
  std::uint64_t t = now_ns();
  const dm::net::MappedPcap capture(path, {}, &faults);
  const double decode_ms = static_cast<double>(now_ns() - t) / 1e6;

  t = now_ns();
  dm::net::TcpReassembler reassembler{dm::net::ReassemblyOptions{}, &faults};
  for (const auto& pkt : capture.file().packets) {
    if (const auto parsed = dm::net::parse_ethernet_ipv4_tcp(pkt.data)) {
      reassembler.ingest(*parsed, pkt.ts_micros);
    } else {
      faults.record(DecodeErrorCode::kFrameUndecodable);
    }
  }
  const double reassembly_ms = static_cast<double>(now_ns() - t) / 1e6;

  // HTTP parse, including the time ordering transactions_from_pcap applies.
  t = now_ns();
  std::vector<dm::http::HttpTransaction> txns;
  for (const dm::net::TcpFlow* flow : reassembler.flows()) {
    auto flow_txns = dm::http::transactions_from_flow(*flow, &faults);
    std::move(flow_txns.begin(), flow_txns.end(), std::back_inserter(txns));
  }
  std::stable_sort(txns.begin(), txns.end(),
                   [](const dm::http::HttpTransaction& a,
                      const dm::http::HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  const double parse_ms = static_cast<double>(now_ns() - t) / 1e6;
  scan.reconstructed = txns.size();
  scan.complete = count_complete(txns);
  scan.quarantined = http_quarantined(faults);

  scan.pass = run_sequential(detector, txns, true, true);
  scan.wall_s = seconds_since(start);

  report.add("net.decode_ms", decode_ms, "ms");
  report.add("net.packets", static_cast<double>(capture.file().packets.size()),
             "count");
  report.add("net.reassembly_ms", reassembly_ms, "ms");
  report.add("net.flows", static_cast<double>(reassembler.flow_count()), "count");
  report.add("http.parse_ms", parse_ms, "ms");
  report.add("http.transactions", static_cast<double>(scan.reconstructed), "count");
  report.add("http.quarantined", static_cast<double>(scan.quarantined), "count");
  report_online_layers(scan.pass, *detector, report);
  return scan;
}

}  // namespace

Report run_pcap_scan(const Options& opt) {
  Report report;
  const std::string path = opt.work_dir + "/pcap_scan.pcap";
  Mix mix;
  std::shared_ptr<const dm::core::Detector> detector;
  std::size_t generated = 0;  // transactions with a response
  std::vector<double> setup_s, train_s;
  const int setups = opt.trace ? 1 : opt.sizes.setup_reps;
  for (int i = 0; i < setups; ++i) {
    mix = Mix{};
    detector.reset();
    const auto start = Clock::now();
    mix = generate_mix(dm::util::stream_seed(opt.seed, 11),
                       opt.sizes.pcap_per_family);
    generated = write_capture(mix, path);
    const auto train_start = Clock::now();
    detector = train_detector(kModelSeed, opt.sizes.train_scale);
    train_s.push_back(seconds_since(train_start));
    setup_s.push_back(seconds_since(start));
  }
  if (opt.corrupt) truncate_capture(path);
  const double capture_mb =
      static_cast<double>(std::filesystem::file_size(path)) / 1e6;

  // Conservation: every generated transaction comes back whole or is
  // accounted for by exactly one HTTP quarantine (a dropped request, or a
  // response cut short, which leaves its request without a response).
  const auto check_scan = [&](const Scan& scan, const Scan& reference) {
    report.check(scan.complete + scan.quarantined == generated,
                 "complete + quarantined transactions (" +
                     std::to_string(scan.complete + scan.quarantined) +
                     ") != generated (" + std::to_string(generated) + ")");
    report.check(same_score_stream(scan.pass.taps, reference.pass.taps),
                 "pcap_scan score stream differs between passes");
    report.check(!scan.pass.alerts.empty(), "pcap_scan raised zero alerts");
  };
  // Every scan processes the same capture and must give the same result,
  // so attempted and failed count the capture's transactions once per run:
  // a pure function of the seed, not of how many scans fit into the run.
  const auto count_operations = [&](const Scan& scan) {
    report.attempted = generated;
    report.failed = (generated - std::min(generated, scan.complete)) +
                    scan.pass.stats.classifier_failures;
  };

  if (opt.trace) {
    const auto traced = scan_traced(path, detector, report);
    check_scan(traced, traced);
    count_operations(traced);
    // Tracing overhead against the faster of two untraced scans.
    double plain_s = 0;
    for (int i = 0; i < 2; ++i) {
      const auto plain = scan_untraced(path, detector);
      check_scan(plain, traced);
      plain_s = i == 0 ? plain.wall_s : std::min(plain_s, plain.wall_s);
    }
    report.add("trace.overhead_pct", (traced.wall_s / plain_s - 1.0) * 100.0,
               "%");
    std::filesystem::remove(path);
    // Stage 1 as the set-up ran it, split by layer; it must rebuild the
    // set-up's forest byte for byte.
    auto gt = dm::synth::generate_ground_truth(kModelSeed, opt.sizes.train_scale);
    if (opt.corrupt) gt.benign.pop_back();
    const auto retrained = train_stage1_traced(gt, report);
    report.check(forest_bytes(retrained) == forest_bytes(*detector),
                 "traced Stage-1 training produced a different forest");
    return report;
  }

  // Throughput is that of the scan that used the least CPU time: the scan
  // runs on one thread, so CPU time leaves out the moments the host ran
  // something else, and interference from other tenants (the cache and
  // memory they share) only ever slows a scan down.  Scans run on each CPU
  // in turn.  Verdict latency is the time inside the observe() call that
  // triggered a verdict, each verdict's fastest over the scans.
  std::optional<Scan> first;
  std::vector<double> walls, cpus;
  FastestPerVerdict latency;
  CpuRotation rotation;
  repeat_for(opt.seconds, 2, [&](int rep) {
    rotation.pin(rep);
    auto scan = scan_untraced(path, detector);
    check_scan(scan, first ? *first : scan);
    walls.push_back(scan.wall_s);
    cpus.push_back(scan.cpu_s);
    report.check(latency.add(scan.pass.verdict_us),
                 "pcap_scan verdict count differs between scans");
    if (!first) first = std::move(scan);
  });
  rotation.unpin();
  std::filesystem::remove(path);
  count_operations(*first);

  const double txns = static_cast<double>(first->reconstructed);
  const auto quality = episode_quality(mix, first->pass.alerts);
  report.add("txn_per_cpu_s", txns / quantile(cpus, 0.0), "txn/cpu-s");
  report.add("verdict_p50_us", quantile(latency.us, 0.5), "us");
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.note("verdict_p99_us", quantile(latency.us, 0.99), "us");

  report.note("train_s", median(train_s), "s");
  report.note("txn_per_s", txns / quantile(walls, 0.0), "txn/s");
  report.note("capture_mb_per_s", capture_mb / quantile(walls, 0.0), "MB/s");
  report.note("recall", quality.recall, "ratio");
  report.note("f1", quality.f1, "ratio");
  report.note("capture_mb", capture_mb, "MB");
  report.note("transactions", static_cast<double>(mix.transactions), "count");
  report.note("episodes", static_cast<double>(mix.malicious.size()), "count");
  report.note("benign_fp_rate", quality.benign_fp_rate, "ratio");
  report.note("scans", static_cast<double>(walls.size()), "count");
  report.note("verdicts_per_scan", static_cast<double>(first->pass.taps.size()),
              "count");
  return report;
}

}  // namespace pb
