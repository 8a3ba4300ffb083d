#include "http/transaction_stream.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "http/parser.h"
#include "net/packet.h"
#include "net/pcap_mmap.h"
#include "net/tcp_reassembly.h"
#include "obs/pipeline.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/hash.h"

namespace dm::http {
namespace {

/// Decode runs before sessionization, so its trace events are process-scope
/// (session 0); per-flow parse spans carry fnv1a(client) in `arg` instead,
/// which is how the trace-reconstruction fence links an alert back to the
/// flow that fed it.  A nested install (transactions_from_pcap_file installs
/// one around transactions_from_pcap's own) chains parents instead of
/// stacking.
std::optional<dm::obs::TraceContext> decode_trace_context() {
  auto& sink = dm::obs::trace_sink();
  if (!sink.enabled()) return std::nullopt;
  dm::obs::TraceContext ctx;
  ctx.sink = &sink;
  if (const auto* outer = dm::obs::current_trace_context()) {
    ctx.parent = outer->parent;
  }
  return ctx;
}

/// Shared reconstruction over any capture whose packets expose ts_micros +
/// data: an owned PcapFile (synthesized or fault-injected) or a zero-copy
/// PcapFileView (decoded).
template <typename Capture>
std::vector<HttpTransaction> reconstruct_transactions(
    const Capture& capture, dm::util::FaultStats* faults) {
  auto& obs = dm::obs::pipeline_metrics();
  const dm::obs::StageTimer timer;
  auto tctx = decode_trace_context();
  dm::obs::TraceContextGuard tguard(tctx ? &*tctx : nullptr);

  // Frame parse + TCP reassembly, timed per capture (a per-packet span would
  // cost two clock reads per packet — more than the work it measures).
  auto reassembly_span = timer.span(obs.stage_tcp_reassembly_ns);
  dm::obs::ScopedTraceSpan reassembly_tspan(dm::obs::TraceOp::kTcpReassembly,
                                            capture.packets.size());
  dm::net::TcpReassembler reassembler{dm::net::ReassemblyOptions{}, faults};
  for (const auto& pkt : capture.packets) {
    if (const auto parsed = dm::net::parse_ethernet_ipv4_tcp(pkt.data)) {
      reassembler.ingest(*parsed, pkt.ts_micros);
    } else if (faults) {
      faults->record(dm::util::DecodeErrorCode::kFrameUndecodable);
    }
  }
  reassembly_tspan.end();
  reassembly_span.stop();
  obs.net_packets.add(capture.packets.size());

  std::vector<HttpTransaction> all;
  for (const dm::net::TcpFlow* flow : reassembler.flows()) {
    auto parse_span = timer.span(obs.stage_http_parse_ns);
    dm::obs::ScopedTraceSpan parse_tspan(dm::obs::TraceOp::kHttpParse);
    auto txns = transactions_from_flow(*flow, faults);
    if (!txns.empty()) {
      // Client tag: the end event names whose conversation this flow was.
      parse_tspan.set_arg(dm::util::fnv1a(txns.front().client_host));
    }
    parse_tspan.end();
    parse_span.stop();
    all.insert(all.end(), std::make_move_iterator(txns.begin()),
               std::make_move_iterator(txns.end()));
  }
  obs.http_transactions.add(all.size());
  // Stable time order.  Sorting (timestamp, index) keys instead of the
  // transactions themselves moves each transaction once, not through every
  // merge pass of std::stable_sort; equal timestamps keep flow order.
  std::vector<std::pair<std::uint64_t, std::size_t>> order(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    order[i] = {all[i].request.ts_micros, i};
  }
  std::sort(order.begin(), order.end());
  std::vector<HttpTransaction> sorted;
  sorted.reserve(all.size());
  for (const auto& [ts, index] : order) sorted.push_back(std::move(all[index]));
  return sorted;
}

}  // namespace

std::vector<HttpTransaction> transactions_from_pcap(
    const dm::net::PcapFile& capture, dm::util::FaultStats* faults) {
  return reconstruct_transactions(capture, faults);
}

std::vector<HttpTransaction> transactions_from_pcap(
    const dm::net::PcapFileView& capture, dm::util::FaultStats* faults) {
  return reconstruct_transactions(capture, faults);
}

std::vector<HttpTransaction> transactions_from_pcap_file(
    const std::string& path, dm::util::FaultStats* faults) {
  auto tctx = decode_trace_context();
  dm::obs::TraceContextGuard tguard(tctx ? &*tctx : nullptr);
  auto span = dm::obs::StageTimer{}.span(
      dm::obs::pipeline_metrics().stage_pcap_decode_ns);
  dm::obs::ScopedTraceSpan tspan(dm::obs::TraceOp::kPcapDecode);
  // Map + decode views in place: packet bytes stay in the page cache, the
  // decode stage only materializes 16-byte views per record.
  const dm::net::MappedPcap capture(path, {}, faults);
  if (capture.result().fatal) {
    throw std::runtime_error("pcap: " + path + ": " +
                             capture.result().errors.front().to_string());
  }
  tspan.set_arg(capture.file().packets.size());
  tspan.end();
  span.stop();
  // Reconstruction copies flow payloads into owned transactions, so the
  // mapping (local to this frame) can be dropped at return — no slice
  // escapes it.
  return transactions_from_pcap(capture.file(), faults);
}

}  // namespace dm::http
