#include "support/wcg_fold_oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "http/classify.h"
#include "http/redirect_miner.h"
#include "util/strings.h"

namespace dm::core::oracle {
namespace {

using dm::http::HttpTransaction;
using dm::http::PayloadType;
using dm::util::registrable_domain;
using dm::util::top_level_domain;

struct State {
  Wcg wcg;
  std::map<std::string, dm::graph::NodeId> host_index;
  std::size_t folded = 0;

  std::uint64_t first_exploit_ts = 0;  // 0 = none
  std::uint64_t last_exploit_ts = 0;
  std::set<std::string> exploit_hosts;

  std::string origin_name = "empty";
  dm::graph::NodeId origin_id = dm::graph::kInvalidNode;
  dm::graph::NodeId victim_id = dm::graph::kInvalidNode;
  std::set<std::string> conversation_hosts;

  std::map<std::string, std::set<std::string>> redirect_adj;
  std::set<std::string> redirect_hosts;
  std::set<std::string> redirect_tlds;
  std::vector<std::uint64_t> redirect_ts;

  std::uint64_t first_ts = 0;
  std::uint64_t last_ts = 0;
  std::vector<std::uint64_t> txn_times;

  std::map<std::string, std::uint64_t> last_response_ts;
};

/// The node of `host`, added when absent, through a string-keyed index (the
/// production fold interns hosts in WcgBuilder instead).
dm::graph::NodeId add_host(State& s, const std::string& host) {
  if (const auto it = s.host_index.find(host); it != s.host_index.end()) {
    return it->second;
  }
  const auto id = s.wcg.add_node(host);
  s.host_index.emplace(host, id);
  return id;
}

/// Host component of a (possibly absolute-URL) referrer value, lower-cased.
std::string referrer_host(std::string_view referrer) {
  const std::string host = dm::http::host_of_url(referrer);
  if (!host.empty()) return host;
  const auto trimmed = dm::util::trim(referrer);
  if (!trimmed.empty() && trimmed.find('/') == std::string_view::npos) {
    return dm::util::to_lower(trimmed);
  }
  return {};
}

PayloadType payload_of(const HttpTransaction& txn) {
  if (!txn.response) return PayloadType::kNone;
  return dm::http::classify_payload(
      txn.response->content_type().value_or(""), txn.request.uri);
}

Stage stage_of(const HttpTransaction& txn, const State& s) {
  const std::uint64_t ts = txn.request.ts_micros;
  const int code = txn.response ? txn.response->status_code : 0;
  const bool before_first_download =
      s.first_exploit_ts == 0 || ts < s.first_exploit_ts;
  if (txn.request.method == "GET" && before_first_download &&
      code >= 300 && code < 400) {
    return Stage::kPreDownload;
  }
  if (txn.request.method == "POST" &&
      s.exploit_hosts.find(txn.server_host) == s.exploit_hosts.end() &&
      s.first_exploit_ts != 0 && ts > s.last_exploit_ts &&
      (code == 200 || (code >= 400 && code < 500))) {
    return Stage::kPostDownload;
  }
  return Stage::kDownload;
}

std::uint32_t longest_chain(
    const std::map<std::string, std::set<std::string>>& redirect_adj) {
  constexpr std::uint32_t kDepthCap = 64;
  struct Dfs {
    const std::map<std::string, std::set<std::string>>& adj;
    std::set<std::string> on_path;
    std::uint32_t best = 0;

    void run(const std::string& host, std::uint32_t depth) {
      best = std::max(best, depth);
      if (depth >= kDepthCap) return;
      const auto it = adj.find(host);
      if (it == adj.end()) return;
      for (const auto& next : it->second) {
        if (on_path.insert(next).second) {
          run(next, depth + 1);
          on_path.erase(next);
        }
      }
    }
  };
  Dfs dfs{redirect_adj, {}, 0};
  for (const auto& [host, targets] : redirect_adj) {
    dfs.on_path = {host};
    dfs.run(host, 0);
  }
  return dfs.best;
}

void add_redirect_edge(State& s, const std::string& from_host,
                       const std::string& to_host, std::uint64_t ts) {
  if (from_host.empty() || to_host.empty() || from_host == to_host) return;
  auto& ann = s.wcg.annotations();
  const auto from_id = add_host(s, from_host);
  const auto to_id = add_host(s, to_host);
  WcgEdge edge;
  edge.kind = EdgeKind::kRedirect;
  edge.ts_micros = ts;
  edge.stage = (s.first_exploit_ts == 0 || ts < s.first_exploit_ts)
                   ? Stage::kPreDownload
                   : Stage::kDownload;
  s.wcg.add_edge(from_id, to_id, edge);
  s.redirect_adj[from_host].insert(to_host);
  s.redirect_ts.push_back(ts);
  for (const std::string* host : {&from_host, &to_host}) {
    if (s.redirect_hosts.insert(*host).second) {
      const auto tld = top_level_domain(*host);
      if (!tld.empty()) s.redirect_tlds.insert(std::string(tld));
    }
  }
  ++ann.total_redirects;
  if (registrable_domain(from_host) != registrable_domain(to_host)) {
    ++ann.cross_domain_redirects;
  }
}

void prologue(State& s, const std::vector<HttpTransaction>& txns) {
  auto& ann = s.wcg.annotations();
  for (const auto& txn : txns) {
    if (!dm::http::is_exploit_type(payload_of(txn))) continue;
    const std::uint64_t ts = txn.response->ts_micros;
    if (s.first_exploit_ts == 0 || ts < s.first_exploit_ts) {
      s.first_exploit_ts = ts;
    }
    s.last_exploit_ts = std::max(s.last_exploit_ts, ts);
    s.exploit_hosts.insert(txn.server_host);
  }
  for (const auto& txn : txns) s.conversation_hosts.insert(txn.server_host);
  for (const auto& txn : txns) {
    if (const auto ref = txn.request.referrer()) {
      const std::string host = referrer_host(*ref);
      if (!host.empty() &&
          s.conversation_hosts.find(host) == s.conversation_hosts.end()) {
        s.origin_name = host;
        break;
      }
    }
  }
  ann.origin_known = s.origin_name != "empty";
  s.origin_id = add_host(s, s.origin_name);
  s.wcg.node(s.origin_id).type = NodeType::kOrigin;
  s.wcg.set_origin(s.origin_id);

  const HttpTransaction& first = txns.front();
  s.victim_id = add_host(s, first.client_host);
  s.wcg.node(s.victim_id).type = NodeType::kVictim;
  s.wcg.node(s.victim_id).ip = first.client_host;
  s.wcg.set_victim(s.victim_id);

  if (ann.origin_known) {
    WcgEdge entice;
    entice.kind = EdgeKind::kRedirect;
    entice.stage = Stage::kPreDownload;
    entice.ts_micros = first.request.ts_micros;
    s.wcg.add_edge(s.origin_id, s.victim_id, entice);
  }
  s.first_ts = first.request.ts_micros;
  s.last_ts = s.first_ts;
}

void fold(const BuilderOptions& options, State& s, const HttpTransaction& txn) {
  Wcg& wcg = s.wcg;
  auto& ann = wcg.annotations();

  const auto server_id = add_host(s, txn.server_host);
  if (wcg.node(server_id).ip.empty()) wcg.node(server_id).ip = txn.server_ip;
  wcg.add_uri(server_id, txn.request.uri);

  const Stage stage = stage_of(txn, s);
  const std::uint64_t req_ts = txn.request.ts_micros;
  if (stage == Stage::kPostDownload) ann.has_post_download_stage = true;
  s.txn_times.push_back(req_ts);
  s.first_ts = std::min(s.first_ts, req_ts);
  s.last_ts = std::max(s.last_ts, req_ts);

  WcgEdge req;
  req.kind = EdgeKind::kRequest;
  req.stage = stage;
  req.ts_micros = req_ts;
  req.method = txn.request.method;
  req.uri_length = static_cast<std::uint32_t>(txn.request.uri.size());
  req.has_referrer = txn.request.referrer().has_value();
  wcg.add_edge(s.victim_id, server_id, req);

  if (txn.request.method == "GET") ++ann.get_count;
  else if (txn.request.method == "POST") ++ann.post_count;
  else ++ann.other_method_count;
  if (req.has_referrer) ++ann.referrer_count;
  else ++ann.no_referrer_count;
  if (const auto dnt = txn.request.headers.get("DNT"); dnt && *dnt == "1") {
    ann.do_not_track = true;
  }
  if (const auto xf = txn.request.headers.get("X-Flash-Version")) {
    ann.x_flash_version_set = true;
    ann.x_flash_version = std::string(*xf);
  }

  if (txn.response) {
    const auto& res = *txn.response;
    const std::uint64_t res_ts = res.ts_micros ? res.ts_micros : req_ts;
    s.last_ts = std::max(s.last_ts, res_ts);
    WcgEdge resp;
    resp.kind = EdgeKind::kResponse;
    resp.stage = stage;
    resp.ts_micros = res_ts;
    resp.response_code = res.status_code;
    resp.payload_type = payload_of(txn);
    resp.payload_size = res.body.size();
    wcg.add_edge(server_id, s.victim_id, resp);

    const int cls = res.status_code / 100;
    if (cls >= 1 && cls <= 5) ++ann.response_class_counts[cls - 1];
    if (resp.payload_type != PayloadType::kNone && !res.body.empty()) {
      ++ann.payload_count;
      ann.total_payload_bytes += resp.payload_size;
      ++ann.payload_type_counts[resp.payload_type];
      ++wcg.node(server_id).payloads_served[resp.payload_type];
    }
    s.last_response_ts[txn.server_host] = res_ts;

    for (const auto& evidence : dm::http::mine_redirects(txn, options.miner)) {
      if (options.trusted.is_trusted(evidence.target_host)) continue;
      add_redirect_edge(s, txn.server_host, evidence.target_host, res_ts);
    }
  }

  if (const auto ref = txn.request.referrer();
      ref && options.referrer_timing_redirects) {
    const std::string ref_host = referrer_host(*ref);
    if (!ref_host.empty() && ref_host != txn.server_host &&
        s.conversation_hosts.find(ref_host) != s.conversation_hosts.end()) {
      const auto it = s.last_response_ts.find(ref_host);
      if (it != s.last_response_ts.end() && req_ts >= it->second) {
        const double delay_s = static_cast<double>(req_ts - it->second) / 1e6;
        if (delay_s <= options.referrer_redirect_max_delay_s &&
            !wcg.graph().has_edge(s.host_index.at(ref_host), server_id)) {
          add_redirect_edge(s, ref_host, txn.server_host, req_ts);
        }
      }
    }
  }
  ++s.folded;
}

/// Mean gap between successive sorted timestamps, accumulated left to
/// right.
double mean_gap_s(std::vector<std::uint64_t> ts) {
  if (ts.size() < 2) return 0.0;
  std::sort(ts.begin(), ts.end());
  double total = 0.0;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    total += static_cast<double>(ts[i] - ts[i - 1]) / 1e6;
  }
  return total / static_cast<double>(ts.size() - 1);
}

void finalize(State& s) {
  Wcg& wcg = s.wcg;
  auto& ann = wcg.annotations();
  for (dm::graph::NodeId id = 0; id < wcg.node_count(); ++id) {
    WcgNode& node = wcg.node(id);
    if (node.type == NodeType::kVictim || node.type == NodeType::kOrigin) continue;
    if (s.exploit_hosts.count(node.host) > 0) {
      node.type = NodeType::kMalicious;
    } else if (node.uris.empty() && s.redirect_hosts.count(node.host) > 0) {
      node.type = NodeType::kIntermediary;
    } else {
      node.type = NodeType::kRemote;
    }
  }
  ann.transaction_count = static_cast<std::uint32_t>(s.folded);
  ann.longest_redirect_chain = longest_chain(s.redirect_adj);
  ann.tld_diversity = static_cast<std::uint32_t>(s.redirect_tlds.size());
  ann.avg_redirect_delay_s = mean_gap_s(s.redirect_ts);
  ann.duration_s = static_cast<double>(s.last_ts - s.first_ts) / 1e6;
  ann.avg_inter_transaction_s = mean_gap_s(s.txn_times);
  ann.has_download_stage = s.first_exploit_ts != 0;
}

}  // namespace

Wcg build_wcg(const std::vector<HttpTransaction>& transactions,
              const BuilderOptions& options) {
  std::vector<HttpTransaction> kept;
  for (const auto& txn : transactions) {
    if (txn.server_host.empty()) continue;
    if (options.trusted.is_trusted(txn.server_host)) continue;
    kept.push_back(txn);
  }
  State s;
  if (kept.empty()) return std::move(s.wcg);
  prologue(s, kept);
  for (const auto& txn : kept) fold(options, s, txn);
  finalize(s);
  return std::move(s.wcg);
}

}  // namespace dm::core::oracle
