#include "core/wcg_builder.h"

#include <algorithm>
#include <array>
#include <optional>

#include "util/strings.h"

namespace dm::core {
namespace {

using detail::HostId;
using detail::kNoHost;
using detail::WcgBuildState;
using SharedEntry = std::shared_ptr<const WcgBuilder::Entry>;
using dm::graph::NodeId;
using dm::http::HttpTransaction;
using dm::http::PayloadType;
using dm::util::registrable_domain;
using dm::util::top_level_domain;

constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

/// `name`'s HostId, interned on first sight.  `name` must stay valid as
/// long as the state: a view into a stored entry, or a literal.
HostId intern(WcgBuildState& s, std::string_view name) {
  const auto [it, inserted] =
      s.host_ids.try_emplace(name, static_cast<HostId>(s.hosts.size()));
  if (inserted) s.hosts.push_back({.name = name});
  return it->second;
}

/// A transaction build_wcg folds in place, with its derived inputs.
struct Borrowed {
  const HttpTransaction* txn;
  FoldInputs inputs;
};

// The engine below reads transactions through these, so it runs over a
// builder's shared entries and over build_wcg's borrowed transactions.
const HttpTransaction& txn_of(const SharedEntry& entry) { return entry->txn; }
const FoldInputs& inputs_of(const SharedEntry& entry) { return entry->inputs; }
const HttpTransaction& txn_of(const Borrowed& entry) { return *entry.txn; }
const FoldInputs& inputs_of(const Borrowed& entry) { return entry.inputs; }

/// Interns the hosts of every entry not interned yet.  Precondition: at
/// least one entry, and `entries` stay in place while the state is used.
template <typename Seq>
void intern_entries(WcgBuildState& s, const Seq& entries) {
  if (s.empty_host == kNoHost) {
    s.entry_hosts.reserve(entries.size());
    s.hosts.reserve(entries.size() + 2);
    s.empty_host = intern(s, "empty");
    s.victim_host = intern(s, txn_of(entries.front()).client_host);
  }
  for (std::size_t i = s.entry_hosts.size(); i < entries.size(); ++i) {
    const FoldInputs& inputs = inputs_of(entries[i]);
    WcgBuildState::EntryHosts hosts;
    hosts.server = intern(s, txn_of(entries[i]).server_host);
    s.hosts[hosts.server].conversation = true;
    if (const auto ref = inputs.origin_referrer_host(); !ref.empty()) {
      hosts.referrer = intern(s, ref);
    }
    hosts.redirects_begin = static_cast<std::uint32_t>(s.redirect_targets.size());
    for (const auto& target : inputs.redirect_hosts) {
      s.redirect_targets.push_back(intern(s, target));
    }
    hosts.redirects_end = static_cast<std::uint32_t>(s.redirect_targets.size());
    s.entry_hosts.push_back(hosts);
  }
}

/// Node of `host`, added on first use (so nodes keep first-use order).
NodeId node_of(WcgBuildState& s, HostId host) {
  WcgBuildState::Host& h = s.hosts[host];
  if (h.node == dm::graph::kInvalidNode) {
    h.node = s.wcg.add_node(h.name);
    s.node_hosts.push_back(host);
  }
  return h.node;
}

bool is_trusted(const BuilderOptions& options, WcgBuildState::Host& host) {
  if (host.trust == 0) host.trust = options.trusted.is_trusted(host.name) ? 1 : 2;
  return host.trust == 1;
}

/// Inserts `value` into the sorted, duplicate-free `v`.
template <typename T>
void insert_sorted_unique(std::vector<T>& v, const T& value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it == v.end() || *it != value) v.insert(it, value);
}

/// Empties the fold state (the interned hosts stay), keeping capacity.
void reset_fold(WcgBuildState& s) noexcept {
  for (auto& host : s.hosts) {
    host.node = dm::graph::kInvalidNode;
    host.exploit = false;
    host.redirect = false;
    host.responded = false;
    host.last_response_ts = 0;
  }
  s.wcg.clear();
  s.folded = 0;
  s.node_hosts.clear();
  s.first_exploit_ts = 0;
  s.last_exploit_ts = 0;
  s.origin_host = kNoHost;
  s.origin_from_referrer = false;
  s.origin_id = dm::graph::kInvalidNode;
  s.victim_id = dm::graph::kInvalidNode;
  s.redirect_pairs.clear();
  s.redirect_tlds.clear();
  s.redirect_ts.clear();
  s.redirect_delay_total_s = 0.0;
  s.redirect_ts_unsorted = false;
  s.first_ts = 0;
  s.last_ts = 0;
  s.txn_times.clear();
  s.inter_txn_total_s = 0.0;
  s.txn_times_unsorted = false;
  s.x_flash_entry = kNoEntry;
}

/// Stage assignment per §III-C: GET with no prior exploit download and a
/// 30x answer -> pre-download; POST to a non-exploit host answered 200/40x
/// after the first download -> post-download; everything else -> download.
/// The download timeline lives in the build state and is *frozen* between
/// re-folds: a transaction that would change it forces a full re-fold, so
/// incremental stage assignment always sees the same timeline build() would.
Stage stage_of(const HttpTransaction& txn, const WcgBuildState& s,
               bool exploit_server) {
  const std::uint64_t ts = txn.request.ts_micros;
  const int code = txn.response ? txn.response->status_code : 0;
  const bool before_first_download =
      s.first_exploit_ts == 0 || ts < s.first_exploit_ts;

  if (txn.request.method == "GET" && before_first_download &&
      code >= 300 && code < 400) {
    return Stage::kPreDownload;
  }
  if (txn.request.method == "POST" && !exploit_server &&
      s.first_exploit_ts != 0 && ts > s.last_exploit_ts &&
      (code == 200 || (code >= 400 && code < 500))) {
    return Stage::kPostDownload;
  }
  return Stage::kDownload;
}

/// Longest simple path (in edges) through the redirect graph, given as its
/// sorted distinct (from, to) pairs.  Redirect subgraphs are tiny
/// chains/trees, so a depth-capped DFS is fine; it enumerates every simple
/// path up to the cap, so the result does not depend on visiting order.
std::uint32_t longest_chain(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  constexpr std::uint32_t kDepthCap = 64;

  struct Dfs {
    const std::vector<std::pair<NodeId, NodeId>>& pairs;
    std::array<NodeId, kDepthCap + 1> path{};  // path[0..depth]
    std::uint32_t best = 0;

    void run(NodeId node, std::uint32_t depth) {
      best = std::max(best, depth);
      if (depth >= kDepthCap) return;
      auto it = std::lower_bound(pairs.begin(), pairs.end(),
                                 std::pair<NodeId, NodeId>{node, 0});
      for (; it != pairs.end() && it->first == node; ++it) {
        const NodeId next = it->second;
        const auto on_path = path.begin() + depth + 1;
        if (std::find(path.begin(), on_path, next) != on_path) continue;
        path[depth + 1] = next;
        run(next, depth + 1);
      }
    }
  };

  Dfs dfs{pairs};
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0 && pairs[i].first == pairs[i - 1].first) continue;
    dfs.path[0] = pairs[i].first;
    dfs.run(pairs[i].first, 0);
  }
  return dfs.best;
}

void add_redirect_edge(WcgBuildState& s, HostId from, HostId to,
                       std::uint64_t ts) {
  const std::string_view from_name = s.hosts[from].name;
  const std::string_view to_name = s.hosts[to].name;
  if (from_name.empty() || to_name.empty() || from == to) return;
  auto& ann = s.wcg.annotations();
  const auto from_id = node_of(s, from);
  const auto to_id = node_of(s, to);
  WcgEdge edge;
  edge.kind = EdgeKind::kRedirect;
  edge.ts_micros = ts;
  edge.stage = (s.first_exploit_ts == 0 || ts < s.first_exploit_ts)
                   ? Stage::kPreDownload
                   : Stage::kDownload;
  s.wcg.add_edge(from_id, to_id, edge);
  insert_sorted_unique(s.redirect_pairs, {from_id, to_id});

  // Running avg-delay total: as long as timestamps arrive in order, each
  // append performs exactly the next iteration of the from-scratch
  // sort-then-accumulate loop (same operand order, so bit-identical).  An
  // out-of-order timestamp flips the dirty flag; finalize() then re-sorts
  // and replays the whole loop.
  if (!s.redirect_ts.empty()) {
    if (ts < s.redirect_ts.back()) {
      s.redirect_ts_unsorted = true;
    } else if (!s.redirect_ts_unsorted) {
      s.redirect_delay_total_s +=
          static_cast<double>(ts - s.redirect_ts.back()) / 1e6;
    }
  }
  s.redirect_ts.push_back(ts);

  for (const HostId host : {from, to}) {
    if (s.hosts[host].redirect) continue;
    s.hosts[host].redirect = true;
    const auto tld = top_level_domain(s.hosts[host].name);
    if (!tld.empty()) insert_sorted_unique(s.redirect_tlds, tld);
  }
  ++ann.total_redirects;
  if (registrable_domain(from_name) != registrable_domain(to_name)) {
    ++ann.cross_domain_redirects;
  }
}

/// One-time setup for a (re-)fold: download timeline, origin and victim
/// nodes, entice edge.  Precondition: every entry interned, fold state
/// reset.
template <typename Seq>
void prologue(WcgBuildState& s, const Seq& entries) {
  auto& ann = s.wcg.annotations();
  // Upper bounds: every interned host; a request and a response edge per
  // transaction, each redirect target and the entice edge.
  s.wcg.reserve(s.hosts.size(),
                2 * entries.size() + s.redirect_targets.size() + 1);
  s.node_hosts.reserve(s.hosts.size());
  s.txn_times.reserve(entries.size());
  s.redirect_ts.reserve(s.redirect_targets.size());
  s.redirect_pairs.reserve(s.redirect_targets.size());

  // Download timeline (fixed for this fold; see stage_of).
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!dm::http::is_exploit_type(inputs_of(entries[i]).payload)) continue;
    const std::uint64_t ts = txn_of(entries[i]).response->ts_micros;
    if (s.first_exploit_ts == 0 || ts < s.first_exploit_ts) {
      s.first_exploit_ts = ts;
    }
    s.last_exploit_ts = std::max(s.last_exploit_ts, ts);
    s.hosts[s.entry_hosts[i].server].exploit = true;
  }

  // ---- Origin node -------------------------------------------------------
  // The enticement source is the referrer of the earliest transaction whose
  // referrer host is outside the conversation (§III-B "origin node").
  s.origin_host = s.empty_host;
  for (const auto& hosts : s.entry_hosts) {
    if (hosts.referrer != kNoHost && !s.hosts[hosts.referrer].conversation) {
      s.origin_host = hosts.referrer;
      s.origin_from_referrer = true;
      break;
    }
  }
  ann.origin_known = s.origin_host != s.empty_host;
  s.origin_id = node_of(s, s.origin_host);
  s.wcg.node(s.origin_id).type = NodeType::kOrigin;
  s.wcg.set_origin(s.origin_id);

  // ---- Victim node -------------------------------------------------------
  const HttpTransaction& first = txn_of(entries.front());
  s.victim_id = node_of(s, s.victim_host);
  s.wcg.node(s.victim_id).type = NodeType::kVictim;
  s.wcg.node(s.victim_id).ip = first.client_host;
  s.wcg.set_victim(s.victim_id);

  // Origin enticed the victim into the conversation.
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

/// Extends the state by the next transaction (interned).  The single
/// per-transaction code path shared by build(), current() and build_wcg —
/// equivalence by construction.
void fold(const BuilderOptions& options, WcgBuildState& s,
          const HttpTransaction& txn, const FoldInputs& inputs) {
  const WcgBuildState::EntryHosts hosts = s.entry_hosts[s.folded];
  Wcg& wcg = s.wcg;
  auto& ann = wcg.annotations();

  const auto server_id = node_of(s, hosts.server);
  if (wcg.node(server_id).ip.empty()) wcg.node(server_id).ip = txn.server_ip;
  wcg.add_uri(server_id, txn.request.uri);

  const Stage stage = stage_of(txn, s, s.hosts[hosts.server].exploit);
  const std::uint64_t req_ts = txn.request.ts_micros;
  if (stage == Stage::kPostDownload) ann.has_post_download_stage = true;

  // Running inter-transaction total; same dirty-flag scheme as redirects.
  if (!s.txn_times.empty()) {
    if (req_ts < s.txn_times.back()) {
      s.txn_times_unsorted = true;
    } else if (!s.txn_times_unsorted) {
      s.inter_txn_total_s +=
          static_cast<double>(req_ts - s.txn_times.back()) / 1e6;
    }
  }
  s.txn_times.push_back(req_ts);
  s.first_ts = std::min(s.first_ts, req_ts);
  s.last_ts = std::max(s.last_ts, req_ts);

  // Request edge: victim -> server.
  WcgEdge req;
  req.kind = EdgeKind::kRequest;
  req.stage = stage;
  req.ts_micros = req_ts;
  req.method = txn.request.method;
  req.uri_length = static_cast<std::uint32_t>(txn.request.uri.size());
  req.has_referrer = inputs.has_referrer;
  wcg.add_edge(s.victim_id, server_id, req);

  // Header tallies.
  if (txn.request.method == "GET") ++ann.get_count;
  else if (txn.request.method == "POST") ++ann.post_count;
  else ++ann.other_method_count;
  if (req.has_referrer) ++ann.referrer_count;
  else ++ann.no_referrer_count;
  if (inputs.do_not_track) ann.do_not_track = true;
  if (inputs.has_x_flash_version) s.x_flash_entry = s.folded;

  // Response edge: server -> victim.
  if (txn.response) {
    const auto& res = *txn.response;
    const std::uint64_t res_ts = res.ts_micros ? res.ts_micros : req_ts;
    s.last_ts = std::max(s.last_ts, res_ts);
    WcgEdge resp;
    resp.kind = EdgeKind::kResponse;
    resp.stage = stage;
    resp.ts_micros = res_ts;
    resp.response_code = res.status_code;
    resp.payload_type = inputs.payload;
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
    s.hosts[hosts.server].last_response_ts = res_ts;
    s.hosts[hosts.server].responded = true;

    // Explicit redirect evidence: Location header / meta / iframe / JS,
    // including the de-obfuscated layers.
    for (auto k = hosts.redirects_begin; k < hosts.redirects_end; ++k) {
      const HostId target = s.redirect_targets[k];
      if (is_trusted(options, s.hosts[target])) continue;
      add_redirect_edge(s, hosts.server, target, res_ts);
    }
  }

  // Referer-chain redirect: the referrer names another conversation host
  // and this request followed that host's response almost immediately.
  // Needs the *full* conversation-host set, so enabling it forces current()
  // into refold-per-call mode (see BuilderOptions).
  if (options.referrer_timing_redirects && hosts.referrer != kNoHost &&
      hosts.referrer != hosts.server) {
    const WcgBuildState::Host& ref = s.hosts[hosts.referrer];
    if (ref.conversation && ref.responded && req_ts >= ref.last_response_ts) {
      const double delay_s =
          static_cast<double>(req_ts - ref.last_response_ts) / 1e6;
      if (delay_s <= options.referrer_redirect_max_delay_s &&
          !wcg.graph().has_edge(ref.node, server_id)) {
        add_redirect_edge(s, hosts.referrer, hosts.server, req_ts);
      }
    }
  }

  ++s.folded;
}

/// Derives every annotation that depends on the whole state.  Idempotent —
/// current() re-runs it after each incremental fold.  Cost is O(nodes +
/// redirect subgraph), independent of the transaction count.
template <typename Seq>
void finalize(WcgBuildState& s, const Seq& entries) {
  Wcg& wcg = s.wcg;
  auto& ann = wcg.annotations();

  // Node typing: a pure function of (uris, redirect participation, exploit
  // hosts), re-applied from scratch each time so that e.g. an intermediary
  // that later receives a direct request reverts to remote exactly as a
  // from-scratch build would type it.
  for (NodeId id = 0; id < wcg.node_count(); ++id) {
    WcgNode& node = wcg.node(id);
    if (node.type == NodeType::kVictim || node.type == NodeType::kOrigin) continue;
    const WcgBuildState::Host& host = s.hosts[s.node_hosts[id]];
    if (host.exploit) {
      node.type = NodeType::kMalicious;
    } else if (node.uris.empty() && host.redirect) {
      node.type = NodeType::kIntermediary;  // only chains, never queried
    } else {
      node.type = NodeType::kRemote;
    }
  }

  if (s.x_flash_entry != kNoEntry) {
    ann.x_flash_version_set = true;
    ann.x_flash_version = txn_of(entries[s.x_flash_entry])
                              .request.headers.get("X-Flash-Version")
                              .value_or("");
  }
  ann.transaction_count = static_cast<std::uint32_t>(s.folded);
  ann.longest_redirect_chain = longest_chain(s.redirect_pairs);
  ann.tld_diversity = static_cast<std::uint32_t>(s.redirect_tlds.size());

  if (s.redirect_ts_unsorted) {
    std::sort(s.redirect_ts.begin(), s.redirect_ts.end());
    s.redirect_delay_total_s = 0.0;
    for (std::size_t i = 1; i < s.redirect_ts.size(); ++i) {
      s.redirect_delay_total_s +=
          static_cast<double>(s.redirect_ts[i] - s.redirect_ts[i - 1]) / 1e6;
    }
    s.redirect_ts_unsorted = false;
  }
  ann.avg_redirect_delay_s =
      s.redirect_ts.size() >= 2
          ? s.redirect_delay_total_s /
                static_cast<double>(s.redirect_ts.size() - 1)
          : 0.0;

  ann.duration_s = static_cast<double>(s.last_ts - s.first_ts) / 1e6;

  if (s.txn_times_unsorted) {
    std::sort(s.txn_times.begin(), s.txn_times.end());
    s.inter_txn_total_s = 0.0;
    for (std::size_t i = 1; i < s.txn_times.size(); ++i) {
      s.inter_txn_total_s +=
          static_cast<double>(s.txn_times[i] - s.txn_times[i - 1]) / 1e6;
    }
    s.txn_times_unsorted = false;
  }
  ann.avg_inter_transaction_s =
      s.txn_times.size() >= 2
          ? s.inter_txn_total_s / static_cast<double>(s.txn_times.size() - 1)
          : 0.0;

  ann.has_download_stage = s.first_exploit_ts != 0;
}

/// Re-folds every transaction into the reset state.  Precondition: every
/// entry interned, at least one.
template <typename Seq>
void refold(const BuilderOptions& options, WcgBuildState& s,
            const Seq& entries) {
  reset_fold(s);
  prologue(s, entries);
  for (const auto& entry : entries) {
    fold(options, s, txn_of(entry), inputs_of(entry));
  }
}

/// False for transactions every builder weeds out: no server host, or a
/// trusted vendor's.
bool admissible(const BuilderOptions& options, const HttpTransaction& txn) {
  return !txn.server_host.empty() && !options.trusted.is_trusted(txn.server_host);
}

/// One immutable default-options instance shared by every
/// default-constructed builder (refcount bumps are the only per-builder
/// cost; atomic, so concurrent shard threads may default-construct freely).
const std::shared_ptr<const BuilderOptions>& shared_default_options() {
  static const std::shared_ptr<const BuilderOptions> instance =
      std::make_shared<const BuilderOptions>();
  return instance;
}

}  // namespace

WcgBuilder::WcgBuilder() : options_(shared_default_options()) {}

WcgBuilder::WcgBuilder(BuilderOptions options)
    : options_(std::make_shared<const BuilderOptions>(std::move(options))) {}

WcgBuilder::WcgBuilder(std::shared_ptr<const BuilderOptions> options)
    : options_(options != nullptr ? std::move(options)
                                  : shared_default_options()) {}

FoldInputs derive_fold_inputs(const HttpTransaction& txn,
                              const dm::http::RedirectMinerOptions& miner) {
  FoldInputs inputs;
  // One pass over the request headers; the first of each name counts, as
  // with Headers::get.
  std::optional<std::string_view> referrer;
  std::optional<std::string_view> dnt;
  for (const auto& header : txn.request.headers.all()) {
    if (!referrer && dm::util::iequals(header.name, "Referer")) {
      referrer = header.value;
    } else if (!dnt && dm::util::iequals(header.name, "DNT")) {
      dnt = header.value;
    } else if (dm::util::iequals(header.name, "X-Flash-Version")) {
      inputs.has_x_flash_version = true;
    }
  }
  inputs.do_not_track = dnt && *dnt == "1";
  if (referrer) {
    inputs.has_referrer = true;
    inputs.referrer_host = dm::http::host_of_url(*referrer);
    // Bare hostname referrers occur in the wild; the origin rule accepts
    // them when they look like a hostname.
    const auto trimmed = dm::util::trim(*referrer);
    if (inputs.referrer_host.empty() && !trimmed.empty() &&
        trimmed.find('/') == std::string_view::npos) {
      inputs.bare_referrer_host = dm::util::to_lower(trimmed);
    }
  }
  if (!txn.response) return inputs;
  inputs.payload = dm::http::classify_payload(
      txn.response->content_type().value_or(""), txn.request.uri);
  for (auto& evidence : dm::http::mine_redirects(txn, miner)) {
    inputs.redirect_hosts.push_back(std::move(evidence.target_host));
  }
  return inputs;
}

bool WcgBuilder::add(HttpTransaction transaction) {
  if (!admissible(*options_, transaction)) return false;
  FoldInputs inputs = derive_fold_inputs(transaction, options_->miner);
  entries_.push_back(std::make_shared<const Entry>(
      Entry{std::move(transaction), std::move(inputs)}));
  return true;
}

bool WcgBuilder::add(std::shared_ptr<const Entry> entry) {
  if (!admissible(*options_, entry->txn)) return false;
  entries_.push_back(std::move(entry));
  return true;
}

Wcg WcgBuilder::build() const {
  detail::WcgBuildState state;
  if (entries_.empty()) return std::move(state.wcg);
  intern_entries(state, entries_);
  refold(*options_, state, entries_);
  finalize(state, entries_);
  return std::move(state.wcg);
}

bool WcgBuilder::requires_refold() const {
  // The referrer-timing rule lets a late transaction create an edge whose
  // existence depends on hosts seen even later; incremental folding cannot
  // honor that, so the option pins current() to refold-per-call.
  if (options_->referrer_timing_redirects) return true;

  const detail::WcgBuildState& s = state_;
  for (std::size_t i = s.folded; i < entries_.size(); ++i) {
    // A new exploit download moves the timeline: stages (and node typing)
    // of already-folded transactions may change.
    if (dm::http::is_exploit_type(entries_[i]->inputs.payload)) return true;
    // The chosen origin's referrer host just joined the conversation, so
    // the origin scan would now pick a different source (or "empty").
    if (s.origin_from_referrer && s.entry_hosts[i].server == s.origin_host) {
      return true;
    }
  }

  if (!s.origin_from_referrer) {
    // No enticement source so far: does any pending transaction carry a
    // referrer that stays outside the conversation hosts, pending ones
    // included (interning already counted them)?
    for (std::size_t i = s.folded; i < entries_.size(); ++i) {
      const HostId ref = s.entry_hosts[i].referrer;
      if (ref != kNoHost && !s.hosts[ref].conversation) return true;
    }
  }
  return false;
}

const Wcg& WcgBuilder::current() {
  const std::size_t n = entries_.size();
  if (state_.folded == n) return state_.wcg;  // finalized by the last call

  intern_entries(state_, entries_);
  if (state_.folded == 0 || requires_refold()) {
    if (state_.folded > 0) ++full_refolds_;
    const std::uint64_t prev_version = state_.wcg.topology_version();
    refold(*options_, state_, entries_);
    // The graph object kept its address but was rebuilt; keep the version
    // strictly increasing so (pointer, version) cache keys stay sound.
    state_.wcg.ensure_topology_version_above(prev_version);
  } else {
    for (std::size_t i = state_.folded; i < n; ++i) {
      fold(*options_, state_, entries_[i]->txn, entries_[i]->inputs);
    }
  }
  finalize(state_, entries_);
  return state_.wcg;
}

void WcgBuilder::clear() noexcept {
  entries_.clear();
  state_.host_ids.clear();
  state_.hosts.clear();
  state_.entry_hosts.clear();
  state_.redirect_targets.clear();
  state_.empty_host = kNoHost;
  state_.victim_host = kNoHost;
  reset_fold(state_);
  full_refolds_ = 0;
}

Wcg build_wcg(const std::vector<HttpTransaction>& transactions,
              const BuilderOptions& options) {
  // Same fold as WcgBuilder::build(), over the caller's transactions in
  // place: nothing is copied or stored beyond the derived inputs.
  std::vector<Borrowed> kept;
  kept.reserve(transactions.size());
  for (const auto& txn : transactions) {
    if (admissible(options, txn)) {
      kept.push_back({&txn, derive_fold_inputs(txn, options.miner)});
    }
  }
  detail::WcgBuildState state;
  if (kept.empty()) return std::move(state.wcg);
  intern_entries(state, kept);
  refold(options, state, kept);
  finalize(state, kept);
  return std::move(state.wcg);
}

}  // namespace dm::core
