// WCG construction from a time-ordered HTTP transaction stream (§III-B).
//
// The builder:
//  * weeds out transactions to trusted software vendors (§V-B noise rule),
//  * adds the synthetic origin node from the first transaction's referrer
//    ("empty" when the referrer was stripped),
//  * creates request/response edges between the victim and each host,
//  * infers redirect edges from Location headers, Referer chaining under a
//    short-delay rule (automatic redirects are fast; human clicks are slow),
//    and the obfuscated-JS/meta/iframe miner (§III-D),
//  * assigns each edge a conversation stage — pre-download / download /
//    post-download — using the paper's §III-C heuristics, and
//  * fills the graph-level annotations that the 37 features consume.
//
// Two evaluation modes share one fold engine (see wcg_builder.cpp):
//
//  * build() — the from-scratch reference: materializes a fresh WCG from
//    every transaction added so far.  Pure, repeatable, O(n) per call.
//  * current() — the incremental hot path: maintains a persistent WCG and
//    folds only the transactions added since the previous call.  A small
//    set of retroactive events (a new exploit download re-staging earlier
//    edges, the origin node being invalidated by a new conversation host)
//    trigger a transparent full re-fold, so current() is always
//    bit-identical to build() — the property the on-the-wire engine's
//    incremental-vs-rebuild determinism guarantee rests on.
#pragma once

#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/wcg.h"
#include "core/whitelist.h"
#include "http/message.h"
#include "http/redirect_miner.h"

namespace dm::core {

struct BuilderOptions {
  /// Trusted-vendor weed-out list; use TrustedVendors::none() to disable.
  TrustedVendors trusted = TrustedVendors::default_list();
  /// Optional heuristic: treat a Referer-chain transition faster than the
  /// delay below as an automatic redirect even without explicit evidence.
  /// Off by default — sub-resource fetches (page -> CDN) also follow their
  /// referrer within milliseconds, so the bare timing rule manufactures
  /// redirect structure in benign graphs; explicit evidence (Location,
  /// meta-refresh, iframe, mined JavaScript) is the reliable signal.
  /// Enabling it also disables incremental folding (the rule makes early
  /// edges depend on hosts seen later), so current() degrades to a full
  /// re-fold per call.
  bool referrer_timing_redirects = false;
  double referrer_redirect_max_delay_s = 2.0;
  dm::http::RedirectMinerOptions miner;
};

/// What folding one transaction needs beyond the transaction itself: the
/// payload class of its response, the hosts its response redirects to
/// (Location, meta, iframe and de-obfuscated JavaScript evidence, in
/// mining order), the referrer's host that the online detector's grouping
/// and scope rules read, and the request-header facts the graph
/// annotations count.  All are pure functions of the transaction and the
/// miner options, so they are derived once per transaction and kept next
/// to it: a re-fold reads them instead of re-running the miner or
/// re-scanning headers.
struct FoldInputs {
  /// classify_payload of the response; kNone without a response.
  dm::http::PayloadType payload = dm::http::PayloadType::kNone;
  /// target_host of each mine_redirects result; empty without a response.
  std::vector<std::string> redirect_hosts;
  /// http::host_of_url of the Referer; empty without one or when it is not
  /// an absolute URL.
  std::string referrer_host;
  /// A Referer that is a bare hostname (no scheme, no '/'), trimmed and
  /// lower-cased; set only when referrer_host is empty.  The fold's origin
  /// rule accepts it, the online detector's grouping does not.
  std::string bare_referrer_host;
  bool has_referrer = false;        // a Referer header is present
  bool do_not_track = false;        // the first DNT header reads "1"
  bool has_x_flash_version = false; // an X-Flash-Version header is present

  /// The Referer's host as the fold's origin rule reads it: referrer_host,
  /// else bare_referrer_host; empty when neither applies.
  std::string_view origin_referrer_host() const noexcept {
    return referrer_host.empty() ? std::string_view(bare_referrer_host)
                                 : std::string_view(referrer_host);
  }
};

/// Derives `txn`'s fold inputs with the given miner options.
FoldInputs derive_fold_inputs(const dm::http::HttpTransaction& txn,
                              const dm::http::RedirectMinerOptions& miner);

namespace detail {

/// Dense id of a host interned by one builder (see WcgBuildState).
using HostId = std::uint32_t;
inline constexpr HostId kNoHost = ~HostId{0};

/// Everything the fold engine keeps besides the Wcg itself.  Internal to
/// WcgBuilder; a plain value type so builders stay copyable.
///
/// Hosts are interned once per builder: every host string a transaction
/// names (server, Referer host, redirect targets, and the first client) is
/// looked up once, when the transaction is first folded, and gets a dense
/// HostId.  The table's keys are views into the stored entries, which are
/// immutable and shared by every copy of the builder, so interning copies
/// no string.  Everything the fold tracks per host is a flag or a number
/// in `hosts`, indexed by HostId; a re-fold resets those in place and
/// keeps every container's capacity.
struct WcgBuildState {
  struct Host {
    std::string_view name;
    /// Some interned transaction is served by this host.  Grows with the
    /// interned prefix, so it survives re-folds.
    bool conversation = false;
    /// TrustedVendors verdict, computed the first time the host is a
    /// redirect target: 0 unknown, 1 trusted, 2 not trusted.
    std::uint8_t trust = 0;
    // Per fold; reset_fold() clears them.
    dm::graph::NodeId node = dm::graph::kInvalidNode;
    bool exploit = false;       // served an exploit payload
    bool redirect = false;      // endpoint of a redirect edge
    bool responded = false;     // last_response_ts is set
    std::uint64_t last_response_ts = 0;  // for the referrer-timing rule
  };
  /// The hosts one stored transaction names, as HostIds.
  struct EntryHosts {
    HostId server = kNoHost;
    HostId referrer = kNoHost;  // FoldInputs::origin_referrer_host
    /// This entry's redirect targets: redirect_targets[begin, end).
    std::uint32_t redirects_begin = 0;
    std::uint32_t redirects_end = 0;
  };

  // --- Interned hosts; persist across re-folds -------------------------
  std::unordered_map<std::string_view, HostId> host_ids;
  std::vector<Host> hosts;
  std::vector<EntryHosts> entry_hosts;  // one per interned entry
  std::vector<HostId> redirect_targets;
  HostId empty_host = kNoHost;   // "empty", the name of an unknown origin
  HostId victim_host = kNoHost;  // the first transaction's client

  // --- Fold state; reset by every re-fold ------------------------------
  Wcg wcg;
  std::size_t folded = 0;  // transactions folded into `wcg` so far
  /// Host of each node, indexed by NodeId.
  std::vector<HostId> node_hosts;

  // Download timeline (§III-C stage assignment).  Fixed between re-folds:
  // a transaction that would change it forces a full re-fold instead.
  std::uint64_t first_exploit_ts = 0;  // 0 = none
  std::uint64_t last_exploit_ts = 0;

  /// The origin node's host: the first Referer host outside the
  /// conversation, else `empty_host`.  `origin_from_referrer` tells the two
  /// apart even for a Referer host literally named "empty".
  HostId origin_host = kNoHost;
  bool origin_from_referrer = false;
  dm::graph::NodeId origin_id = dm::graph::kInvalidNode;
  dm::graph::NodeId victim_id = dm::graph::kInvalidNode;

  // Redirect bookkeeping.
  /// Distinct (from, to) node pairs of redirect edges, sorted.
  std::vector<std::pair<dm::graph::NodeId, dm::graph::NodeId>> redirect_pairs;
  /// Distinct non-empty TLDs of redirect endpoints, sorted.
  std::vector<std::string_view> redirect_tlds;
  /// Redirect timestamps; kept sorted unless `redirect_ts_unsorted`, in
  /// which case finalize() re-sorts and re-accumulates.  The running delay
  /// total accumulates left-to-right exactly like the from-scratch loop so
  /// the derived annotation is bit-identical in both modes.
  std::vector<std::uint64_t> redirect_ts;
  double redirect_delay_total_s = 0.0;
  bool redirect_ts_unsorted = false;

  // Conversation timing.
  std::uint64_t first_ts = 0;
  std::uint64_t last_ts = 0;
  std::vector<std::uint64_t> txn_times;  // request timestamps, see above
  double inter_txn_total_s = 0.0;
  bool txn_times_unsorted = false;

  /// Index of the last folded entry carrying X-Flash-Version (finalize()
  /// copies its value into the annotations); npos when none.
  std::size_t x_flash_entry = static_cast<std::size_t>(-1);
};

}  // namespace detail

/// Accumulates transactions (time order expected) and materializes the
/// annotated WCG.  `build()`/`current()` may be called repeatedly as the
/// conversation grows — the on-the-wire detector does exactly that (§V-B
/// "each update of a WCG then triggers feature extraction").
class WcgBuilder {
 public:
  /// Default: shares one immutable process-wide BuilderOptions (cheap —
  /// no per-builder copy of the trusted-vendor set).
  WcgBuilder();
  explicit WcgBuilder(BuilderOptions options);
  /// Shares immutable options across builders.  At a million live sessions
  /// (each holding two builders) a per-builder BuilderOptions copy — which
  /// contains the whole TrustedVendors whitelist — dominates session
  /// memory; the online detector builds the options once and hands every
  /// session this shared handle instead.  Null falls back to the default.
  explicit WcgBuilder(std::shared_ptr<const BuilderOptions> options);

  /// One stored transaction and its fold inputs.  Immutable once stored,
  /// so builders share entries instead of copying them: the online
  /// detector's scoped builder holds the same entries as its session
  /// builder.
  struct Entry {
    dm::http::HttpTransaction txn;
    FoldInputs inputs;
  };

  /// Appends one transaction; returns false if it was weeded out
  /// (trusted vendor) or malformed.  Derives the transaction's fold inputs;
  /// folding into the incremental graph is deferred to the next current()
  /// call.
  bool add(dm::http::HttpTransaction transaction);
  /// Same, sharing an entry whose inputs were derived with this builder's
  /// miner options (derive_fold_inputs, or another builder's entries()).
  /// Results are identical to add(entry->txn).  `entry` must not be null.
  bool add(std::shared_ptr<const Entry> entry);

  std::size_t transaction_count() const noexcept { return entries_.size(); }
  /// Stored entries in insertion order.
  const std::vector<std::shared_ptr<const Entry>>& entries() const noexcept {
    return entries_;
  }

  /// Builds the full annotated WCG from scratch from everything added so
  /// far.  The reference implementation; current() must match it bitwise.
  Wcg build() const;

  /// Incremental view: folds transactions added since the last call into a
  /// persistent WCG and returns it.  Falls back to a full re-fold when a
  /// new transaction retroactively changes earlier structure (new exploit
  /// download, origin invalidation) — callers never observe the difference,
  /// only the amortized O(delta) cost.  The reference lives until the next
  /// add()/current() call.
  const Wcg& current();

  /// Number of full re-folds current() has performed (diagnostics/tests).
  std::uint64_t full_refolds() const noexcept { return full_refolds_; }

  /// Drops every transaction and returns to the freshly constructed state
  /// (options kept), keeping allocated capacity for the next fold.
  void clear() noexcept;

 private:
  /// True when the pending suffix [state_.folded, n) cannot be folded
  /// incrementally onto state_ without changing already-built structure.
  bool requires_refold() const;

  std::shared_ptr<const BuilderOptions> options_;  // immutable, never null
  std::vector<std::shared_ptr<const Entry>> entries_;
  detail::WcgBuildState state_;  // incremental graph for current()
  std::uint64_t full_refolds_ = 0;
};

/// One-shot convenience: the WCG a WcgBuilder fed `transactions` would
/// build(), folded without copying the transactions.
Wcg build_wcg(const std::vector<dm::http::HttpTransaction>& transactions,
              const BuilderOptions& options = {});

}  // namespace dm::core
