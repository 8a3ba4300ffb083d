#include "core/online.h"

#include <algorithm>

#include <cmath>

#include "http/classify.h"
#include "http/redirect_miner.h"
#include "util/hash.h"
#include "util/rate_limit.h"
#include "util/strings.h"

namespace dm::core {
namespace {

using dm::http::HttpTransaction;
using dm::http::PayloadType;

/// Whether a stored transaction belongs to the potential-infection scope:
/// it touches an implicated host as server or referrer.
bool clue_related(const WcgBuilder::Entry& entry,
                  const HostSet& suspicious_hosts) {
  if (suspicious_hosts.count(entry.txn.server_host) > 0) return true;
  const std::string& host = entry.inputs.referrer_host;
  return !host.empty() && suspicious_hosts.count(host) > 0;
}

/// Consecutive quarantined queries in one session before the failure is
/// treated as a burst (a stronger forensic signal than one-off faults).
constexpr std::uint32_t kQuarantineBurstRun = 3;

/// Scores travel in trace events as integer microunits.
std::uint64_t score_microunits(double score) noexcept {
  return static_cast<std::uint64_t>(std::llround(score * 1e6));
}

/// Fixed per-session overhead charged against the bytes budget: the Session
/// struct itself plus a rough allowance for its key strings, map node, and
/// small-set bookkeeping.  An accounting constant, not a measurement — the
/// budget caps an estimate, and the estimate only has to scale with real
/// memory (it does: payload bytes dominate at any realistic trace).
constexpr std::size_t kSessionBaseBytes = 1024;

std::size_t approx_string_bytes(const std::string& s) noexcept {
  return s.size() + sizeof(std::string);
}

std::size_t approx_headers_bytes(const dm::http::Headers& headers) noexcept {
  std::size_t total = 0;
  for (const auto& h : headers.all()) {
    total += approx_string_bytes(h.name) + approx_string_bytes(h.value);
  }
  return total;
}

/// Approximate resident footprint of one stored transaction (strings +
/// headers + struct); charged once, when the session builder stores it —
/// the scoped builder shares that entry.
std::size_t approx_txn_bytes(const HttpTransaction& txn) noexcept {
  std::size_t total = sizeof(HttpTransaction);
  total += approx_string_bytes(txn.client_host) +
           approx_string_bytes(txn.server_host) +
           approx_string_bytes(txn.server_ip);
  total += approx_string_bytes(txn.request.method) +
           approx_string_bytes(txn.request.uri) +
           approx_string_bytes(txn.request.version) +
           approx_string_bytes(txn.request.body) +
           approx_headers_bytes(txn.request.headers);
  if (txn.response) {
    total += approx_string_bytes(txn.response->reason) +
             approx_string_bytes(txn.response->version) +
             approx_string_bytes(txn.response->body) +
             approx_headers_bytes(txn.response->headers);
  }
  return total;
}

}  // namespace

OnlineDetector::OnlineDetector(Detector detector, OnlineOptions options)
    : OnlineDetector(std::make_shared<const Detector>(std::move(detector)),
                     std::move(options)) {}

OnlineDetector::OnlineDetector(std::shared_ptr<const Detector> detector,
                               OnlineOptions options)
    : detector_(std::move(detector)),
      options_(std::move(options)),
      timer_(options_.clock),
      obs_(options_.metrics != nullptr
               ? dm::obs::PipelineMetrics::of(*options_.metrics)
               : dm::obs::pipeline_metrics()),
      trace_(options_.trace != nullptr ? options_.trace
                                       : &dm::obs::trace_sink()),
      flight_(options_.flight != nullptr ? options_.flight
                                         : &dm::obs::flight_recorder()),
      shared_builder_options_(
          std::make_shared<const BuilderOptions>(options_.builder)),
      sess_obs_(options_.metrics != nullptr
                    ? dm::obs::SessionMetrics::of(*options_.metrics)
                    : dm::obs::session_metrics()),
      idle_timeout_micros_(static_cast<std::uint64_t>(
          options_.session_idle_timeout_s * 1e6)) {}

bool OnlineDetector::joinable(const Session& session,
                              std::uint64_t ts_micros) const noexcept {
  if (ts_micros < session.last_activity) return true;  // clock skew: keep
  const double idle_s =
      static_cast<double>(ts_micros - session.last_activity) / 1e6;
  return idle_s <= options_.session_idle_timeout_s;
}

OnlineDetector::Session& OnlineDetector::find_or_create_session(
    const HttpTransaction& txn, const std::optional<std::string>& sid,
    const std::string& ref_host) {
  // Both grouping rules only ever join a transaction to a session of the
  // SAME client, and each client record owns its sessions: one lookup by
  // client, then this client's resident sessions in ascending key order.
  // That order decides ties — the first session-id match wins, and so does
  // the first of equal last_activity — and keys are reproducible for any
  // partition of the stream by client, so grouping is too.  No string is
  // built and no other client's session is touched: the other scaling wall
  // (besides idle expiry) on the million-session path.
  ClientSessions& client = clients_[txn.client_host];

  // 1. Session-ID match (the primary grouping rule, §V-B).  A session idle
  //    past the timeout is terminated — "the WCG stops growing" — so even a
  //    matching id opens a fresh session rather than resurrecting it.
  if (sid) {
    for (auto& [key, session] : client.sessions) {
      if (session.session_id == sid &&
          joinable(session, txn.request.ts_micros)) {
        return session;
      }
    }
  }
  // 2. Referrer/timestamp heuristic: join the most recent session of this
  //    client that already involves the server or referrer host and whose
  //    last activity is within the join gap.
  Session* best = nullptr;
  for (auto& [key, session] : client.sessions) {
    if (session.alerted) continue;
    if (!joinable(session, txn.request.ts_micros)) continue;
    const double gap_s =
        static_cast<double>(txn.request.ts_micros - session.last_activity) / 1e6;
    if (txn.request.ts_micros < session.last_activity ||
        gap_s <= options_.session_join_gap_s) {
      const bool host_link =
          session.hosts.count(txn.server_host) > 0 ||
          (!ref_host.empty() && session.hosts.count(ref_host) > 0);
      if (host_link && (!best || session.last_activity > best->last_activity)) {
        best = &session;
      }
    }
  }
  if (best) return *best;

  // 3. New session.
  Session session;
  session.key = txn.client_host + "#" + std::to_string(client.next_seq++);
  session.client = txn.client_host;
  session.builder = WcgBuilder(shared_builder_options_);
  session.scoped = WcgBuilder(shared_builder_options_);
  ++stats_.sessions_opened;
  obs_.detect_active_sessions.add(1);
  sess_obs_.resident.add(1);
  ++resident_sessions_;
  Session& created =
      client.sessions.emplace(session.key, std::move(session)).first->second;
  pin_bytes(created, kSessionBaseBytes + 2 * created.key.size());
  // File at the earliest possible expiry (first activity + timeout); later
  // activity only pushes the true deadline out, and the wheel pop
  // re-validates against last_activity before expiring.
  created.wheel_deadline = txn.request.ts_micros + idle_timeout_micros_;
  wheel_.schedule(created.key, created.wheel_deadline);
  return created;
}

std::optional<Alert> OnlineDetector::observe(HttpTransaction transaction) {
  ++stats_.transactions_seen;
  obs_.detect_observed.add(1);
  // RAII: records the whole observe() path on every return below.
  auto observe_span = timer_.span(obs_.stage_observe_ns);
  const std::uint64_t now = transaction.request.ts_micros;

  if (options_.builder.trusted.is_trusted(transaction.server_host)) {
    ++stats_.transactions_weeded;
    return std::nullopt;
  }

  // The payload class, mined redirect targets and referrer host are derived
  // once here.  The transaction moves into one immutable entry that the
  // session builder stores and the scoped builder shares, so neither a
  // fold nor a scope rescan copies or re-derives anything.
  FoldInputs derived = derive_fold_inputs(transaction, options_.builder.miner);
  const auto entry = std::make_shared<const WcgBuilder::Entry>(
      WcgBuilder::Entry{std::move(transaction), std::move(derived)});
  const HttpTransaction& txn = entry->txn;
  const FoldInputs& inputs = entry->inputs;
  const std::string& ref_host = inputs.referrer_host;

  const auto sid = dm::http::extract_session_id(txn);
  Session& session = find_or_create_session(txn, sid, ref_host);
  lru_touch(session);  // most recently active; last in eviction order
  if (session.alerted) return std::nullopt;  // terminated by an earlier alert

  // --- Causal tracing: install the session-tagged ambient context --------
  // The guard and span are torn down explicitly *before* expire_idle(),
  // which may erase this very session (and with it the flight ring the
  // context points into).
  const bool tracing = trace_->enabled();
  dm::obs::TraceContext tctx;
  std::optional<dm::obs::TraceContextGuard> tguard;
  std::optional<dm::obs::ScopedTraceSpan> tspan;
  if (tracing) {
    if (session.trace_session == 0) {
      session.trace_session = dm::util::fnv1a(session.key);
      session.trace_sampled = trace_->sampled(dm::util::fnv1a(session.client));
    }
    if (session.flight_ring == nullptr) {
      session.flight_ring =
          std::make_unique<dm::obs::SessionRing>(flight_->ring_capacity());
    }
    tctx.sink = trace_;
    tctx.ring = session.flight_ring.get();
    tctx.session = session.trace_session;
    tctx.to_sink = session.trace_sampled;
    tctx.clock = timer_.clock_fn();
    // Chain under an enclosing unit of work (the shard worker's batch span).
    if (const auto* outer = dm::obs::current_trace_context()) {
      tctx.parent = outer->parent;
    }
    tguard.emplace(&tctx);
    tspan.emplace(dm::obs::TraceOp::kObserve);
  }

  if (!session.session_id && sid) session.session_id = sid;
  session.hosts.insert(txn.server_host);
  if (!ref_host.empty()) session.hosts.insert(ref_host);
  session.last_activity = std::max(session.last_activity, now);

  // --- Redirect-run tracking for clue inference --------------------------
  const PayloadType payload = inputs.payload;
  const bool is_redirect_hop =
      txn.response &&
      (txn.response->is_redirect() || !inputs.redirect_hosts.empty());

  if (!session.clue_fired) session.hosts_before_clue.insert(txn.server_host);

  std::optional<Alert> alert;
  const bool risky_download =
      dm::http::is_download_type(payload) && txn.response &&
      txn.response->status_code == 200;

  if (is_redirect_hop) {
    ++session.current_redirect_run;
    session.longest_redirect_run =
        std::max(session.longest_redirect_run, session.current_redirect_run);
    // Chain members and their targets are implicated hosts.
    session.suspicious_hosts.insert(txn.server_host);
    session.suspicious_hosts.insert(inputs.redirect_hosts.begin(),
                                    inputs.redirect_hosts.end());
  } else {
    // Clue check happens on the first non-redirect after a chain.
    if (risky_download &&
        session.longest_redirect_run >= options_.redirect_chain_threshold) {
      session.suspicious_hosts.insert(txn.server_host);
      if (!session.clue_fired) {
        session.clue_fired = true;
        session.clue_host = txn.server_host;
        session.clue_payload = payload;
        ++stats_.clues_fired;
        obs_.detect_clues.add(1);
        dm::obs::trace_instant(dm::obs::TraceOp::kClue,
                               session.longest_redirect_run);
        // Clue-to-verdict starts now; recorded at the first completed score.
        if (dm::obs::enabled()) session.clue_fired_ns = timer_.now();
      }
    }
    session.current_redirect_run = 0;
  }

  if (session.clue_fired) {
    // Post-clue expansion: requests referred from an implicated host join
    // the potential-infection WCG, as do call-back candidates — POSTs to
    // hosts never seen before the clue (§II-D's never-seen C&C endpoints).
    if (!ref_host.empty() && session.suspicious_hosts.count(ref_host)) {
      session.suspicious_hosts.insert(txn.server_host);
    }
    if (txn.request.method == "POST" &&
        session.hosts_before_clue.count(txn.server_host) == 0) {
      session.suspicious_hosts.insert(txn.server_host);
    }
  }

  if (session.builder.add(entry)) pin_bytes(session, approx_txn_bytes(txn));
  // Keep the scoped (clue-related) builder in lockstep with the stream so
  // the first post-clue verdict only folds a delta, never the whole
  // session history.
  maintain_scope(session);

  // --- Classification -----------------------------------------------------
  // Once a clue has fired, every update re-extracts features and queries
  // the classifier (§V-B "each update ... triggers feature extraction and
  // invoking of the ERF classifier").
  const std::size_t queries_before = stats_.classifier_queries;
  const std::size_t failures_before = stats_.classifier_failures;
  if (session.clue_fired) {
    alert = classify_session(session, txn, payload);
  }

  if (tracing) {
    const bool failed = stats_.classifier_failures > failures_before;
    const bool completed =
        stats_.classifier_queries > queries_before && !failed;
    if (alert) {
      dm::obs::trace_instant(dm::obs::TraceOp::kAlert,
                             score_microunits(alert->score));
    }
    if (failed) {
      ++session.failure_run;
      dm::obs::trace_instant(dm::obs::TraceOp::kClassifierFailure,
                             session.failure_run);
      if (session.failure_run == kQuarantineBurstRun) {
        dm::obs::trace_instant(dm::obs::TraceOp::kQuarantineBurst,
                               session.failure_run);
      }
    } else if (completed) {
      session.failure_run = 0;
    }
    // End the observe span and pop the context while the flight ring is
    // still alive, so the end event lands in the ring before any flush.
    tspan.reset();
    tguard.reset();
    // Always-sample-on-alert: a session whose head-sampling decision was
    // "skip" replays its ring into the sink when it alerts — the capture
    // holds every alert's causal tree exactly once (sampled sessions
    // already streamed theirs live).
    if (alert && !session.trace_sampled) {
      dm::obs::flush_session_ring(*trace_, *session.flight_ring);
    }
    // Forensic dumps (rate-gated inside the recorder, on trace time).
    if (alert) {
      flight_->dump(dm::obs::DumpTrigger::kAlert, session.trace_session,
                    session.key, session.flight_ring->events(), now);
    } else if (failed) {
      flight_->dump(session.failure_run >= kQuarantineBurstRun
                        ? dm::obs::DumpTrigger::kQuarantineBurst
                        : dm::obs::DumpTrigger::kClassifierFailure,
                    session.trace_session, session.key,
                    session.flight_ring->events(), now);
    }
  }
  // --- Session maintenance, off the hot path -----------------------------
  // The observe span records *here*: expiry and budget eviction run after
  // it, timed in dm.session.expiry_ns instead, so per-transaction verdict
  // latency never includes garbage collection (obs_timer_test fence).
  observe_span.stop();
  if (alert) {
    // Paper: the corresponding session is terminated.  The pre-wheel engine
    // erased alerted sessions in its end-of-observe scan; erasing here
    // keeps that timing exactly without waiting for a wheel pop.
    erase_session(session, EvictCause::kAlerted);
    // `session` is dangling from here on.
  }
  // The wheel's next-due hint makes the idle sweep free until something can
  // actually be due; the hint is a lower bound on every filed deadline, so
  // any session the old per-observe scan would have expired now also opens
  // this gate — erasure timing is unchanged.
  if (wheel_.next_due_hint() <= now) expire_idle(now);
  enforce_budget();
  return alert;
}

void OnlineDetector::maintain_scope(Session& session) {
  const auto& entries = session.builder.entries();
  if (session.scope_suspicious_seen != session.suspicious_hosts.size()) {
    // A host became suspicious retroactively: transactions already rejected
    // may be related now.  Refilter from the start — the only O(n) event,
    // and it happens at most once per new implicated host.  The cleared
    // scoped builder keeps its buffers and shares the session's entries,
    // so a rescan copies pointers, not transactions, and pins no bytes.
    session.scoped.clear();
    session.scope_consumed = 0;
    session.scope_suspicious_seen = session.suspicious_hosts.size();
    // The rebuilt scoped WCG lives at the same address with a restarted
    // topology version, so the (pointer, version) cache key cannot detect
    // the swap on its own.
    session.feature_cache.invalidate();
    session.scope_eval_valid = false;
    ++stats_.scope_rescans;
  }
  for (; session.scope_consumed < entries.size(); ++session.scope_consumed) {
    const auto& entry = entries[session.scope_consumed];
    if (clue_related(*entry, session.suspicious_hosts)) {
      session.scoped.add(entry);
    }
  }
}

std::optional<Alert> OnlineDetector::classify_session(Session& session,
                                                      const HttpTransaction& txn,
                                                      PayloadType trigger) {
  auto verdict_span = timer_.span(obs_.stage_verdict_ns);
  dm::obs::ScopedTraceSpan verdict_tspan(dm::obs::TraceOp::kVerdict);

  // Short-circuit: the scoped WCG is a pure function of the scoped
  // transaction list, so if nothing joined the scope since the last
  // completed evaluation the verdict cannot change — and a changed verdict
  // below threshold is the only way this path continues (at or above it
  // the session was terminated).  Skipping is therefore alert-equivalent
  // to re-scoring.  Failed queries clear scope_eval_valid, so a faulting
  // classifier is retried on every update, never silently skipped.
  if (session.scope_eval_valid &&
      session.scoped.transaction_count() == session.scope_eval_txns) {
    ++stats_.queries_skipped_unchanged;
    verdict_span.cancel();
    return std::nullopt;
  }

  auto wcg_span = timer_.span(obs_.stage_wcg_build_ns);
  dm::obs::ScopedTraceSpan wcg_tspan(dm::obs::TraceOp::kWcgBuild);
  const Wcg& wcg = session.scoped.current();  // folds the pending delta
  wcg_tspan.set_arg(wcg.node_count());
  wcg_tspan.end();
  wcg_span.stop();

  const auto mark_evaluated = [&] {
    session.scope_eval_txns = session.scoped.transaction_count();
    session.scope_eval_valid = true;
  };
  if (wcg.node_count() < 2) {
    mark_evaluated();  // deterministic outcome: no query
    verdict_span.cancel();  // nothing was classified
    return std::nullopt;
  }
  ++stats_.classifier_queries;
  // Failure isolation: a throwing classifier (or injected fault) quarantines
  // this one query — the session stays live and is re-scored on its next
  // update, so a transient failure costs one data point, not the stream.
  double score = 0.0;
  try {
    if (options_.classifier_fault_hook) options_.classifier_fault_hook(txn);
    if (options_.scorer) {
      // Serving seam: the installed scorer replaces the bound detector (it
      // may swap models between queries).  The cache stays valid across
      // swaps — graph-metric extraction is model-independent.  The scorer
      // stamps the pinned model version into the ambient trace context.
      score = options_.scorer->score(wcg, &session.feature_cache);
    } else {
      dm::obs::trace_set_model_version(
          static_cast<std::uint32_t>(detector_->forest().model_version()));
      score = detector_->score(wcg, &session.feature_cache);
    }
  } catch (const std::exception& e) {
    ++stats_.classifier_failures;
    session.scope_eval_valid = false;  // retry on the next update
    dm::util::log_every_n(classifier_failure_gate_, dm::util::LogLevel::kWarn,
                          "online: classifier failure quarantined: ", e.what());
    return std::nullopt;
  } catch (...) {
    ++stats_.classifier_failures;
    session.scope_eval_valid = false;  // retry on the next update
    dm::util::log_every_n(classifier_failure_gate_, dm::util::LogLevel::kWarn,
                          "online: classifier failure quarantined");
    return std::nullopt;
  }
  mark_evaluated();
  obs_.detect_verdicts.add(1);
  dm::obs::trace_instant(dm::obs::TraceOp::kVerdictScore,
                         score_microunits(score));
  // Headline metric: clue fired -> first completed ERF verdict, once per
  // clue-bearing WCG ("operates as traffic flows", §V).
  if (!session.clue_latency_recorded && session.clue_fired_ns != 0) {
    session.clue_latency_recorded = true;
    const std::uint64_t now_ns = timer_.now();
    obs_.detect_clue_to_verdict_ns.record(
        now_ns >= session.clue_fired_ns ? now_ns - session.clue_fired_ns : 0);
  }
  // Feed the serving layer's retraining loop: every completed verdict is an
  // observation of (WCG, label-as-classified).
  const bool infection = score >= options_.decision_threshold;
  if (options_.verdict_tap) {
    options_.verdict_tap(wcg, score, infection, txn.request.ts_micros);
  }
  if (!infection) return std::nullopt;

  Alert alert;
  alert.ts_micros = txn.request.ts_micros;
  alert.client = session.client;
  alert.session_key = session.key;
  alert.score = score;
  // Attribute the alert to the clue download (the paper reports alerts as
  // issued "right after a download of" the offending payload), not to
  // whichever later update crossed the threshold.
  alert.trigger_host = session.clue_host.empty() ? txn.server_host : session.clue_host;
  alert.trigger_payload = session.clue_payload != dm::http::PayloadType::kNone
                              ? session.clue_payload
                              : trigger;
  alert.wcg_order = wcg.node_count();
  alert.wcg_size = wcg.edge_count();
  session.alerted = true;  // paper: the corresponding session is terminated
  ++stats_.alerts;
  obs_.detect_alerts.add(1);
  alerts_.push_back(alert);
  return alert;
}

void OnlineDetector::expire_idle(std::uint64_t now_micros) {
  // Timed in dm.session.expiry_ns — by design NOT part of the observe span
  // (obs_timer_test asserts verdict latency excludes this sweep).
  auto sweep_span = timer_.span(sess_obs_.expiry_ns);
  due_keys_.clear();
  wheel_.advance(now_micros, due_keys_);
  for (const auto& key : due_keys_) {
    Session* const resident = find_session(key);
    if (resident == nullptr) continue;  // stale entry: erased by alert/budget
    Session& session = *resident;
    // Same idle test, verbatim, as the old full-map scan: the wheel only
    // changes who gets *checked*, never who expires.  A session is filed at
    // its earliest possible deadline, so every expired session is among the
    // delivered candidates.
    const double idle_s =
        now_micros >= session.last_activity
            ? static_cast<double>(now_micros - session.last_activity) / 1e6
            : 0.0;
    if (session.alerted || idle_s > options_.session_idle_timeout_s) {
      erase_session(session, session.alerted ? EvictCause::kAlerted
                                             : EvictCause::kIdle);
    } else {
      // Still live: activity moved the deadline since filing.  Lazy
      // reinsert at the true deadline (clamped past `now` so a
      // boundary-case deadline cannot thrash within this sweep).
      session.wheel_deadline = std::max(
          session.last_activity + idle_timeout_micros_, now_micros + 1);
      wheel_.schedule(key, session.wheel_deadline);
    }
  }
  const std::uint64_t cascades = wheel_.cascades();
  if (cascades != wheel_cascades_seen_) {
    sess_obs_.wheel_cascades.add(
        static_cast<std::int64_t>(cascades - wheel_cascades_seen_));
    wheel_cascades_seen_ = cascades;
  }
  sweep_span.stop();
}

OnlineDetector::Session* OnlineDetector::find_session(std::string_view key) {
  // Keys are "client#n" and n has no '#', so the client is everything
  // before the last one.
  const auto client = clients_.find(key.substr(0, key.rfind('#')));
  if (client == clients_.end()) return nullptr;
  auto& sessions = client->second.sessions;
  const auto it = sessions.find(key);
  return it != sessions.end() ? &it->second : nullptr;
}

void OnlineDetector::erase_session(Session& session, EvictCause cause) {
  lru_unlink(session);
  --resident_sessions_;
  bytes_pinned_ -= session.approx_bytes;
  sess_obs_.bytes_pinned.add(-static_cast<std::int64_t>(session.approx_bytes));
  obs_.detect_active_sessions.add(-1);
  sess_obs_.resident.add(-1);
  switch (cause) {
    case EvictCause::kIdle:
      ++stats_.sessions_expired;
      sess_obs_.evicted_idle.add(1);
      break;
    case EvictCause::kAlerted:
      // Aggregated into sessions_expired for compatibility with the
      // pre-wheel engine, which counted alerted erasures there.
      ++stats_.sessions_expired;
      sess_obs_.evicted_alerted.add(1);
      break;
    case EvictCause::kBudgetSessions:
      ++stats_.sessions_evicted;
      sess_obs_.evicted_budget_sessions.add(1);
      break;
    case EvictCause::kBudgetBytes:
      ++stats_.sessions_evicted;
      sess_obs_.evicted_budget_bytes.add(1);
      break;
  }
  // The wheel entry (if any) goes stale and is skipped on pop — lazy
  // deletion keeps erase free of any wheel search.
  auto& sessions = clients_.find(session.client)->second.sessions;
  sessions.erase(sessions.find(session.key));
}

void OnlineDetector::enforce_budget() {
  const SessionBudget& budget = options_.budget;
  const bool over_sessions =
      budget.max_sessions != 0 && resident_sessions_ > budget.max_sessions;
  const bool over_bytes =
      budget.max_bytes != 0 && bytes_pinned_ > budget.max_bytes;
  if (!over_sessions && !over_bytes) return;  // steady state: two compares
  auto sweep_span = timer_.span(sess_obs_.expiry_ns);
  // LRU-first, never the tail (the session the current transaction just
  // touched).  Recency is stream order, so eviction — and therefore every
  // downstream alert — is a deterministic function of the trace.
  if (budget.max_sessions != 0) {
    while (resident_sessions_ > budget.max_sessions && lru_head_ != nullptr &&
           lru_head_ != lru_tail_) {
      erase_session(*lru_head_, EvictCause::kBudgetSessions);
    }
  }
  if (budget.max_bytes != 0) {
    while (bytes_pinned_ > budget.max_bytes && lru_head_ != nullptr &&
           lru_head_ != lru_tail_) {
      erase_session(*lru_head_, EvictCause::kBudgetBytes);
    }
  }
  sweep_span.stop();
}

void OnlineDetector::lru_unlink(Session& session) noexcept {
  if (session.lru_prev != nullptr) {
    session.lru_prev->lru_next = session.lru_next;
  } else if (lru_head_ == &session) {
    lru_head_ = session.lru_next;
  }
  if (session.lru_next != nullptr) {
    session.lru_next->lru_prev = session.lru_prev;
  } else if (lru_tail_ == &session) {
    lru_tail_ = session.lru_prev;
  }
  session.lru_prev = nullptr;
  session.lru_next = nullptr;
}

void OnlineDetector::lru_touch(Session& session) noexcept {
  if (lru_tail_ == &session) return;
  lru_unlink(session);
  session.lru_prev = lru_tail_;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = &session;
  } else {
    lru_head_ = &session;
  }
  lru_tail_ = &session;
}

void OnlineDetector::pin_bytes(Session& session, std::size_t bytes) noexcept {
  session.approx_bytes += bytes;
  bytes_pinned_ += bytes;
  sess_obs_.bytes_pinned.add(static_cast<std::int64_t>(bytes));
}

}  // namespace dm::core
