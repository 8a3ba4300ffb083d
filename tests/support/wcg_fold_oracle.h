// Reference WCG fold for the differential tests.
//
// oracle::build_wcg is the fold as it stood before WcgBuilder interned its
// hosts: string-keyed sets and maps rebuilt on every call, every request
// header re-read on every fold, and the payload class and redirect targets
// derived straight from the transaction (classify_payload, mine_redirects)
// instead of read from FoldInputs.  It shares no code with the production
// fold beyond the Wcg container, so a production WCG that equals it — node
// and edge order, every attribute and every annotation — shows the
// rework changed nothing.  Kept simple on purpose; it is slow.
//
// expect_wcgs_identical is the comparison the fences use.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/wcg.h"
#include "core/wcg_builder.h"
#include "http/message.h"

namespace dm::core::oracle {

/// WCG of `transactions` (weeded like WcgBuilder::add: empty server hosts
/// and trusted vendors are dropped), folded in the given order.
Wcg build_wcg(const std::vector<dm::http::HttpTransaction>& transactions,
              const BuilderOptions& options = {});

}  // namespace dm::core::oracle

namespace dm::core {

/// Asserts two WCGs are equal: node and edge identity in insertion order,
/// every node and edge attribute, and every WcgAnnotations field (doubles
/// compared as bits).
inline void expect_wcgs_identical(const Wcg& a, const Wcg& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.victim(), b.victim());
  EXPECT_EQ(a.origin(), b.origin());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const auto& na = a.nodes()[i];
    const auto& nb = b.nodes()[i];
    EXPECT_EQ(na.host, nb.host);
    EXPECT_EQ(na.ip, nb.ip);
    EXPECT_EQ(na.type, nb.type) << "node " << na.host;
    EXPECT_EQ(na.uris, nb.uris);
    EXPECT_EQ(na.payloads_served, nb.payloads_served);
  }
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    const auto& ea = a.edges()[i];
    const auto& eb = b.edges()[i];
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.stage, eb.stage) << "edge " << i;
    EXPECT_EQ(ea.ts_micros, eb.ts_micros);
    EXPECT_EQ(ea.method, eb.method);
    EXPECT_EQ(ea.uri_length, eb.uri_length);
    EXPECT_EQ(ea.has_referrer, eb.has_referrer);
    EXPECT_EQ(ea.response_code, eb.response_code);
    EXPECT_EQ(ea.payload_type, eb.payload_type);
    EXPECT_EQ(ea.payload_size, eb.payload_size);
    const auto id = static_cast<dm::graph::EdgeId>(i);
    EXPECT_EQ(a.graph().edge(id).src, b.graph().edge(id).src);
    EXPECT_EQ(a.graph().edge(id).dst, b.graph().edge(id).dst);
  }
  EXPECT_EQ(a.total_unique_uris(), b.total_unique_uris());
  EXPECT_EQ(a.total_uri_length(), b.total_uri_length());

  const WcgAnnotations& x = a.annotations();
  const WcgAnnotations& y = b.annotations();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(x.origin_known, y.origin_known);
  EXPECT_EQ(x.do_not_track, y.do_not_track);
  EXPECT_EQ(x.x_flash_version_set, y.x_flash_version_set);
  EXPECT_EQ(x.x_flash_version, y.x_flash_version);
  EXPECT_EQ(x.get_count, y.get_count);
  EXPECT_EQ(x.post_count, y.post_count);
  EXPECT_EQ(x.other_method_count, y.other_method_count);
  EXPECT_EQ(x.response_class_counts, y.response_class_counts);
  EXPECT_EQ(x.referrer_count, y.referrer_count);
  EXPECT_EQ(x.no_referrer_count, y.no_referrer_count);
  EXPECT_EQ(x.total_redirects, y.total_redirects);
  EXPECT_EQ(x.longest_redirect_chain, y.longest_redirect_chain);
  EXPECT_EQ(x.cross_domain_redirects, y.cross_domain_redirects);
  EXPECT_EQ(x.tld_diversity, y.tld_diversity);
  EXPECT_EQ(bits(x.avg_redirect_delay_s), bits(y.avg_redirect_delay_s));
  EXPECT_EQ(x.total_payload_bytes, y.total_payload_bytes);
  EXPECT_EQ(x.payload_count, y.payload_count);
  EXPECT_EQ(x.payload_type_counts, y.payload_type_counts);
  EXPECT_EQ(bits(x.duration_s), bits(y.duration_s));
  EXPECT_EQ(bits(x.avg_inter_transaction_s), bits(y.avg_inter_transaction_s));
  EXPECT_EQ(x.transaction_count, y.transaction_count);
  EXPECT_EQ(x.has_download_stage, y.has_download_stage);
  EXPECT_EQ(x.has_post_download_stage, y.has_post_download_stage);
}

}  // namespace dm::core
