#include "core/wcg.h"

#include <gtest/gtest.h>

#include "support/graph_lookup.h"

namespace dm::core {
namespace {

TEST(WcgTest, AddHostDeduplicates) {
  Wcg wcg;
  const auto a = add_host(wcg, "a.example");
  const auto b = add_host(wcg, "b.example");
  const auto a2 = add_host(wcg, "a.example");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(wcg.node_count(), 2u);
}

TEST(WcgTest, FindHost) {
  Wcg wcg;
  const auto a = add_host(wcg, "a.example");
  EXPECT_EQ(find_host(wcg, "a.example"), a);
  EXPECT_EQ(find_host(wcg, "missing"), dm::graph::kInvalidNode);
}

TEST(WcgTest, EdgeAttributesStored) {
  Wcg wcg;
  const auto a = add_host(wcg, "a");
  const auto b = add_host(wcg, "b");
  WcgEdge edge;
  edge.kind = EdgeKind::kResponse;
  edge.stage = Stage::kDownload;
  edge.response_code = 200;
  edge.payload_type = dm::http::PayloadType::kSwf;
  edge.payload_size = 1234;
  const auto id = wcg.add_edge(b, a, edge);
  EXPECT_EQ(wcg.edge(id).response_code, 200);
  EXPECT_EQ(wcg.edge(id).payload_type, dm::http::PayloadType::kSwf);
  EXPECT_EQ(wcg.graph().edge(id).src, b);
  EXPECT_EQ(wcg.graph().edge(id).dst, a);
}

TEST(WcgTest, NodeAttributesMutable) {
  Wcg wcg;
  const auto a = add_host(wcg, "a");
  wcg.node(a).type = NodeType::kMalicious;
  EXPECT_TRUE(wcg.add_uri(a, "/x"));
  EXPECT_FALSE(wcg.add_uri(a, "/x"));  // dedup via set
  EXPECT_TRUE(wcg.add_uri(a, "/y"));
  EXPECT_EQ(wcg.node(a).type, NodeType::kMalicious);
  EXPECT_EQ(wcg.node(a).uris.size(), 2u);
  EXPECT_EQ(wcg.total_unique_uris(), 2u);
  EXPECT_EQ(wcg.total_uri_length(), 4u);  // "/x" + "/y"
}

TEST(WcgTest, TopologyVersionTracksStructureOnly) {
  Wcg wcg;
  EXPECT_EQ(wcg.topology_version(), 0u);
  const auto a = add_host(wcg, "a");
  const auto b = add_host(wcg, "b");
  EXPECT_EQ(wcg.topology_version(), 2u);
  add_host(wcg, "a");  // existing host: no structural change
  EXPECT_EQ(wcg.topology_version(), 2u);
  wcg.add_edge(a, b, WcgEdge{});
  EXPECT_EQ(wcg.topology_version(), 3u);
  // Attribute updates do not bump the version.
  wcg.add_uri(a, "/x");
  wcg.node(b).type = NodeType::kMalicious;
  EXPECT_EQ(wcg.topology_version(), 3u);
  wcg.ensure_topology_version_above(10);
  EXPECT_EQ(wcg.topology_version(), 11u);
  wcg.ensure_topology_version_above(5);  // never moves backwards
  EXPECT_EQ(wcg.topology_version(), 11u);
}

TEST(WcgTest, VictimAndOriginTracking) {
  Wcg wcg;
  EXPECT_EQ(wcg.victim(), dm::graph::kInvalidNode);
  const auto v = add_host(wcg, "10.0.0.2");
  wcg.set_victim(v);
  const auto o = add_host(wcg, "bing.com");
  wcg.set_origin(o);
  EXPECT_EQ(wcg.victim(), v);
  EXPECT_EQ(wcg.origin(), o);
}

TEST(WcgTest, NamesForEnums) {
  EXPECT_EQ(node_type_name(NodeType::kVictim), "victim");
  EXPECT_EQ(node_type_name(NodeType::kOrigin), "origin");
  EXPECT_EQ(edge_kind_name(EdgeKind::kRedirect), "redirect");
  EXPECT_EQ(edge_kind_name(EdgeKind::kRequest), "req");
}

TEST(WcgTest, AnnotationsDefaultEmpty) {
  const Wcg wcg;
  EXPECT_FALSE(wcg.annotations().origin_known);
  EXPECT_EQ(wcg.annotations().total_redirects, 0u);
  EXPECT_EQ(wcg.annotations().get_count, 0u);
}

}  // namespace
}  // namespace dm::core
