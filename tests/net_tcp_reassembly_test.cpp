#include "net/tcp_reassembly.h"

#include <gtest/gtest.h>

namespace dm::net {
namespace {

ParsedPacket data_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                         std::uint16_t dport, std::uint32_t seq,
                         std::string_view payload, TcpFlags flags = {.ack = true}) {
  ParsedPacket pkt;
  pkt.src_ip = src;
  pkt.dst_ip = dst;
  pkt.src_port = sport;
  pkt.dst_port = dport;
  pkt.seq = seq;
  pkt.flags = flags;
  pkt.payload = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
  return pkt;
}

const Ipv4Address kClient = Ipv4Address::from_octets(10, 0, 0, 2);
const Ipv4Address kServer = Ipv4Address::from_octets(93, 184, 216, 34);

TEST(FlowKeyTest, CanonicalOrderIndependent) {
  const auto a = FlowKey::canonical(kClient, 40000, kServer, 80);
  const auto b = FlowKey::canonical(kServer, 80, kClient, 40000);
  EXPECT_EQ(a, b);
  EXPECT_EQ(FlowKeyHash{}(a), FlowKeyHash{}(b));
}

TEST(TcpReassemblyTest, InOrderDelivery) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "hello "), 2);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 107, "world"), 3);
  const auto flows = r.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0]->client_to_server.data, "hello world");
  EXPECT_TRUE(flows[0]->saw_syn);
  EXPECT_EQ(flows[0]->client_ip, kClient);
}

TEST(TcpReassemblyTest, OutOfOrderReordered) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 107, "world"), 2);  // early
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "hello "), 3);
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "hello world");
}

TEST(TcpReassemblyTest, DuplicateSegmentsIgnored) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "abc"), 2);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "abc"), 3);  // retransmit
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "abc");
}

TEST(TcpReassemblyTest, OverlappingSegmentTrimmed) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "abcdef"), 2);
  // Overlaps last 3 bytes, extends 3 more.
  r.ingest(data_packet(kClient, 40000, kServer, 80, 104, "defghi"), 3);
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "abcdefghi");
}

TEST(TcpReassemblyTest, BothDirectionsSeparate) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kServer, 80, kClient, 40000, 500, "",
                       {.syn = true, .ack = true}),
           2);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "request"), 3);
  r.ingest(data_packet(kServer, 80, kClient, 40000, 501, "response"), 4);
  const auto* flow = r.flows()[0];
  EXPECT_EQ(flow->client_to_server.data, "request");
  EXPECT_EQ(flow->server_to_client.data, "response");
}

TEST(TcpReassemblyTest, MultipleFlowsTrackedInOrder) {
  TcpReassembler r;
  const auto server2 = Ipv4Address::from_octets(1, 2, 3, 4);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40001, server2, 80, 200, "", {.syn = true}), 2);
  r.ingest(data_packet(kClient, 40001, server2, 80, 201, "bbb"), 3);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "aaa"), 4);
  const auto flows = r.flows();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0]->client_to_server.data, "aaa");
  EXPECT_EQ(flows[1]->client_to_server.data, "bbb");
}

TEST(TcpReassemblyTest, FinMarksClosed) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  EXPECT_FALSE(r.flows()[0]->closed);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "",
                       {.ack = true, .fin = true}),
           2);
  EXPECT_TRUE(r.flows()[0]->closed);
}

TEST(TcpReassemblyTest, FinAheadOfGapKeepsLateTailComplete) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  // The FIN-bearing last segment overtakes the data before it.
  r.ingest(data_packet(kClient, 40000, kServer, 80, 107, "world",
                       {.ack = true, .fin = true}),
           2);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 104, "lo "), 3);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "hel"), 4);
  const auto* flow = r.flows()[0];
  EXPECT_TRUE(flow->closed);
  EXPECT_EQ(flow->client_to_server.data, "hello world");
  EXPECT_EQ(r.counters().overlapping_segments, 0u);
  EXPECT_EQ(r.counters().duplicate_segments, 0u);
}

TEST(TcpReassemblyTest, DuplicateFinAdvancesStreamOnce) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "abc",
                       {.ack = true, .fin = true}),
           2);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "abc",
                       {.ack = true, .fin = true}),
           3);
  // The FIN consumed sequence number 104, so the stream now expects 105.
  // Had the retransmitted FIN advanced it again, this byte would be
  // discarded as a duplicate.
  r.ingest(data_packet(kClient, 40000, kServer, 80, 105, "Z"), 4);
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "abcZ");
  EXPECT_EQ(r.counters().duplicate_segments, 1u);
}

TEST(TcpReassemblyTest, RstMarksClosed) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "", {.rst = true}), 2);
  EXPECT_TRUE(r.flows()[0]->closed);
}

TEST(TcpReassemblyTest, MidStreamCaptureAdoptsSequence) {
  TcpReassembler r;
  // No SYN seen: first data packet seeds the stream.
  r.ingest(data_packet(kClient, 40000, kServer, 80, 5000, "partial"), 1);
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "partial");
}

TEST(TcpReassemblyTest, TimestampsTrackChunks) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 10);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "aaa"), 20);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 104, "bbb"), 30);
  const auto& stream = r.flows()[0]->client_to_server;
  EXPECT_EQ(stream.timestamp_at(0), 20u);
  EXPECT_EQ(stream.timestamp_at(2), 20u);
  EXPECT_EQ(stream.timestamp_at(3), 30u);
  EXPECT_EQ(stream.timestamp_at(99), 0u);
}

TEST(TcpReassemblyTest, TimestampLookupMatchesLinearScanOnLongFlow) {
  // A long pipelined flow: 400 segments of 1..9 bytes, some delivered out
  // of order (so later segments land in one flush), each with its own
  // timestamp.  Every offset, each chunk's first and last byte, and offsets
  // past the end must read exactly what a scan over every chunk reads.
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 0, "", {.syn = true}), 1);
  std::uint32_t seq = 1;
  std::vector<std::pair<std::uint32_t, std::string>> segments;
  for (int i = 0; i < 400; ++i) {
    const std::string payload(static_cast<std::size_t>(1 + i % 9),
                              static_cast<char>('a' + i % 26));
    segments.emplace_back(seq, payload);
    seq += static_cast<std::uint32_t>(payload.size());
  }
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // Swap each fourth pair so a gap is filled by a later packet.
    const std::size_t k = (i % 4 == 0 && i + 1 < segments.size()) ? i + 1
                          : (i % 4 == 1)                          ? i - 1
                                                                   : i;
    r.ingest(data_packet(kClient, 40000, kServer, 80, segments[k].first,
                         segments[k].second),
             100 + i);
  }
  const auto& stream = r.flows()[0]->client_to_server;
  ASSERT_GT(stream.chunks.size(), 300u);
  const auto linear = [&](std::size_t offset) -> std::uint64_t {
    for (const auto& chunk : stream.chunks) {
      if (offset >= chunk.offset && offset < chunk.offset + chunk.length) {
        return chunk.ts_micros;
      }
    }
    return 0;
  };
  for (std::size_t offset = 0; offset < stream.data.size() + 16; ++offset) {
    ASSERT_EQ(stream.timestamp_at(offset), linear(offset)) << offset;
  }
  for (const auto& chunk : stream.chunks) {
    EXPECT_EQ(stream.timestamp_at(chunk.offset), chunk.ts_micros);
    EXPECT_EQ(stream.timestamp_at(chunk.offset + chunk.length - 1), chunk.ts_micros);
  }
  EXPECT_EQ(stream.timestamp_at(stream.data.size()), 0u);
  EXPECT_EQ(stream.timestamp_at(static_cast<std::size_t>(-1)), 0u);
  EXPECT_EQ(DirectionStream{}.timestamp_at(0), 0u);
}

TEST(TcpReassemblyTest, SequenceWraparound) {
  TcpReassembler r;
  const std::uint32_t near_max = 0xfffffffe;
  r.ingest(data_packet(kClient, 40000, kServer, 80, near_max, "ab"), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 0, "cd"), 2);  // wrapped
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "abcd");
}

TEST(TcpReassemblyTest, FirstAndLastTimestamps) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 111);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "x"), 222);
  const auto* flow = r.flows()[0];
  EXPECT_EQ(flow->first_ts_micros, 111u);
  EXPECT_EQ(flow->last_ts_micros, 222u);
}

}  // namespace
}  // namespace dm::net
