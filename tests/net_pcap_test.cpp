#include "net/pcap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "http/transaction_stream.h"
#include "net/pcap_mmap.h"
#include "util/expected.h"

namespace dm::net {
namespace {

using dm::util::DecodeErrorCode;

PcapFile sample_file() {
  PcapFile file;
  file.packets.push_back({1000000, {0x01, 0x02, 0x03}});
  file.packets.push_back({2500000, {0xff}});
  file.packets.push_back({2500001, {}});
  return file;
}

TEST(PcapTest, WriteReadRoundTrip) {
  const auto original = sample_file();
  const auto bytes = write_pcap(original);
  const auto parsed = decode_pcap(bytes);
  EXPECT_FALSE(parsed.fatal);
  EXPECT_TRUE(parsed.errors.empty());
  EXPECT_EQ(parsed.file.link_type, 1u);
  ASSERT_EQ(parsed.file.packets.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.file.packets[i].ts_micros, original.packets[i].ts_micros);
    EXPECT_TRUE(std::ranges::equal(parsed.file.packets[i].data,
                                   original.packets[i].data));
  }
}

TEST(PcapTest, GlobalHeaderFields) {
  const auto bytes = write_pcap({});
  ASSERT_GE(bytes.size(), 24u);
  // Little-endian usec magic.
  EXPECT_EQ(bytes[0], 0xd4);
  EXPECT_EQ(bytes[1], 0xc3);
  EXPECT_EQ(bytes[2], 0xb2);
  EXPECT_EQ(bytes[3], 0xa1);
  // Version 2.4.
  EXPECT_EQ(bytes[4], 2);
  EXPECT_EQ(bytes[6], 4);
}

TEST(PcapTest, RejectsBadMagic) {
  const std::vector<std::uint8_t> bytes(24, 0);
  const auto parsed = decode_pcap(bytes);
  EXPECT_TRUE(parsed.fatal);
  ASSERT_EQ(parsed.errors.size(), 1u);
  EXPECT_EQ(parsed.errors[0].code, DecodeErrorCode::kPcapBadMagic);
  EXPECT_TRUE(parsed.file.packets.empty());
}

TEST(PcapTest, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> bytes(10, 0);
  const auto parsed = decode_pcap(bytes);
  EXPECT_TRUE(parsed.fatal);
  ASSERT_EQ(parsed.errors.size(), 1u);
  EXPECT_EQ(parsed.errors[0].code, DecodeErrorCode::kPcapTruncatedHeader);
  EXPECT_TRUE(parsed.file.packets.empty());
}

TEST(PcapTest, DropsTruncatedFinalRecord) {
  auto bytes = write_pcap(sample_file());
  bytes.pop_back();  // truncate the last packet's data
  const auto parsed = decode_pcap(bytes);
  EXPECT_FALSE(parsed.fatal);
  EXPECT_TRUE(parsed.truncated_tail);
  EXPECT_EQ(parsed.file.packets.size(), 2u);
}

TEST(PcapTest, ReadsNanosecondMagic) {
  auto bytes = write_pcap(sample_file());
  // Rewrite magic to little-endian nanosecond variant.
  bytes[0] = 0x4d;
  bytes[1] = 0x3c;
  bytes[2] = 0xb2;
  bytes[3] = 0xa1;
  const auto parsed = decode_pcap(bytes);
  ASSERT_EQ(parsed.file.packets.size(), 3u);
  // Fractional part now interpreted as nanoseconds: 0 usec becomes 0,
  // 500000 "ns" -> 500 us.
  EXPECT_EQ(parsed.file.packets[0].ts_micros, 1000000u);
  EXPECT_EQ(parsed.file.packets[1].ts_micros, 2000500u);
}

/// Writes `bytes` verbatim to a test temp file; removed on destruction.
class TempFile {
 public:
  TempFile(const std::string& name, const std::vector<std::uint8_t>& bytes)
      : path_(::testing::TempDir() + "/" + name) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(PcapTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dm_pcap_test.pcap";
  const auto original = sample_file();
  write_pcap_file(path, original);
  {
    const MappedPcap parsed(path);
    EXPECT_FALSE(parsed.result().fatal);
    ASSERT_EQ(parsed.file().packets.size(), original.packets.size());
    for (std::size_t i = 0; i < original.packets.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(parsed.file().packets[i].data,
                                     original.packets[i].data));
    }
  }
  // None of the sample frames is TCP, so no transaction comes out, but the
  // file entry point reads it without throwing.
  EXPECT_TRUE(dm::http::transactions_from_pcap_file(path).empty());
  std::remove(path.c_str());
}

TEST(PcapTest, FileEntryPointThrowsOnFatalHeader) {
  const TempFile bad_magic("dm_pcap_test_bad_magic.pcap",
                           std::vector<std::uint8_t>(24, 0));
  EXPECT_THROW(dm::http::transactions_from_pcap_file(bad_magic.path()),
               std::runtime_error);
  const TempFile short_header("dm_pcap_test_short.pcap",
                              std::vector<std::uint8_t>(10, 0));
  EXPECT_THROW(dm::http::transactions_from_pcap_file(short_header.path()),
               std::runtime_error);
  // A cut final record is not fatal: the file entry point salvages.
  auto cut = write_pcap(sample_file());
  cut.pop_back();
  const TempFile truncated("dm_pcap_test_truncated.pcap", cut);
  EXPECT_NO_THROW(dm::http::transactions_from_pcap_file(truncated.path()));
}

TEST(PcapTest, MissingFileThrows) {
  EXPECT_THROW(dm::http::transactions_from_pcap_file(
                   "/nonexistent/definitely/missing.pcap"),
               std::runtime_error);
}

TEST(PcapTest, LargeTimestampPreserved) {
  PcapFile file;
  const std::uint64_t ts = 1467849600ULL * 1000000 + 123456;  // 2016-07-07
  file.packets.push_back({ts, {0x00}});
  const auto bytes = write_pcap(file);
  const auto parsed = decode_pcap(bytes);
  ASSERT_EQ(parsed.file.packets.size(), 1u);
  EXPECT_EQ(parsed.file.packets[0].ts_micros, ts);
}

}  // namespace
}  // namespace dm::net
