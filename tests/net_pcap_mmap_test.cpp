// Differential fence for reading capture files (DESIGN.md §15):
// decode_pcap over an in-memory buffer is the reference; MappedPcap over the
// same bytes in a file must agree with it byte for byte on every input
// class — clean captures, truncated tails, fatal headers, quarantined
// records, empty files, FIFOs — and every packet slice must alias the
// mapping.  Both sides run the one decoder, so a divergence here means the
// mapping, the read fallback, or a lifetime bug — exactly the failure modes
// a zero-copy reader can introduce.
#include "net/pcap_mmap.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/transaction_stream.h"
#include "net/pcap.h"
#include "synth/families.h"
#include "synth/generator.h"
#include "synth/pcap_export.h"
#include "util/expected.h"
#include "util/fault_stats.h"

namespace {

using dm::net::MappedFile;
using dm::net::MappedPcap;
using dm::net::PcapDecodeOptions;

/// RAII temp file holding `bytes`.
class TempCapture {
 public:
  explicit TempCapture(const std::vector<std::uint8_t>& bytes,
                       const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("net_pcap_mmap_test_" + tag + ".pcap"))
                .string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ~TempCapture() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A FIFO in the test temp dir whose writer thread sends `bytes` once a
/// reader opens it, then closes its end (EOF).  The writer gives up after a
/// few seconds without a reader, so a broken reader fails instead of
/// hanging the suite.
class FifoCapture {
 public:
  FifoCapture(const std::vector<std::uint8_t>& bytes, const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("net_pcap_mmap_test_" + tag + ".fifo"))
                  .string()) {
    std::remove(path_.c_str());
    if (::mkfifo(path_.c_str(), 0600) != 0) {
      ADD_FAILURE() << "mkfifo " << path_ << ": " << std::strerror(errno);
      return;
    }
    // A reader that closes early must fail the comparison, not kill the
    // process with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    writer_ = std::thread([this, bytes] {
      int fd = -1;
      for (int tries = 0; fd < 0 && tries < 500; ++tries) {
        fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);  // ENXIO: no reader
        if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (fd < 0) return;
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
      std::size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
      }
      ::close(fd);
    });
  }
  ~FifoCapture() {
    if (writer_.joinable()) writer_.join();
    std::remove(path_.c_str());
  }
  FifoCapture(const FifoCapture&) = delete;
  FifoCapture& operator=(const FifoCapture&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::thread writer_;
};

std::vector<std::uint8_t> episode_capture_bytes(std::uint64_t seed) {
  dm::synth::TraceGenerator gen(seed);
  const auto episode =
      gen.infection(dm::synth::exploit_kit_families().front());
  return dm::net::write_pcap(dm::synth::episode_to_pcap(episode));
}

/// The whole differential: decode_pcap over `bytes` vs a MappedPcap read of
/// the same bytes.  Checks flags, errors, packets, quarantine, and that
/// every mapped slice aliases the mapping.
void expect_matches_decode(const std::vector<std::uint8_t>& bytes,
                           const MappedPcap& mapped, const std::string& tag,
                           const PcapDecodeOptions& options = {}) {
  const auto expected = dm::net::decode_pcap(bytes, options);
  const auto& view = mapped.result();

  EXPECT_EQ(expected.fatal, view.fatal) << tag;
  EXPECT_EQ(expected.truncated_tail, view.truncated_tail) << tag;
  EXPECT_EQ(expected.file.link_type, view.file.link_type) << tag;

  ASSERT_EQ(expected.errors.size(), view.errors.size()) << tag;
  for (std::size_t i = 0; i < expected.errors.size(); ++i) {
    EXPECT_EQ(expected.errors[i].code, view.errors[i].code)
        << tag << " #" << i;
    EXPECT_EQ(expected.errors[i].offset, view.errors[i].offset)
        << tag << " #" << i;
  }

  ASSERT_EQ(expected.file.packets.size(), view.file.packets.size()) << tag;
  const auto mapping = mapped.mapping().bytes();
  for (std::size_t i = 0; i < expected.file.packets.size(); ++i) {
    const auto& want = expected.file.packets[i];
    const auto& slice = view.file.packets[i];
    EXPECT_EQ(want.ts_micros, slice.ts_micros) << tag << " packet " << i;
    ASSERT_EQ(want.data.size(), slice.data.size()) << tag << " packet " << i;
    if (!want.data.empty()) {
      EXPECT_EQ(0, std::memcmp(want.data.data(), slice.data.data(),
                               want.data.size()))
          << tag << " packet " << i;
    }
    // Zero-copy means ALIAS, not equal bytes: every slice must point into
    // the mapping itself.
    if (!slice.data.empty()) {
      EXPECT_GE(slice.data.data(), mapping.data()) << tag;
      EXPECT_LE(slice.data.data() + slice.data.size(),
                mapping.data() + mapping.size())
          << tag;
    }
  }

  ASSERT_EQ(expected.quarantined.size(), view.quarantined.size()) << tag;
  for (std::size_t i = 0; i < expected.quarantined.size(); ++i) {
    const auto& want = expected.quarantined[i];
    const auto& slice = view.quarantined[i];
    EXPECT_EQ(want.ts_micros, slice.ts_micros) << tag;
    ASSERT_EQ(want.data.size(), slice.data.size()) << tag;
    if (!want.data.empty()) {
      EXPECT_EQ(0, std::memcmp(want.data.data(), slice.data.data(),
                               want.data.size()))
          << tag;
    }
  }
}

/// decode_pcap of `bytes` vs MappedPcap of the same bytes from a file.
void expect_equivalent(const std::vector<std::uint8_t>& bytes,
                       const std::string& tag,
                       const PcapDecodeOptions& options = {}) {
  const TempCapture file(bytes, tag);
  const MappedPcap mapped(file.path(), options);
  expect_matches_decode(bytes, mapped, tag, options);
}

TEST(PcapMmapTest, CleanCaptureMatchesBufferDecode) {
  expect_equivalent(episode_capture_bytes(7), "clean");
}

TEST(PcapMmapTest, TruncatedTailMatchesBufferDecode) {
  auto bytes = episode_capture_bytes(11);
  ASSERT_GT(bytes.size(), 40u);
  bytes.resize(bytes.size() - 7);  // cut mid-record
  expect_equivalent(bytes, "truncated");
}

TEST(PcapMmapTest, FatalHeaderMatchesBufferDecode) {
  std::vector<std::uint8_t> garbage(64, 0xAB);  // no pcap magic
  expect_equivalent(garbage, "fatal");
}

TEST(PcapMmapTest, ShortHeaderMatchesBufferDecode) {
  std::vector<std::uint8_t> stub = {0xd4, 0xc3, 0xb2, 0xa1, 0x02};
  expect_equivalent(stub, "short_header");
}

TEST(PcapMmapTest, QuarantinedRecordMatchesBufferDecode) {
  auto bytes = episode_capture_bytes(13);
  ASSERT_GT(bytes.size(), 24u + 16u);
  // Corrupt the first record's incl_len into an unaddressable length: the
  // record is quarantined and iteration stops, identically on both paths.
  bytes[24 + 8] = 0xFF;
  bytes[24 + 9] = 0xFF;
  bytes[24 + 10] = 0xFF;
  bytes[24 + 11] = 0x7F;
  PcapDecodeOptions keep;
  keep.keep_quarantined = true;
  expect_equivalent(bytes, "quarantined", keep);
}

TEST(PcapMmapTest, EmptyFileMatchesBufferDecode) {
  expect_equivalent({}, "empty");
}

TEST(PcapMmapTest, TransactionsIdenticalAcrossPaths) {
  const auto bytes = episode_capture_bytes(17);
  const TempCapture file(bytes, "txns");
  const auto from_file = dm::http::transactions_from_pcap_file(file.path());
  const auto decoded = dm::net::decode_pcap(bytes);
  const auto from_bytes = dm::http::transactions_from_pcap(decoded.file);
  ASSERT_FALSE(from_file.empty());
  ASSERT_EQ(from_file.size(), from_bytes.size());
  for (std::size_t i = 0; i < from_file.size(); ++i) {
    EXPECT_EQ(from_file[i].client_host, from_bytes[i].client_host) << i;
    EXPECT_EQ(from_file[i].server_host, from_bytes[i].server_host) << i;
    EXPECT_EQ(from_file[i].request.uri, from_bytes[i].request.uri) << i;
    EXPECT_EQ(from_file[i].request.ts_micros, from_bytes[i].request.ts_micros)
        << i;
    EXPECT_EQ(from_file[i].request.body, from_bytes[i].request.body) << i;
    ASSERT_EQ(from_file[i].response.has_value(),
              from_bytes[i].response.has_value())
        << i;
    if (from_file[i].response) {
      EXPECT_EQ(from_file[i].response->status_code,
                from_bytes[i].response->status_code)
          << i;
      EXPECT_EQ(from_file[i].response->body, from_bytes[i].response->body)
          << i;
    }
  }
}

TEST(PcapMmapTest, FifoReadsLikeABuffer) {
  // A FIFO reports st_size 0 and cannot be mapped (a shell's `<(...)` hands
  // the scan one): it must be read through the open descriptor, not come
  // back empty.
  const auto bytes = episode_capture_bytes(31);
  {
    const FifoCapture fifo(bytes, "fifo");
    const MappedPcap mapped(fifo.path());
    EXPECT_FALSE(mapped.mapping().mapped());
    EXPECT_EQ(mapped.mapping().size(), bytes.size());
    EXPECT_FALSE(mapped.result().fatal);
    EXPECT_FALSE(mapped.file().packets.empty());
    expect_matches_decode(bytes, mapped, "fifo");
  }
  const FifoCapture fifo(bytes, "fifo_txns");
  EXPECT_FALSE(dm::http::transactions_from_pcap_file(fifo.path()).empty());
}

TEST(PcapMmapTest, MappedFileReportsWholeFile) {
  const auto bytes = episode_capture_bytes(19);
  const TempCapture file(bytes, "whole");
  const MappedFile mapping(file.path());
  ASSERT_EQ(mapping.size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(mapping.bytes().data(), bytes.data(), bytes.size()));
}

TEST(PcapMmapTest, MappedFileMoveKeepsBytesValid) {
  const auto bytes = episode_capture_bytes(23);
  const TempCapture file(bytes, "move");
  MappedFile first(file.path());
  const MappedFile second(std::move(first));
  ASSERT_EQ(second.size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(second.bytes().data(), bytes.data(), bytes.size()));
}

TEST(PcapMmapTest, MissingFileThrows) {
  EXPECT_THROW(MappedFile("/nonexistent/net_pcap_mmap_test.pcap"),
               std::runtime_error);
  EXPECT_THROW(MappedPcap("/nonexistent/net_pcap_mmap_test.pcap"),
               std::runtime_error);
}

TEST(PcapMmapTest, FaultStatsAgreeAcrossPaths) {
  auto bytes = episode_capture_bytes(29);
  bytes.resize(bytes.size() - 5);
  dm::util::FaultStats buffer_faults;
  dm::util::FaultStats file_faults;
  (void)dm::net::decode_pcap(bytes, {}, &buffer_faults);
  const TempCapture file(bytes, "faults");
  const MappedPcap mapped(file.path(), {}, &file_faults);
  const auto a = buffer_faults.snapshot();
  const auto b = file_faults.snapshot();
  EXPECT_GT(a.total(), 0u);
  for (std::size_t i = 0; i < dm::util::kDecodeErrorCodeCount; ++i) {
    EXPECT_EQ(a.counts[i], b.counts[i]) << dm::util::decode_error_name(
        static_cast<dm::util::DecodeErrorCode>(i));
  }
}

}  // namespace
