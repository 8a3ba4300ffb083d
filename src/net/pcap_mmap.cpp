#include "net/pcap_mmap.h"

#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define DM_HAVE_MMAP 1
#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define DM_HAVE_MMAP 0
#include <fstream>
#endif

namespace dm::net {
namespace {

#if DM_HAVE_MMAP
/// Appends everything left in `fd` to `out`; false on a read error.  Works
/// on what mmap cannot take: a FIFO must be read through the descriptor
/// already open on it, since reopening by path would lose whatever the
/// writer has sent.
bool read_to_eof(int fd, std::vector<std::uint8_t>& out) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n == 0) return true;
    if (n < 0 && errno != EINTR) return false;
    if (n > 0) out.insert(out.end(), chunk, chunk + n);
  }
}
#else
std::vector<std::uint8_t> read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("pcap: cannot open for read: " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}
#endif

}  // namespace

MappedFile::MappedFile(const std::string& path) {
#if DM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("pcap: cannot open for read: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("pcap: cannot stat: " + path);
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  // mmap rejects zero-length mappings, and a non-regular file reports no
  // usable size: both are read through the descriptor below.
  if (S_ISREG(st.st_mode) && file_size > 0) {
    void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);  // the mapping keeps its own reference to the file
#if defined(POSIX_MADV_SEQUENTIAL)
      ::posix_madvise(map, file_size, POSIX_MADV_SEQUENTIAL);
#endif
      data_ = static_cast<const std::uint8_t*>(map);
      size_ = file_size;
      mapped_ = true;
      return;
    }
    // mmap can fail on exotic filesystems; read the bytes instead.
  }
  const bool read_ok = read_to_eof(fd, fallback_);
  ::close(fd);
  if (!read_ok) throw std::runtime_error("pcap: read failed: " + path);
#else
  fallback_ = read_whole_file(path);
#endif
  data_ = fallback_.data();
  size_ = fallback_.size();
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::reset() noexcept {
#if DM_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  if (!mapped_ && !fallback_.empty()) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.fallback_.clear();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
  reset();
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  fallback_ = std::move(other.fallback_);
  if (!mapped_ && !fallback_.empty()) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.fallback_.clear();
  return *this;
}

MappedPcap::MappedPcap(const std::string& path,
                       const PcapDecodeOptions& options,
                       dm::util::FaultStats* faults)
    : mapping_(path),
      result_(decode_pcap(mapping_.bytes(), options, faults)) {}

}  // namespace dm::net
