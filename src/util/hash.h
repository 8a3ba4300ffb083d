// Hashing utilities: FNV-1a for hash-map style keys, a 160-bit digest used
// as a stand-in for payload content hashes when talking to the simulated
// VirusTotal baseline, and CRC32 for on-disk artifact integrity footers.
// None is cryptographic; the baseline only needs collision-free-in-practice
// identifiers for synthetic payloads, and the model store only needs to
// detect torn writes and bit rot, not adversarial tampering.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace dm::util {

/// Transparent hash for string-keyed unordered containers: with
/// std::equal_to<> as the key equality, find() and count() take a
/// std::string_view without building a std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// 64-bit FNV-1a.
std::uint64_t fnv1a(std::string_view data) noexcept;

/// Mixes an existing hash with more data (for composite keys).
std::uint64_t fnv1a_append(std::uint64_t h, std::string_view data) noexcept;

/// A 160-bit digest rendered as 40 hex chars.  Built from five independently
/// salted FNV-1a passes; stable across platforms and runs.
std::string digest_hex(std::string_view data);

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the integrity
/// footer of the serve::ModelStore artifact format.  Detects every single-bit
/// flip and every truncation of the guarded payload.
std::uint32_t crc32(std::string_view data) noexcept;

/// Incremental variant: feed chunks through `crc` (start from crc32_init(),
/// finish with crc32_final()).
std::uint32_t crc32_init() noexcept;
std::uint32_t crc32_update(std::uint32_t crc, std::string_view data) noexcept;
std::uint32_t crc32_final(std::uint32_t crc) noexcept;

}  // namespace dm::util
