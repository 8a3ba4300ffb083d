// Cache-line geometry for the observability shards.  Two counters that
// share a line ping-pong it between cores on every write (false sharing);
// everything in dm::obs that is written from multiple threads is therefore
// spaced kCacheLineSize apart.
#pragma once

#include <cstddef>
#include <new>

namespace dm::obs {

#if defined(__cpp_lib_hardware_interference_size)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
inline constexpr std::size_t kCacheLineSize =
    std::hardware_destructive_interference_size;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#else
inline constexpr std::size_t kCacheLineSize = 64;
#endif

}  // namespace dm::obs
