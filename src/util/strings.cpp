#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>

namespace dm::util {
namespace {

char ascii_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

char ascii_upper(char c) noexcept {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
}

int hex_val(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii_lower);
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_trimmed(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for (auto piece : split(s, sep)) {
    piece = trim(piece);
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

bool istarts_with(std::string_view s, std::string_view prefix) noexcept {
  if (s.size() < prefix.size()) return false;
  return iequals(s.substr(0, prefix.size()), prefix);
}

bool iends_with(std::string_view s, std::string_view suffix) noexcept {
  if (s.size() < suffix.size()) return false;
  return iequals(s.substr(s.size() - suffix.size()), suffix);
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::size_t ifind(std::string_view haystack, std::string_view needle) noexcept {
  constexpr std::size_t npos = std::string_view::npos;
  if (needle.empty()) return 0;
  if (haystack.size() < needle.size()) return npos;
  // Candidates start with either case of the needle's first byte; memchr
  // finds them, and only those positions are compared in full.  Starts are
  // scanned in windows that double in size, and each case is searched only
  // inside the current window, so a call costs O(distance to the match)
  // even when one case never occurs.  Callers that loop ifind over the rest
  // of a body therefore stay linear in the body.
  const char lower = ascii_lower(needle.front());
  const char upper = ascii_upper(lower);
  const std::string_view rest = needle.substr(1);
  const std::size_t starts = haystack.size() - needle.size() + 1;
  // First position of `c` in [from, end), or `end`.
  const auto next_of = [&](char c, std::size_t from, std::size_t end) noexcept {
    const void* hit = std::memchr(haystack.data() + from, c, end - from);
    return hit != nullptr
               ? static_cast<std::size_t>(static_cast<const char*>(hit) -
                                          haystack.data())
               : end;
  };
  std::size_t begin = 0;
  for (std::size_t width = 64; begin < starts; width *= 2) {
    const std::size_t end = std::min(starts, begin + width);
    std::size_t next_lower = next_of(lower, begin, end);
    std::size_t next_upper = upper != lower ? next_of(upper, begin, end) : end;
    while (true) {
      const std::size_t at = std::min(next_lower, next_upper);
      if (at == end) break;
      if (iequals(haystack.substr(at + 1, rest.size()), rest)) return at;
      if (next_lower == at) next_lower = next_of(lower, at + 1, end);
      if (next_upper == at) next_upper = next_of(upper, at + 1, end);
    }
    begin = end;
  }
  return npos;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i) out += sep;
    out += pieces[i];
  }
  return out;
}

long parse_long(std::string_view s, long fallback) noexcept {
  s = trim(s);
  long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return fallback;
  return value;
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_val(s[i + 1]);
      const int lo = hex_val(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += s[i] == '+' ? ' ' : s[i];
  }
  return out;
}

std::string_view registrable_domain(std::string_view host) noexcept {
  if (looks_like_ipv4(host)) return host;
  const auto last = host.rfind('.');
  if (last == std::string_view::npos || last == 0) return host;
  const auto second = host.rfind('.', last - 1);
  if (second == std::string_view::npos) return host;
  return host.substr(second + 1);
}

std::string_view top_level_domain(std::string_view host) noexcept {
  if (looks_like_ipv4(host)) return {};
  const auto last = host.rfind('.');
  if (last == std::string_view::npos || last + 1 >= host.size()) return {};
  return host.substr(last + 1);
}

bool looks_like_ipv4(std::string_view host) noexcept {
  int dots = 0;
  int digits_in_octet = 0;
  for (char c : host) {
    if (c == '.') {
      if (digits_in_octet == 0) return false;
      ++dots;
      digits_in_octet = 0;
    } else if (c >= '0' && c <= '9') {
      if (++digits_in_octet > 3) return false;
    } else {
      return false;
    }
  }
  return dots == 3 && digits_in_octet > 0;
}

std::string uri_extension(std::string_view uri) {
  const auto path = uri_path(uri);
  const auto slash = path.rfind('/');
  const auto file = slash == std::string_view::npos ? path : path.substr(slash + 1);
  const auto dot = file.rfind('.');
  if (dot == std::string_view::npos || dot + 1 >= file.size()) return {};
  return to_lower(file.substr(dot + 1));
}

std::string_view uri_path(std::string_view uri) noexcept {
  const auto q = uri.find_first_of("?#");
  return q == std::string_view::npos ? uri : uri.substr(0, q);
}

std::string base64_decode(std::string_view s) {
  auto value_of = [](char c) -> int {
    if (c >= 'A' && c <= 'Z') return c - 'A';
    if (c >= 'a' && c <= 'z') return c - 'a' + 26;
    if (c >= '0' && c <= '9') return c - '0' + 52;
    if (c == '+') return 62;
    if (c == '/') return 63;
    return -1;
  };
  std::string out;
  int buffer = 0;
  int bits = 0;
  for (char c : s) {
    if (c == '=' || c == '\n' || c == '\r') continue;
    const int v = value_of(c);
    if (v < 0) return {};
    buffer = (buffer << 6) | v;
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out += static_cast<char>((buffer >> bits) & 0xff);
    }
  }
  return out;
}

}  // namespace dm::util
