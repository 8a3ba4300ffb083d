#include "util/strings.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace dm::util {
namespace {

TEST(StringsTest, ToLower) {
  EXPECT_EQ(to_lower("HeLLo-World_123"), "hello-world_123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc \t\r\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitTrimmedDropsEmpties) {
  const auto parts = split_trimmed("  a ; ;b; ", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, CaseInsensitiveComparisons) {
  EXPECT_TRUE(iequals("Content-Type", "content-type"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "ab"));
  EXPECT_TRUE(istarts_with("HTTP/1.1 200", "http/"));
  EXPECT_FALSE(istarts_with("HT", "http/"));
  EXPECT_TRUE(iends_with("payload.EXE", ".exe"));
  EXPECT_FALSE(iends_with("exe", ".exe"));
}

TEST(StringsTest, IfindLocates) {
  EXPECT_EQ(ifind("Hello World", "WORLD"), 6u);
  EXPECT_EQ(ifind("abc", "zzz"), std::string_view::npos);
  EXPECT_EQ(ifind("abc", ""), 0u);
  EXPECT_EQ(ifind("ab", "abc"), std::string_view::npos);
}

/// The straightforward case-insensitive search: compare at every start.
std::size_t naive_ifind(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return 0;
  if (haystack.size() < needle.size()) return std::string_view::npos;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (iequals(haystack.substr(i, needle.size()), needle)) return i;
  }
  return std::string_view::npos;
}

TEST(StringsTest, IfindEdgeCases) {
  EXPECT_EQ(ifind("xxxxHTTP", "http"), 4u);  // needle at the very end
  EXPECT_EQ(ifind("xxxxHTT", "http"), std::string_view::npos);
  EXPECT_EQ(ifind("hthtthtthtHtTp", "HTTP"), 10u);  // repeated near-matches
  EXPECT_EQ(ifind("aaaaaaaaab", "AAB"), 7u);
  EXPECT_EQ(ifind("", ""), 0u);
  EXPECT_EQ(ifind("", "a"), std::string_view::npos);
  EXPECT_EQ(ifind("a", "ab"), std::string_view::npos);
  EXPECT_EQ(ifind("<IFRAME src=", "<iframe"), 0u);  // non-letter first byte
  EXPECT_EQ(ifind("x@[", "`"), std::string_view::npos);  // ASCII letters only
  EXPECT_EQ(ifind("x`{", "@"), std::string_view::npos);
  EXPECT_EQ(ifind("\xC3\xA9t\xC3\x89", "\xC3\x89"), 3u);  // bytes >= 0x80
  // Starts on either side of the scan-window edges (64, 64 + 128).
  for (const std::size_t at : {62u, 63u, 64u, 65u, 191u, 192u, 193u}) {
    const std::string pad(at, 'x');
    EXPECT_EQ(ifind(pad + "HtTp", "http"), at);
    EXPECT_EQ(ifind(pad + "htt" + "http", "HTTP"), at + 3);
    EXPECT_EQ(ifind(pad + "htt", "http"), std::string_view::npos);
  }
}

/// Randomized equivalence with the naive search over a small alphabet, so
/// near-matches, repeats and mixed case are frequent.
TEST(StringsTest, IfindMatchesNaiveSearch) {
  std::mt19937 rng(20170626);
  const std::string alphabet = "aAbBhHtT-/@[`{\x80";
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  const auto random_string = [&](std::size_t len) {
    std::string s;
    for (std::size_t i = 0; i < len; ++i) s += alphabet[pick(rng)];
    return s;
  };
  std::size_t found = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    // Mostly short haystacks; every seventh is long enough to span several
    // of ifind's scan windows.
    const std::size_t max_len = trial % 7 == 6 ? 400 : 40;
    const std::string haystack = random_string(
        std::uniform_int_distribution<std::size_t>(0, max_len)(rng));
    std::string needle;
    switch (trial % 4) {
      case 0:  // a slice of the haystack with its case flipped
        if (!haystack.empty()) {
          const std::size_t at = rng() % haystack.size();
          needle = haystack.substr(at, 1 + rng() % (haystack.size() - at));
          for (char& c : needle) {
            if (rng() % 2 != 0 && c >= 'a' && c <= 'z') c = c - 'a' + 'A';
            else if (rng() % 2 != 0 && c >= 'A' && c <= 'Z') c = c - 'A' + 'a';
          }
        }
        break;
      case 1:  // a suffix: the needle at the very end
        needle = haystack.substr(haystack.size() - haystack.size() / 3);
        break;
      case 2:  // longer than the haystack
        needle = haystack + random_string(1 + rng() % 3);
        break;
      default:
        needle = random_string(rng() % 5);
        break;
    }
    const std::size_t expected = naive_ifind(haystack, needle);
    ASSERT_EQ(ifind(haystack, needle), expected)
        << "haystack '" << haystack << "' needle '" << needle << "'";
    if (expected != std::string_view::npos && !needle.empty()) ++found;
  }
  EXPECT_GT(found, 5000u);  // the trials exercise matches, not just misses
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringsTest, ParseLong) {
  EXPECT_EQ(parse_long("42"), 42);
  EXPECT_EQ(parse_long("  42  "), 42);
  EXPECT_EQ(parse_long("abc", -7), -7);
  EXPECT_EQ(parse_long("12abc", -7), -7);
  EXPECT_EQ(parse_long("", -7), -7);
}

TEST(StringsTest, UrlDecode) {
  EXPECT_EQ(url_decode("%68%65llo+world"), "hello world");
  EXPECT_EQ(url_decode("a%2Fb"), "a/b");
  EXPECT_EQ(url_decode("bad%zz"), "bad%zz");  // invalid escape passes through
  EXPECT_EQ(url_decode("%4"), "%4");          // truncated escape
}

TEST(StringsTest, RegistrableDomain) {
  EXPECT_EQ(registrable_domain("a.b.example.com"), "example.com");
  EXPECT_EQ(registrable_domain("example.com"), "example.com");
  EXPECT_EQ(registrable_domain("localhost"), "localhost");
  EXPECT_EQ(registrable_domain("192.168.1.1"), "192.168.1.1");
}

TEST(StringsTest, TopLevelDomain) {
  EXPECT_EQ(top_level_domain("a.example.com"), "com");
  EXPECT_EQ(top_level_domain("example.top"), "top");
  EXPECT_EQ(top_level_domain("localhost"), "");
  EXPECT_EQ(top_level_domain("10.0.0.1"), "");
  EXPECT_EQ(top_level_domain("trailingdot."), "");
}

TEST(StringsTest, LooksLikeIpv4) {
  EXPECT_TRUE(looks_like_ipv4("1.2.3.4"));
  EXPECT_TRUE(looks_like_ipv4("255.255.255.255"));
  EXPECT_FALSE(looks_like_ipv4("1.2.3"));
  EXPECT_FALSE(looks_like_ipv4("a.b.c.d"));
  EXPECT_FALSE(looks_like_ipv4("1.2.3.4.5"));
  EXPECT_FALSE(looks_like_ipv4("1..3.4"));
  EXPECT_FALSE(looks_like_ipv4("1.2.3.4444"));
}

TEST(StringsTest, UriExtension) {
  EXPECT_EQ(uri_extension("/files/payload.EXE?x=1"), "exe");
  EXPECT_EQ(uri_extension("/a/b.tar.gz"), "gz");
  EXPECT_EQ(uri_extension("/no-extension"), "");
  EXPECT_EQ(uri_extension("/dir.with.dots/plain"), "");
  EXPECT_EQ(uri_extension("/trailingdot."), "");
}

TEST(StringsTest, UriPath) {
  EXPECT_EQ(uri_path("/a/b?q=1#frag"), "/a/b");
  EXPECT_EQ(uri_path("/a/b#frag"), "/a/b");
  EXPECT_EQ(uri_path("/plain"), "/plain");
}

TEST(StringsTest, Base64Decode) {
  EXPECT_EQ(base64_decode("aGVsbG8="), "hello");
  EXPECT_EQ(base64_decode("aGVsbG8h"), "hello!");
  EXPECT_EQ(base64_decode("aA=="), "h");
  EXPECT_EQ(base64_decode("!!invalid!!"), "");
  EXPECT_EQ(base64_decode(""), "");
}

}  // namespace
}  // namespace dm::util
