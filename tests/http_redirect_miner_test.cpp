#include "http/redirect_miner.h"

#include <gtest/gtest.h>

#include "synth/content.h"
#include "util/rng.h"

namespace dm::http {
namespace {

HttpTransaction txn_with_response(int status, std::string content_type,
                                  std::string body,
                                  std::string location = {}) {
  HttpTransaction txn;
  txn.server_host = "source.example";
  txn.request.method = "GET";
  txn.request.uri = "/";
  HttpResponse res;
  res.status_code = status;
  if (!content_type.empty()) res.headers.add("Content-Type", content_type);
  if (!location.empty()) res.headers.add("Location", location);
  res.body = std::move(body);
  txn.response = std::move(res);
  return txn;
}

TEST(HostOfUrlTest, Extraction) {
  EXPECT_EQ(host_of_url("http://EvIl.Example/path?q"), "evil.example");
  EXPECT_EQ(host_of_url("https://a.b:8080/x"), "a.b");
  EXPECT_EQ(host_of_url("ftp://nope/"), "");
  EXPECT_EQ(host_of_url("/relative/only"), "");
  EXPECT_EQ(host_of_url("http://"), "");
}

TEST(RedirectMinerTest, LocationHeader) {
  const auto txn = txn_with_response(302, "text/html", "moved",
                                     "http://next.example/landing");
  const auto evidence = mine_redirects(txn);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, RedirectKind::kLocationHeader);
  EXPECT_EQ(evidence[0].target_host, "next.example");
}

TEST(RedirectMinerTest, MetaRefresh) {
  const auto txn = txn_with_response(
      200, "text/html",
      "<html><head><meta http-equiv=\"refresh\" "
      "content=\"0;url=http://hop.example/x\"></head></html>");
  const auto evidence = mine_redirects(txn);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, RedirectKind::kMetaRefresh);
  EXPECT_EQ(evidence[0].target_host, "hop.example");
}

TEST(RedirectMinerTest, HiddenIframe) {
  const auto txn = txn_with_response(
      200, "text/html",
      "<body><iframe src=\"http://ek-landing.top/gate\" width=1></iframe></body>");
  const auto evidence = mine_redirects(txn);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, RedirectKind::kIframe);
  EXPECT_EQ(evidence[0].target_host, "ek-landing.top");
}

TEST(RedirectMinerTest, PlainJavaScriptLocation) {
  const auto txn = txn_with_response(
      200, "application/javascript",
      "var a=1; window.location=\"http://js-target.biz/p\";");
  const auto evidence = mine_redirects(txn);
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, RedirectKind::kJavaScript);
  EXPECT_EQ(evidence[0].target_host, "js-target.biz");
}

TEST(RedirectMinerTest, HexEscapedJavaScript) {
  dm::util::Rng rng(1);
  const std::string body = dm::synth::redirect_body(
      dm::synth::RedirectTechnique::kHexEscapedJs, "http://hidden.pw/land", rng);
  const auto txn = txn_with_response(200, "application/javascript", body);
  const auto evidence = mine_redirects(txn);
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence[0].kind, RedirectKind::kObfuscatedJavaScript);
  EXPECT_EQ(evidence[0].target_host, "hidden.pw");
}

TEST(RedirectMinerTest, UnescapePercentEncoding) {
  dm::util::Rng rng(2);
  const std::string body = dm::synth::redirect_body(
      dm::synth::RedirectTechnique::kUnescapeJs, "http://pct.club/x", rng);
  const auto txn = txn_with_response(200, "application/javascript", body);
  const auto evidence = mine_redirects(txn);
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence[0].target_host, "pct.club");
}

TEST(RedirectMinerTest, Base64Atob) {
  dm::util::Rng rng(3);
  const std::string body = dm::synth::redirect_body(
      dm::synth::RedirectTechnique::kBase64Js, "http://b64.info/y", rng);
  const auto txn = txn_with_response(200, "application/javascript", body);
  const auto evidence = mine_redirects(txn);
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence[0].target_host, "b64.info");
}

TEST(RedirectMinerTest, DeobfuscationCanBeDisabled) {
  dm::util::Rng rng(4);
  const std::string body = dm::synth::redirect_body(
      dm::synth::RedirectTechnique::kHexEscapedJs, "http://hidden.pw/land", rng);
  const auto txn = txn_with_response(200, "application/javascript", body);
  RedirectMinerOptions options;
  options.deobfuscate = false;
  EXPECT_TRUE(mine_redirects(txn, options).empty());
}

TEST(RedirectMinerTest, NoFalsePositivesOnPlainPage) {
  const auto txn = txn_with_response(
      200, "text/html",
      "<html><body><a href=\"http://linked.example/a\">link</a>"
      "<img src=\"/local.png\"></body></html>");
  EXPECT_TRUE(mine_redirects(txn).empty());
}

TEST(RedirectMinerTest, BinaryBodiesSkipped) {
  const auto txn =
      txn_with_response(200, "application/octet-stream",
                        "MZ<iframe src=\"http://x.y/\"></iframe>");
  EXPECT_TRUE(mine_redirects(txn).empty());
}

TEST(RedirectMinerTest, NoResponseNoEvidence) {
  HttpTransaction txn;
  txn.request.method = "GET";
  EXPECT_TRUE(mine_redirects(txn).empty());
}

TEST(RedirectMinerTest, DuplicateEvidenceCollapsed) {
  const auto txn = txn_with_response(
      200, "text/html",
      "<iframe src=\"http://dup.example/a\"></iframe>"
      "<iframe src=\"http://dup.example/a\"></iframe>");
  EXPECT_EQ(mine_redirects(txn).size(), 1u);
}

TEST(DecodeObfuscatedTest, MultipleLayersConcatenated) {
  const std::string text =
      "var a=\"\\x68\\x69\"; document.write(unescape('%20%77')); eval(atob('eHl6'));";
  const std::string decoded = decode_obfuscated_layers(text);
  EXPECT_NE(decoded.find("hi"), std::string::npos);
  EXPECT_NE(decoded.find(" w"), std::string::npos);
  EXPECT_NE(decoded.find("xyz"), std::string::npos);
}

TEST(DecodeObfuscatedTest, UnicodeEscapes) {
  const std::string decoded = decode_obfuscated_layers("\"\\u0068\\u0074\\u0074\\u0070\"");
  EXPECT_NE(decoded.find("http"), std::string::npos);
}

TEST(DecodeObfuscatedTest, CleanTextYieldsEmpty) {
  EXPECT_TRUE(decode_obfuscated_layers("plain body, no obfuscation").empty());
}

/// Layer 1 (\xHH / \uHHHH escapes) as decode_obfuscated_layers did it
/// before skipping escape-free bodies: every body copied byte by byte.
std::string reference_escape_layer(std::string_view text) {
  const auto hex = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string unescaped;
  bool saw_escape = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 3 < text.size() && text[i + 1] == 'x') {
      const int hi = hex(text[i + 2]);
      const int lo = hex(text[i + 3]);
      if (hi >= 0 && lo >= 0) {
        unescaped += static_cast<char>(hi * 16 + lo);
        i += 3;
        saw_escape = true;
        continue;
      }
    }
    if (text[i] == '\\' && i + 5 < text.size() && text[i + 1] == 'u') {
      const int a = hex(text[i + 2]);
      const int b = hex(text[i + 3]);
      const int c = hex(text[i + 4]);
      const int d = hex(text[i + 5]);
      if (a >= 0 && b >= 0 && c >= 0 && d >= 0) {
        const int code = ((a * 16 + b) * 16 + c) * 16 + d;
        if (code < 128) unescaped += static_cast<char>(code);
        i += 5;
        saw_escape = true;
        continue;
      }
    }
    unescaped += text[i];
  }
  return saw_escape ? unescaped : std::string();
}

TEST(DecodeObfuscatedTest, EscapeLayerMatchesByteCopyReference) {
  // Bodies without unescape(/atob( decode to layer 1 alone.  Fixed cases:
  // no backslash at all, escapes at the start, middle and end, backslashes
  // that start no escape, and escapes cut off by the end of the body.
  std::vector<std::string> bodies = {
      "",
      "plain <html> body with no backslash",
      "\\x68\\x74tp://a.example/",
      "var u = \"\\x68\\x74\\x74\\x70://evil.example/x\";",
      "tail escape \\u0041",
      "\\ lone \\n \\q backslashes \\xZZ \\u12G4",
      "cut \\x4",
      "cut \\u004",
      "\\u00e9 non-ascii dropped \\u0068i",
      "\\\\x41 doubled",
  };
  // Random bodies built from whole escapes, broken escapes and plain text.
  dm::util::Rng rng(9151);
  const std::vector<std::string> tokens = {
      "\\x41", "\\x7a", "\\u0062", "\\u00ff", "\\x4", "\\u12G4", "\\",
      "x",     "u",     "7f",      "plain",   " ",     "\"",      "<a href=/>"};
  for (int i = 0; i < 2000; ++i) {
    std::string body;
    const auto count = rng.uniform_int(0, 12);
    for (std::int64_t k = 0; k < count; ++k) {
      body += tokens[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(tokens.size()) - 1))];
    }
    bodies.push_back(std::move(body));
  }
  std::size_t escaped = 0;
  for (const auto& body : bodies) {
    const std::string want = reference_escape_layer(body);
    EXPECT_EQ(decode_obfuscated_layers(body), want) << body;
    if (!want.empty()) ++escaped;
  }
  EXPECT_GT(escaped, 500u);  // both kinds of body were exercised
  // Escape-free bodies with the other layers decode exactly as before.
  EXPECT_EQ(decode_obfuscated_layers("x=unescape('%68%69'); y=atob('eHl6');"),
            "hixyz");
}

class AllTechniquesTest
    : public ::testing::TestWithParam<dm::synth::RedirectTechnique> {};

TEST_P(AllTechniquesTest, MinerRecoversEveryGeneratorTechnique) {
  dm::util::Rng rng(42);
  const std::string target = "http://target-host.top/gate.php";
  const auto technique = GetParam();
  HttpTransaction txn;
  txn.server_host = "src.example";
  txn.request.method = "GET";
  txn.request.uri = "/";
  HttpResponse res;
  if (technique == dm::synth::RedirectTechnique::kLocationHeader) {
    res.status_code = 302;
    res.headers.add("Location", target);
  } else {
    res.status_code = 200;
    res.headers.add("Content-Type", dm::synth::redirect_content_type(technique));
  }
  res.body = dm::synth::redirect_body(technique, target, rng);
  txn.response = std::move(res);

  const auto evidence = mine_redirects(txn);
  ASSERT_FALSE(evidence.empty());
  bool found = false;
  for (const auto& e : evidence) found |= e.target_host == "target-host.top";
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(
    Techniques, AllTechniquesTest,
    ::testing::Values(dm::synth::RedirectTechnique::kLocationHeader,
                      dm::synth::RedirectTechnique::kMetaRefresh,
                      dm::synth::RedirectTechnique::kIframe,
                      dm::synth::RedirectTechnique::kPlainJavaScript,
                      dm::synth::RedirectTechnique::kHexEscapedJs,
                      dm::synth::RedirectTechnique::kUnescapeJs,
                      dm::synth::RedirectTechnique::kBase64Js));

}  // namespace
}  // namespace dm::http
