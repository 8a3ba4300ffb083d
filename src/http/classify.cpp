#include "http/classify.h"

#include <algorithm>
#include <array>

#include "util/strings.h"

namespace dm::http {
namespace {

using dm::util::iequals;

// The paper matched conversations against "45 distinct file extensions that
// we compiled from industry reports on ransomware" [10].  This list follows
// the widely circulated sysadmin compilation the paper cites.
constexpr std::array<std::string_view, 45> kRansomwareExtensions = {
    "crypt",    "crypto",  "locky",    "zepto",   "odin",    "cerber",
    "cerber2",  "cerber3", "crysis",   "cryp1",   "crypz",   "cryptowall",
    "ecc",      "ezz",     "exx",      "zzz",     "xyz",     "aaa",
    "abc",      "ccc",     "vvv",      "xxx",     "ttt",     "micro",
    "encrypted","locked",  "crinf",    "r5a",     "xrtn",    "xtbl",
    "rdm",      "rrk",     "encryptedrsa", "crjoker", "enciphered",
    "lechiffre","keybtc@inbox_com", "0x0", "bleep", "1999",
    "vault",    "ha3",     "toxcrypt", "magic",   "surprise",
};

bool ext_is(std::string_view ext, std::string_view candidate) noexcept {
  return iequals(ext, candidate);
}

}  // namespace

std::string_view payload_type_name(PayloadType type) noexcept {
  switch (type) {
    case PayloadType::kNone: return "none";
    case PayloadType::kHtml: return "html";
    case PayloadType::kJavaScript: return "js";
    case PayloadType::kCss: return "css";
    case PayloadType::kImage: return "image";
    case PayloadType::kJson: return "json";
    case PayloadType::kText: return "text";
    case PayloadType::kPdf: return "pdf";
    case PayloadType::kExe: return "exe";
    case PayloadType::kJar: return "jar";
    case PayloadType::kSwf: return "swf";
    case PayloadType::kSilverlight: return "xap";
    case PayloadType::kCrypt: return "crypt";
    case PayloadType::kArchive: return "archive";
    case PayloadType::kOffice: return "office";
    case PayloadType::kVideo: return "video";
    case PayloadType::kOther: return "other";
  }
  return "?";
}

bool is_exploit_type(PayloadType type) noexcept {
  switch (type) {
    case PayloadType::kPdf:
    case PayloadType::kExe:
    case PayloadType::kJar:
    case PayloadType::kSwf:
    case PayloadType::kSilverlight:
    case PayloadType::kCrypt:
      return true;
    default:
      return false;
  }
}

bool is_download_type(PayloadType type) noexcept {
  return is_exploit_type(type) || type == PayloadType::kArchive ||
         type == PayloadType::kOffice;
}

bool is_ransomware_extension(std::string_view extension) noexcept {
  return std::any_of(kRansomwareExtensions.begin(), kRansomwareExtensions.end(),
                     [&](std::string_view e) { return iequals(e, extension); });
}

PayloadType classify_extension(std::string_view ext) noexcept {
  if (ext.empty()) return PayloadType::kNone;
  if (is_ransomware_extension(ext)) return PayloadType::kCrypt;
  if (ext_is(ext, "html") || ext_is(ext, "htm") || ext_is(ext, "php") ||
      ext_is(ext, "asp") || ext_is(ext, "aspx") || ext_is(ext, "jsp")) {
    return PayloadType::kHtml;
  }
  if (ext_is(ext, "js")) return PayloadType::kJavaScript;
  if (ext_is(ext, "css")) return PayloadType::kCss;
  if (ext_is(ext, "png") || ext_is(ext, "jpg") || ext_is(ext, "jpeg") ||
      ext_is(ext, "gif") || ext_is(ext, "ico") || ext_is(ext, "svg") ||
      ext_is(ext, "webp") || ext_is(ext, "bmp")) {
    return PayloadType::kImage;
  }
  if (ext_is(ext, "json")) return PayloadType::kJson;
  if (ext_is(ext, "txt") || ext_is(ext, "xml") || ext_is(ext, "csv")) {
    return PayloadType::kText;
  }
  if (ext_is(ext, "pdf")) return PayloadType::kPdf;
  if (ext_is(ext, "exe") || ext_is(ext, "dll") || ext_is(ext, "msi") ||
      ext_is(ext, "dmg") || ext_is(ext, "bin") || ext_is(ext, "scr") ||
      ext_is(ext, "com")) {
    return PayloadType::kExe;
  }
  if (ext_is(ext, "jar") || ext_is(ext, "class")) return PayloadType::kJar;
  if (ext_is(ext, "swf")) return PayloadType::kSwf;
  if (ext_is(ext, "xap")) return PayloadType::kSilverlight;
  if (ext_is(ext, "zip") || ext_is(ext, "rar") || ext_is(ext, "gz") ||
      ext_is(ext, "tgz") || ext_is(ext, "7z") || ext_is(ext, "bz2") ||
      ext_is(ext, "cab")) {
    return PayloadType::kArchive;
  }
  if (ext_is(ext, "doc") || ext_is(ext, "docx") || ext_is(ext, "xls") ||
      ext_is(ext, "xlsx") || ext_is(ext, "ppt") || ext_is(ext, "pptx") ||
      ext_is(ext, "rtf")) {
    return PayloadType::kOffice;
  }
  if (ext_is(ext, "mp4") || ext_is(ext, "webm") || ext_is(ext, "flv") ||
      ext_is(ext, "avi") || ext_is(ext, "ts") || ext_is(ext, "m3u8")) {
    return PayloadType::kVideo;
  }
  return PayloadType::kOther;
}

PayloadType classify_payload(std::string_view content_type,
                             std::string_view uri) noexcept {
  const std::string ext = dm::util::uri_extension(uri);
  const PayloadType from_ext = classify_extension(ext);

  if (content_type.empty()) return from_ext;

  // Lower-cased once; every needle below is lower-case, so a plain find
  // matches exactly where a case-insensitive search would.
  const std::string lowered = dm::util::to_lower(content_type);
  const auto has = [&lowered](std::string_view needle) noexcept {
    return lowered.find(needle) != std::string::npos;
  };

  // Generic container types defer to the extension.
  if (has("octet-stream") || has("application/download")) {
    return from_ext != PayloadType::kNone && from_ext != PayloadType::kOther
               ? from_ext
               : PayloadType::kExe;
  }
  if (has("text/html")) return PayloadType::kHtml;
  if (has("javascript") || has("ecmascript")) {
    return PayloadType::kJavaScript;
  }
  if (has("text/css")) return PayloadType::kCss;
  if (has("image/")) return PayloadType::kImage;
  if (has("application/json")) return PayloadType::kJson;
  if (has("application/pdf")) return PayloadType::kPdf;
  if (has("java-archive")) return PayloadType::kJar;
  if (has("shockwave-flash") || has("x-flash")) {
    return PayloadType::kSwf;
  }
  if (has("silverlight") || has("x-silverlight")) {
    return PayloadType::kSilverlight;
  }
  if (has("msdownload") || has("x-msdos-program") || has("x-executable")) {
    return PayloadType::kExe;
  }
  if (has("zip") || has("x-rar") || has("x-gzip") || has("x-7z")) {
    return PayloadType::kArchive;
  }
  if (has("msword") || has("officedocument") || has("ms-excel") ||
      has("ms-powerpoint")) {
    return PayloadType::kOffice;
  }
  if (has("video/") || has("mpegurl")) {
    return PayloadType::kVideo;
  }
  if (has("text/plain")) {
    // Crypto-locker payloads often travel as text/plain with a telltale
    // extension; prefer the extension signal.
    return from_ext == PayloadType::kCrypt ? PayloadType::kCrypt : PayloadType::kText;
  }
  return from_ext != PayloadType::kNone ? from_ext : PayloadType::kOther;
}

}  // namespace dm::http
