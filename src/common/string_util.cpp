#include "common/string_util.h"

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/error.h"

namespace ppc {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

// Unaligned little-endian loads: memcpy compiles to one mov on x86/ARM.
std::uint64_t load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

std::uint64_t load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

std::uint64_t merge_round(std::uint64_t acc, std::uint64_t lane) {
  acc ^= lane_round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t content_hash64(std::string_view s) {
  const char* p = s.data();
  std::size_t left = s.size();
  std::uint64_t h;
  if (left >= 32) {
    // Four independent lanes: each 32-byte stripe feeds one word to each,
    // so the multiplies of the four chains overlap in the pipeline.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    do {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
      p += 32;
      left -= 32;
    } while (left >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<std::uint64_t>(s.size());
  // Tail: remaining 8-byte words, then one 4-byte word, then single bytes.
  for (; left >= 8; p += 8, left -= 8) {
    h ^= lane_round(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    h ^= load32(p) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h ^= static_cast<unsigned char>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  // Final avalanche: every input bit reaches every output bit.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string format_bytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return format_fixed(bytes, bytes < 10 ? 2 : 1) + " " + kUnits[u];
}

std::string format_duration(double seconds) {
  const bool neg = seconds < 0;
  if (neg) seconds = -seconds;
  const auto total = static_cast<long long>(seconds);
  const long long h = total / 3600, m = (total % 3600) / 60;
  const double s = seconds - static_cast<double>(h * 3600 + m * 60);
  std::ostringstream os;
  if (neg) os << '-';
  if (h > 0) os << h << "h ";
  if (h > 0 || m > 0) os << m << "m ";
  os << format_fixed(s, 1) << "s";
  return os.str();
}

std::string encode_kv(const std::map<std::string, std::string>& kv) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [k, v] : kv) {
    PPC_REQUIRE(k.find('=') == std::string::npos && k.find(';') == std::string::npos,
                "kv key contains reserved character");
    PPC_REQUIRE(v.find('=') == std::string::npos && v.find(';') == std::string::npos,
                "kv value contains reserved character");
    if (!first) os << ';';
    first = false;
    os << k << '=' << v;
  }
  return os.str();
}

std::map<std::string, std::string> decode_kv(std::string_view s) {
  std::map<std::string, std::string> out;
  if (s.empty()) return out;
  for (const auto& field : split(s, ';')) {
    const std::size_t eq = field.find('=');
    PPC_REQUIRE(eq != std::string::npos, "malformed kv field: " + field);
    out.emplace(field.substr(0, eq), field.substr(eq + 1));
  }
  return out;
}

}  // namespace ppc
