// Small string helpers: splitting, trimming, numeric formatting, and the
// key=value record codec used for Classic Cloud task messages (the paper's
// SQS messages are short self-describing task records, §2.1.3).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ppc {

/// FNV-1a 64-bit hash, one byte at a time. Its values are part of the
/// determinism contracts: shuffle `partition_of`, FaultPlan per-site RNG
/// seeds (`seed ^ fnv1a64(site)`), the chaos campaign's RNG seed and the
/// identity-derived etags of logical objects all hash short strings with
/// it, so changing it would move every partition, fault stream and DES
/// rerun. Payload integrity uses content_hash64 instead.
std::uint64_t fnv1a64(std::string_view s);

/// Payload-integrity checksum: the xxHash64 construction (seed 0), four
/// independent 64-bit lanes over 32-byte stripes, so it reads a word at a
/// time and runs ~15x faster than fnv1a64 on large bodies. Stands in for
/// the MD5 checksums the real services attach to payloads (SQS's
/// MD5OfBody, S3's ETag): queues, the blob store and shuffle spills stamp
/// stored bodies with it, and consumers verify deliveries against the
/// stamp to detect corrupted-in-flight copies. Stamp and check must both
/// use this function. Values are the same on every host (words are read
/// little-endian) and for any alignment of `s`.
std::uint64_t content_hash64(std::string_view s);

/// Splits `s` on `sep`; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Formats with fixed decimals, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double v, int decimals);

/// Human-friendly byte count: "1.5 MB", "8.7 GB".
std::string format_bytes(double bytes);

/// "1h 02m 03s" style duration rendering for reports.
std::string format_duration(double seconds);

/// Serializes a flat string map as "k1=v1;k2=v2". Keys/values must not
/// contain '=' or ';' (checked). Deterministic (keys sorted by std::map).
std::string encode_kv(const std::map<std::string, std::string>& kv);

/// Inverse of encode_kv. Throws ppc::InvalidArgument on malformed input.
std::map<std::string, std::string> decode_kv(std::string_view s);

}  // namespace ppc
