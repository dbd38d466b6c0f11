#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault_hook.h"
#include "common/rng.h"
#include "mapreduce/shuffle.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"

namespace ppc {
namespace {

TEST(Split, BasicFields) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoSeparator) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Trim, RemovesWhitespaceBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("input/file", "input/"));
  EXPECT_FALSE(starts_with("in", "input/"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KB");
  EXPECT_EQ(format_bytes(8.7 * 1024 * 1024 * 1024), "8.70 GB");
}

TEST(FormatDuration, HoursMinutesSeconds) {
  EXPECT_EQ(format_duration(3.25), "3.2s");
  EXPECT_EQ(format_duration(65.0), "1m 5.0s");
  EXPECT_EQ(format_duration(3661.0), "1h 1m 1.0s");
}

TEST(KvCodec, RoundTrip) {
  const std::map<std::string, std::string> kv = {
      {"task", "t42"}, {"in", "input/f"}, {"out", "output/f"}};
  const auto decoded = decode_kv(encode_kv(kv));
  EXPECT_EQ(decoded, kv);
}

TEST(KvCodec, EmptyMap) {
  EXPECT_EQ(encode_kv({}), "");
  EXPECT_TRUE(decode_kv("").empty());
}

TEST(KvCodec, RejectsReservedCharacters) {
  EXPECT_THROW(encode_kv({{"a=b", "v"}}), InvalidArgument);
  EXPECT_THROW(encode_kv({{"k", "v;w"}}), InvalidArgument);
}

TEST(KvCodec, RejectsMalformedInput) {
  EXPECT_THROW(decode_kv("novalue"), InvalidArgument);
}

TEST(KvCodec, DeterministicKeyOrder) {
  EXPECT_EQ(encode_kv({{"b", "2"}, {"a", "1"}}), "a=1;b=2");
}

// A fixed, non-repeating-per-word byte pattern for the hash tests.
std::string pattern(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>((i * 131 + 7) & 0xff);
  return s;
}

TEST(ContentHash64, PublishedXxh64Vectors) {
  // content_hash64 is xxHash64 with seed 0; these are the reference
  // implementation's published values.
  EXPECT_EQ(content_hash64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(content_hash64("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(content_hash64("abc"), 0x44bc2cf5ad770999ULL);
}

TEST(ContentHash64, KnownAnswersAcrossStripeAndTailBoundaries) {
  // Lengths straddle every code path: bytes-only tail, the 4-byte word, the
  // 8-byte words, exactly one 32-byte stripe, stripe + tail, two stripes.
  // Values from an independent xxHash64 implementation.
  const std::vector<std::pair<std::size_t, std::uint64_t>> known = {
      {0, 0xef46db3751d8e999ULL},       {1, 0xa96c7f0ce858bbb7ULL},
      {3, 0xbed43740ee6332bbULL},       {4, 0xfa212ae44b3bb23dULL},
      {7, 0x2744460dd675d2c0ULL},       {8, 0x994b676b71ce94ddULL},
      {31, 0x6711d55e306b5d8fULL},      {32, 0x07f7b8e3bc5d6e25ULL},
      {33, 0x09f85eeb4e1cbe9fULL},      {63, 0xb7c9968c066cb6a5ULL},
      {64, 0x50d4159a0411632eULL},      {1u << 20, 0x1b13a8085220794bULL},
  };
  for (const auto& [n, expected] : known) {
    EXPECT_EQ(content_hash64(pattern(n)), expected) << "length " << n;
  }
}

TEST(ContentHash64, DetectsEverySingleBitFlipUpTo130Bytes) {
  for (std::size_t n = 1; n <= 130; ++n) {
    std::string data = pattern(n);
    const std::uint64_t clean = content_hash64(data);
    for (std::size_t bit = 0; bit < n * 8; ++bit) {
      data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
      ASSERT_NE(content_hash64(data), clean) << "length " << n << " bit " << bit;
      data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
    }
  }
}

TEST(ContentHash64, DetectsSampledSingleBitFlipsInOneMiB) {
  std::string data = pattern(1u << 20);
  const std::uint64_t clean = content_hash64(data);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  Rng rng(15);
  std::vector<std::uint64_t> flips = {0, 7, 255, 256, bits - 1};
  while (flips.size() < 400) flips.push_back(rng.next_u64() % bits);
  for (const std::uint64_t bit : flips) {
    data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_NE(content_hash64(data), clean) << "bit " << bit;
    data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
  }
  EXPECT_EQ(content_hash64(data), clean);
}

TEST(ContentHash64, UnalignedViewsHashLikeAlignedCopies) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{5}, std::size_t{31},
                              std::size_t{77}, std::size_t{(1u << 20) + 13}}) {
    const std::string aligned = pattern(n);
    const std::uint64_t expected = content_hash64(aligned);
    for (std::size_t offset = 1; offset <= 7; ++offset) {
      const std::string padded = std::string(offset, 'x') + aligned;
      EXPECT_EQ(content_hash64(std::string_view(padded).substr(offset)), expected)
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(DeterminismHashes, Fnv1a64KeepsItsPublishedValues) {
  // fnv1a64 seeds partitions, fault streams and logical etags; its values
  // are part of every replay, so they are pinned here.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("apple"), 0xf74a62a458befdbfULL);
}

TEST(DeterminismHashes, PartitionOfIsPinned) {
  EXPECT_EQ(mapreduce::partition_of("apple", 8), 7);
  EXPECT_EQ(mapreduce::partition_of("banana", 8), 0);
  EXPECT_EQ(mapreduce::partition_of("t1", 8), 6);
  EXPECT_EQ(mapreduce::partition_of("t42", 8), 5);
  EXPECT_EQ(mapreduce::partition_of("banana", 3), 2);
  EXPECT_EQ(mapreduce::partition_of("t42", 3), 0);
}

TEST(DeterminismHashes, FaultPlanSiteSeedIsPinned) {
  // A plan's per-site stream is Rng(seed ^ fnv1a64(site)); a p=0.5 rule
  // draws one bernoulli per firing.
  runtime::FaultPlan plan;
  plan.seed = 42;
  plan.error("site.x", "x", /*budget=*/-1, /*probability=*/0.5);
  runtime::FaultInjector faults;
  faults.arm_plan(plan);
  Rng reference(42 ^ fnv1a64("site.x"));
  std::uint32_t fired = 0;
  std::uint32_t expected = 0;
  PayloadRef no_payload(nullptr);
  for (int i = 0; i < 32; ++i) {
    if (faults.on_operation("site.x", "k", &no_payload).fail) fired |= 1u << i;
    if (reference.bernoulli(0.5)) expected |= 1u << i;
  }
  EXPECT_EQ(fired, expected);
  // Seed 42's decisions at site.x; if this moves, every chaos replay moves.
  EXPECT_EQ(fired, 0x8b718af2u);
}

}  // namespace
}  // namespace ppc
