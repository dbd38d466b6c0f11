#include "inputs.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string_view>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
constexpr char kComplement[4] = {'T', 'G', 'C', 'A'};

/// Fills `input` with random bases and `expected` with their reverse
/// complement, drawing 32 bases per 64-bit word.
void random_dna(SplitMix64& rng, std::size_t n, std::string& input, std::string& expected) {
  input.resize(n);
  expected.resize(n);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 32 == 0) word = rng.next();
    const unsigned b = static_cast<unsigned>(word & 3u);
    word >>= 2;
    input[i] = kBases[b];
    expected[n - 1 - i] = kComplement[b];
  }
}

std::int64_t parse_int(std::string_view s) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw std::runtime_error("bad integer field: " + std::string(s));
  }
  return v;
}

/// Calls fn(key, value) for each "<key> <value>\n" line of `text`.
template <typename Fn>
void for_each_record(std::string_view text, Fn&& fn) {
  while (!text.empty()) {
    const auto nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    const auto sp = line.find(' ');
    if (sp == std::string_view::npos) throw std::runtime_error("bad record line");
    fn(line.substr(0, sp), line.substr(sp + 1));
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
}

}  // namespace

ClassicInputs make_classic_inputs(std::uint64_t seed, int tasks, std::size_t input_bytes,
                                  std::size_t shared_bytes) {
  SplitMix64 rng(seed);
  ClassicInputs in;
  in.files.reserve(static_cast<std::size_t>(tasks));
  in.expected.reserve(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    std::string data, expected;
    random_dna(rng, input_bytes, data, expected);
    std::string name = "f";
    name += std::to_string(i);
    in.files.emplace_back(std::move(name), std::move(data));
    in.expected.push_back(std::move(expected));
  }
  if (shared_bytes > 0) {
    std::string ref, unused;
    random_dna(rng, shared_bytes, ref, unused);
    in.shared.emplace_back("reference.fa", std::move(ref));
  }
  return in;
}

std::string reverse_complement(const std::string& input) {
  static const auto table = [] {
    std::array<char, 256> t;
    t.fill('N');
    for (int b = 0; b < 4; ++b) t[static_cast<unsigned char>(kBases[b])] = kComplement[b];
    return t;
  }();
  std::string out(input.size(), 'N');
  const std::size_t n = input.size();
  for (std::size_t i = 0; i < n; ++i) out[n - 1 - i] = table[static_cast<unsigned char>(input[i])];
  return out;
}

ShuffleInputs make_shuffle_inputs(std::uint64_t seed, int files, int records_per_file,
                                  int distinct_keys) {
  SplitMix64 rng(seed);
  ShuffleInputs in;
  std::vector<std::pair<std::string, std::int64_t>> all;
  all.reserve(static_cast<std::size_t>(files) * static_cast<std::size_t>(records_per_file));
  const auto keys = static_cast<std::uint64_t>(distinct_keys);
  for (int f = 0; f < files; ++f) {
    std::string text;
    for (int r = 0; r < records_per_file; ++r) {
      // min of two uniforms: a skewed histogram, hot bins first.
      const std::uint64_t bin = std::min(rng.below(keys), rng.below(keys));
      const std::int64_t value = static_cast<std::int64_t>(rng.below(1000));
      char key[16];
      const int klen = std::snprintf(key, sizeof(key), "k%06llu",
                                     static_cast<unsigned long long>(bin));
      text.append(key, static_cast<std::size_t>(klen));
      text += ' ';
      text += std::to_string(value);
      text += '\n';
      all.emplace_back(std::string(key, static_cast<std::size_t>(klen)), value);
    }
    in.files.emplace_back("/in/part-" + std::to_string(f) + ".txt", std::move(text));
  }
  in.records = static_cast<std::int64_t>(all.size());
  // The reference: one single-threaded sort, then a linear group-by.
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    std::int64_t sum = 0;
    while (j < all.size() && all[j].first == all[i].first) sum += all[j++].second;
    in.expected.emplace(all[i].first, std::to_string(j - i) + " " + std::to_string(sum));
    i = j;
  }
  return in;
}

void histogram_map(const ppc::mapreduce::FileRecord&, const std::string& contents,
                   const ppc::mapreduce::EmitFn& emit) {
  for_each_record(contents, [&](std::string_view key, std::string_view value) {
    emit(std::string(key), std::string(value));
  });
}

std::string histogram_reduce(const std::string&, const std::vector<std::string>& values) {
  std::int64_t sum = 0;
  for (const std::string& v : values) sum += parse_int(v);
  return std::to_string(values.size()) + " " + std::to_string(sum);
}

}  // namespace perfbench
