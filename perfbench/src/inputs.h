// Seeded input generators and the user code the workloads run.
//
// Inputs come from the benchmark's own SplitMix64 stream, not ppc::Rng, so
// a change to the program's random streams cannot change what the
// benchmark feeds it. Each generator also derives the expected output on
// its own, so the correctness gates compare the program's result against
// an answer the program did not compute.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "classiccloud/task.h"
#include "mapreduce/shuffle_job.h"

namespace perfbench {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

using NamedFiles = std::vector<std::pair<std::string, std::string>>;

/// Classic Cloud job inputs: one DNA-alphabet file per task, the output the
/// executor must produce for it, and the job-wide reference files.
struct ClassicInputs {
  NamedFiles files;
  std::vector<std::string> expected;  // expected[i] is the output of files[i]
  NamedFiles shared;
};

ClassicInputs make_classic_inputs(std::uint64_t seed, int tasks, std::size_t input_bytes,
                                  std::size_t shared_bytes);

/// The task executable of the Classic Cloud workloads: the reverse
/// complement of a DNA string (deterministic, idempotent, one pass).
std::string reverse_complement(const std::string& input);

/// Shuffle job inputs: text files of "<key> <value>\n" records.
struct ShuffleInputs {
  NamedFiles files;  // (HDFS path, contents)
  std::int64_t records = 0;
  /// key -> "<count> <sum>": the reference group-by, computed with one
  /// std::sort over every record.
  std::map<std::string, std::string> expected;
};

ShuffleInputs make_shuffle_inputs(std::uint64_t seed, int files, int records_per_file,
                                  int distinct_keys);

/// Histogram map: one emit per input line (key, value).
void histogram_map(const ppc::mapreduce::FileRecord& record, const std::string& contents,
                   const ppc::mapreduce::EmitFn& emit);

/// Histogram reduce: "<count> <sum of values>".
std::string histogram_reduce(const std::string& key, const std::vector<std::string>& values);

}  // namespace perfbench
