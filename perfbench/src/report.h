// Metric tables, run options, rep loop and result formatting shared by the
// benchmark's workloads.
//
// Every metric the benchmark can print is declared once in the tables
// below (name, unit, which direction is better). BENCHMARK.json mirrors
// them, the self-tests check their names, and MetricSet refuses a name
// that is not in its table, so a typo cannot invent a metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
};

/// Metrics printed by an untraced run (--trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
/// Metrics printed by a traced run (--trace 1).
const std::vector<MetricDef>& per_layer_metrics();

/// Name -> value for one table. set() throws on a name outside the table;
/// finish() fills every metric the workload did not touch with 0, so each
/// run prints the whole table (a layer a workload bypasses reads 0).
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& table) : table_(&table) {}
  void set(std::string_view name, double value);
  double get(std::string_view name) const;
  bool has(std::string_view name) const { return values_.find(name) != values_.end(); }
  const std::map<std::string, double, std::less<>>& values() const { return values_; }
  const std::vector<MetricDef>& table() const { return *table_; }
  void finish();

 private:
  const std::vector<MetricDef>* table_;
  std::map<std::string, double, std::less<>> values_;
};

/// Median and percentiles over a vector of samples (linear interpolation,
/// the same rule as ppc::SampleSet).
double median_of(std::vector<double> xs);
double percentile_of(std::vector<double> xs, double p);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured wall time: reps run until this much time has been spent in
  /// them (after one untimed warm-up rep).
  double seconds = 10.0;
  bool trace = false;
  /// Workload size multiplier; the self-tests shrink every workload.
  double scale = 1.0;
  /// Reps measured even when `seconds` runs out first (per mode).
  int min_reps = 3;
  /// Where a traced run writes its Perfetto-loadable span file ("" = none).
  std::string trace_path;
  /// Source revision of the build, for the fingerprint.
  std::string revision = "unknown";
};

/// One set-up + job of a workload.
struct RepSample {
  double setup_s = 0.0;
  double job_s = 0.0;
  std::int64_t items = 0;  // attempted items (tasks, or records shuffled)
  std::int64_t failed_items = 0;
  double cost_usd = 0.0;
  std::vector<std::string> failures;  // gate violations, empty when correct
  /// Per-layer values of a traced rep (empty for untraced reps).
  std::map<std::string, double> layer;
};

using RepFn = std::function<RepSample(bool traced)>;

struct RepLog {
  RepSample warmup;  // gated and counted, never timed
  std::vector<RepSample> untraced;
  std::vector<RepSample> traced;
};

/// Runs one untimed warm-up rep, then reps until opts.seconds of rep time
/// has passed and each mode has at least opts.min_reps. A traced run
/// alternates untraced and traced reps so the overhead ratio compares reps
/// taken under the same host conditions.
RepLog run_reps(const RunOptions& opts, const RepFn& rep);

/// What one benchmark invocation reports.
struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  MetricSet metrics;
  explicit WorkloadResult(const std::vector<MetricDef>& table) : metrics(table) {}
  bool correct() const { return failures.empty() && failed == 0; }
};

/// Folds the reps into the end-to-end table (untraced) or the per-layer
/// table (traced: median of each layer value over the traced reps, plus
/// trace.overhead). Gate failures of every rep are collected. The caller
/// completes the table with MetricSet::finish().
WorkloadResult summarize(const RunOptions& opts, const RepLog& log);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Host and build identity: CPU model, logical CPUs, compiler, flags,
/// build type, source revision and seed.
std::string fingerprint_json(const RunOptions& opts);

/// The single-line result object the benchmark prints last.
std::string result_json(const WorkloadResult& result);

/// Human-readable "name value unit" lines, one per metric.
std::string result_text(const WorkloadResult& result);

/// Escapes `s` for inclusion inside a JSON string literal.
std::string json_escape(std::string_view s);

/// Formats a double with every significant digit ("%.17g"), or 0 for
/// non-finite values.
std::string json_number(double v);

}  // namespace perfbench
