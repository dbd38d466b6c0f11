#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> table = {
      {"setup_s", "s", false},
      {"job_s", "s", false},
      {"tasks_per_s", "items/s", true},
      {"peak_rss_mb", "MiB", false},
      {"cost_usd", "USD", false},
  };
  return table;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> table = {
      // common: content checksum
      {"checksum.ns_per_mib", "ns", false},
      {"checksum.mib_hashed_per_task", "MiB", false},
      // cloudq
      {"cloudq.send_ns", "ns", false},
      {"cloudq.receive_ns", "ns", false},
      {"cloudq.delete_ns", "ns", false},
      {"cloudq.requests_per_task", "count", false},
      {"cloudq.batch_occupancy", "count", true},
      {"cloudq.empty_receive_share", "ratio", false},
      {"cloudq.busy_share", "ratio", false},
      {"cloudq.failed_ops", "count", false},
      {"probe.queue_send_batch_ns", "ns", false},
      {"probe.queue_receive_batch_ns", "ns", false},
      {"probe.queue_delete_batch_ns", "ns", false},
      // blobstore / storage
      {"blobstore.put_ns", "ns", false},
      {"blobstore.get_ns", "ns", false},
      {"blobstore.index_ns", "ns", false},
      {"storage.requests_per_task", "count", false},
      {"storage.bytes_per_task", "B", false},
      {"storage.busy_share", "ratio", false},
      {"storage.get_misses", "count", false},
      {"blockcache.hit_ratio", "ratio", true},
      {"probe.blob_put_256b_ns", "ns", false},
      {"probe.blob_get_256b_ns", "ns", false},
      {"probe.blob_put_1mib_ns", "ns", false},
      {"probe.blob_get_1mib_ns", "ns", false},
      // classiccloud
      {"codec.encode_task_ns", "ns", false},
      {"codec.decode_task_ns", "ns", false},
      {"codec.encode_monitor_ns", "ns", false},
      {"codec.decode_monitor_ns", "ns", false},
      {"classiccloud.submit_s", "s", false},
      // runtime
      {"executor.busy_share", "ratio", false},
      {"executor.ns_p50", "ns", false},
      {"executor.ns_p99", "ns", false},
      {"runtime.residual_ns_per_task", "ns", false},
      {"runtime.redeliveries", "count", false},
      {"runtime.executions_per_task", "count", false},
      // core / sim (DES)
      {"core.wall_ns_per_task", "ns", false},
      {"core.wall_ns_per_queue_request", "ns", false},
      {"core.attributed_share", "ratio", true},
      {"core.duplicate_executions", "count", false},
      {"monitor.samples", "count", false},
      {"monitor.to_json_ms", "ms", false},
      // mapreduce shuffle
      {"shuffle.partition_ns", "ns", false},
      {"shuffle.sort_records_per_s", "1/s", true},
      {"shuffle.spill_put_ns", "ns", false},
      {"shuffle.fetch_get_ns", "ns", false},
      {"shuffle.map_fn_busy_share", "ratio", false},
      {"shuffle.reduce_fn_busy_share", "ratio", false},
      {"shuffle.spill_amplification", "ratio", false},
      {"shuffle.sort_runs_spilled", "count", false},
      {"shuffle.fetch_retries", "count", false},
      {"shuffle.map_redrives", "count", false},
      // the traced run itself
      {"trace.overhead", "ratio", false},
      {"trace.unattributed_share", "ratio", false},
      {"trace.reconcile_error", "ratio", false},
  };
  return table;
}

void MetricSet::set(std::string_view name, double value) {
  const bool known = std::any_of(table_->begin(), table_->end(),
                                 [&](const MetricDef& d) { return name == d.name; });
  if (!known) throw std::logic_error("unknown metric: " + std::string(name));
  values_[std::string(name)] = value;
}

double MetricSet::get(std::string_view name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void MetricSet::finish() {
  for (const MetricDef& d : *table_) values_.try_emplace(d.name, 0.0);
}

double percentile_of(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median_of(std::vector<double> xs) { return percentile_of(std::move(xs), 50.0); }

RepLog run_reps(const RunOptions& opts, const RepFn& rep) {
  RepLog log;
  // Warm-up: lets the allocator grow to the workload's working set and
  // lazy one-time initialisation finish, so timed reps see steady state.
  log.warmup = rep(false);
  double spent = 0.0;
  bool next_traced = false;
  auto enough = [&] {
    const bool mins = static_cast<int>(log.untraced.size()) >= opts.min_reps &&
                      (!opts.trace || static_cast<int>(log.traced.size()) >= opts.min_reps);
    return mins && spent >= opts.seconds;
  };
  while (!enough()) {
    const bool traced = opts.trace && next_traced;
    const auto t0 = SteadyClock::now();
    RepSample s = rep(traced);
    spent += seconds_since(t0);
    (traced ? log.traced : log.untraced).push_back(std::move(s));
    next_traced = !next_traced;
  }
  return log;
}

WorkloadResult summarize(const RunOptions& opts, const RepLog& log) {
  WorkloadResult out(opts.trace ? per_layer_metrics() : end_to_end_metrics());
  std::vector<double> setup, job, rate, cost;
  auto absorb = [&](const RepSample& s) {
    out.attempted += s.items;
    out.failed += s.failed_items;
    for (const std::string& f : s.failures) {
      // Each distinct violation once: a broken program fails every rep alike.
      if (std::find(out.failures.begin(), out.failures.end(), f) == out.failures.end()) {
        out.failures.push_back(f);
      }
    }
  };
  absorb(log.warmup);
  for (const RepSample& s : log.untraced) {
    absorb(s);
    setup.push_back(s.setup_s);
    job.push_back(s.job_s);
    rate.push_back(s.job_s > 0.0 ? static_cast<double>(s.items) / s.job_s : 0.0);
    cost.push_back(s.cost_usd);
  }
  for (const RepSample& s : log.traced) absorb(s);

  if (!opts.trace) {
    out.metrics.set("setup_s", median_of(setup));
    out.metrics.set("job_s", median_of(job));
    out.metrics.set("tasks_per_s", median_of(rate));
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    out.metrics.set("cost_usd", median_of(cost));
  } else {
    std::map<std::string, std::vector<double>> layer;
    std::vector<double> traced_job;
    for (const RepSample& s : log.traced) {
      traced_job.push_back(s.job_s);
      for (const auto& [name, v] : s.layer) layer[name].push_back(v);
    }
    for (auto& [name, vs] : layer) out.metrics.set(name, median_of(vs));
    const double untraced = median_of(job);
    out.metrics.set("trace.overhead", untraced > 0.0 ? median_of(traced_job) / untraced : 0.0);
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::string cpu_model() {
  // The brand string from CPUID leaves 0x80000002..4; no file is read.
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  char brand[49] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    unsigned int regs[4] = {};
    __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * i, regs, sizeof(regs));
  }
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

}  // namespace

std::string fingerprint_json(const RunOptions& opts) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
     << sysconf(_SC_NPROCESSORS_ONLN) << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS) << "\", \"build_type\": \""
     << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"revision\": \"" << json_escape(opts.revision)
     << "\", \"workload\": \"" << json_escape(opts.workload) << "\", \"seed\": " << opts.seed
     << ", \"seconds\": " << json_number(opts.seconds) << ", \"trace\": " << (opts.trace ? 1 : 0)
     << "}";
  return os.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(const WorkloadResult& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct() ? "true" : "false")
     << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : result.metrics.table()) {
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << json_number(result.metrics.get(d.name)) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string result_text(const WorkloadResult& result) {
  std::ostringstream os;
  for (const MetricDef& d : result.metrics.table()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n", d.name, result.metrics.get(d.name),
                  d.unit);
    os << line;
  }
  return os.str();
}

}  // namespace perfbench
