// Spans recorded from outside the program, and the attribution of worker
// time to layers.
//
// SpanRecorder implements ppc::TraceHook, so it plugs into the seams the
// services already expose (BlobStore::set_tracer, QueueService::set_tracer,
// BlockCache::set_tracer). The benchmark's own wrappers (task executor,
// map and reduce functions, the storage decorator) open spans on the same
// recorder, so one per-thread stack gives every span its parent. Spans stay
// in memory until the rep ends; write_chrome_trace() turns them into the
// Chrome trace-event JSON that Perfetto loads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace_hook.h"
#include "common/units.h"
#include "storage/storage_backend.h"

namespace perfbench {

using ppc::Bytes;
using ppc::Dollars;
using ppc::Seconds;

enum class Layer : std::uint8_t { kCloudq, kStorage, kExecutor, kMapFn, kReduceFn };
inline constexpr std::size_t kLayerCount = 5;
const char* layer_name(Layer layer);

struct Span {
  std::uint64_t id = 0;      // unique within the recorder, never 0
  std::uint64_t parent = 0;  // 0 = top level on its thread
  std::uint32_t thread = 0;  // recorder-local thread index
  Layer layer = Layer::kCloudq;
  bool failed = false;
  bool empty_receive = false;  // a queue receive that found nothing
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string site;  // "cloudq.<queue>.receive", "blobstore.job.get", "executor", ...
  std::string key;   // blob key / receipt / task id, as the caller gave it
  std::string task;  // per-task id, filled by assign_tasks()

  std::int64_t duration_ns() const { return end_ns - start_ns; }
  /// The operation: the site's text after its last '.'.
  std::string_view op() const;
};

class SpanRecorder final : public ppc::TraceHook {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // ppc::TraceHook: spans fired by the services. The layer is read from
  // the site's first component ("cloudq", "blobstore", "cache").
  bool tracing() const override { return true; }
  std::uint64_t op_begin(std::string_view site, std::string_view key) override;
  void op_end(std::uint64_t token, bool failed) override;
  /// The queue cancels the span of a receive that found nothing; it is
  /// still a billed request, so it is kept and marked empty_receive.
  void op_cancel(std::uint64_t token) override;

  /// Spans opened by the benchmark's own wrappers.
  std::uint64_t begin(Layer layer, std::string_view site, std::string_view key);
  void end(std::uint64_t token, bool failed = false) { op_end(token, failed); }

  /// Recorder-local index of the calling thread (registers it).
  std::uint32_t thread_index();

  /// Every closed span, by (thread, start). Call once the recording
  /// threads have been joined.
  std::vector<Span> spans() const;

 private:
  struct ThreadLog {
    std::uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  // stack of indices into spans
  };
  ThreadLog& local();
  std::uint64_t open_span(Layer layer, std::string_view site, std::string_view key);

  const std::uint64_t epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Gives every span a per-task id. A span names its task through its key
/// (Classic Cloud "input/<name>" and "output/<name>" blobs, shuffle spill
/// and sort-run keys) or its wrapper (executor task id, map input file,
/// reduce partition). An unnamed span takes its parent's task, or else the
/// task of the next named span on its thread. Batched queue calls serve
/// many tasks and are marked "batch".
void assign_tasks(std::vector<Span>& spans);

/// How the worker threads' wall time splits across layers.
struct Attribution {
  std::array<double, kLayerCount> self_ns{};  // span time minus child spans
  double idle_ns = 0.0;      // gaps that follow an empty receive (poll sleep)
  double residual_ns = 0.0;  // wall - self - idle: the program's own work
  double wall_ns = 0.0;      // window length x worker slots
  double covered_ns = 0.0;   // union of span intervals, computed independently
  /// |sum(self) - covered| / wall: 0 when every child span sits inside its
  /// parent and no two sibling spans overlap.
  double reconcile_error() const;
  double self_total() const;
  double share(Layer layer) const { return wall_ns > 0.0 ? self_ns[static_cast<int>(layer)] / wall_ns : 0.0; }
};

/// Attributes the window [start_ns, end_ns] of each thread in `threads`.
/// The wall is the window times `wall_threads`: the worker slots, which
/// may be fewer than the threads seen when a runner replaces its pool
/// between phases.
Attribution attribute(const std::vector<Span>& spans, const std::set<std::uint32_t>& threads,
                      std::int64_t start_ns, std::int64_t end_ns, int wall_threads);

/// Largest reconcile_error() and most negative residual share the traced
/// run accepts.
inline constexpr double kReconcileTolerance = 0.02;

/// The reconciliation check of a traced rep: layer self times plus idle
/// plus residual must account for the worker wall time. Returns the
/// violations (empty when it holds).
std::vector<std::string> reconcile(const Attribution& a);

/// Count and time of the spans on `threads` whose site starts with
/// `site_prefix` and whose op() is `op`.
struct OpSummary {
  std::size_t count = 0;
  std::size_t failed = 0;
  std::size_t empty = 0;
  double total_ns = 0.0;
  std::vector<double> durations_ns;
  double mean_ns() const { return count == 0 ? 0.0 : total_ns / static_cast<double>(count); }
};
OpSummary summarize_ops(const std::vector<Span>& spans, const std::set<std::uint32_t>& threads,
                        std::string_view site_prefix, std::string_view op);

/// Recorder threads other than `main_thread`.
std::set<std::uint32_t> worker_threads(const std::vector<Span>& spans, std::uint32_t main_thread);

/// Writes the spans as Chrome trace-event JSON ({"traceEvents": [...]})
/// with `metadata_json` under "metadata". Throws std::runtime_error when
/// the file cannot be written.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& metadata_json);

/// A storage::StorageBackend that forwards to `inner` and times every put
/// and get as a storage span, counting operations, bytes and failures.
/// Passed as ShuffleJobConfig::spill_store it measures spill and fetch.
class TimedStorage final : public ppc::storage::StorageBackend {
 public:
  struct OpStats {
    std::uint64_t count = 0;
    std::uint64_t failed = 0;
    std::int64_t ns = 0;
    double bytes = 0.0;
    double mean_ns() const { return count == 0 ? 0.0 : static_cast<double>(ns) / count; }
  };

  TimedStorage(ppc::storage::StorageBackend& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  OpStats puts() const { return load(puts_); }
  OpStats gets() const { return load(gets_); }

  ppc::storage::StorageKind kind() const override { return inner_.kind(); }
  void set_fault_hook(ppc::FaultHook* hook) override { inner_.set_fault_hook(hook); }
  void set_tracer(ppc::TraceHook* tracer) override { inner_.set_tracer(tracer); }
  void create_bucket(const std::string& bucket) override { inner_.create_bucket(bucket); }
  bool bucket_exists(const std::string& bucket) const override {
    return inner_.bucket_exists(bucket);
  }
  void put(const std::string& bucket, const std::string& key, std::string data) override;
  void put_logical(const std::string& bucket, const std::string& key, Bytes size) override {
    inner_.put_logical(bucket, key, size);
  }
  std::shared_ptr<const std::string> get(const std::string& bucket,
                                         const std::string& key) override;
  std::optional<Bytes> head(const std::string& bucket, const std::string& key) override {
    return inner_.head(bucket, key);
  }
  bool exists(const std::string& bucket, const std::string& key) override {
    return inner_.exists(bucket, key);
  }
  std::optional<std::uint64_t> etag(const std::string& bucket,
                                    const std::string& key) const override {
    return inner_.etag(bucket, key);
  }
  bool remove(const std::string& bucket, const std::string& key) override {
    return inner_.remove(bucket, key);
  }
  std::vector<std::string> list(const std::string& bucket,
                                const std::string& prefix = "") override {
    return inner_.list(bucket, prefix);
  }
  Bytes stored_bytes() const override { return inner_.stored_bytes(); }
  ppc::storage::TransferMeter meter() const override { return inner_.meter(); }
  Dollars transfer_and_request_cost() const override {
    return inner_.transfer_and_request_cost();
  }
  ppc::storage::StoragePricing pricing() const override { return inner_.pricing(); }
  Seconds sample_get_time(Bytes size, ppc::Rng& rng) const override {
    return inner_.sample_get_time(size, rng);
  }
  Seconds sample_put_time(Bytes size, ppc::Rng& rng) const override {
    return inner_.sample_put_time(size, rng);
  }

 private:
  struct AtomicStats {
    std::atomic<std::uint64_t> count{0}, failed{0};
    std::atomic<std::int64_t> ns{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  static OpStats load(const AtomicStats& a);
  static void add(AtomicStats& a, std::int64_t ns, std::size_t bytes, bool failed);

  ppc::storage::StorageBackend& inner_;
  SpanRecorder& recorder_;
  AtomicStats puts_;
  AtomicStats gets_;
};

}  // namespace perfbench
