// The four benchmark workloads. Each is a closed batch: one client submits
// the whole input at once and waits for completion. See ../README.md for
// why each exists and which layer it stresses.
//
// Each workload is split into set-up, job and gate so the self-tests can
// tamper with a finished job's output and check that the gate notices.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blobstore/blob_store.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "core/drivers.h"
#include "inputs.h"
#include "minihdfs/mini_hdfs.h"
#include "runtime/monitor.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

const std::vector<std::string>& workload_names();

/// Runs one benchmark invocation. Throws std::invalid_argument on an
/// unknown workload name.
WorkloadResult run_workload(const RunOptions& opts);

// ---- classic_small / classic_1mb: real-thread Classic Cloud -------------

struct ClassicShape {
  int tasks = 0;
  std::size_t input_bytes = 0;
  std::size_t shared_bytes = 0;  // > 0: one reference file read through the BlockCache
  int workers = 3;
  int batch = 10;  // receive and delete batch
  int shards = 8;
};

ClassicShape classic_shape(const std::string& workload, double scale);

class ClassicRun {
 public:
  ClassicRun(const ClassicShape& shape, const ClassicInputs& inputs);
  ~ClassicRun();
  ClassicRun(const ClassicRun&) = delete;
  ClassicRun& operator=(const ClassicRun&) = delete;

  /// Builds the store and queue services and submits the job. Returns the
  /// seconds spent inside JobClient::submit.
  double setup();
  /// Installs `recorder` on the services; workers started by run() then
  /// record queue, storage, cache and executor spans. Call after setup().
  void trace_with(SpanRecorder* recorder);
  /// Starts the worker pool and waits for the monitor queue to report
  /// every task. Returns false on timeout.
  bool run();
  /// The gate: every task completed exactly once and every output equals
  /// the generator's expected bytes. Returns the violations and adds the
  /// affected items to `failed_items`.
  std::vector<std::string> verify(std::int64_t& failed_items);
  /// Stops and joins the workers (idempotent).
  void stop();

  ppc::blobstore::BlobStore& store() { return *store_; }
  ppc::cloudq::QueueService& queues() { return *queues_; }
  ppc::classiccloud::JobClient& client() { return *client_; }
  ppc::classiccloud::WorkerPool& pool() { return *pool_; }
  /// Worker wall-time window: start_all() to the end of join_all().
  std::int64_t window_start_ns() const { return window_start_; }
  std::int64_t window_end_ns() const { return window_end_; }
  /// Queue requests plus storage transfer and requests so far.
  double cost_usd() const;
  /// The storage meter when the job completed, before the client fetched
  /// outputs to check them (those downloads are not checksummed).
  const ppc::storage::TransferMeter& meter_at_completion() const { return meter_done_; }

 private:
  const ClassicShape shape_;
  const ClassicInputs& inputs_;
  SpanRecorder* recorder_ = nullptr;
  std::unique_ptr<ppc::blobstore::BlobStore> store_;
  std::unique_ptr<ppc::cloudq::QueueService> queues_;
  std::unique_ptr<ppc::classiccloud::JobClient> client_;
  std::unique_ptr<ppc::classiccloud::WorkerPool> pool_;
  bool completed_ = false;
  ppc::storage::TransferMeter meter_done_;
  std::int64_t window_start_ = 0;
  std::int64_t window_end_ = 0;
};

WorkloadResult run_classic(const RunOptions& opts);

// ---- campaign: the Classic Cloud discrete-event simulation ---------------

struct CampaignShape {
  int tasks = 0;
  int instances = 32;
  int workers_per_instance = 8;
  int receive_batch = 10;
  int queue_shards = 8;
  double monitor_period = 600.0;  // sim-seconds
  std::size_t monitor_capacity = 8192;
};

CampaignShape campaign_shape(double scale);

/// What one campaign job produced.
struct CampaignOutcome {
  ppc::core::RunResult result;
  std::string monitor_json;
  std::uint64_t monitor_samples = 0;
  bool alarm = false;
};

/// The campaign job's gate: all tasks complete, the task queue drains to
/// zero, no alarm fires, and, given a same-seed `reference`, the simulated
/// makespan and the monitor JSON are identical to it.
std::vector<std::string> campaign_gate(const CampaignOutcome& outcome, const CampaignShape& shape,
                                       const CampaignOutcome* reference);

class CampaignRun {
 public:
  CampaignRun(const CampaignShape& shape, std::uint64_t seed);
  CampaignRun(const CampaignRun&) = delete;
  CampaignRun& operator=(const CampaignRun&) = delete;

  /// Builds the workload, the deployment and the monitor with its alarms.
  /// `with_metrics` also publishes the run into a MetricsRegistry.
  void setup(bool with_metrics);
  /// Runs the DES to completion and exports the monitor.
  void run();
  /// Median wall ms of Monitor::to_json on the finished run's monitor,
  /// called after run(). (run()'s own first export also pays for the
  /// allocator tidying up the DES's freed memory, ~20 ms at 45k tasks.)
  double time_to_json() const;

  const ppc::core::Workload& workload() const { return workload_; }
  const CampaignOutcome& outcome() const { return outcome_; }

 private:
  const CampaignShape shape_;
  const std::uint64_t seed_;
  ppc::core::Workload workload_;
  std::unique_ptr<ppc::core::Deployment> deployment_;
  ppc::runtime::MetricsRegistry registry_;
  std::unique_ptr<ppc::runtime::Monitor> monitor_;
  ppc::core::SimRunParams params_;
  CampaignOutcome outcome_;
};

WorkloadResult run_campaign(const RunOptions& opts);

/// Sets core.attributed_share from the campaign's exact counts and the
/// probes' ns per call. Call after the probes ran.
void attribute_campaign(MetricSet& metrics);

// ---- shuffle: MapReduce partition / spill / fetch / sort / reduce --------

struct ShuffleShape {
  int files = 0;  // one map task each
  int records_per_file = 0;
  int distinct_keys = 5000;
  int nodes = 2;
  int slots_per_node = 1;
  int reducers = 0;
  double map_spill_budget = 128.0 * 1024;
  double sort_memory_budget = 256.0 * 1024;
};

ShuffleShape shuffle_shape(double scale);

class ShuffleRun {
 public:
  ShuffleRun(const ShuffleShape& shape, const ShuffleInputs& inputs);

  /// Builds the HDFS cluster and the spill store and writes the inputs.
  void setup();
  /// Routes spills and fetches through a TimedStorage decorator and times
  /// the map and reduce functions. Call after setup().
  void trace_with(SpanRecorder* recorder);
  /// Runs map, shuffle and reduce to completion. Returns false when the
  /// runner reports failure.
  bool run();
  /// The gate: the canonical output equals the reference group-by.
  std::vector<std::string> verify(std::int64_t& failed_items);

  ppc::minihdfs::MiniHdfs& hdfs() { return *hdfs_; }
  ppc::blobstore::BlobStore& spill_store() { return *spill_store_; }
  const ppc::mapreduce::ShuffleJobResult& result() const { return result_; }
  const TimedStorage* timed_store() const { return timed_.get(); }
  std::int64_t window_start_ns() const { return window_start_; }
  std::int64_t window_end_ns() const { return window_end_; }
  int tasks() const { return shape_.files + shape_.reducers; }
  int slots() const { return shape_.nodes * shape_.slots_per_node; }

 private:
  const ShuffleShape shape_;
  const ShuffleInputs& inputs_;
  SpanRecorder* recorder_ = nullptr;
  std::unique_ptr<ppc::minihdfs::MiniHdfs> hdfs_;
  std::unique_ptr<ppc::blobstore::BlobStore> spill_store_;
  std::unique_ptr<TimedStorage> timed_;
  std::vector<std::string> paths_;
  ppc::mapreduce::ShuffleJobResult result_;
  std::int64_t window_start_ = 0;
  std::int64_t window_end_ = 0;
};

WorkloadResult run_shuffle(const RunOptions& opts);

}  // namespace perfbench
