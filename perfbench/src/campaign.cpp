// campaign: the Classic Cloud discrete-event simulation of Cap3 tasks in the
// shape of sim::run_million_task_campaign (32 x 8 workers, receive batch
// 10, 8 queue shards, a Monitor ticking on the simulation clock), scaled
// down so one run holds several reps. One thread; no payload bytes.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "billing/cost_model.h"
#include "cloud/instance_types.h"
#include "common/string_util.h"
#include "core/workload.h"
#include "sim/monitor_run.h"
#include "workloads.h"

namespace perfbench {

namespace core = ppc::core;

CampaignShape campaign_shape(double scale) {
  // 45k tasks put the simulated makespan mid-way through the sixth billed
  // hour (~5.4 h), so the hour-unit bill does not flip between seeds.
  CampaignShape s;
  s.tasks = std::max(64, static_cast<int>(std::lround(45000 * scale)));
  return s;
}

std::vector<std::string> campaign_gate(const CampaignOutcome& o, const CampaignShape& shape,
                                       const CampaignOutcome* reference) {
  std::vector<std::string> failures;
  if (o.result.completed != shape.tasks) {
    failures.push_back("completed " + std::to_string(o.result.completed) + " of " +
                       std::to_string(shape.tasks) + " tasks");
  }
  if (o.result.queue_undeleted_end != 0) {
    failures.push_back("task queue did not drain: " +
                       std::to_string(o.result.queue_undeleted_end) + " undeleted messages");
  }
  if (o.alarm) failures.push_back("monitor alarm fired on a fault-free run");
  if (reference != nullptr) {
    if (o.result.makespan != reference->result.makespan) {
      failures.push_back("same-seed rerun changed the simulated makespan");
    }
    if (ppc::fnv1a64(o.monitor_json) != ppc::fnv1a64(reference->monitor_json)) {
      failures.push_back("same-seed rerun changed the Monitor::to_json digest");
    }
  }
  return failures;
}

namespace {

/// Storage requests and their cost. The DES store is private, so requests
/// are recovered exactly from its byte meter: every Cap3 file has the same
/// input and output size, so gets = bytes_out / input size and output puts
/// = (bytes_in - inputs) / output size.
struct CampaignStorage {
  double requests = 0.0;
  double cost = 0.0;
};

CampaignStorage campaign_storage(const core::RunResult& r, const core::Workload& w) {
  const double in = w.tasks.front().input_size;
  const double out = w.tasks.front().output_size;
  const double n = static_cast<double>(w.tasks.size());
  const double gets = std::round(r.bytes_out / in);
  const double output_puts = std::round((r.bytes_in - n * in) / out);
  const ppc::blobstore::BlobStoreConfig cfg;  // what the simulated store is priced with
  CampaignStorage s;
  s.requests = n + output_puts + gets;
  s.cost = ppc::billing::transfer_cost(ppc::to_gigabytes(r.bytes_in),
                                       ppc::to_gigabytes(r.bytes_out), cfg.transfer_in_cost_per_gb,
                                       cfg.transfer_out_cost_per_gb) +
           s.requests / 10000.0 * cfg.cost_per_10k_requests;
  return s;
}

}  // namespace

CampaignRun::CampaignRun(const CampaignShape& shape, std::uint64_t seed)
    : shape_(shape), seed_(seed) {}

void CampaignRun::setup(bool with_metrics) {
  workload_ = core::make_cap3_workload(shape_.tasks, 458);
  deployment_ = std::make_unique<core::Deployment>(core::make_deployment(
      ppc::cloud::ec2_hcxl(), shape_.instances, shape_.workers_per_instance));
  ppc::runtime::MonitorConfig mc;
  mc.period = shape_.monitor_period;
  mc.capacity = shape_.monitor_capacity;
  mc.scrape_registry = false;
  monitor_ = std::make_unique<ppc::runtime::Monitor>(registry_, mc);
  for (const std::string& rule : ppc::sim::default_alarm_rules()) {
    monitor_->add_alarm(ppc::runtime::parse_alarm(rule));
  }
  params_.seed = static_cast<unsigned>(seed_);
  params_.receive_batch = shape_.receive_batch;
  params_.queue.shards = shape_.queue_shards;
  params_.monitor = monitor_.get();
  params_.metrics = with_metrics ? &registry_ : nullptr;
}

void CampaignRun::run() {
  const core::ExecutionModel model(core::AppKind::kCap3);
  outcome_.result = core::run_classic_cloud_sim(workload_, *deployment_, model, params_);
  outcome_.monitor_json = monitor_->to_json();
  outcome_.monitor_samples = monitor_->samples();
  outcome_.alarm = monitor_->degraded() || !monitor_->firings().empty();
}

double CampaignRun::time_to_json() const {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    const std::string json = monitor_->to_json();
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (json != outcome_.monitor_json) throw std::runtime_error("Monitor::to_json changed");
  }
  return median_of(ms);
}

WorkloadResult run_campaign(const RunOptions& opts) {
  const CampaignShape shape = campaign_shape(opts.scale);
  std::unique_ptr<CampaignOutcome> reference;  // the first rep; every later rep must match it

  const RepLog log = run_reps(opts, [&](bool traced) {
    RepSample s;
    s.items = shape.tasks;
    CampaignRun run(shape, opts.seed);
    const std::int64_t t0 = now_ns();
    run.setup(traced);
    const std::int64_t t1 = now_ns();
    s.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    run.run();
    const CampaignOutcome& o = run.outcome();
    s.failures = campaign_gate(o, shape, reference.get());
    s.job_s = static_cast<double>(now_ns() - t1) * 1e-9;
    if (!s.failures.empty()) s.failed_items = std::max(1, shape.tasks - o.result.completed);

    const CampaignStorage storage = campaign_storage(o.result, run.workload());
    s.cost_usd = o.result.compute_cost_hour_units + o.result.queue_request_cost + storage.cost;
    if (traced) {
      const double n = shape.tasks;
      s.layer["cloudq.requests_per_task"] = static_cast<double>(o.result.queue_api_requests) / n;
      s.layer["cloudq.batch_occupancy"] = o.result.queue_batch_occupancy;
      s.layer["storage.requests_per_task"] = storage.requests / n;
      s.layer["storage.bytes_per_task"] = (o.result.bytes_in + o.result.bytes_out) / n;
      s.layer["core.wall_ns_per_task"] = s.job_s * 1e9 / n;
      s.layer["core.wall_ns_per_queue_request"] =
          s.job_s * 1e9 /
          static_cast<double>(std::max<std::uint64_t>(1, o.result.queue_api_requests));
      s.layer["core.duplicate_executions"] = o.result.duplicate_executions;
      s.layer["monitor.samples"] = static_cast<double>(o.monitor_samples);
      s.layer["monitor.to_json_ms"] = run.time_to_json();
    }
    if (reference == nullptr) reference = std::make_unique<CampaignOutcome>(o);
    return s;
  });
  return summarize(opts, log);
}

/// Folds the probes into the campaign's attributed share: exact counts of
/// queue requests, storage operations and task codec calls, multiplied by
/// the probe's ns per call, over the measured ns per task.
void attribute_campaign(MetricSet& m) {
  const double wall = m.get("core.wall_ns_per_task");
  if (wall <= 0.0) return;
  const double queue_ns = (m.get("probe.queue_send_batch_ns") +
                           m.get("probe.queue_receive_batch_ns") +
                           m.get("probe.queue_delete_batch_ns")) /
                          3.0;
  const double per_task = m.get("cloudq.requests_per_task") * queue_ns +
                          m.get("storage.requests_per_task") * m.get("blobstore.index_ns") +
                          m.get("codec.encode_task_ns") + m.get("codec.decode_task_ns");
  m.set("core.attributed_share", per_task / wall);
  m.set("trace.unattributed_share", 1.0 - per_task / wall);
  m.set("runtime.residual_ns_per_task", wall - per_task);
}

}  // namespace perfbench
