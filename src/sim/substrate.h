// The four substrates, one record each — the one place that knows what a
// substrate is. The paper builds one task-farming framework four times
// (Classic Cloud, Azure, Hadoop, DryadLINQ) and runs the same job on each;
// every harness here looks a substrate up in this table:
//
//   run / run_shuffle  real-thread runners: build the substrate's store,
//                      queues and workers (or cluster), run the job, return
//                      its outputs. `ppcloud trace` runs one with a tracer
//                      on; a chaos campaign runs it fault-free, then under a
//                      FaultPlan.
//   instance_type,     the discrete-event deployment and driver behind
//   run_sim            `ppcloud monitor`.
//   chaos, ...         the fault-plan data a chaos campaign arms, if any.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/instance_types.h"
#include "common/units.h"
#include "core/drivers.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"
#include "runtime/metrics.h"
#include "runtime/tracer.h"
#include "sim/app_job.h"
#include "sim/shuffle_run.h"

namespace ppc::sim {

/// One real-thread run. The defaults are a traced run's; a chaos campaign
/// sets the recovery knobs.
struct SubstrateRunSpec {
  /// Job ids ("<job_prefix>-cc", "-az") name queues, workers, fault sites.
  std::string job_prefix = "trace";
  int num_workers = 4;     // worker threads, or cluster nodes (mapreduce, dryad)
  int slots_per_node = 1;  // mapreduce / dryad; 1 maps a trace track to a node
  std::string storage = "object";
  bool enable_cache = false;  // classiccloud worker block cache
  Seconds visibility_timeout = 30.0;
  int max_receive_count = 5;  // deliveries before the DLQ (fault runs)
  /// mapreduce attempts per task: room for every guaranteed attempt-level
  /// fault of a chaos plan to land on one task.
  int max_attempts = 6;
  Seconds run_timeout = 60.0;

  runtime::Tracer* tracer = nullptr;
  /// Fault run: the injector is hooked into every layer and armed with
  /// `plan` once the job is submitted; queue substrates also get a
  /// dead-letter queue and a poison sentinel that must end up in it. The
  /// runner's own output reads run with the hooks detached.
  runtime::FaultInjector* faults = nullptr;
  const runtime::FaultPlan* plan = nullptr;
  std::shared_ptr<runtime::MetricsRegistry> metrics;
};

struct SubstrateRun {
  /// Input name -> output bytes (shuffle: key -> reduced value).
  std::map<std::string, std::string> outputs;
  std::vector<std::string> failures;
  // Recovery the substrate counts itself; the rest is in the registry.
  std::int64_t stale_deletes = 0;    // task queue: lapsed-receipt deletes
  std::int64_t dlq_entries = 0;      // task queue: messages dead-lettered
  std::int64_t failed_attempts = 0;  // engine scheduler: failed attempts
  std::int64_t corrupt_fetches = 0;  // shuffle: checksum-detected fetches
};

struct SubstrateChaos {
  /// The guaranteed floor, in arming order: one rule per fault action the
  /// substrate absorbs. Sites that would break the client rather than a
  /// worker (send/put errors, corrupting its final reads) are left out.
  std::vector<runtime::FaultRule> floor;
  /// Each seed samples 2-4 extra rules from these (site, action) pairs.
  std::vector<std::pair<std::string, runtime::FaultAction>> menu;
  /// Where --revocation-storm arms its revoke_spot rule.
  std::string storm_site;
};

struct Substrate {
  std::string name;
  /// Work flows through a cloudq task queue under supervised workers, so a
  /// fault run's recovery shows in lifecycle counters and the queue meter
  /// (poison sentinel, DLQ) rather than in scheduler attempts.
  bool task_queue = false;
  SubstrateRun (*run)(const SubstrateRunSpec& spec, const AppJob& app) = nullptr;
  const cloud::InstanceType& (*instance_type)() = nullptr;
  core::RunResult (*run_sim)(const core::Workload& workload, const core::Deployment& deployment,
                             const core::ExecutionModel& model,
                             const core::SimRunParams& params) = nullptr;
  /// Chaos over the map-only AppJob corpus; absent on dryad.
  std::optional<SubstrateChaos> chaos;
  /// A shuffle workload (histogram, dedup) and its chaos data; mapreduce
  /// only. Its outputs are the canonical key -> reduced-value map, so
  /// comparing two runs also catches a lost group.
  SubstrateRun (*run_shuffle)(const SubstrateRunSpec& spec, const std::string& app_name,
                              const ShuffleAppJob& app) = nullptr;
  std::optional<SubstrateChaos> shuffle_chaos;

  /// The chaos data for `app` (shuffle or map-only), or null.
  const SubstrateChaos* chaos_for(const std::string& app) const;
};

/// Every substrate, in table (and `--substrate all`) order.
const std::vector<Substrate>& all_substrates();

/// Throws InvalidArgument naming the valid substrates on an unknown name.
const Substrate& find_substrate(const std::string& name);

/// Expands a --substrate argument: a name is itself, "all" every substrate
/// or, for a chaos campaign of `chaos_app`, every one with chaos data for
/// it. A shuffle app runs where its chaos data is, whatever the argument.
std::vector<std::string> expand_substrates(const std::string& arg,
                                           const std::string& chaos_app = "");

}  // namespace ppc::sim
