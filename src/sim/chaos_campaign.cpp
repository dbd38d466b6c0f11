#include "sim/chaos_campaign.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"
#include "runtime/tracer.h"
#include "sim/app_job.h"
#include "sim/shuffle_run.h"
#include "sim/substrate.h"

namespace ppc::sim {

namespace {

/// The substrate's guaranteed floor plus seed-sampled extras from its menu,
/// then the storm rule.
runtime::FaultPlan make_plan(const ChaosConfig& cfg, const SubstrateChaos& chaos) {
  using runtime::FaultAction;
  runtime::FaultPlan plan;
  plan.seed = cfg.seed;
  plan.rules = chaos.floor;

  ppc::Rng rng(cfg.seed ^ ppc::fnv1a64(cfg.substrate));
  const int extras = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < extras; ++i) {
    const auto& [site, action] = chaos.menu[rng.index(chaos.menu.size())];
    const double p = rng.uniform(0.05, 0.35);
    const int budget = static_cast<int>(rng.uniform_int(1, 3));
    switch (action) {
      case FaultAction::kDelay:
        plan.delay(site, rng.uniform(0.001, 0.008), budget, p);
        break;
      case FaultAction::kError:
        plan.error(site, "sampled chaos error", budget, p);
        break;
      case FaultAction::kCorrupt:
        plan.corrupt(site, budget, p);
        break;
      case FaultAction::kCrash:
        plan.crash(site, 1, p);
        break;
      case FaultAction::kRevokeSpot:
        // Never on a sampled menu: storms are armed below, after the extras.
        plan.revoke_spot(site, budget, p);
        break;
    }
  }

  // Storm rules go AFTER the sampled extras so arming a storm never shifts
  // the extras' RNG stream — a seed's base plan is the same with the storm
  // on or off.
  if (cfg.revocation_storm) {
    // The budget (2 kills) bounds the storm; the per-firing probability only
    // spreads the kills across workers. On a 4-task job a 0.5 coin can miss
    // every firing and void the coverage check, so storms fire near-surely.
    plan.revoke_spot(chaos.storm_site, /*budget=*/2, /*probability=*/0.9);
  }
  return plan;
}

/// Folds what the chaos run injected and absorbed into the report. Queue
/// substrates report through the workers' lifecycle counters, the
/// supervisor's recovery metrics and the task queue's meter; engine
/// substrates have no queue, so their retries are failed scheduler attempts.
void harvest(const runtime::FaultInjector& faults, const Substrate& substrate,
             const SubstrateRun& run, runtime::MetricsRegistry& m, ChaosReport& report) {
  report.crashes = faults.total_crashes();
  report.delays = faults.total_delays();
  report.errors = faults.total_errors();
  report.corruptions = faults.total_corruptions();
  report.spot_revocations = faults.total_revocations();
  if (!substrate.task_queue) {
    report.redeliveries = run.failed_attempts;
    report.corrupt_deliveries = run.corrupt_fetches;
    return;
  }
  report.redeliveries = m.sum_counters(".redeliveries");
  report.deletes_failed = m.sum_counters(".deletes_failed");
  report.corrupt_deliveries = m.sum_counters(".corrupt_deliveries");
  report.poison_tasks = m.sum_counters(".poison_tasks");
  report.supervisor_restarts = m.counter_value("supervisor.restarts");
  const auto recovery = m.histogram("supervisor.recovery_seconds").snapshot();
  if (recovery.count() > 0) {
    report.recovery_p50 = recovery.percentile(50.0);
    report.recovery_max = recovery.max();
  }
  report.stale_deletes = run.stale_deletes;
  report.dlq_entries = run.dlq_entries;
}

void compare_outputs(const SubstrateRun& baseline, const SubstrateRun& chaos,
                     std::vector<std::string>& failures) {
  for (const auto& [name, expected] : baseline.outputs) {
    const auto it = chaos.outputs.find(name);
    if (it == chaos.outputs.end()) {
      failures.push_back("chaos run lost output: " + name);
    } else if (it->second != expected) {
      failures.push_back("chaos output differs from fault-free run: " + name);
    }
  }
  for (const auto& [name, _] : chaos.outputs) {
    if (!baseline.outputs.contains(name)) failures.push_back("chaos run invented output: " + name);
  }
}

void record_failures(const char* label, const SubstrateRun& run,
                     std::vector<std::string>& failures) {
  for (const std::string& f : run.failures) failures.push_back(std::string(label) + ": " + f);
}

}  // namespace

ChaosReport run_chaos_campaign(const ChaosConfig& config_in) {
  ChaosConfig config = config_in;
  if (config.revocation_storm) {
    // Two storm revocations can land on the same unlucky task on top of the
    // plan's guaranteed crash; give the redrive budget room so only the
    // poison sentinel dead-letters.
    config.max_receive_count = std::max(config.max_receive_count, 7);
  }
  ChaosReport report;
  report.seed = config.seed;
  report.substrate = config.substrate;
  report.app = config.app;

  const Substrate& substrate = find_substrate(config.substrate);
  const SubstrateChaos* chaos_data = substrate.chaos_for(config.app);
  if (chaos_data == nullptr) {
    throw ppc::InvalidArgument("substrate '" + config.substrate + "' has no chaos plans for app '" +
                               config.app + "'");
  }
  const bool shuffle = is_shuffle_app(config.app);
  const AppJob app = shuffle ? AppJob{} : make_app_job(config.app, config.num_files);
  const ShuffleAppJob shuffle_app =
      shuffle ? make_shuffle_app(config.app, config.num_files) : ShuffleAppJob{};
  const auto run_fn = [&](const SubstrateRunSpec& spec) {
    return shuffle ? substrate.run_shuffle(spec, config.app, shuffle_app)
                   : substrate.run(spec, app);
  };
  const runtime::FaultPlan plan = make_plan(config, *chaos_data);
  report.plan_summary = plan.summary();

  SubstrateRunSpec spec;
  spec.job_prefix = "chaos";
  spec.num_workers = config.num_workers;
  spec.slots_per_node = 2;
  spec.storage = config.storage;
  spec.enable_cache = config.enable_cache;
  spec.visibility_timeout = config.visibility_timeout;
  spec.max_receive_count = config.max_receive_count;
  // Storm revocations burn attempts at the same site as the plan's faults.
  if (config.revocation_storm) spec.max_attempts = 8;
  spec.run_timeout = config.run_timeout;

  std::vector<std::string> failures;

  SubstrateRunSpec baseline_spec = spec;
  baseline_spec.metrics = std::make_shared<runtime::MetricsRegistry>();
  const SubstrateRun baseline = run_fn(baseline_spec);
  record_failures("baseline", baseline, failures);
  if (!failures.empty()) {
    // A broken baseline means the campaign cannot judge anything.
    report.failures = std::move(failures);
    return report;
  }

  runtime::FaultInjector faults;
  runtime::Tracer tracer;
  tracer.enable();
  SubstrateRunSpec chaos_spec = spec;
  chaos_spec.faults = &faults;
  chaos_spec.plan = &plan;
  chaos_spec.metrics = std::make_shared<runtime::MetricsRegistry>();
  // The chaos run is traced: the Chrome JSON is the campaign's failure
  // artifact — every injected fault, redelivery, DLQ parking, and
  // supervisor reap shows up as span data.
  chaos_spec.tracer = &tracer;
  std::unique_ptr<runtime::Monitor> monitor;
  if (config.monitor_period > 0.0) {
    runtime::MonitorConfig mc;
    mc.period = config.monitor_period;
    monitor = std::make_unique<runtime::Monitor>(*chaos_spec.metrics, mc);
    monitor->start();
  }
  const SubstrateRun chaos = run_fn(chaos_spec);
  record_failures("chaos", chaos, failures);
  harvest(faults, substrate, chaos, *chaos_spec.metrics, report);
  if (monitor != nullptr) {
    monitor->stop();
    report.monitor_json = monitor->to_json();
  }
  report.metrics_json = chaos_spec.metrics->to_json();
  report.trace_json = tracer.to_chrome_json();
  report.trace_spans = tracer.completed_spans();

  compare_outputs(baseline, chaos, failures);

  // Coverage: the plan must actually have exercised every fault action the
  // substrate can absorb, or the campaign proves nothing.
  if (report.crashes < 1) failures.push_back("plan injected no crash");
  if (report.delays < 1) failures.push_back("plan injected no delay");
  if (report.errors < 1) failures.push_back("plan injected no error");
  if (config.revocation_storm && report.spot_revocations < 1) {
    failures.push_back("revocation storm revoked nothing");
  }
  const bool floor_corrupts =
      std::any_of(chaos_data->floor.begin(), chaos_data->floor.end(), [](const auto& rule) {
        return rule.action == runtime::FaultAction::kCorrupt;
      });
  if (floor_corrupts && report.corruptions < 1) {
    failures.push_back("plan injected no corruption");
  }
  if (substrate.task_queue) {
    // The sentinel must end up dead-lettered. Normally the worker that burns
    // its last permitted delivery parks it (poison_tasks); under a
    // revocation storm a kill can steal that final delivery, in which case
    // the queue's redrive sweep dead-letters it instead — either route
    // satisfies "poison never redelivers forever", so storm runs accept a
    // bare DLQ entry.
    if (report.poison_tasks < 1 &&
        !(config.revocation_storm && report.dlq_entries >= 1)) {
      failures.push_back("no poison task was dead-lettered");
    }
    if (report.dlq_entries < 1) failures.push_back("dead-letter queue stayed empty");
  }

  report.failures = std::move(failures);
  report.passed = report.failures.empty();
  return report;
}

std::string ChaosReport::to_text() const {
  std::string out = "chaos campaign: substrate=" + substrate + " app=" + app +
                    " seed=" + std::to_string(seed) + " -> " + (passed ? "PASS" : "FAIL") +
                    "\n";
  out += "  plan:\n";
  std::istringstream plan_lines(plan_summary);
  for (std::string line; std::getline(plan_lines, line);) out += "    " + line + "\n";
  out += "  injected: crashes=" + std::to_string(crashes) +
         " delays=" + std::to_string(delays) + " errors=" + std::to_string(errors) +
         " corruptions=" + std::to_string(corruptions) +
         " spot_revocations=" + std::to_string(spot_revocations) + "\n";
  out += "  absorbed: redeliveries=" + std::to_string(redeliveries) +
         " deletes_failed=" + std::to_string(deletes_failed) +
         " stale_deletes=" + std::to_string(stale_deletes) +
         " corrupt_deliveries=" + std::to_string(corrupt_deliveries) + "\n";
  out += "  recovered: dlq_entries=" + std::to_string(dlq_entries) +
         " poison_tasks=" + std::to_string(poison_tasks) +
         " restarts=" + std::to_string(supervisor_restarts) +
         " recovery_p50=" + ppc::format_fixed(recovery_p50, 3) +
         "s recovery_max=" + ppc::format_fixed(recovery_max, 3) + "s\n";
  for (const auto& failure : failures) {
    out += "  FAIL: " + failure + "\n";
  }
  return out;
}

}  // namespace ppc::sim
