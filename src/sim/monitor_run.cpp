#include "sim/monitor_run.h"

#include <sstream>

#include "common/error.h"
#include "core/drivers.h"
#include "core/exec_model.h"
#include "core/workload.h"
#include "sim/substrate.h"

namespace ppc::sim {

namespace {

core::Workload build_workload(const MonitorRunConfig& config) {
  core::Workload w;
  if (config.app == "cap3") {
    w = core::make_cap3_workload(config.num_files, 458);
  } else if (config.app == "blast") {
    w = core::make_blast_workload(config.num_files, 100, config.seed);
  } else if (config.app == "gtm") {
    w = core::make_gtm_workload(config.num_files);
  } else {
    throw ppc::InvalidArgument("unknown app: " + config.app);
  }
  // Same skew law as make_app_job: file i costs (1 + skew * i/(n-1))x the
  // first, so the drain tail the dashboard shows matches the traced runs.
  const std::size_t n = w.tasks.size();
  if (config.skew > 0.0 && n > 1) {
    for (std::size_t i = 0; i < n; ++i) {
      w.tasks[i].work_factor *=
          1.0 + config.skew * static_cast<double>(i) / static_cast<double>(n - 1);
    }
  }
  return w;
}

}  // namespace

std::vector<std::string> default_alarm_rules() {
  // Sustain (45s) is many sample periods and far beyond any fault-free idle
  // sliver (poll latency, start-up stagger), but well inside a real stall
  // window — flapping just under it never fires.
  //
  // The thrash rule watches an elastic run's fleet.scale_events.rate
  // probe: a well-hysteresed autoscaler (cooldown 120s) tops out around one
  // scale event per minute (~0.017/s) even during ramp-up or a post-storm
  // refill, so a sustained 0.05/s means the scale-out/scale-in thresholds
  // overlap and the fleet is oscillating. Alarms on absent series never
  // fire, so the rule is inert for static-fleet runs.
  return {"stall: workers.idle_with_backlog > 0.5 for 45s",
          "fleet.thrash: fleet.scale_events.rate > 0.05 for 60s"};
}

MonitorRunReport run_monitored_job(const MonitorRunConfig& config) {
  const Substrate& substrate = find_substrate(config.substrate);
  const core::Workload workload = build_workload(config);
  const core::Deployment deployment = core::make_deployment(
      substrate.instance_type(), config.instances, config.workers_per_instance);
  const core::ExecutionModel model(workload.app);

  runtime::MetricsRegistry registry;
  runtime::MonitorConfig mc;
  mc.period = config.period;
  mc.capacity = config.capacity;
  // The registry only fills when the driver publishes its end-of-run
  // totals, after the last tick — scraping it would add all-zero series.
  // The probes the driver registers carry every live signal.
  mc.scrape_registry = false;
  runtime::Monitor monitor(registry, mc);
  const std::vector<std::string> rules =
      config.alarms.empty() ? default_alarm_rules() : config.alarms;
  for (const std::string& rule : rules) monitor.add_alarm(runtime::parse_alarm(rule));

  core::SimRunParams params;
  params.seed = config.seed;
  params.monitor = &monitor;
  params.metrics = &registry;
  params.stall_worker = config.stall_worker;
  params.stall_at = config.stall_at;
  params.stall_duration = config.stall_duration;

  const core::RunResult result = substrate.run_sim(workload, deployment, model, params);

  MonitorRunReport report;
  report.substrate = config.substrate;
  report.framework = result.framework;
  report.makespan = result.makespan;
  report.tasks = result.tasks;
  report.completed = result.completed;
  report.samples = monitor.samples();
  report.degraded = monitor.degraded();
  report.firings = monitor.firings();
  report.monitor_json = monitor.to_json();
  report.dashboard = monitor.dashboard();
  report.prometheus = monitor.to_prometheus();
  return report;
}

std::string MonitorRunReport::to_text() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== monitor: %s (%s) — %d/%d tasks, makespan %.1fs, %llu samples ===\n",
                substrate.c_str(), framework.c_str(), completed, tasks, makespan,
                static_cast<unsigned long long>(samples));
  os << line << dashboard;
  os << (degraded ? "verdict: DEGRADED\n" : "verdict: healthy\n");
  return os.str();
}

}  // namespace ppc::sim
