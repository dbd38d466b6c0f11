#include "sim/trace_run.h"

#include <memory>
#include <utility>

#include "common/string_util.h"
#include "runtime/monitor.h"
#include "sim/app_job.h"
#include "sim/substrate.h"

namespace ppc::sim {

TraceRunReport run_traced_job(const TraceRunConfig& config) {
  TraceRunReport report;
  report.substrate = config.substrate;
  report.app = config.app;

  const Substrate& substrate = find_substrate(config.substrate);
  const AppJob app = make_app_job(config.app, config.num_files, config.skew);
  runtime::Tracer tracer;
  tracer.enable();
  auto metrics = std::make_shared<runtime::MetricsRegistry>();
  std::unique_ptr<runtime::Monitor> monitor;
  if (config.monitor_period > 0.0) {
    runtime::MonitorConfig mc;
    mc.period = config.monitor_period;
    monitor = std::make_unique<runtime::Monitor>(*metrics, mc);
    monitor->start();
  }

  // A chaos campaign's fault-free baseline run, with the tracer on.
  SubstrateRunSpec spec;
  spec.num_workers = config.num_workers;
  spec.storage = config.storage;
  spec.enable_cache = config.enable_cache;
  spec.run_timeout = config.run_timeout;
  spec.tracer = &tracer;
  spec.metrics = metrics;
  SubstrateRun run = substrate.run(spec, app);
  report.files_processed = run.outputs.size();
  report.failures = std::move(run.failures);
  if (report.files_processed != app.files.size()) {
    report.failures.push_back(substrate.name + " produced " +
                              std::to_string(report.files_processed) + " of " +
                              std::to_string(app.files.size()) + " outputs");
  }
  report.succeeded = report.failures.empty();

  if (monitor != nullptr) {
    monitor->stop();
    report.monitor_json = monitor->to_json();
  }
  tracer.disable();
  report.spans = tracer.completed_spans();
  report.chrome_json = tracer.to_chrome_json();
  report.summary_table = tracer.summary_table();
  report.load = tracer.load_report();
  return report;
}

std::string TraceRunReport::to_text() const {
  std::string out = "trace run: substrate=" + substrate + " app=" + app + " -> " +
                    (succeeded ? "OK" : "FAIL") + " (" + std::to_string(files_processed) +
                    " files, " + std::to_string(spans) + " spans)\n";
  for (const auto& failure : failures) out += "  FAIL: " + failure + "\n";
  out += load.to_text();
  out += summary_table;
  return out;
}

std::string imbalance_comparison(const std::vector<TraceRunReport>& reports) {
  std::string out =
      "scheduling comparison (same job per substrate; imbalance = max/mean worker busy)\n";
  out += "  substrate     makespan(s)  imbalance  worst-idle-tail\n";
  for (const TraceRunReport& r : reports) {
    double worst_tail = 0.0;
    for (const runtime::WorkerLoad& w : r.load.workers) {
      if (w.idle_tail_fraction > worst_tail) worst_tail = w.idle_tail_fraction;
    }
    std::string name = r.substrate;
    name.resize(12, ' ');
    out += "  " + name + "  " + ppc::format_fixed(r.load.makespan, 3) + "        " +
           ppc::format_fixed(r.load.imbalance, 2) + "       " +
           ppc::format_fixed(worst_tail, 2) + "\n";
  }
  return out;
}

}  // namespace ppc::sim
