#include "workloads.h"

#include <stdexcept>

#include "probes.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"campaign", "classic_small", "classic_1mb",
                                                 "shuffle"};
  return names;
}

WorkloadResult run_workload(const RunOptions& opts) {
  WorkloadResult result = [&] {
    if (opts.workload == "campaign") return run_campaign(opts);
    if (opts.workload == "classic_small" || opts.workload == "classic_1mb") {
      return run_classic(opts);
    }
    if (opts.workload == "shuffle") return run_shuffle(opts);
    throw std::invalid_argument("unknown workload: " + opts.workload);
  }();
  if (opts.trace) {
    // Probes run after the reps so they never share the host with them, and
    // always at the full workload shapes (they are cheap).
    const ShuffleShape shuffle = shuffle_shape(1.0);
    const int campaign_tasks = campaign_shape(1.0).tasks;
    ProbeShape shape;
    shape.campaign_keys = campaign_tasks;
    // The campaign's Monitor holds 34 samples (a 600 s period over a ~5.4 h
    // makespan).
    shape.monitor_samples = 34;
    shape.submit_tasks = classic_shape("classic_small", 1.0).tasks;
    shape.shuffle_reducers = shuffle.reducers;
    shape.sort_budget = shuffle.sort_memory_budget;
    shape.sort_records = shuffle.records_per_file * shuffle.files / shuffle.reducers;
    // A time the workload measured itself stands; a layer it bypassed
    // reads the layer's probe.
    for (const auto& [name, value] : run_probes(shape)) {
      if (!result.metrics.has(name)) result.metrics.set(name, value);
    }
    if (opts.workload == "campaign") attribute_campaign(result.metrics);
  }
  result.metrics.finish();
  return result;
}

}  // namespace perfbench
