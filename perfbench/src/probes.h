// Layer probes: each times one public function standalone, at the shape
// the workload that stresses it uses, and checks its own round trip.
//
// A traced run reports the probes next to the counts it measured, so a
// per-layer cost can be multiplied by how often the layer runs (the DES
// campaign is attributed that way). A per-layer time metric of a layer the
// workload bypasses is that layer's probe, so every time in the table is
// measured on every workload.
#pragma once

#include <map>
#include <string>

namespace perfbench {

/// The probe shapes that come from workloads.
struct ProbeShape {
  int campaign_keys = 0;       // BlobStore index size of the campaign
  int monitor_samples = 0;     // samples the campaign's Monitor holds
  int submit_tasks = 0;        // files classic_small submits
  int shuffle_reducers = 0;    // partition_of modulus
  double sort_budget = 0.0;    // ExternalSorter memory budget, bytes
  int sort_records = 0;        // records one reducer sorts
};

/// Runs every probe. Returns per-layer metric name -> value: the probe.*
/// metrics, checksum.ns_per_mib, blobstore.index_ns, codec.*,
/// shuffle.partition_ns and shuffle.sort_records_per_s, plus the probed
/// value of each layer time a workload may bypass (cloudq.*_ns,
/// blobstore.put_ns/get_ns, classiccloud.submit_s, executor.ns_p50/p99,
/// core.wall_ns_per_queue_request, monitor.to_json_ms,
/// shuffle.spill_put_ns/fetch_get_ns). Throws std::runtime_error when a
/// probe's round trip fails.
std::map<std::string, double> run_probes(const ProbeShape& shape);

}  // namespace perfbench
