// Golden replay of the Classic Cloud DES driver. Each case pins every
// RunResult field (doubles printed round-trip exact), the ElasticRunStats of
// elastic runs, and a digest of Monitor::to_json() when a Monitor is
// attached. The other driver tests check properties; these pin the exact
// random stream, event order and bill, so a refactor that claims "same
// behaviour" is checked field by field. A mismatch prints the actual dump:
// re-record a case only with the reason written down.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "classiccloud/worker.h"
#include "cloud/elastic_fleet.h"
#include "cloud/instance_types.h"
#include "common/string_util.h"
#include "core/drivers.h"
#include "runtime/fault_injector.h"
#include "runtime/fault_plan.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"

namespace ppc::core {
namespace {

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string stats_text(const mapreduce::TaskScheduler::Stats& s) {
  std::ostringstream os;
  os << s.local_assignments << "/" << s.remote_assignments << "/" << s.speculative_assignments
     << "/" << s.failed_attempts << "/" << s.wasted_attempts << "/" << s.completed_tasks;
  return os.str();
}

std::string dump(const RunResult& r) {
  std::string samples;
  for (double x : r.exec_times.samples()) samples += num(x) + ",";
  std::string trace;
  for (const TaskTraceEntry& e : r.trace) {
    trace += std::to_string(e.task_id) + ":" + std::to_string(e.worker) + ":" +
             num(e.exec_start) + ":" + num(e.exec_end) + ":" + (e.counted ? "1" : "0") + ",";
  }
  std::ostringstream os;
  os << "framework=" << r.framework << " label=" << r.deployment_label << "\n"
     << "makespan=" << num(r.makespan) << " tasks=" << r.tasks << " completed=" << r.completed
     << " duplicates=" << r.duplicate_executions << "\n"
     << "exec_times n=" << r.exec_times.count() << " digest=" << hex(ppc::fnv1a64(samples))
     << "\n"
     << "cost hour_units=" << num(r.compute_cost_hour_units)
     << " amortized=" << num(r.compute_cost_amortized)
     << " queue=" << num(r.queue_request_cost) << "\n"
     << "queue requests=" << r.queue_api_requests << " unbatched=" << r.queue_unbatched_requests
     << " occupancy=" << num(r.queue_batch_occupancy) << " undeleted=" << r.queue_undeleted_end
     << "\n"
     << "storage backend=" << r.storage_backend << " in=" << num(r.bytes_in)
     << " out=" << num(r.bytes_out) << " service=" << num(r.storage_service_cost)
     << " heads=" << r.storage_heads << "\n"
     << "cache hits=" << r.cache_hits << " misses=" << r.cache_misses
     << " saved=" << num(r.cache_bytes_saved) << "\n"
     << "scheduler=" << stats_text(r.scheduler_stats)
     << " reduce_scheduler=" << stats_text(r.reduce_scheduler_stats)
     << " reads local=" << r.local_reads << " remote=" << r.remote_reads << "\n"
     << "shuffle bytes=" << num(r.shuffle_bytes) << " fetches=" << r.shuffle_fetches
     << " local=" << r.shuffle_local_fetches << " spills=" << r.shuffle_merge_spills
     << " reduces=" << r.reduce_completed << "/" << r.reduce_tasks << "\n"
     << "t1=" << num(r.t1_seconds) << " efficiency=" << num(r.parallel_efficiency)
     << " per_core=" << num(r.per_core_task_seconds) << "\n"
     << "trace n=" << r.trace.size() << " digest=" << hex(ppc::fnv1a64(trace)) << "\n";
  return os.str();
}

std::string dump(const ElasticRunStats& s) {
  std::string series;
  for (const FleetSizePoint& p : s.fleet_size_series) {
    series += num(p.t) + ":" + std::to_string(p.active) + ":" + std::to_string(p.spot) + ",";
  }
  std::ostringstream os;
  os << "fleet peak=" << s.peak_instances << " out=" << s.scale_out_events
     << " in=" << s.scale_in_events << " revocations=" << s.revocations
     << " hard_kills=" << s.hard_kills << " drains=" << s.drains_completed
     << " drain_s=" << num(s.total_drain_seconds) << " stale=" << s.stale_terminates << "\n"
     << "fleet cost on_demand=" << num(s.cost_on_demand) << " spot=" << num(s.cost_spot)
     << " equivalent=" << num(s.cost_on_demand_equivalent) << "\n"
     << "fleet series n=" << s.fleet_size_series.size()
     << " digest=" << hex(ppc::fnv1a64(series)) << "\n";
  return os.str();
}

/// One replay: runs the driver (elastic when `elastic` is set), with a
/// Monitor on the simulation clock when `monitored`, and returns the dump.
struct Replay {
  Workload workload = make_cap3_workload(64, 458);
  Deployment deployment = make_deployment(cloud::ec2_hcxl(), 2, 8);
  SimRunParams params;
  std::unique_ptr<ElasticSimParams> elastic;
  bool monitored = true;

  std::string run() {
    const ExecutionModel model(workload.app);
    runtime::MetricsRegistry registry;
    runtime::MonitorConfig mc;
    mc.period = 30.0;
    mc.scrape_registry = false;
    runtime::Monitor monitor(registry, mc);
    monitor.add_alarm(runtime::parse_alarm("stall: workers.idle_with_backlog > 0.5 for 45s"));
    monitor.add_alarm(
        runtime::parse_alarm("fleet.thrash: fleet.scale_events.rate > 0.05 for 60s"));
    SimRunParams run_params = params;
    if (monitored) run_params.monitor = &monitor;
    std::string out;
    if (elastic) {
      ElasticRunStats stats;
      out = dump(run_classic_cloud_sim(workload, deployment, model, run_params, elastic.get(),
                                       &stats));
      out += dump(stats);
    } else {
      out = dump(run_classic_cloud_sim(workload, deployment, model, run_params));
    }
    if (monitored) {
      const std::string json = monitor.to_json();
      out += "monitor samples=" + std::to_string(monitor.samples()) +
             " firings=" + std::to_string(monitor.firings().size()) +
             " json=" + hex(ppc::fnv1a64(json)) + "\n";
    }
    return out;
  }
};

Replay elastic_replay() {
  Replay r;
  r.workload = make_cap3_workload(600, 458);
  r.deployment = make_deployment(cloud::ec2_hcxl(), 8, 4);
  r.params.receive_batch = 10;
  r.params.visibility_timeout = 1800.0;
  r.elastic = std::make_unique<ElasticSimParams>();
  r.elastic->autoscaler.min_instances = 2;
  r.elastic->autoscaler.max_instances = 8;
  r.elastic->autoscaler.step_out = 2;
  r.elastic->revocation_rate = 0.5;
  r.elastic->storm_times = {700.0};
  return r;
}

void expect_replay(Replay& replay, const std::string& expected) {
  const std::string got = replay.run();
  EXPECT_EQ(got, expected) << "actual dump:\n" << got;
}

// -- static fleet -----------------------------------------------------------

TEST(ClassicDriverReplay, StaticReceiveBatch1) {
  Replay r;
  r.monitored = false;
  r.params.record_trace = true;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x8
makespan=460.1280068652336 tasks=64 completed=64 duplicates=0
exec_times n=64 digest=1cfe7c1258d93bbd
cost hour_units=1.3600000000000001 amortized=0.17382613592686602 queue=0.00028500000000000004
queue requests=285 unbatched=256 occupancy=0.86877828054298645 undeleted=0
storage backend=object in=26263552 out=16414720 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=6720 efficiency=0.91278947104607211 per_core=115.0320017163084
trace n=64 digest=a1a2f90bc47240f3
)");
}

TEST(ClassicDriverReplay, StaticReceiveBatch10) {
  Replay r;
  r.workload = make_cap3_workload(320, 458);
  r.params.receive_batch = 10;
  r.params.record_trace = true;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x8
makespan=2171.5825051456991 tasks=320 completed=320 duplicates=0
exec_times n=320 digest=ea408e87c5784e9f
cost hour_units=1.3600000000000001 amortized=0.82037561305504192 queue=0.00051599999999999997
queue requests=516 unbatched=1280 occupancy=4.8979591836734695 undeleted=0
storage backend=object in=131317760 out=82073600 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=33600 efficiency=0.96703670941533193 per_core=108.57912525728496
trace n=320 digest=bf34248ec5aa5d45
monitor samples=74 firings=0 json=162c278188bf455a
)");
}

TEST(ClassicDriverReplay, StaticEightShards) {
  Replay r;
  r.workload = make_cap3_workload(320, 458);
  r.params.receive_batch = 10;
  r.params.queue.shards = 8;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x8
makespan=2171.5825051456991 tasks=320 completed=320 duplicates=0
exec_times n=320 digest=ea408e87c5784e9f
cost hour_units=1.3600000000000001 amortized=0.82037561305504192 queue=0.00051599999999999997
queue requests=516 unbatched=1280 occupancy=4.8979591836734695 undeleted=0
storage backend=object in=131317760 out=82073600 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=33600 efficiency=0.96703670941533193 per_core=108.57912525728496
trace n=0 digest=cbf29ce484222325
monitor samples=74 firings=0 json=162c278188bf455a
)");
}

TEST(ClassicDriverReplay, StaticWorkerCrashes) {
  Replay r;
  r.params.worker_crash_prob = 0.08;
  r.params.visibility_timeout = 300.0;
  r.params.record_trace = true;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x8
makespan=731.91300594663016 tasks=64 completed=64 duplicates=0
exec_times n=64 digest=73ac373da69205bd
cost hour_units=1.3600000000000001 amortized=0.27650046891317143 queue=0.00046799999999999999
queue requests=468 unbatched=259 occupancy=0.48267326732673266 undeleted=0
storage backend=object in=26263552 out=17184160 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=6720 efficiency=0.57383868928082105 per_core=182.97825148665754
trace n=64 digest=eeea8fb49eaf65ea
monitor samples=26 firings=1 json=c0473455abd07814
)");
}

TEST(ClassicDriverReplay, StaticWorkerCrashesWithBufferedAcks) {
  Replay r;
  r.params.worker_crash_prob = 0.08;
  r.params.visibility_timeout = 1500.0;
  r.params.receive_batch = 10;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x8
makespan=9424.0531499735243 tasks=64 completed=64 duplicates=50
exec_times n=64 digest=c44b71a2c2da8d82
cost hour_units=4.0800000000000001 amortized=3.5601978566566648 queue=0.0042490000000000002
queue requests=4249 unbatched=404 occupancy=0.070133010882708582 undeleted=6
storage backend=object in=33957952 out=32060000 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=6720 efficiency=0.044566811468076228 per_core=2356.0132874933811
trace n=0 digest=cbf29ce484222325
monitor samples=316 firings=0 json=c3ef947c0d8d2b37
)");
}

TEST(ClassicDriverReplay, StaticShortVisibilityDuplicates) {
  Replay r;
  r.params.visibility_timeout = 30.0;
  r.params.record_trace = true;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x8
makespan=1401.7194597657433 tasks=64 completed=64 duplicates=156
exec_times n=64 digest=3148af123ace34ec
cost hour_units=1.3600000000000001 amortized=0.52953846257816972 queue=0.00066699999999999995
queue requests=667 unbatched=504 occupancy=0.63534675615212532 undeleted=64
storage backend=object in=50270080 out=56425600 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=6720 efficiency=0.29963199631272208 per_core=350.42986494143582
trace n=220 digest=f6e4a3864776e14a
monitor samples=52 firings=1 json=2a2d3b9f35f13a3b
)");
}

TEST(ClassicDriverReplay, StaticStalledWorker) {
  Replay r;
  r.params.stall_worker = 3;
  r.params.stall_at = 50.0;
  r.params.stall_duration = 400.0;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x8
makespan=522.20959718273389 tasks=64 completed=64 duplicates=0
exec_times n=64 digest=5edb4c19ebbe4f77
cost hour_units=1.3600000000000001 amortized=0.1972791811579217 queue=0.00032800000000000006
queue requests=328 unbatched=256 occupancy=0.72727272727272729 undeleted=0
storage backend=object in=26263552 out=16414720 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=6720 efficiency=0.80427476297995293 per_core=130.55239929568347
trace n=0 digest=cbf29ce484222325
monitor samples=19 firings=1 json=19a2a09205cc39e6
)");
}

TEST(ClassicDriverReplay, StaticAfterExecuteFaults) {
  Replay r;
  runtime::FaultPlan plan;
  plan.seed = 5;
  plan.crash(classiccloud::sites::kAfterExecute, /*budget=*/3, /*probability=*/0.2);
  runtime::FaultInjector faults;
  faults.arm_plan(plan);
  r.params.faults = &faults;
  r.params.visibility_timeout = 600.0;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x8
makespan=712.46810779994667 tasks=64 completed=64 duplicates=0
exec_times n=64 digest=b3bbb79765244fd3
cost hour_units=1.3600000000000001 amortized=0.26915461850220207 queue=0.00040400000000000006
queue requests=404 unbatched=259 occupancy=0.57352941176470584 undeleted=0
storage backend=object in=26263552 out=17184160 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=6720 efficiency=0.58950007081289801 per_core=178.11702694998667
trace n=0 digest=cbf29ce484222325
monitor samples=26 firings=1 json=b2f8ba3ac9542b56
)");
}

TEST(ClassicDriverReplay, StaticBlockCacheSharedDataset) {
  Replay r;
  r.workload = make_blast_workload(48, 100, 7, 128, 0.30, 100.0 * 1024 * 1024);
  r.deployment = make_deployment(cloud::ec2_hcxl(), 2, 4);
  r.params.enable_block_cache = true;
  r.params.receive_batch = 4;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x4
makespan=5182.3425313803691 tasks=48 completed=48 duplicates=0
exec_times n=48 digest=2c7d7dfa84e995cf
cost hour_units=2.7200000000000002 amortized=1.9577738451881397 queue=0.00088699999999999998
queue requests=887 unbatched=192 occupancy=0.17163289630512515 undeleted=0
storage backend=object in=130624862.35781065 out=839229440 service=0 heads=8
cache hits=40 misses=8 saved=4194304000
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=28615.385975626992 efficiency=0.6902135907254715 per_core=863.72375523006156
trace n=0 digest=cbf29ce484222325
monitor samples=175 firings=0 json=2e4c7d7cba226e1f
)");
}

TEST(ClassicDriverReplay, StaticSharedFs) {
  Replay r;
  r.workload = make_blast_workload(48, 100, 7, 128, 0.30, 100.0 * 1024 * 1024);
  r.deployment = make_deployment(cloud::ec2_hcxl(), 2, 4);
  r.params.storage = storage::StorageKind::kSharedFs;
  expect_replay(r, R"(framework=ClassicCloud-EC2 label=EC2-HCXL - 2x4
makespan=4150.1376848996779 tasks=48 completed=48 duplicates=0
exec_times n=48 digest=d30bc767d22d8c5b
cost hour_units=2.7200000000000002 amortized=1.5678297920732118 queue=0.00044299999999999998
queue requests=443 unbatched=192 occupancy=0.36455696202531646 undeleted=0
storage backend=sharedfs in=130624862.35781065 out=5033533440 service=0.78391489603660591 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=28615.385975626992 efficiency=0.86188062144734356 per_core=691.68961414994635
trace n=0 digest=cbf29ce484222325
monitor samples=140 firings=0 json=055fa35bc9bb8a36
)");
}

TEST(ClassicDriverReplay, StaticAzure) {
  Replay r;
  r.deployment = make_deployment(cloud::azure_small(), 8, 1);
  r.workload = make_cap3_workload(24, 200);
  expect_replay(r, R"(framework=ClassicCloud-Azure label=Azure-Small - 8x1
makespan=127.66394495999752 tasks=24 completed=24 duplicates=0
exec_times n=24 digest=57ed793709c18bdf
cost hour_units=0.95999999999999996 amortized=0.034043718655999339 queue=9.8999999999999994e-05
queue requests=99 unbatched=96 occupancy=0.95999999999999996 undeleted=0
storage backend=object in=4300800 out=2688000 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=962.88209606986868 efficiency=0.9427897755035497 per_core=42.554648319999174
trace n=0 digest=cbf29ce484222325
monitor samples=6 firings=0 json=05de5738edd66ce4
)");
}

// -- elastic fleet ----------------------------------------------------------

TEST(ClassicDriverReplay, ElasticStormWithNotice) {
  Replay r = elastic_replay();
  expect_replay(r, R"(framework=ElasticCloud-EC2 label=EC2-HCXL - 8x4
makespan=3130.2438684790513 tasks=600 completed=600 duplicates=14
exec_times n=600 digest=91dadbd552a413b0
cost hour_units=4.4199999999999999 amortized=3.3468888800961274 queue=0.0029120000000000001
queue requests=2912 unbatched=2488 occupancy=0.81370826010544817 undeleted=0
storage backend=object in=248375232 out=158248160 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=63000 efficiency=0.62894460710391631 per_core=166.94633965221607
trace n=0 digest=cbf29ce484222325
fleet peak=10 out=10 in=0 revocations=2 hard_kills=2 drains=0 drain_s=0 stale=0
fleet cost on_demand=3.4000000000000004 spot=1.0200000000000002 equivalent=6.7999999999999989
fleet series n=107 digest=9dd510f157a68c98
monitor samples=107 firings=0 json=774493b9290d3d58
)");
}

TEST(ClassicDriverReplay, ElasticStormWithoutNotice) {
  Replay r = elastic_replay();
  r.elastic->revocation_notice = 0.0;
  expect_replay(r, R"(framework=ElasticCloud-EC2 label=EC2-HCXL - 8x4
makespan=3142.764820427964 tasks=600 completed=600 duplicates=37
exec_times n=600 digest=5c66ba7d17105cd5
cost hour_units=4.4199999999999999 amortized=3.3165701276547206 queue=0.0027049999999999999
queue requests=2705 unbatched=2517 occupancy=0.90909090909090906 undeleted=0
storage backend=object in=251914656 out=165429600 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=63000 efficiency=0.62643885638630348 per_core=167.61412375615808
trace n=0 digest=cbf29ce484222325
fleet peak=8 out=10 in=0 revocations=2 hard_kills=2 drains=0 drain_s=0 stale=0
fleet cost on_demand=3.4000000000000004 spot=1.0200000000000002 equivalent=6.7999999999999989
fleet series n=106 digest=3aaaed5bfa01ec7e
monitor samples=107 firings=0 json=f5df7322876fd027
)");
}

TEST(ClassicDriverReplay, ElasticFaultPlanRevocation) {
  Replay r = elastic_replay();
  r.elastic->storm_times.clear();
  runtime::FaultPlan plan;
  plan.seed = 11;
  plan.revoke_spot(cloud::sites::kSpotRevoke, /*budget=*/2, /*probability=*/0.5,
                   /*notice=*/0.0, /*skip_first=*/20);
  runtime::FaultInjector faults;
  faults.arm_plan(plan);
  r.params.faults = &faults;
  expect_replay(r, R"(framework=ElasticCloud-EC2 label=EC2-HCXL - 8x4
makespan=3174.1414497097876 tasks=600 completed=600 duplicates=17
exec_times n=600 digest=59e802cc784dcb82
cost hour_units=4.4199999999999999 amortized=3.3846545329067217 queue=0.0028440000000000002
queue requests=2844 unbatched=2497 occupancy=0.8441850022451729 undeleted=0
storage backend=object in=248836896 out=160300000 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=63000 efficiency=0.6202464607177488 per_core=169.28754398452202
trace n=0 digest=cbf29ce484222325
fleet peak=8 out=10 in=0 revocations=2 hard_kills=2 drains=0 drain_s=0 stale=0
fleet cost on_demand=3.4000000000000004 spot=1.0200000000000002 equivalent=6.7999999999999989
fleet series n=107 digest=2e79e25a5a0e7f84
monitor samples=108 firings=0 json=1f0e9aaa251c847f
)");
}

TEST(ClassicDriverReplay, ElasticReceiveBatch1) {
  Replay r = elastic_replay();
  r.params.receive_batch = 1;
  expect_replay(r, R"(framework=ElasticCloud-EC2 label=EC2-HCXL - 8x4
makespan=2598.067207806002 tasks=600 completed=600 duplicates=0
exec_times n=600 digest=d73f695906533470
cost hour_units=4.4199999999999999 amortized=2.7197348993660224 queue=0.0029169999999999999
queue requests=2917 unbatched=2403 occupancy=0.77816141562365126 undeleted=0
storage backend=object in=246220800 out=154657440 service=0 heads=0
cache hits=0 misses=0 saved=0
scheduler=0/0/0/0/0/0 reduce_scheduler=0/0/0/0/0/0 reads local=0 remote=0
shuffle bytes=0 fetches=0 local=0 spills=0 reduces=0/0
t1=63000 efficiency=0.75777485435511749 per_core=138.56358441632011
trace n=0 digest=cbf29ce484222325
fleet peak=10 out=10 in=0 revocations=2 hard_kills=2 drains=0 drain_s=0 stale=0
fleet cost on_demand=3.4000000000000004 spot=1.0200000000000002 equivalent=6.7999999999999989
fleet series n=88 digest=317382371f041c1d
monitor samples=89 firings=0 json=7661875cce771b96
)");
}

}  // namespace
}  // namespace ppc::core
