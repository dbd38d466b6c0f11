#include "sim/chaos_campaign.h"

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "azuremr/runtime.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "mapreduce/job.h"
#include "minihdfs/mini_hdfs.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"
#include "runtime/tracer.h"
#include "mapreduce/shuffle_job.h"
#include "runtime/worker_supervisor.h"
#include "sim/app_job.h"
#include "sim/shuffle_run.h"
#include "storage/fs_backends.h"

namespace ppc::sim {

namespace {

using Outputs = std::map<std::string, std::string>;

/// The guaranteed floor (one rule per fault action the substrate can
/// absorb) plus seed-sampled extras. Sites that would break the *client*
/// rather than a worker — send/put errors, corruption that could land on
/// the driver's own final reads — are deliberately not armed.
runtime::FaultPlan make_plan(const ChaosConfig& cfg) {
  using runtime::FaultAction;
  runtime::FaultPlan plan;
  plan.seed = cfg.seed;
  struct MenuItem {
    std::string site;
    FaultAction action;
  };
  std::vector<MenuItem> menu;
  if (cfg.substrate == "classiccloud") {
    const std::string qrecv = "cloudq.chaos-cc-tasks.receive";
    const std::string qdel = "cloudq.chaos-cc-tasks.delete";
    const std::string bget = "blobstore.job.get";
    plan.crash(classiccloud::sites::kAfterExecute);
    plan.delay(qrecv, 0.005, 3);
    plan.error(qdel, "injected delete failure", 1);
    plan.error(bget, "injected get failure", 2);
    plan.corrupt(qrecv, 1);
    plan.corrupt(bget, 1);
    menu = {{qrecv, FaultAction::kDelay},
            {qrecv, FaultAction::kError},
            {qrecv, FaultAction::kCorrupt},
            {qdel, FaultAction::kError},
            {bget, FaultAction::kDelay},
            {bget, FaultAction::kError},
            {classiccloud::sites::kAfterReceive, FaultAction::kCrash},
            {classiccloud::sites::kAfterUpload, FaultAction::kCrash}};
  } else if (cfg.substrate == "azuremr") {
    const std::string qrecv = "cloudq.chaos-az-mr-tasks.receive";
    const std::string qdel = "cloudq.chaos-az-mr-tasks.delete";
    const std::string bget = "blobstore.chaos-az.get";
    const std::string blist = "blobstore.chaos-az.list";
    plan.crash(azuremr::sites::kAfterMap);
    plan.delay(qrecv, 0.005, 3);
    plan.error(qdel, "injected delete failure", 1);
    plan.error(bget, "injected get failure", 2);
    plan.error(blist, "injected list failure", 1);
    plan.corrupt(qrecv, 1);
    plan.corrupt(bget, 1);
    menu = {{qrecv, FaultAction::kDelay},
            {qrecv, FaultAction::kError},
            {qrecv, FaultAction::kCorrupt},
            {qdel, FaultAction::kError},
            {bget, FaultAction::kDelay},
            {bget, FaultAction::kError},
            {blist, FaultAction::kError},
            {azuremr::sites::kAfterReduce, FaultAction::kCrash}};
  } else if (cfg.substrate == "mapreduce" && is_shuffle_app(cfg.app)) {
    // Full-pipeline chaos: faults land on every shuffle stage. The crash in
    // the kMapRegister window leaves durable-but-unregistered spills (the
    // map-output-loss shape), the fetch/spill errors burn attempts on both
    // sides, and the corrupt rule on the shuffle bucket's gets exercises
    // checksum detection + redrive.
    const std::string mapsite = mapreduce::sites::kMapAttempt;
    const std::string spill = mapreduce::sites::kSpill;
    const std::string fetch = mapreduce::sites::kFetch;
    const std::string reg = mapreduce::sites::kMapRegister;
    const std::string red = mapreduce::sites::kReduceAttempt;
    const std::string bget = "blobstore.shuffle.get";
    plan.crash(mapsite);
    plan.crash(reg);
    plan.crash(red);
    plan.delay(fetch, 0.005, 3);
    plan.error(spill, "injected spill failure", 1);
    plan.error(fetch, "injected fetch failure", 1);
    plan.corrupt(bget, 2);
    menu = {{fetch, FaultAction::kDelay},  {fetch, FaultAction::kError},
            {spill, FaultAction::kError},  {mapsite, FaultAction::kCrash},
            {red, FaultAction::kCrash},    {bget, FaultAction::kCorrupt}};
  } else if (cfg.substrate == "mapreduce") {
    const std::string site = mapreduce::sites::kMapAttempt;
    plan.crash(site);
    plan.delay(site, 0.005, 3);
    plan.error(site, "injected attempt failure", 2);
    menu = {{site, FaultAction::kDelay},
            {site, FaultAction::kError},
            {site, FaultAction::kCrash}};
  } else {
    throw ppc::InvalidArgument("unknown chaos substrate: " + cfg.substrate);
  }

  ppc::Rng rng(cfg.seed ^ ppc::fnv1a64(cfg.substrate));
  const int extras = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < extras; ++i) {
    const MenuItem& item = menu[rng.index(menu.size())];
    const double p = rng.uniform(0.05, 0.35);
    const int budget = static_cast<int>(rng.uniform_int(1, 3));
    switch (item.action) {
      case FaultAction::kDelay:
        plan.delay(item.site, rng.uniform(0.001, 0.008), budget, p);
        break;
      case FaultAction::kError:
        plan.error(item.site, "sampled chaos error", budget, p);
        break;
      case FaultAction::kCorrupt:
        plan.corrupt(item.site, budget, p);
        break;
      case FaultAction::kCrash:
        plan.crash(item.site, 1, p);
        break;
      case FaultAction::kRevokeSpot:
        // Never on a sampled menu: storms are armed below, after the extras.
        plan.revoke_spot(item.site, budget, p);
        break;
    }
  }

  // Storm rules go AFTER the sampled extras so arming a storm never shifts
  // the extras' RNG stream — a seed's base plan is the same with the storm
  // on or off.
  if (cfg.revocation_storm) {
    const std::string storm_site =
        cfg.substrate == "classiccloud" ? classiccloud::sites::kAfterReceive
        : cfg.substrate == "azuremr"    ? azuremr::sites::kAfterMap
                                        : mapreduce::sites::kMapAttempt;
    // The budget (2 kills) bounds the storm; the per-firing probability only
    // spreads the kills across workers. On a 4-task job a 0.5 coin can miss
    // every firing and void the coverage check, so storms fire near-surely.
    plan.revoke_spot(storm_site, /*budget=*/2, /*probability=*/0.9);
  }
  return plan;
}

/// Shared state of one run. `faults == nullptr` marks the baseline run.
struct RunContext {
  runtime::FaultInjector* faults = nullptr;
  const runtime::FaultPlan* plan = nullptr;
  std::shared_ptr<runtime::MetricsRegistry> metrics;
  /// Enabled tracer for the chaos run (null on the baseline): the resulting
  /// Chrome JSON is the campaign's failure artifact — every injected fault,
  /// redelivery, DLQ parking, and supervisor reap shows up as span data.
  runtime::Tracer* tracer = nullptr;
  ChaosReport* report = nullptr;
  std::vector<std::string>* failures = nullptr;
  const char* label = "baseline";
};

void fail(RunContext& ctx, const std::string& what) {
  ctx.failures->push_back(std::string(ctx.label) + ": " + what);
}

bool wait_until(const std::function<bool()>& pred, Seconds timeout) {
  ppc::SystemClock clock;
  while (clock.now() < timeout) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Snapshots the injector's totals into the report, then disarms it so the
/// driver's own post-run reads (output collection) run fault-free.
void harvest_faults(RunContext& ctx) {
  if (ctx.faults == nullptr) return;
  ctx.report->crashes = ctx.faults->total_crashes();
  ctx.report->delays = ctx.faults->total_delays();
  ctx.report->errors = ctx.faults->total_errors();
  ctx.report->corruptions = ctx.faults->total_corruptions();
  ctx.report->spot_revocations = ctx.faults->total_revocations();
  ctx.faults->reset();
}

/// Folds the chaos run's worker-scoped lifecycle counters and the
/// supervisor's recovery metrics into the report (queue substrates).
void harvest_registry(RunContext& ctx) {
  const runtime::MetricsRegistry& m = *ctx.metrics;
  ctx.report->redeliveries = m.sum_counters(".redeliveries");
  ctx.report->deletes_failed = m.sum_counters(".deletes_failed");
  ctx.report->corrupt_deliveries = m.sum_counters(".corrupt_deliveries");
  ctx.report->poison_tasks = m.sum_counters(".poison_tasks");
  ctx.report->supervisor_restarts = m.counter_value("supervisor.restarts");
  const auto recovery = ctx.metrics->histogram("supervisor.recovery_seconds").snapshot();
  if (recovery.count() > 0) {
    ctx.report->recovery_p50 = recovery.percentile(50.0);
    ctx.report->recovery_max = recovery.max();
  }
}

Outputs run_classiccloud(const ChaosConfig& cfg, const AppJob& app, RunContext& ctx) {
  const bool chaos = ctx.faults != nullptr;
  auto clock = std::make_shared<ppc::SystemClock>();
  const auto store_ptr = storage::make_backend(storage::parse_storage_kind(cfg.storage), clock,
                                               ppc::Rng(cfg.seed ^ 0xCAFE));
  storage::StorageBackend& store = *store_ptr;
  cloudq::QueueService queues(clock);
  const std::string job = "chaos-cc";
  std::shared_ptr<cloudq::MessageQueue> task_queue;
  if (chaos) {
    store.set_fault_hook(ctx.faults);
    queues.set_fault_hook(ctx.faults);
    store.set_tracer(ctx.tracer);
    queues.set_tracer(ctx.tracer);
    task_queue = queues.create_queue_with_dlq(job + "-tasks", cfg.max_receive_count);
  }
  classiccloud::JobClient client(store, queues, job);
  if (!chaos) task_queue = client.task_queue();
  client.submit(app.files, app.shared_files);
  if (chaos) {
    // Poison sentinel: an undecodable task body. Every delivery fails, so
    // the lifecycle must dead-letter it after max_receive_count deliveries.
    task_queue->send("poison-task: not a decodable task spec");
    ctx.faults->arm_plan(*ctx.plan);
  }

  classiccloud::TaskExecutor executor = [&app](const classiccloud::TaskSpec& task,
                                               const std::string& input) {
    return app.fn(task.task_id, input);
  };
  classiccloud::WorkerConfig wc;
  wc.poll_interval = 0.001;
  wc.visibility_timeout = cfg.visibility_timeout;
  wc.abandon_visibility = 0.02;
  wc.faults = ctx.faults;
  wc.metrics = ctx.metrics;
  wc.tracer = ctx.tracer;
  wc.enable_cache = cfg.enable_cache;
  runtime::SupervisorConfig sc;
  sc.num_workers = cfg.num_workers;
  sc.id_prefix = job + "-w";
  sc.metrics = ctx.metrics;
  sc.tracer = ctx.tracer;
  sc.max_restarts_per_slot = 8;
  sc.initial_backoff = 0.01;
  sc.watch_interval = 0.002;
  runtime::WorkerSupervisor supervisor(
      [&](const std::string& worker_id, int /*incarnation*/) {
        auto worker = std::make_shared<classiccloud::Worker>(
            worker_id, store, client.task_queue(), client.monitor_queue(), executor, wc);
        worker->start();
        return runtime::SupervisedWorker{worker, &worker->lifecycle()};
      },
      sc);
  supervisor.start();

  if (!client.wait_for_completion(cfg.run_timeout)) {
    fail(ctx, "classiccloud job did not complete within " +
                  ppc::format_fixed(cfg.run_timeout, 0) + "s");
  }
  if (chaos &&
      !wait_until([&] { return task_queue->dlq_depth() >= 1; }, 20.0)) {
    fail(ctx, "poison task never reached the dead-letter queue");
  }
  supervisor.stop();
  harvest_faults(ctx);

  Outputs outputs;
  for (const auto& task : client.tasks()) {
    std::shared_ptr<const std::string> out;
    for (int attempt = 0; attempt < 2000 && !out; ++attempt) {
      out = client.fetch_output(task);
      if (!out) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!out) {
      fail(ctx, "output never became visible: " + task.task_id);
      continue;
    }
    outputs[task.input_key.substr(std::string("input/").size())] = *out;
  }
  if (chaos) {
    harvest_registry(ctx);
    const auto meter = task_queue->meter();
    ctx.report->stale_deletes = static_cast<std::int64_t>(meter.stale_deletes);
    ctx.report->dlq_entries = static_cast<std::int64_t>(meter.dlq_moves);
  }
  return outputs;
}

Outputs run_azuremr(const ChaosConfig& cfg, const AppJob& app, RunContext& ctx) {
  const bool chaos = ctx.faults != nullptr;
  auto clock = std::make_shared<ppc::SystemClock>();
  const auto store_ptr = storage::make_backend(storage::parse_storage_kind(cfg.storage), clock,
                                               ppc::Rng(cfg.seed ^ 0xAC));
  storage::StorageBackend& store = *store_ptr;
  cloudq::QueueService queues(clock);
  const std::string job = "chaos-az";
  std::shared_ptr<cloudq::MessageQueue> task_queue;
  if (chaos) {
    store.set_fault_hook(ctx.faults);
    queues.set_fault_hook(ctx.faults);
    store.set_tracer(ctx.tracer);
    queues.set_tracer(ctx.tracer);
    task_queue = queues.create_queue_with_dlq(job + "-mr-tasks", cfg.max_receive_count);
    // Poison sentinel: a task with an op no worker implements.
    task_queue->send(
        ppc::encode_kv({{"op", "poison"}, {"iter", "0"}, {"input", "none"}}));
    ctx.faults->arm_plan(*ctx.plan);
  }

  azuremr::MrWorkerConfig wc;
  wc.poll_interval = 0.001;
  wc.visibility_timeout = cfg.visibility_timeout;
  wc.abandon_visibility = 0.02;
  wc.task_max_receive_count = chaos ? cfg.max_receive_count : 0;
  wc.faults = ctx.faults;
  wc.metrics = ctx.metrics;
  wc.tracer = ctx.tracer;
  azuremr::AzureMapReduce mr(store, queues, cfg.num_workers, wc);
  mr.supervisor_config.tracer = ctx.tracer;
  mr.supervisor_config.max_restarts_per_slot = 8;
  mr.supervisor_config.initial_backoff = 0.01;
  mr.supervisor_config.watch_interval = 0.002;

  azuremr::JobSpec spec;
  spec.job_id = job;
  spec.inputs = app.files;
  spec.num_reduce_tasks = 2;
  spec.stage_timeout = cfg.run_timeout;
  const auto fn = app.fn;
  spec.map = [fn](const std::string& name, const std::string& data, const std::string&) {
    return std::vector<azuremr::KeyValue>{{name, fn(name, data)}};
  };
  spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return values.front();
  };

  const auto result = mr.run(spec);
  if (!result.succeeded) fail(ctx, "azuremr job failed");
  if (chaos && task_queue->dlq_depth() < 1) {
    // Small jobs can finish before the poison burns through its redrive
    // budget, and run() stops the pool on completion. Keep one drain worker
    // polling — it abandons everything it sees, so leftover messages (the
    // poison, plus any completed-but-undeleted stragglers) hit their
    // receive limit and land in the DLQ.
    runtime::LifecycleConfig lc;
    lc.poll_interval = 0.001;
    lc.visibility_timeout = cfg.visibility_timeout;
    lc.abandon_visibility = 0.0;
    runtime::TaskLifecycle drain(
        job + "-drain", task_queue,
        [](runtime::TaskContext&) { return runtime::TaskOutcome::kAbandoned; }, lc,
        ctx.metrics, nullptr);
    drain.start();
    const bool drained = wait_until([&] { return task_queue->dlq_depth() >= 1; }, 20.0);
    drain.request_stop();
    drain.join();
    if (!drained) fail(ctx, "poison task never reached the dead-letter queue");
  }
  harvest_faults(ctx);
  if (chaos) {
    harvest_registry(ctx);
    const auto meter = task_queue->meter();
    ctx.report->stale_deletes = static_cast<std::int64_t>(meter.stale_deletes);
    ctx.report->dlq_entries = static_cast<std::int64_t>(meter.dlq_moves);
  }
  return Outputs(result.outputs.begin(), result.outputs.end());
}

Outputs run_mapreduce(const ChaosConfig& cfg, const AppJob& app, RunContext& ctx) {
  const bool chaos = ctx.faults != nullptr;
  minihdfs::MiniHdfs hdfs(3);
  std::vector<std::string> paths;
  for (const auto& [name, data] : app.files) {
    const std::string path = "/in/" + name;
    hdfs.write(path, data);
    paths.push_back(path);
  }
  if (chaos) ctx.faults->arm_plan(*ctx.plan);

  const auto fn = app.fn;
  mapreduce::JobConfig jc;
  jc.num_nodes = cfg.num_workers;
  jc.slots_per_node = 2;
  // Room for every guaranteed attempt-level fault to land on one unlucky
  // task without failing the job (plus the storm's two revocations, which
  // burn attempts at the same site).
  jc.scheduler.max_attempts = cfg.revocation_storm ? 8 : 6;
  jc.faults = ctx.faults;
  jc.metrics = ctx.metrics;
  jc.tracer = ctx.tracer;
  mapreduce::LocalJobRunner runner(hdfs);
  const auto result = runner.run(
      paths,
      [fn](const mapreduce::FileRecord& record, const std::string& contents) {
        return fn(record.name, contents);
      },
      jc);
  if (!result.succeeded) fail(ctx, "mapreduce job failed");
  harvest_faults(ctx);
  if (chaos) {
    // No queue here: "retries" are the scheduler's failed attempts.
    std::int64_t failed_attempts = 0;
    for (const auto& attempt : result.attempts) {
      if (!attempt.succeeded) ++failed_attempts;
    }
    ctx.report->redeliveries = failed_attempts;
  }
  Outputs outputs;
  for (const auto& [name, out_path] : result.outputs) {
    outputs[name] = hdfs.read(out_path).value_or("");
  }
  return outputs;
}

/// Full-pipeline chaos run: ShuffleJobRunner over a shuffle workload
/// (histogram / dedup). Outputs are the job's canonical key → reduced-value
/// map, so compare_outputs asserts byte-identical groups AND zero lost
/// groups in one pass. Tight spill/sort budgets force multi-spill map
/// outputs and external-sort runs, so the spill/fetch fault sites actually
/// sit on the hot path.
Outputs run_mapreduce_shuffle(const ChaosConfig& cfg, const ShuffleAppJob& app,
                              RunContext& ctx) {
  const bool chaos = ctx.faults != nullptr;
  minihdfs::MiniHdfs hdfs(cfg.num_workers);
  std::vector<std::string> paths;
  for (const auto& [name, data] : app.files) {
    const std::string path = "/in/" + name;
    hdfs.write(path, data);
    paths.push_back(path);
  }
  if (chaos) ctx.faults->arm_plan(*ctx.plan);

  mapreduce::ShuffleJobConfig jc;
  jc.num_nodes = cfg.num_workers;
  jc.slots_per_node = 2;
  jc.num_reducers = 3;
  jc.job_name = "chaos-" + cfg.app;
  jc.map_spill_budget = 2.0 * 1024;
  jc.sort_memory_budget = 4.0 * 1024;
  // Attempt headroom mirrors run_mapreduce: every guaranteed fault can land
  // on one unlucky task (map or reduce) without failing the job.
  jc.scheduler.max_attempts = cfg.revocation_storm ? 8 : 6;
  jc.reduce_scheduler.max_attempts = cfg.revocation_storm ? 8 : 6;
  jc.faults = ctx.faults;
  jc.metrics = ctx.metrics;
  jc.tracer = ctx.tracer;
  mapreduce::ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, app.map, app.reduce, jc);
  if (!result.succeeded) fail(ctx, "mapreduce shuffle job failed");
  harvest_faults(ctx);
  if (chaos) {
    std::int64_t failed_attempts = 0;
    for (const auto& attempt : result.map_attempts) {
      if (!attempt.succeeded) ++failed_attempts;
    }
    for (const auto& attempt : result.reduce_attempts) {
      if (!attempt.succeeded) ++failed_attempts;
    }
    ctx.report->redeliveries = failed_attempts;
    ctx.report->corrupt_deliveries = result.shuffle.corrupt_fetches;
  }
  return mapreduce::canonical_reduced_output(result, hdfs);
}

using RunnerFn = Outputs (*)(const ChaosConfig&, const AppJob&, RunContext&);

RunnerFn pick_runner(const std::string& substrate) {
  if (substrate == "classiccloud") return run_classiccloud;
  if (substrate == "azuremr") return run_azuremr;
  if (substrate == "mapreduce") return run_mapreduce;
  throw ppc::InvalidArgument("unknown chaos substrate: " + substrate);
}

void compare_outputs(const Outputs& baseline, const Outputs& chaos,
                     std::vector<std::string>& failures) {
  for (const auto& [name, expected] : baseline) {
    const auto it = chaos.find(name);
    if (it == chaos.end()) {
      failures.push_back("chaos run lost output: " + name);
    } else if (it->second != expected) {
      failures.push_back("chaos output differs from fault-free run: " + name);
    }
  }
  for (const auto& [name, _] : chaos) {
    if (!baseline.contains(name)) failures.push_back("chaos run invented output: " + name);
  }
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

  std::function<Outputs(RunContext&)> run_fn;
  if (is_shuffle_app(config.app)) {
    if (config.substrate != "mapreduce") {
      throw ppc::InvalidArgument("shuffle app '" + config.app +
                                 "' runs on the mapreduce substrate only");
    }
    auto app = std::make_shared<ShuffleAppJob>(make_shuffle_app(config.app, config.num_files));
    run_fn = [&config, app](RunContext& ctx) { return run_mapreduce_shuffle(config, *app, ctx); };
  } else {
    const RunnerFn runner = pick_runner(config.substrate);
    auto app = std::make_shared<AppJob>(make_app_job(config.app, config.num_files));
    run_fn = [&config, app, runner](RunContext& ctx) { return runner(config, *app, ctx); };
  }
  const runtime::FaultPlan plan = make_plan(config);
  report.plan_summary = plan.summary();

  std::vector<std::string> failures;

  RunContext baseline_ctx;
  baseline_ctx.metrics = std::make_shared<runtime::MetricsRegistry>();
  baseline_ctx.report = &report;
  baseline_ctx.failures = &failures;
  baseline_ctx.label = "baseline";
  const Outputs baseline = run_fn(baseline_ctx);
  if (!failures.empty()) {
    // A broken baseline means the campaign cannot judge anything.
    report.failures = std::move(failures);
    return report;
  }

  runtime::FaultInjector faults;
  runtime::Tracer tracer;
  tracer.enable();
  RunContext chaos_ctx;
  chaos_ctx.faults = &faults;
  chaos_ctx.plan = &plan;
  chaos_ctx.metrics = std::make_shared<runtime::MetricsRegistry>();
  chaos_ctx.tracer = &tracer;
  chaos_ctx.report = &report;
  chaos_ctx.failures = &failures;
  chaos_ctx.label = "chaos";
  std::unique_ptr<runtime::Monitor> monitor;
  if (config.monitor_period > 0.0) {
    runtime::MonitorConfig mc;
    mc.period = config.monitor_period;
    monitor = std::make_unique<runtime::Monitor>(*chaos_ctx.metrics, mc);
    monitor->start();
  }
  const Outputs chaos = run_fn(chaos_ctx);
  if (monitor != nullptr) {
    monitor->stop();
    report.monitor_json = monitor->to_json();
  }
  report.metrics_json = chaos_ctx.metrics->to_json();
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
  const bool queue_substrate = config.substrate != "mapreduce";
  // Shuffle runs arm corruption on the shuffle bucket's gets (checksum
  // detection is under test); queue substrates arm it on deliveries/blobs.
  if ((queue_substrate || is_shuffle_app(config.app)) && report.corruptions < 1) {
    failures.push_back("plan injected no corruption");
  }
  if (queue_substrate) {
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
  std::size_t pos = 0;
  while (pos < plan_summary.size()) {
    std::size_t nl = plan_summary.find('\n', pos);
    if (nl == std::string::npos) nl = plan_summary.size();
    out += "    " + plan_summary.substr(pos, nl - pos) + "\n";
    pos = nl + 1;
  }
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
