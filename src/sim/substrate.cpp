#include "sim/substrate.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "azuremr/runtime.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "dryad/file_share.h"
#include "dryad/partitioned_table.h"
#include "dryad/runtime.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle_job.h"
#include "minihdfs/mini_hdfs.h"
#include "runtime/worker_supervisor.h"
#include "sim/shuffle_run.h"
#include "storage/fs_backends.h"

namespace ppc::sim {

namespace {

bool wait_until(const std::function<bool()>& pred, Seconds timeout) {
  ppc::SystemClock clock;
  while (clock.now() < timeout) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Supervisor tuning shared by the queue substrates: fast restarts so a
/// fault run's crashes recover within the job. A fault-free run never
/// restarts a worker.
void tune_supervisor(runtime::SupervisorConfig& sc, const SubstrateRunSpec& spec) {
  sc.metrics = spec.metrics;
  sc.tracer = spec.tracer;
  sc.max_restarts_per_slot = 8;
  sc.initial_backoff = 0.01;
  sc.watch_interval = 0.002;
}

SubstrateRun run_classiccloud(const SubstrateRunSpec& spec, const AppJob& app) {
  SubstrateRun run;
  const bool faulty = spec.faults != nullptr;
  auto clock = std::make_shared<ppc::SystemClock>();
  const auto store_ptr = storage::make_backend(storage::parse_storage_kind(spec.storage), clock,
                                               ppc::Rng(0xCAFE));
  storage::StorageBackend& store = *store_ptr;
  cloudq::QueueService queues(clock);
  store.set_fault_hook(spec.faults);
  queues.set_fault_hook(spec.faults);
  store.set_tracer(spec.tracer);
  queues.set_tracer(spec.tracer);
  const std::string job = spec.job_prefix + "-cc";
  if (faulty) queues.create_queue_with_dlq(job + "-tasks", spec.max_receive_count);
  classiccloud::JobClient client(store, queues, job);
  const std::shared_ptr<cloudq::MessageQueue> task_queue = client.task_queue();
  client.submit(app.files, app.shared_files);
  if (faulty) {
    // Poison sentinel: an undecodable task body. Every delivery fails, so
    // the lifecycle must dead-letter it after max_receive_count deliveries.
    task_queue->send("poison-task: not a decodable task spec");
    spec.faults->arm_plan(*spec.plan);
  }

  classiccloud::TaskExecutor executor = [&app](const classiccloud::TaskSpec& task,
                                               const std::string& input) {
    return app.fn(task.task_id, input);
  };
  classiccloud::WorkerConfig wc;
  wc.poll_interval = 0.001;
  wc.visibility_timeout = spec.visibility_timeout;
  wc.abandon_visibility = 0.02;
  wc.faults = spec.faults;
  wc.metrics = spec.metrics;
  wc.tracer = spec.tracer;
  wc.enable_cache = spec.enable_cache;
  runtime::SupervisorConfig sc;
  sc.num_workers = spec.num_workers;
  sc.id_prefix = job + "-w";
  tune_supervisor(sc, spec);
  runtime::WorkerSupervisor supervisor(
      [&](const std::string& worker_id, int /*incarnation*/) {
        auto worker = std::make_shared<classiccloud::Worker>(
            worker_id, store, task_queue, client.monitor_queue(), executor, wc);
        worker->start();
        return runtime::SupervisedWorker{worker, &worker->lifecycle()};
      },
      sc);
  supervisor.start();

  if (!client.wait_for_completion(spec.run_timeout)) {
    run.failures.push_back("classiccloud job did not complete within " +
                           ppc::format_fixed(spec.run_timeout, 0) + "s");
  }
  if (faulty && !wait_until([&] { return task_queue->dlq_depth() >= 1; }, 20.0)) {
    run.failures.push_back("poison task never reached the dead-letter queue");
  }
  supervisor.stop();

  // The job is over: collecting its outputs must not draw on the plan.
  store.set_fault_hook(nullptr);
  for (const auto& task : client.tasks()) {
    std::shared_ptr<const std::string> out;
    for (int attempt = 0; attempt < 2000 && !out; ++attempt) {
      out = client.fetch_output(task);
      if (!out) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!out) {
      run.failures.push_back("output never became visible: " + task.task_id);
      continue;
    }
    run.outputs[task.input_key.substr(std::string("input/").size())] = *out;
  }
  const auto meter = task_queue->meter();
  run.stale_deletes = static_cast<std::int64_t>(meter.stale_deletes);
  run.dlq_entries = static_cast<std::int64_t>(meter.dlq_moves);
  return run;
}

SubstrateRun run_azuremr(const SubstrateRunSpec& spec, const AppJob& app) {
  SubstrateRun run;
  const bool faulty = spec.faults != nullptr;
  auto clock = std::make_shared<ppc::SystemClock>();
  const auto store_ptr = storage::make_backend(storage::parse_storage_kind(spec.storage), clock,
                                               ppc::Rng(0xAC));
  storage::StorageBackend& store = *store_ptr;
  cloudq::QueueService queues(clock);
  store.set_fault_hook(spec.faults);
  queues.set_fault_hook(spec.faults);
  store.set_tracer(spec.tracer);
  queues.set_tracer(spec.tracer);
  const std::string job = spec.job_prefix + "-az";
  std::shared_ptr<cloudq::MessageQueue> task_queue;
  if (faulty) {
    task_queue = queues.create_queue_with_dlq(job + "-mr-tasks", spec.max_receive_count);
    // Poison sentinel: a task with an op no worker implements.
    task_queue->send(ppc::encode_kv({{"op", "poison"}, {"iter", "0"}, {"input", "none"}}));
    spec.faults->arm_plan(*spec.plan);
  }

  azuremr::MrWorkerConfig wc;
  wc.poll_interval = 0.001;
  wc.visibility_timeout = spec.visibility_timeout;
  wc.abandon_visibility = 0.02;
  wc.task_max_receive_count = faulty ? spec.max_receive_count : 0;
  wc.faults = spec.faults;
  wc.metrics = spec.metrics;
  wc.tracer = spec.tracer;
  azuremr::AzureMapReduce mr(store, queues, spec.num_workers, wc);
  tune_supervisor(mr.supervisor_config, spec);

  azuremr::JobSpec job_spec;
  job_spec.job_id = job;
  job_spec.inputs = app.files;
  job_spec.num_reduce_tasks = 2;
  job_spec.stage_timeout = spec.run_timeout;
  const auto fn = app.fn;
  job_spec.map = [fn](const std::string& name, const std::string& data, const std::string&) {
    return std::vector<azuremr::KeyValue>{{name, fn(name, data)}};
  };
  job_spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return values.front();
  };

  const auto result = mr.run(job_spec);
  if (!result.succeeded) run.failures.push_back("azuremr job failed");
  if (faulty && task_queue->dlq_depth() < 1) {
    // Small jobs can finish before the poison burns through its redrive
    // budget, and run() stops the pool on completion. Keep one drain worker
    // polling — it abandons everything it sees, so leftover messages (the
    // poison, plus any completed-but-undeleted stragglers) hit their
    // receive limit and land in the DLQ.
    runtime::LifecycleConfig lc;
    lc.poll_interval = 0.001;
    lc.visibility_timeout = spec.visibility_timeout;
    lc.abandon_visibility = 0.0;
    runtime::TaskLifecycle drain(
        job + "-drain", task_queue,
        [](runtime::TaskContext&) { return runtime::TaskOutcome::kAbandoned; }, lc,
        spec.metrics, nullptr);
    drain.start();
    const bool drained = wait_until([&] { return task_queue->dlq_depth() >= 1; }, 20.0);
    drain.request_stop();
    drain.join();
    if (!drained) run.failures.push_back("poison task never reached the dead-letter queue");
  }
  if (faulty) {
    const auto meter = task_queue->meter();
    run.stale_deletes = static_cast<std::int64_t>(meter.stale_deletes);
    run.dlq_entries = static_cast<std::int64_t>(meter.dlq_moves);
  }
  run.outputs.insert(result.outputs.begin(), result.outputs.end());
  return run;
}

/// Writes every input file to `hdfs` under /in/; returns the paths.
std::vector<std::string> stage_inputs(
    minihdfs::MiniHdfs& hdfs, const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<std::string> paths;
  for (const auto& [name, data] : files) {
    const std::string path = "/in/" + name;
    hdfs.write(path, data);
    paths.push_back(path);
  }
  return paths;
}

std::int64_t count_failed(const std::vector<mapreduce::AttemptRecord>& attempts) {
  return std::ranges::count_if(attempts, [](const auto& a) { return !a.succeeded; });
}

SubstrateRun run_mapreduce(const SubstrateRunSpec& spec, const AppJob& app) {
  SubstrateRun run;
  minihdfs::MiniHdfs hdfs(spec.num_workers);
  const std::vector<std::string> paths = stage_inputs(hdfs, app.files);
  if (spec.faults != nullptr) spec.faults->arm_plan(*spec.plan);

  const auto fn = app.fn;
  mapreduce::JobConfig jc;
  jc.num_nodes = spec.num_workers;
  jc.slots_per_node = spec.slots_per_node;
  jc.scheduler.max_attempts = spec.max_attempts;
  jc.faults = spec.faults;
  jc.metrics = spec.metrics;
  jc.tracer = spec.tracer;
  mapreduce::LocalJobRunner runner(hdfs);
  const auto result = runner.run(
      paths,
      [fn](const mapreduce::FileRecord& record, const std::string& contents) {
        return fn(record.name, contents);
      },
      jc);
  if (!result.succeeded) run.failures.push_back("mapreduce job failed");
  run.failed_attempts = count_failed(result.attempts);
  for (const auto& [name, out_path] : result.outputs) {
    run.outputs[name] = hdfs.read(out_path).value_or("");
  }
  return run;
}

/// Tight spill/sort budgets force multi-spill map outputs and external-sort
/// runs, so the spill/fetch fault sites sit on the hot path.
SubstrateRun run_mapreduce_shuffle(const SubstrateRunSpec& spec, const std::string& app_name,
                                   const ShuffleAppJob& app) {
  SubstrateRun run;
  minihdfs::MiniHdfs hdfs(spec.num_workers);
  const std::vector<std::string> paths = stage_inputs(hdfs, app.files);
  if (spec.faults != nullptr) spec.faults->arm_plan(*spec.plan);

  mapreduce::ShuffleJobConfig jc;
  jc.num_nodes = spec.num_workers;
  jc.slots_per_node = spec.slots_per_node;
  jc.num_reducers = 3;
  jc.job_name = spec.job_prefix + "-" + app_name;
  jc.map_spill_budget = 2.0 * 1024;
  jc.sort_memory_budget = 4.0 * 1024;
  jc.scheduler.max_attempts = spec.max_attempts;
  jc.reduce_scheduler.max_attempts = spec.max_attempts;
  jc.faults = spec.faults;
  jc.metrics = spec.metrics;
  jc.tracer = spec.tracer;
  mapreduce::ShuffleJobRunner runner(hdfs);
  const auto result = runner.run(paths, app.map, app.reduce, jc);
  if (!result.succeeded) run.failures.push_back("mapreduce shuffle job failed");
  run.failed_attempts = count_failed(result.map_attempts) + count_failed(result.reduce_attempts);
  run.corrupt_fetches = result.shuffle.corrupt_fetches;
  run.outputs = mapreduce::canonical_reduced_output(result, hdfs);
  return run;
}

SubstrateRun run_dryad(const SubstrateRunSpec& spec, const AppJob& app) {
  SubstrateRun run;
  dryad::FileShare share(spec.num_workers);
  std::vector<std::string> names;
  names.reserve(app.files.size());
  for (const auto& [name, _] : app.files) names.push_back(name);
  // Round-robin static partitioning — the layout the paper's partition tool
  // produces without size information, and the one §4.2 blames for the
  // imbalance on inhomogeneous data.
  const auto table = dryad::PartitionedTable::round_robin(names, spec.num_workers);
  const std::map<std::string, std::string> data(app.files.begin(), app.files.end());
  table.distribute(share, [&](const std::string& name) { return data.at(name); });

  dryad::RuntimeConfig rc;
  rc.num_nodes = spec.num_workers;
  rc.slots_per_node = spec.slots_per_node;
  rc.tracer = spec.tracer;
  rc.metrics = spec.metrics;
  dryad::DryadRuntime rt(rc);
  const auto fn = app.fn;
  const auto result = dryad_select(rt, share, table,
                                   [fn](const std::string& name, const std::string& contents) {
                                     return fn(name, contents);
                                   });
  if (!result.report.succeeded) run.failures.push_back("dryad job failed");
  run.outputs = result.outputs;
  return run;
}

core::RunResult classic_cloud_sim(const core::Workload& workload,
                                  const core::Deployment& deployment,
                                  const core::ExecutionModel& model,
                                  const core::SimRunParams& params) {
  return core::run_classic_cloud_sim(workload, deployment, model, params);
}

// Chaos data. Site names derive from the job ids of a campaign's runs
// ("chaos-cc", "chaos-az"); with the sampling RNG (seeded from the substrate
// name) they are replay contracts.
using enum runtime::FaultAction;

SubstrateChaos classiccloud_chaos() {
  const std::string qrecv = "cloudq.chaos-cc-tasks.receive";
  const std::string qdel = "cloudq.chaos-cc-tasks.delete";
  const std::string bget = "blobstore.job.get";
  runtime::FaultPlan floor;
  floor.crash(classiccloud::sites::kAfterExecute)
      .delay(qrecv, 0.005, 3)
      .error(qdel, "injected delete failure", 1)
      .error(bget, "injected get failure", 2)
      .corrupt(qrecv, 1)
      .corrupt(bget, 1);
  return {floor.rules,
          {{qrecv, kDelay}, {qrecv, kError}, {qrecv, kCorrupt}, {qdel, kError},
           {bget, kDelay}, {bget, kError}, {classiccloud::sites::kAfterReceive, kCrash},
           {classiccloud::sites::kAfterUpload, kCrash}},
          classiccloud::sites::kAfterReceive};
}

SubstrateChaos azuremr_chaos() {
  const std::string qrecv = "cloudq.chaos-az-mr-tasks.receive";
  const std::string qdel = "cloudq.chaos-az-mr-tasks.delete";
  const std::string bget = "blobstore.chaos-az.get";
  const std::string blist = "blobstore.chaos-az.list";
  runtime::FaultPlan floor;
  floor.crash(azuremr::sites::kAfterMap)
      .delay(qrecv, 0.005, 3)
      .error(qdel, "injected delete failure", 1)
      .error(bget, "injected get failure", 2)
      .error(blist, "injected list failure", 1)
      .corrupt(qrecv, 1)
      .corrupt(bget, 1);
  return {floor.rules,
          {{qrecv, kDelay}, {qrecv, kError}, {qrecv, kCorrupt}, {qdel, kError}, {bget, kDelay},
           {bget, kError}, {blist, kError}, {azuremr::sites::kAfterReduce, kCrash}},
          azuremr::sites::kAfterMap};
}

SubstrateChaos mapreduce_chaos() {
  const std::string site = mapreduce::sites::kMapAttempt;
  runtime::FaultPlan floor;
  floor.crash(site).delay(site, 0.005, 3).error(site, "injected attempt failure", 2);
  return {floor.rules, {{site, kDelay}, {site, kError}, {site, kCrash}}, site};
}

/// Full-pipeline chaos: faults land on every shuffle stage. The crash in the
/// kMapRegister window leaves durable-but-unregistered spills (the
/// map-output-loss shape), the fetch/spill errors burn attempts on both
/// sides, and the corrupt rule on the shuffle bucket's gets exercises
/// checksum detection + redrive.
SubstrateChaos mapreduce_shuffle_chaos() {
  const std::string map = mapreduce::sites::kMapAttempt;
  const std::string spill = mapreduce::sites::kSpill;
  const std::string fetch = mapreduce::sites::kFetch;
  const std::string reduce = mapreduce::sites::kReduceAttempt;
  const std::string bget = "blobstore.shuffle.get";
  runtime::FaultPlan floor;
  floor.crash(map)
      .crash(mapreduce::sites::kMapRegister)
      .crash(reduce)
      .delay(fetch, 0.005, 3)
      .error(spill, "injected spill failure", 1)
      .error(fetch, "injected fetch failure", 1)
      .corrupt(bget, 2);
  return {floor.rules,
          {{fetch, kDelay}, {fetch, kError}, {spill, kError}, {map, kCrash}, {reduce, kCrash},
           {bget, kCorrupt}},
          map};
}

}  // namespace

const SubstrateChaos* Substrate::chaos_for(const std::string& app) const {
  const auto& data = is_shuffle_app(app) ? shuffle_chaos : chaos;
  return data ? &*data : nullptr;
}

const std::vector<Substrate>& all_substrates() {
  static const std::vector<Substrate> table = {
      {"classiccloud", true, run_classiccloud, cloud::ec2_hcxl, classic_cloud_sim,
       classiccloud_chaos(), nullptr, std::nullopt},
      // The DES models Azure's worker roles with the Classic Cloud driver
      // on Azure instances.
      {"azuremr", true, run_azuremr, cloud::azure_large, classic_cloud_sim, azuremr_chaos(),
       nullptr, std::nullopt},
      {"mapreduce", false, run_mapreduce, cloud::bare_metal_idataplex_node,
       core::run_mapreduce_sim, mapreduce_chaos(), run_mapreduce_shuffle,
       mapreduce_shuffle_chaos()},
      {"dryad", false, run_dryad, cloud::bare_metal_hpcs_node, core::run_dryad_sim,
       std::nullopt, nullptr, std::nullopt},
  };
  return table;
}

const Substrate& find_substrate(const std::string& name) {
  for (const Substrate& s : all_substrates()) {
    if (s.name == name) return s;
  }
  std::string valid;
  for (const Substrate& s : all_substrates()) valid += (valid.empty() ? "" : ", ") + s.name;
  throw ppc::InvalidArgument("unknown substrate '" + name + "' (valid: " + valid + ")");
}

std::vector<std::string> expand_substrates(const std::string& arg, const std::string& chaos_app) {
  if (arg != "all" && !is_shuffle_app(chaos_app)) return {find_substrate(arg).name};
  std::vector<std::string> names;
  for (const Substrate& s : all_substrates()) {
    if (chaos_app.empty() || s.chaos_for(chaos_app) != nullptr) names.push_back(s.name);
  }
  return names;
}

}  // namespace ppc::sim
