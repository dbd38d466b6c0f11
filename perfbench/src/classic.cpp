// classic_small and classic_1mb: the real-thread Classic Cloud engine
// (JobClient + WorkerPool) over an in-memory object store and a sharded
// queue service.
#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "workloads.h"

namespace perfbench {

namespace cc = ppc::classiccloud;

ClassicShape classic_shape(const std::string& workload, double scale) {
  ClassicShape s;
  if (workload == "classic_small") {
    // Many tiny inputs: the control plane (queue locks, batch APIs,
    // lifecycle bookkeeping, polling, codec) does most of the work.
    s.tasks = 6000;
    s.input_bytes = 256;
  } else {
    // 1 MiB inputs plus one shared 1 MiB reference read through the worker
    // BlockCache: payload copies and content checksums dominate. 2 workers
    // leave a core free: with 3 busy on checksums, one competing thread
    // slowed the job 1.06-1.14x; with 2, under 1.04x. 40 tasks are two full
    // receive batches per worker.
    s.tasks = 40;
    s.workers = 2;
    s.input_bytes = 1 << 20;
    s.shared_bytes = 1 << 20;
  }
  s.tasks = std::max(3, static_cast<int>(std::lround(s.tasks * scale)));
  return s;
}

ClassicRun::ClassicRun(const ClassicShape& shape, const ClassicInputs& inputs)
    : shape_(shape), inputs_(inputs) {}

ClassicRun::~ClassicRun() { stop(); }

double ClassicRun::setup() {
  auto clock = std::make_shared<ppc::SystemClock>();
  store_ = std::make_unique<ppc::blobstore::BlobStore>(clock);
  ppc::cloudq::QueueConfig qc;
  qc.shards = shape_.shards;
  queues_ = std::make_unique<ppc::cloudq::QueueService>(clock, qc);
  client_ = std::make_unique<cc::JobClient>(*store_, *queues_, "job");
  const std::int64_t t0 = now_ns();
  client_->submit(inputs_.files, inputs_.shared);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void ClassicRun::trace_with(SpanRecorder* recorder) {
  recorder_ = recorder;
  store_->set_tracer(recorder);
  queues_->set_tracer(recorder);
}

bool ClassicRun::run() {
  cc::WorkerConfig wc;
  wc.receive_batch = shape_.batch;
  wc.delete_batch = shape_.batch;
  wc.enable_cache = shape_.shared_bytes > 0;
  cc::TaskExecutor executor = [](const cc::TaskSpec&, const std::string& input) {
    return reverse_complement(input);
  };
  if (recorder_ != nullptr) {
    executor = [rec = recorder_](const cc::TaskSpec& task, const std::string& input) {
      const std::uint64_t span = rec->begin(Layer::kExecutor, "executor", task.task_id);
      std::string out = reverse_complement(input);
      rec->end(span);
      return out;
    };
  }
  pool_ = std::make_unique<cc::WorkerPool>(*store_, client_->task_queue(),
                                           client_->monitor_queue(), executor, wc, shape_.workers);
  if (recorder_ != nullptr) {
    for (std::size_t i = 0; i < pool_->size(); ++i) {
      if (auto* cache = pool_->worker(i).cache()) cache->set_tracer(recorder_);
    }
  }
  window_start_ = now_ns();
  pool_->start_all();
  completed_ = client_->wait_for_completion(60.0, 0.0005);
  meter_done_ = store_->meter();
  return completed_;
}

std::vector<std::string> ClassicRun::verify(std::int64_t& failed_items) {
  std::vector<std::string> failures;
  const auto n = static_cast<std::int64_t>(inputs_.files.size());
  if (!completed_) failures.push_back("job did not complete within 60 s");
  const auto done = static_cast<std::int64_t>(client_->completions().size());
  const std::int64_t executed = pool_->metrics().sum_counters(".tasks_completed");
  const std::int64_t exec_failed = pool_->metrics().sum_counters(".executions_failed");
  if (done != n || executed != n) {
    failures.push_back("tasks completed " + std::to_string(executed) + " times with " +
                       std::to_string(done) + " distinct completions for " + std::to_string(n) +
                       " tasks; each must complete exactly once");
  }
  if (exec_failed != 0) failures.push_back(std::to_string(exec_failed) + " executions failed");
  std::int64_t wrong = 0;
  const auto& tasks = client_->tasks();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto out = client_->fetch_output(tasks[i]);
    if (out == nullptr || *out != inputs_.expected[i]) ++wrong;
  }
  if (wrong != 0) {
    failures.push_back(std::to_string(wrong) + " of " + std::to_string(n) +
                       " outputs differ from the expected bytes");
  }
  failed_items += std::max({wrong, std::abs(n - executed), failures.empty() ? 0 : std::int64_t{1}});
  return failures;
}

void ClassicRun::stop() {
  if (pool_ == nullptr || window_end_ != 0) return;
  pool_->stop_all();
  pool_->join_all();
  window_end_ = now_ns();
}

double ClassicRun::cost_usd() const {
  return queues_->total_request_cost() + store_->transfer_and_request_cost();
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Per-layer values of one traced classic rep.
std::map<std::string, double> classic_layers(ClassicRun& run, const SpanRecorder& recorder,
                                             std::uint32_t main_thread, double submit_s,
                                             int workers, std::vector<std::string>& failures,
                                             std::vector<Span>& spans_out) {
  std::vector<Span> spans = recorder.spans();
  assign_tasks(spans);
  const std::set<std::uint32_t> workers_seen = worker_threads(spans, main_thread);
  const Attribution a =
      attribute(spans, workers_seen, run.window_start_ns(), run.window_end_ns(), workers);
  for (std::string& f : reconcile(a)) failures.push_back(std::move(f));

  const double n = static_cast<double>(run.client().tasks().size());
  const OpSummary send = summarize_ops(spans, workers_seen, "cloudq.", "send");
  const OpSummary recv = summarize_ops(spans, workers_seen, "cloudq.", "receive");
  const OpSummary del = summarize_ops(spans, workers_seen, "cloudq.", "delete");
  const OpSummary put = summarize_ops(spans, workers_seen, "blobstore.", "put");
  const OpSummary get = summarize_ops(spans, workers_seen, "blobstore.", "get");
  const OpSummary exec = summarize_ops(spans, workers_seen, "executor", "executor");
  if (static_cast<double>(exec.count) != n) {
    failures.push_back("executor ran " + std::to_string(exec.count) + " times for " +
                       std::to_string(static_cast<long long>(n)) + " tasks");
  }

  auto& metrics = run.pool().metrics();
  const auto task_meter = run.client().task_queue()->meter();
  const auto queue_meter = run.queues().total_meter();
  const auto store_meter = run.store().meter();
  const double hits = static_cast<double>(metrics.sum_counters(".blockcache.hits"));
  const double misses = static_cast<double>(metrics.sum_counters(".blockcache.misses"));

  // Bytes through checksum sites: every blob put and worker get, every
  // task-queue body (stamped on send, checked on receive) and every
  // monitor body (stamped on send).
  const auto& done = run.meter_at_completion();
  double queue_bytes = 0.0;
  for (const cc::TaskSpec& t : run.client().tasks()) queue_bytes += 2.0 * cc::encode_task(t).size();
  for (const auto& [id, record] : run.client().completions()) {
    queue_bytes += static_cast<double>(cc::encode_monitor(record).size());
  }

  std::map<std::string, double> m;
  m["checksum.mib_hashed_per_task"] = (done.bytes_in + done.bytes_out + queue_bytes) / kMiB / n;
  m["cloudq.send_ns"] = send.mean_ns();
  m["cloudq.receive_ns"] = recv.mean_ns();
  m["cloudq.delete_ns"] = del.mean_ns();
  m["cloudq.requests_per_task"] = static_cast<double>(queue_meter.total()) / n;
  m["cloudq.batch_occupancy"] = task_meter.batch_occupancy();
  m["cloudq.empty_receive_share"] =
      recv.count == 0 ? 0.0 : static_cast<double>(recv.empty) / static_cast<double>(recv.count);
  m["cloudq.busy_share"] = a.share(Layer::kCloudq);
  m["cloudq.failed_ops"] =
      static_cast<double>(send.failed + recv.failed + del.failed + task_meter.stale_deletes);
  m["blobstore.put_ns"] = put.mean_ns();
  m["blobstore.get_ns"] = get.mean_ns();
  m["storage.requests_per_task"] = static_cast<double>(store_meter.requests()) / n;
  m["storage.bytes_per_task"] = (store_meter.bytes_in + store_meter.bytes_out) / n;
  m["storage.busy_share"] = a.share(Layer::kStorage);
  m["storage.get_misses"] =
      static_cast<double>(metrics.sum_counters(".downloads_missed") + get.failed);
  m["blockcache.hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  m["classiccloud.submit_s"] = submit_s;
  m["executor.busy_share"] = a.share(Layer::kExecutor);
  m["executor.ns_p50"] = percentile_of(exec.durations_ns, 50.0);
  m["executor.ns_p99"] = percentile_of(exec.durations_ns, 99.0);
  m["runtime.residual_ns_per_task"] = a.residual_ns / n;
  m["runtime.redeliveries"] = static_cast<double>(metrics.sum_counters(".redeliveries"));
  m["runtime.executions_per_task"] = static_cast<double>(exec.count) / n;
  m["trace.unattributed_share"] = a.wall_ns > 0.0 ? a.residual_ns / a.wall_ns : 0.0;
  m["trace.reconcile_error"] = a.reconcile_error();
  spans_out = std::move(spans);
  return m;
}

}  // namespace

WorkloadResult run_classic(const RunOptions& opts) {
  const ClassicShape shape = classic_shape(opts.workload, opts.scale);
  const ClassicInputs inputs =
      make_classic_inputs(opts.seed, shape.tasks, shape.input_bytes, shape.shared_bytes);

  const RepLog log = run_reps(opts, [&](bool traced) {
    RepSample s;
    s.items = shape.tasks;
    std::unique_ptr<SpanRecorder> recorder;  // outlives the run that points at it
    std::uint32_t main_thread = 0;
    ClassicRun run(shape, inputs);
    const std::int64_t t0 = now_ns();
    const double submit_s = run.setup();
    s.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (traced) {
      recorder = std::make_unique<SpanRecorder>();
      main_thread = recorder->thread_index();
      run.trace_with(recorder.get());
    }
    const std::int64_t t1 = now_ns();
    run.run();
    s.failures = run.verify(s.failed_items);
    s.job_s = static_cast<double>(now_ns() - t1) * 1e-9;
    run.stop();
    s.cost_usd = run.cost_usd();
    if (traced) {
      std::vector<Span> spans;
      const std::size_t before = s.failures.size();
      s.layer = classic_layers(run, *recorder, main_thread, submit_s, shape.workers, s.failures,
                               spans);
      s.layer["core.wall_ns_per_task"] = s.job_s * 1e9 / shape.tasks;
      s.layer["core.wall_ns_per_queue_request"] =
          s.job_s * 1e9 / static_cast<double>(run.queues().total_meter().total());
      if (s.failures.size() != before && s.failed_items == 0) s.failed_items = 1;
      if (!opts.trace_path.empty()) {
        write_chrome_trace(opts.trace_path, spans, fingerprint_json(opts));
      }
    }
    return s;
  });

  return summarize(opts, log);
}

}  // namespace perfbench
