// shuffle: a histogram-style ShuffleJobRunner job. Budgets are small so
// every map spills several times and every reducer merges sorted runs;
// the queue service is not involved at all.
#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/shuffle_job.h"
#include "workloads.h"

namespace perfbench {

namespace mr = ppc::mapreduce;

ShuffleShape shuffle_shape(double scale) {
  // 200k records over 16 maps and 8 reducers, several waves per slot. Two
  // slots (2 nodes x 1) leave two of the four cores free: with every core
  // busy, one competing thread slowed this job 1.4x; with two free, 1.03x.
  ShuffleShape s;
  s.files = 16;
  s.reducers = 8;
  s.records_per_file = std::max(50, static_cast<int>(std::lround(12500 * scale)));
  return s;
}

ShuffleRun::ShuffleRun(const ShuffleShape& shape, const ShuffleInputs& inputs)
    : shape_(shape), inputs_(inputs) {}

void ShuffleRun::setup() {
  hdfs_ = std::make_unique<ppc::minihdfs::MiniHdfs>(shape_.nodes);
  spill_store_ = std::make_unique<ppc::blobstore::BlobStore>(std::make_shared<ppc::SystemClock>());
  for (const auto& [path, contents] : inputs_.files) {
    hdfs_->write(path, contents);
    paths_.push_back(path);
  }
}

void ShuffleRun::trace_with(SpanRecorder* recorder) {
  recorder_ = recorder;
  timed_ = std::make_unique<TimedStorage>(*spill_store_, *recorder);
  spill_store_->set_tracer(recorder);
}

bool ShuffleRun::run() {
  mr::ShuffleJobConfig config;
  config.num_nodes = shape_.nodes;
  config.slots_per_node = shape_.slots_per_node;
  config.num_reducers = shape_.reducers;
  config.job_name = "histogram";
  config.map_spill_budget = shape_.map_spill_budget;
  config.sort_memory_budget = shape_.sort_memory_budget;
  config.spill_store = timed_ != nullptr ? static_cast<ppc::storage::StorageBackend*>(timed_.get())
                                         : spill_store_.get();
  mr::MapKvFn map_fn = histogram_map;
  mr::ReduceFn reduce_fn = histogram_reduce;
  if (recorder_ != nullptr) {
    map_fn = [rec = recorder_](const mr::FileRecord& record, const std::string& contents,
                               const mr::EmitFn& emit) {
      const std::uint64_t span = rec->begin(Layer::kMapFn, "map_fn", record.name);
      histogram_map(record, contents, emit);
      rec->end(span);
    };
    reduce_fn = [rec = recorder_, reducers = shape_.reducers](
                    const std::string& key, const std::vector<std::string>& values) {
      std::string task = "r";
      task += std::to_string(mr::partition_of(key, reducers));
      const std::uint64_t span = rec->begin(Layer::kReduceFn, "reduce_fn", task);
      std::string out = histogram_reduce(key, values);
      rec->end(span);
      return out;
    };
  }
  mr::ShuffleJobRunner runner(*hdfs_);
  window_start_ = now_ns();
  result_ = runner.run(paths_, map_fn, reduce_fn, config);
  window_end_ = now_ns();
  return result_.succeeded;
}

std::vector<std::string> ShuffleRun::verify(std::int64_t& failed_items) {
  std::vector<std::string> failures;
  if (!result_.succeeded) failures.push_back("shuffle job reported failure");
  const std::map<std::string, std::string> got = mr::canonical_reduced_output(result_, *hdfs_);
  std::int64_t wrong = 0;
  for (const auto& [key, value] : inputs_.expected) {
    auto it = got.find(key);
    if (it == got.end() || it->second != value) ++wrong;
  }
  for (const auto& [key, value] : got) wrong += inputs_.expected.contains(key) ? 0 : 1;
  if (wrong != 0) {
    failures.push_back(std::to_string(wrong) +
                       " keys differ from the std::sort + group-by reference");
  }
  failed_items += std::max<std::int64_t>(wrong, failures.empty() ? 0 : 1);
  return failures;
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::map<std::string, double> shuffle_layers(ShuffleRun& run, const SpanRecorder& recorder,
                                             std::uint32_t main_thread,
                                             std::vector<std::string>& failures,
                                             std::vector<Span>& spans_out) {
  std::vector<Span> spans = recorder.spans();
  assign_tasks(spans);
  const std::set<std::uint32_t> threads = worker_threads(spans, main_thread);
  const Attribution a =
      attribute(spans, threads, run.window_start_ns(), run.window_end_ns(), run.slots());
  for (std::string& f : reconcile(a)) failures.push_back(std::move(f));

  const mr::ShuffleStats& st = run.result().shuffle;
  const TimedStorage::OpStats puts = run.timed_store()->puts();
  const TimedStorage::OpStats gets = run.timed_store()->gets();
  const OpSummary put = summarize_ops(spans, threads, "blobstore.", "put");
  const OpSummary get = summarize_ops(spans, threads, "blobstore.", "get");
  const auto meter = run.spill_store().meter();
  const double tasks = run.tasks();

  std::map<std::string, double> m;
  // Checksummed bytes: map spills are hashed by the writer and again by
  // the store's etag, sort runs by the etag, fetched spills on verify.
  m["checksum.mib_hashed_per_task"] =
      (2.0 * st.map_spill_bytes + st.sort_run_bytes + st.fetched_bytes) / kMiB / tasks;
  m["blobstore.put_ns"] = put.mean_ns();
  m["blobstore.get_ns"] = get.mean_ns();
  m["storage.requests_per_task"] = static_cast<double>(meter.requests()) / tasks;
  m["storage.bytes_per_task"] = (meter.bytes_in + meter.bytes_out) / tasks;
  m["storage.busy_share"] = a.share(Layer::kStorage);
  m["storage.get_misses"] = static_cast<double>(gets.failed);
  m["shuffle.spill_put_ns"] = puts.mean_ns();
  m["shuffle.fetch_get_ns"] = gets.mean_ns();
  m["shuffle.map_fn_busy_share"] = a.share(Layer::kMapFn);
  m["shuffle.reduce_fn_busy_share"] = a.share(Layer::kReduceFn);
  m["shuffle.spill_amplification"] =
      st.map_output_bytes > 0.0 ? (st.map_spill_bytes + st.sort_run_bytes) / st.map_output_bytes
                                : 0.0;
  m["shuffle.sort_runs_spilled"] = st.sort_runs_spilled;
  m["shuffle.fetch_retries"] = static_cast<double>(st.corrupt_fetches + gets.failed);
  m["shuffle.map_redrives"] = st.map_redrives;
  m["runtime.residual_ns_per_task"] = a.residual_ns / tasks;
  m["trace.unattributed_share"] = a.wall_ns > 0.0 ? a.residual_ns / a.wall_ns : 0.0;
  m["trace.reconcile_error"] = a.reconcile_error();
  spans_out = std::move(spans);
  return m;
}

}  // namespace

WorkloadResult run_shuffle(const RunOptions& opts) {
  const ShuffleShape shape = shuffle_shape(opts.scale);
  const ShuffleInputs inputs =
      make_shuffle_inputs(opts.seed, shape.files, shape.records_per_file, shape.distinct_keys);

  const RepLog log = run_reps(opts, [&](bool traced) {
    RepSample s;
    s.items = inputs.records;
    std::unique_ptr<SpanRecorder> recorder;  // outlives the run that points at it
    std::uint32_t main_thread = 0;
    ShuffleRun run(shape, inputs);
    const std::int64_t t0 = now_ns();
    run.setup();
    const std::int64_t t1 = now_ns();
    s.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    if (traced) {
      recorder = std::make_unique<SpanRecorder>();
      main_thread = recorder->thread_index();
      run.trace_with(recorder.get());
    }
    const std::int64_t t2 = now_ns();
    run.run();
    s.failures = run.verify(s.failed_items);
    s.job_s = static_cast<double>(now_ns() - t2) * 1e-9;
    s.cost_usd = run.result().shuffle.shuffle_storage_cost;
    if (traced) {
      std::vector<Span> spans;
      const std::size_t before = s.failures.size();
      s.layer = shuffle_layers(run, *recorder, main_thread, s.failures, spans);
      s.layer["core.wall_ns_per_task"] = s.job_s * 1e9 / run.tasks();
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
