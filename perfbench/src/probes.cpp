#include "probes.h"

#include <cstdio>
#include <map>
#include <set>
#include <memory>
#include <stdexcept>

#include "blobstore/blob_store.h"
#include "classiccloud/job_client.h"
#include "classiccloud/task.h"
#include "cloudq/message_queue.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "inputs.h"
#include "mapreduce/shuffle.h"
#include "report.h"
#include "runtime/monitor.h"
#include "sim/monitor_run.h"
#include "spans.h"

namespace perfbench {

namespace {

namespace bs = ppc::blobstore;
namespace cc = ppc::classiccloud;
namespace mr = ppc::mapreduce;

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("probe round trip failed: " + what);
}

// Keeps a probe's result observable so the compiler cannot drop the call.
volatile std::uint64_t g_sink = 0;

struct Values {
  std::map<std::string, double> m;
  void set(const std::string& name, double v) { m[name] = v; }
};

/// Median over `batches` of the mean wall ns of one call to `op` in a batch
/// of `ops_per_batch` calls. `op(i)` gets the call index in its batch.
template <typename Op>
double time_ns_per_op(int batches, int ops_per_batch, Op&& op) {
  std::vector<double> per_op;
  per_op.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < ops_per_batch; ++i) op(i);
    per_op.push_back(static_cast<double>(now_ns() - t0) / ops_per_batch);
  }
  return median_of(std::move(per_op));
}

std::string dna(std::uint64_t seed, std::size_t n) {
  return make_classic_inputs(seed, 1, n, 0).files.front().second;
}

void probe_checksum(Values& out) {
  // FNV-1a 64 of "a" is a published test vector.
  require(ppc::fnv1a64("a") == 0xaf63dc4c8601ec8cULL, "fnv1a64 test vector");
  const std::string mib = dna(7, 1 << 20);
  const std::string copy = mib;
  require(ppc::fnv1a64(mib) == ppc::fnv1a64(copy), "fnv1a64 is deterministic");
  out.set("checksum.ns_per_mib",
          time_ns_per_op(9, 4, [&](int) { g_sink = g_sink + ppc::fnv1a64(mib); }));
}

void probe_blob(Values& out, std::size_t bytes, const char* put_name, const char* get_name,
                int ops) {
  bs::BlobStore store(std::make_shared<ppc::ManualClock>());
  const std::string payload = dna(11, bytes);
  std::vector<std::string> keys;
  for (int i = 0; i < ops; ++i) keys.push_back("input/f" + std::to_string(i));
  std::vector<double> put_ns;
  for (int b = 0; b < 9; ++b) {
    std::vector<std::string> copies(static_cast<std::size_t>(ops), payload);
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < ops; ++i) store.put("job", keys[i], std::move(copies[i]));
    put_ns.push_back(static_cast<double>(now_ns() - t0) / ops);
  }
  out.set(put_name, median_of(put_ns));
  out.set(get_name, time_ns_per_op(9, ops, [&](int i) {
    g_sink = g_sink + store.get("job", keys[i])->size();
  }));
  for (const std::string& key : keys) {
    const auto got = store.get("job", key);
    require(got != nullptr && *got == payload, "blob put/get " + std::to_string(bytes));
  }
}

void probe_index(Values& out, int keys) {
  // The campaign's object-store shape: one logical object per task,
  // inserted once and fetched once.
  std::vector<double> put_ns, get_ns;
  for (int rep = 0; rep < 3; ++rep) {
    bs::BlobStore store(std::make_shared<ppc::ManualClock>());
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(keys));
    for (int i = 0; i < keys; ++i) names.push_back("in/t" + std::to_string(i));
    const std::int64_t t0 = now_ns();
    for (const std::string& k : names) store.put_logical("job", k, 1024.0);
    const std::int64_t t1 = now_ns();
    for (const std::string& k : names) g_sink = g_sink + (store.get("job", k) != nullptr);
    const std::int64_t t2 = now_ns();
    put_ns.push_back(static_cast<double>(t1 - t0) / keys);
    get_ns.push_back(static_cast<double>(t2 - t1) / keys);
    require(store.head("job", names.back()).value_or(0.0) == 1024.0, "put_logical/head");
  }
  out.set("blobstore.index_ns", (median_of(put_ns) + median_of(get_ns)) / 2.0);
  // The campaign's store calls are these, so they stand in for its spans.
  out.set("blobstore.put_ns", median_of(put_ns));
  out.set("blobstore.get_ns", median_of(get_ns));
}

cc::TaskSpec sample_task(int i) {
  cc::TaskSpec t;
  t.task_id = "job/f" + std::to_string(i);
  t.input_key = "input/f" + std::to_string(i);
  t.output_key = "output/f" + std::to_string(i);
  return t;
}

void probe_queue(Values& out) {
  ppc::cloudq::QueueConfig qc;
  qc.shards = 8;
  ppc::cloudq::MessageQueue queue("probe", std::make_shared<ppc::ManualClock>(), qc);
  std::vector<std::string> bodies;
  for (int i = 0; i < 10; ++i) bodies.push_back(cc::encode_task(sample_task(i)));
  std::vector<double> send_ns, recv_ns, del_ns;
  std::vector<ppc::cloudq::Message> got;
  std::vector<std::string> receipts;
  for (int b = 0; b < 9; ++b) {
    std::int64_t send = 0, recv = 0, del = 0;
    constexpr int kRounds = 200;
    for (int r = 0; r < kRounds; ++r) {
      std::int64_t t0 = now_ns();
      queue.send_batch(bodies);
      std::int64_t t1 = now_ns();
      got.clear();
      const std::size_t n = queue.receive_batch(10, 30.0, got);
      std::int64_t t2 = now_ns();
      require(n == 10, "receive_batch delivered " + std::to_string(n) + " of 10");
      receipts.clear();
      std::multiset<std::string> seen;
      for (const auto& m : got) {
        receipts.push_back(m.receipt_handle);
        seen.insert(m.body());
      }
      require(seen == std::multiset<std::string>(bodies.begin(), bodies.end()),
              "queue bodies round trip");
      const std::int64_t t3 = now_ns();
      require(queue.delete_batch(receipts) == 10, "delete_batch");
      const std::int64_t t4 = now_ns();
      send += t1 - t0;
      recv += t2 - t1;
      del += t4 - t3;
    }
    send_ns.push_back(static_cast<double>(send) / kRounds);
    recv_ns.push_back(static_cast<double>(recv) / kRounds);
    del_ns.push_back(static_cast<double>(del) / kRounds);
  }
  require(queue.undeleted() == 0, "queue drained");
  out.set("probe.queue_send_batch_ns", median_of(send_ns));
  out.set("probe.queue_receive_batch_ns", median_of(recv_ns));
  out.set("probe.queue_delete_batch_ns", median_of(del_ns));
  // For a workload without queue spans: the same requests, standalone.
  out.set("cloudq.send_ns", median_of(send_ns));
  out.set("cloudq.receive_ns", median_of(recv_ns));
  out.set("cloudq.delete_ns", median_of(del_ns));
  out.set("core.wall_ns_per_queue_request",
          (median_of(send_ns) + median_of(recv_ns) + median_of(del_ns)) / 3.0);
}

void probe_submit(Values& out, int tasks) {
  const ClassicInputs in = make_classic_inputs(13, tasks, 256, 0);
  std::vector<double> secs;
  for (int rep = 0; rep < 3; ++rep) {
    auto clock = std::make_shared<ppc::SystemClock>();
    bs::BlobStore store(clock);
    ppc::cloudq::QueueConfig qc;
    qc.shards = 8;
    ppc::cloudq::QueueService queues(clock, qc);
    cc::JobClient client(store, queues, "job");
    const std::int64_t t0 = now_ns();
    client.submit(in.files);
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    require(client.tasks().size() == in.files.size() &&
                client.task_queue()->undeleted() == in.files.size(),
            "JobClient::submit queued every task");
  }
  out.set("classiccloud.submit_s", median_of(secs));
}

void probe_executor(Values& out) {
  // The classic_small executor on a 256 B input, one call at a time.
  const ClassicInputs in = make_classic_inputs(17, 1, 256, 0);
  const std::string& input = in.files.front().second;
  std::vector<double> ns;
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t t0 = now_ns();
    const std::string out_bytes = reverse_complement(input);
    ns.push_back(static_cast<double>(now_ns() - t0));
    g_sink = g_sink + out_bytes.size();
  }
  require(reverse_complement(input) == in.expected.front(), "executor output");
  out.set("executor.ns_p50", percentile_of(ns, 50.0));
  out.set("executor.ns_p99", percentile_of(ns, 99.0));
}

void probe_monitor_json(Values& out, int samples) {
  // A Monitor of the campaign's shape: its series, alarms and sample count.
  ppc::runtime::MetricsRegistry registry;
  ppc::runtime::MonitorConfig mc;
  mc.period = 600.0;
  mc.capacity = 8192;
  mc.scrape_registry = false;
  ppc::runtime::Monitor monitor(registry, mc);
  double t = 0.0;
  for (const char* series : {"queue.tasks.depth", "queue.tasks.inflight", "workers.busy",
                             "worker.utilization", "workers.idle_with_backlog",
                             "queue.batch_occupancy"}) {
    monitor.add_probe(series, ppc::runtime::ProbeKind::kLevel, [&t] { return t / 600.0; });
  }
  for (const char* series : {"queue.api_calls", "storage.bytes_per_sec", "cost.dollars_per_hour"}) {
    monitor.add_probe(series, ppc::runtime::ProbeKind::kCumulative, [&t] { return t * 3.0; });
  }
  for (const std::string& rule : ppc::sim::default_alarm_rules()) {
    monitor.add_alarm(ppc::runtime::parse_alarm(rule));
  }
  for (int i = 0; i < samples; ++i, t += mc.period) monitor.sample_at(t);
  std::string first;
  std::vector<double> ms;
  for (int rep = 0; rep < 9; ++rep) {
    const std::int64_t t0 = now_ns();
    std::string json = monitor.to_json();
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (rep == 0) first = std::move(json);
    require(rep == 0 || json == first, "Monitor::to_json is deterministic");
  }
  require(monitor.samples() == static_cast<std::uint64_t>(samples), "monitor sample count");
  out.set("monitor.to_json_ms", median_of(ms));
}

void probe_codec(Values& out) {
  constexpr int kOps = 2000;
  std::vector<cc::TaskSpec> tasks;
  std::vector<std::string> wire;
  for (int i = 0; i < kOps; ++i) {
    tasks.push_back(sample_task(i));
    wire.push_back(cc::encode_task(tasks.back()));
  }
  out.set("codec.encode_task_ns", time_ns_per_op(9, kOps, [&](int i) {
    g_sink = g_sink + cc::encode_task(tasks[i]).size();
  }));
  out.set("codec.decode_task_ns", time_ns_per_op(9, kOps, [&](int i) {
    g_sink = g_sink + cc::decode_task(wire[i]).task_id.size();
  }));
  for (int i = 0; i < kOps; i += 97) {
    const cc::TaskSpec back = cc::decode_task(wire[i]);
    require(back.task_id == tasks[i].task_id && back.input_key == tasks[i].input_key &&
                back.output_key == tasks[i].output_key,
            "task codec");
  }

  std::vector<cc::MonitorRecord> records;
  std::vector<std::string> mwire;
  for (int i = 0; i < kOps; ++i) {
    cc::MonitorRecord r;
    r.task_id = tasks[i].task_id;
    r.worker_id = "worker-" + std::to_string(i % 3);
    r.status = "done";
    r.duration = 0.000125 * (i + 1);
    records.push_back(r);
    mwire.push_back(cc::encode_monitor(r));
  }
  out.set("codec.encode_monitor_ns", time_ns_per_op(9, kOps, [&](int i) {
    g_sink = g_sink + cc::encode_monitor(records[i]).size();
  }));
  out.set("codec.decode_monitor_ns", time_ns_per_op(9, kOps, [&](int i) {
    g_sink = g_sink + cc::decode_monitor(mwire[i]).task_id.size();
  }));
  for (int i = 0; i < kOps; i += 97) {
    const cc::MonitorRecord back = cc::decode_monitor(mwire[i]);
    require(back.task_id == records[i].task_id && back.worker_id == records[i].worker_id &&
                back.status == records[i].status,
            "monitor codec");
  }
}

void probe_partition(Values& out, int reducers) {
  constexpr int kOps = 20000;
  std::vector<std::string> keys;
  for (int i = 0; i < kOps; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    keys.emplace_back(key);
  }
  std::vector<int> first(kOps);
  for (int i = 0; i < kOps; ++i) {
    first[i] = mr::partition_of(keys[i], reducers);
    require(first[i] >= 0 && first[i] < reducers, "partition_of range");
  }
  out.set("shuffle.partition_ns", time_ns_per_op(9, kOps, [&](int i) {
    g_sink = g_sink + static_cast<std::uint64_t>(mr::partition_of(keys[i], reducers));
  }));
  for (int i = 0; i < kOps; i += 101) {
    require(mr::partition_of(keys[i], reducers) == first[i], "partition_of is stable");
  }
}

void probe_sorter(Values& out, const ProbeShape& shape) {
  const ShuffleInputs in = make_shuffle_inputs(99, 1, shape.sort_records, 5000);
  std::vector<mr::ShuffleRecord> records;
  std::uint32_t seq = 0;
  histogram_map({}, in.files.front().second, [&](const std::string& k, std::string v) {
    records.push_back({k, std::move(v), 0, seq++});
  });
  std::vector<double> rate, put_ns, get_ns;
  for (int rep = 0; rep < 5; ++rep) {
    bs::BlobStore inner(std::make_shared<ppc::ManualClock>());
    SpanRecorder recorder;
    TimedStorage store(inner, recorder);  // times the sorted-run puts and gets
    mr::ExternalSorter sorter(store, "sort", "probe", shape.sort_budget, {});
    std::map<std::string, std::string> got;
    std::string last;
    bool ordered = true;
    const std::int64_t t0 = now_ns();
    for (const mr::ShuffleRecord& r : records) sorter.add(r);
    sorter.for_each_group([&](const std::string& key, const std::vector<std::string>& values) {
      ordered = ordered && (got.empty() || last < key);
      last = key;
      got.emplace(key, histogram_reduce(key, values));
    });
    const std::int64_t t1 = now_ns();
    sorter.cleanup();
    rate.push_back(static_cast<double>(records.size()) * 1e9 / static_cast<double>(t1 - t0));
    put_ns.push_back(store.puts().mean_ns());
    get_ns.push_back(store.gets().mean_ns());
    require(ordered && got == in.expected, "ExternalSorter groups");
    require(store.puts().count > 0 && store.gets().count > 0,
            "ExternalSorter spills runs under its budget and reads them back");
  }
  out.set("shuffle.sort_records_per_s", median_of(rate));
  // For a workload without shuffle spans: spill-store puts and gets of
  // sorted runs, the same object sizes the shuffle writes.
  out.set("shuffle.spill_put_ns", median_of(put_ns));
  out.set("shuffle.fetch_get_ns", median_of(get_ns));
}

}  // namespace

std::map<std::string, double> run_probes(const ProbeShape& shape) {
  Values out;
  probe_checksum(out);
  probe_blob(out, 256, "probe.blob_put_256b_ns", "probe.blob_get_256b_ns", 2000);
  probe_blob(out, 1 << 20, "probe.blob_put_1mib_ns", "probe.blob_get_1mib_ns", 8);
  probe_index(out, shape.campaign_keys);
  probe_queue(out);
  probe_codec(out);
  probe_submit(out, shape.submit_tasks);
  probe_executor(out);
  probe_monitor_json(out, shape.monitor_samples);
  probe_partition(out, shape.shuffle_reducers);
  probe_sorter(out, shape);
  return out.m;
}

}  // namespace perfbench
