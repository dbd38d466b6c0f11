// The benchmark's own tests: seeded inputs, metric naming, the span
// attribution arithmetic, and every workload's correctness gate (it passes
// on a real run at a tiny size and fails once the output is corrupted).
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "mapreduce/shuffle.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTiny = 0.01;

TEST(Inputs, ClassicGeneratorIsDeterministic) {
  const ClassicInputs a = make_classic_inputs(42, 5, 300, 64);
  const ClassicInputs b = make_classic_inputs(42, 5, 300, 64);
  const ClassicInputs c = make_classic_inputs(43, 5, 300, 64);
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.expected, b.expected);
  EXPECT_EQ(a.shared, b.shared);
  EXPECT_NE(a.files, c.files);
  ASSERT_EQ(a.files.size(), 5u);
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    EXPECT_EQ(a.files[i].second.size(), 300u);
    EXPECT_EQ(reverse_complement(a.files[i].second), a.expected[i]);
  }
}

TEST(Inputs, ShuffleGeneratorIsDeterministicAndItsReferenceAddsUp) {
  const ShuffleInputs a = make_shuffle_inputs(7, 3, 400, 50);
  const ShuffleInputs b = make_shuffle_inputs(7, 3, 400, 50);
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.expected, b.expected);
  EXPECT_NE(a.files, make_shuffle_inputs(8, 3, 400, 50).files);
  EXPECT_EQ(a.records, 1200);
  std::int64_t counted = 0;
  for (const auto& [key, value] : a.expected) counted += std::stoll(value.substr(0, value.find(' ')));
  EXPECT_EQ(counted, a.records);
}

TEST(Metrics, NamesAndUnitsAreWellFormedAndUnique) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *table) {
      EXPECT_TRUE(std::regex_match(d.name, name_re)) << d.name;
      EXPECT_TRUE(std::regex_match(d.unit, unit_re)) << d.name << " unit " << d.unit;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate metric " << d.name;
    }
  }
  EXPECT_LE(per_layer_metrics().size(), 128u);
}

TEST(Metrics, BenchmarkJsonListsEveryMetric) {
  std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *table) {
      const std::string entry = std::string("{\"name\": \"") + d.name + "\", \"unit\": \"" +
                                d.unit + "\", \"better\": \"" +
                                (d.higher_is_better ? "higher" : "lower") + "\"";
      EXPECT_NE(json.find(entry), std::string::npos) << "BENCHMARK.json lacks " << entry;
    }
  }
}

TEST(Metrics, MetricSetRejectsUnknownNamesAndFillsTheTable) {
  MetricSet m(end_to_end_metrics());
  EXPECT_THROW(m.set("no_such_metric", 1.0), std::logic_error);
  m.set("job_s", 2.5);
  m.finish();
  EXPECT_EQ(m.values().size(), end_to_end_metrics().size());
  EXPECT_EQ(m.get("job_s"), 2.5);
  EXPECT_EQ(m.get("setup_s"), 0.0);
}

Span make_span(std::uint64_t id, std::uint64_t parent, Layer layer, std::int64_t start,
               std::int64_t end, std::string site = "s", std::string key = "") {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.site = std::move(site);
  s.key = std::move(key);
  return s;
}

TEST(Spans, SelfTimeIdleAndResidualAccountForTheWall) {
  // 0..100 on one thread: executor 10..50 with a storage child 20..30,
  // an empty receive 60..65 followed by sleep, a receive 90..95.
  std::vector<Span> spans = {
      make_span(1, 0, Layer::kExecutor, 10, 50),
      make_span(2, 1, Layer::kStorage, 20, 30),
      make_span(3, 0, Layer::kCloudq, 60, 65, "cloudq.q.receive"),
      make_span(4, 0, Layer::kCloudq, 90, 95, "cloudq.q.receive"),
  };
  spans[2].empty_receive = true;
  const Attribution a = attribute(spans, {0}, 0, 100, 1);
  EXPECT_DOUBLE_EQ(a.self_ns[static_cast<int>(Layer::kExecutor)], 30.0);
  EXPECT_DOUBLE_EQ(a.self_ns[static_cast<int>(Layer::kStorage)], 10.0);
  EXPECT_DOUBLE_EQ(a.self_ns[static_cast<int>(Layer::kCloudq)], 10.0);
  EXPECT_DOUBLE_EQ(a.idle_ns, 25.0);
  EXPECT_DOUBLE_EQ(a.covered_ns, 50.0);
  EXPECT_DOUBLE_EQ(a.residual_ns, 100.0 - 50.0 - 25.0);
  EXPECT_DOUBLE_EQ(a.reconcile_error(), 0.0);
  EXPECT_TRUE(reconcile(a).empty());
}

TEST(Spans, OverlappingSiblingsFailReconciliation) {
  const std::vector<Span> spans = {
      make_span(1, 0, Layer::kStorage, 0, 60),
      make_span(2, 0, Layer::kStorage, 40, 100),  // overlaps its sibling: double counted
  };
  const Attribution a = attribute(spans, {0}, 0, 100, 1);
  EXPECT_GT(a.reconcile_error(), kReconcileTolerance);
  EXPECT_FALSE(reconcile(a).empty());
}

TEST(Spans, TasksComeFromKeysParentsAndTheNextNamedSpan) {
  std::vector<Span> spans = {
      make_span(1, 0, Layer::kCloudq, 0, 1, "cloudq.job-tasks.receive"),
      make_span(2, 0, Layer::kStorage, 2, 3, "cache.job.miss", "shared/ref"),
      make_span(3, 2, Layer::kStorage, 2, 3, "blobstore.job.get", "shared/ref"),
      make_span(4, 0, Layer::kStorage, 4, 5, "blobstore.job.get", "input/f7"),
      make_span(5, 0, Layer::kExecutor, 6, 7, "executor", "job/f7"),
      make_span(6, 0, Layer::kStorage, 8, 9, "decorator.put", "h/m3.a0/p1/s0"),
      make_span(7, 0, Layer::kStorage, 10, 11, "decorator.get", "h/m3.a0/p1/s0"),
      make_span(8, 0, Layer::kStorage, 12, 13, "decorator.put", "h/r2.a0/run0"),
  };
  assign_tasks(spans);
  EXPECT_EQ(spans[0].task, "batch");
  EXPECT_EQ(spans[1].task, "f7");  // shared fetch: the next task on the thread
  EXPECT_EQ(spans[2].task, "f7");  // child of the shared fetch
  EXPECT_EQ(spans[3].task, "f7");
  EXPECT_EQ(spans[4].task, "f7");
  EXPECT_EQ(spans[5].task, "m3");  // map 3 writes the spill
  EXPECT_EQ(spans[6].task, "r1");  // reducer 1 reads partition 1
  EXPECT_EQ(spans[7].task, "r2");
}

RunOptions tiny(const std::string& workload, bool trace) {
  RunOptions o;
  o.workload = workload;
  o.seed = 5;
  o.seconds = 0.0;
  o.min_reps = 1;
  o.scale = kTiny;
  o.trace = trace;
  return o;
}

TEST(Workloads, EveryWorkloadPassesItsGateAtATinySize) {
  for (const std::string& w : workload_names()) {
    for (bool trace : {false, true}) {
      const WorkloadResult r = run_workload(tiny(w, trace));
      EXPECT_TRUE(r.correct()) << w << " trace=" << trace << ": "
                               << (r.failures.empty() ? "" : r.failures.front());
      EXPECT_EQ(r.failed, 0) << w;
      EXPECT_GT(r.attempted, 0) << w;
      EXPECT_EQ(r.metrics.values().size(), r.metrics.table().size()) << w;
      // Every end-to-end metric, and every per-layer time, is measured
      // (never a fixed 0) on every workload. A residual is a difference and
      // may be negative when the probes over-attribute a tiny run.
      for (const MetricDef& d : r.metrics.table()) {
        const std::string unit = d.unit;
        if (!trace) {
          EXPECT_GT(r.metrics.get(d.name), 0.0) << w << " " << d.name;
        } else if (unit == "s" || unit == "ms" || unit == "ns") {
          EXPECT_NE(r.metrics.get(d.name), 0.0) << w << " " << d.name;
        }
      }
    }
  }
}

TEST(Workloads, ClassicGateCatchesACorruptedOutput) {
  for (const std::string w : {"classic_small", "classic_1mb"}) {
    const ClassicShape shape = classic_shape(w, kTiny);
    const ClassicInputs in =
        make_classic_inputs(3, shape.tasks, shape.input_bytes, shape.shared_bytes);
    ClassicRun run(shape, in);
    run.setup();
    ASSERT_TRUE(run.run()) << w;
    run.stop();
    std::int64_t failed = 0;
    EXPECT_TRUE(run.verify(failed).empty()) << w;
    EXPECT_EQ(failed, 0);

    const auto& task = run.client().tasks().front();
    std::string bad = *run.client().fetch_output(task);
    bad[bad.size() / 2] = bad[bad.size() / 2] == 'A' ? 'C' : 'A';
    run.store().put(run.client().bucket(), task.output_key, bad);
    EXPECT_FALSE(run.verify(failed).empty()) << w;
    EXPECT_EQ(failed, 1) << w;
  }
}

TEST(Workloads, CampaignGateCatchesADivergentRerun) {
  const CampaignShape shape = campaign_shape(kTiny);
  CampaignRun first(shape, 9), second(shape, 9);
  first.setup(false);
  first.run();
  second.setup(true);
  second.run();
  EXPECT_TRUE(campaign_gate(first.outcome(), shape, nullptr).empty());
  EXPECT_TRUE(campaign_gate(second.outcome(), shape, &first.outcome()).empty());

  CampaignOutcome changed = second.outcome();
  changed.monitor_json += " ";
  EXPECT_FALSE(campaign_gate(changed, shape, &first.outcome()).empty());
  changed = second.outcome();
  changed.result.makespan += 1.0;
  EXPECT_FALSE(campaign_gate(changed, shape, &first.outcome()).empty());
  changed = second.outcome();
  changed.result.completed -= 1;
  EXPECT_FALSE(campaign_gate(changed, shape, nullptr).empty());
  changed = second.outcome();
  changed.alarm = true;
  EXPECT_FALSE(campaign_gate(changed, shape, nullptr).empty());
}

TEST(Workloads, ShuffleGateCatchesACorruptedPartFile) {
  const ShuffleShape shape = shuffle_shape(kTiny);
  const ShuffleInputs in =
      make_shuffle_inputs(4, shape.files, shape.records_per_file, shape.distinct_keys);
  ShuffleRun run(shape, in);
  run.setup();
  ASSERT_TRUE(run.run());
  std::int64_t failed = 0;
  EXPECT_TRUE(run.verify(failed).empty());
  EXPECT_EQ(failed, 0);

  const std::string path = run.result().outputs.begin()->second;
  auto pairs = ppc::mapreduce::decode_pairs(*run.hdfs().read(path));
  ASSERT_FALSE(pairs.empty());
  pairs.front().second = "0 0";
  run.hdfs().write(path, ppc::mapreduce::encode_pairs(pairs));
  EXPECT_FALSE(run.verify(failed).empty());
  EXPECT_EQ(failed, 1);
}

}  // namespace
}  // namespace perfbench
