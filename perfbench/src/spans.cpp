#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "report.h"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_epoch{1};

/// The calling thread's log in the recorder of `epoch`. Epochs are never
/// reused, so a log cached for a destroyed recorder is never matched.
struct ThreadCache {
  std::uint64_t epoch = 0;
  void* log = nullptr;
};
thread_local ThreadCache tl_cache;

Layer layer_of_site(std::string_view site) {
  if (site.starts_with("cloudq.")) return Layer::kCloudq;
  return Layer::kStorage;  // "blobstore.*" and the block cache's "cache.*"
}

constexpr std::uint64_t kIndexBits = 40;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCloudq: return "cloudq";
    case Layer::kStorage: return "storage";
    case Layer::kExecutor: return "executor";
    case Layer::kMapFn: return "map_fn";
    case Layer::kReduceFn: return "reduce_fn";
  }
  return "unknown";
}

std::string_view Span::op() const {
  const std::string_view s = site;
  const auto dot = s.rfind('.');
  return dot == std::string_view::npos ? s : s.substr(dot + 1);
}

SpanRecorder::SpanRecorder() : epoch_(next_epoch.fetch_add(1)) {}

SpanRecorder::ThreadLog& SpanRecorder::local() {
  if (tl_cache.epoch != epoch_) {
    std::lock_guard lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->index = static_cast<std::uint32_t>(logs_.size() - 1);
    tl_cache.epoch = epoch_;
    tl_cache.log = logs_.back().get();
  }
  return *static_cast<ThreadLog*>(tl_cache.log);
}

std::uint32_t SpanRecorder::thread_index() { return local().index; }

std::uint64_t SpanRecorder::open_span(Layer layer, std::string_view site, std::string_view key) {
  ThreadLog& log = local();
  Span s;
  s.thread = log.index;
  s.layer = layer;
  s.id = (static_cast<std::uint64_t>(log.index) + 1) << kIndexBits | (log.spans.size() + 1);
  s.parent = log.open.empty() ? 0 : log.spans[log.open.back()].id;
  s.site.assign(site);
  s.key.assign(key);
  s.start_ns = now_ns();
  log.open.push_back(log.spans.size());
  log.spans.push_back(std::move(s));
  return log.spans.back().id;
}

std::uint64_t SpanRecorder::op_begin(std::string_view site, std::string_view key) {
  return open_span(layer_of_site(site), site, key);
}

std::uint64_t SpanRecorder::begin(Layer layer, std::string_view site, std::string_view key) {
  return open_span(layer, site, key);
}

void SpanRecorder::op_end(std::uint64_t token, bool failed) {
  const std::int64_t t = now_ns();
  ThreadLog& log = local();
  // Brackets close in LIFO order on the thread that opened them.
  if (log.open.empty() || log.spans[log.open.back()].id != token) return;
  Span& s = log.spans[log.open.back()];
  s.end_ns = t;
  s.failed = failed;
  log.open.pop_back();
}

void SpanRecorder::op_cancel(std::uint64_t token) {
  ThreadLog& log = local();
  if (!log.open.empty() && log.spans[log.open.back()].id == token) {
    log.spans[log.open.back()].empty_receive = true;
  }
  op_end(token, false);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard lock(mu_);
  std::vector<Span> out;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) {
      if (s.end_ns >= s.start_ns && s.end_ns != 0) out.push_back(s);
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.thread != b.thread ? a.thread < b.thread : a.start_ns < b.start_ns;
  });
  return out;
}

namespace {

/// `prefix` followed by the digits that follow `marker` in `key`, or ""
/// when `key` has no such digits.
std::string tagged_digits(std::string_view prefix, std::string_view key, std::string_view marker) {
  const auto at = key.find(marker);
  if (at == std::string_view::npos) return {};
  std::string out(prefix);
  for (std::size_t i = at + marker.size(); i < key.size() && key[i] >= '0' && key[i] <= '9'; ++i) {
    out += key[i];
  }
  return out.size() > prefix.size() ? out : std::string();
}

/// The task a span names by itself, "" when it names none.
std::string own_task(const Span& s) {
  const std::string_view key = s.key;
  switch (s.layer) {
    case Layer::kExecutor: return std::string(key.substr(key.rfind('/') + 1));  // "<job>/<name>"
    case Layer::kMapFn: return tagged_digits("m", key, "-");  // input "part-<i>.txt" is map i
    case Layer::kReduceFn: return std::string(key);           // the wrapper passes "r<partition>"
    case Layer::kCloudq:
      return s.op() == "receive" || s.op() == "delete" ? "batch" : std::string();
    case Layer::kStorage: break;
  }
  for (std::string_view prefix : {"input/", "output/"}) {  // Classic Cloud blobs
    if (key.starts_with(prefix)) return std::string(key.substr(prefix.size()));
  }
  // Shuffle objects: "<job>/m<map>.a<n>/p<partition>/s<i>" spills, read
  // back by reducer <partition>, and "<job>/r<reducer>.a<n>/run<i>" runs.
  if (std::string m = tagged_digits("m", key, "/m"); !m.empty()) {
    return s.op() == "get" ? tagged_digits("r", key, "/p") : m;
  }
  return tagged_digits("r", key, "/r");
}

}  // namespace

void assign_tasks(std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].task = own_task(spans[i]);
    by_id.emplace(spans[i].id, i);
  }
  // A nested span without a name belongs to its parent's task.
  for (Span& s : spans) {
    for (std::uint64_t p = s.parent; s.task.empty() && p != 0;) {
      const Span& parent = spans[by_id.at(p)];
      s.task = parent.task;
      p = parent.parent;
    }
  }
  // A top-level span without a name (a shared-file fetch before the input
  // fetch) belongs to the next named span on its thread. Spans are ordered
  // by (thread, start), so walk backwards.
  std::string next;
  std::uint32_t thread = UINT32_MAX;
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->thread != thread) {
      thread = it->thread;
      next.clear();
    }
    if (it->task == "batch") {
      next.clear();  // a new poll: what follows it is another batch
    } else if (it->task.empty()) {
      it->task = next;
    } else {
      next = it->task;
    }
  }
}

double Attribution::self_total() const {
  double t = 0.0;
  for (double v : self_ns) t += v;
  return t;
}

double Attribution::reconcile_error() const {
  return wall_ns > 0.0 ? std::fabs(self_total() - covered_ns) / wall_ns : 0.0;
}

Attribution attribute(const std::vector<Span>& spans, const std::set<std::uint32_t>& threads,
                      std::int64_t start_ns, std::int64_t end_ns, int wall_threads) {
  Attribution a;
  a.wall_ns = static_cast<double>(end_ns - start_ns) * wall_threads;
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    if (threads.contains(s.thread) && s.parent != 0) child_ns[s.parent] += s.duration_ns();
  }
  for (std::uint32_t t : threads) {
    std::vector<const Span*> mine;
    for (const Span& s : spans) {
      if (s.thread == t && s.start_ns >= start_ns && s.end_ns <= end_ns) mine.push_back(&s);
    }
    // Self time per layer.
    for (const Span* s : mine) {
      auto it = child_ns.find(s->id);
      const std::int64_t children = it == child_ns.end() ? 0 : it->second;
      a.self_ns[static_cast<int>(s->layer)] += static_cast<double>(s->duration_ns() - children);
    }
    // Interval union, from the raw intervals alone (no parent links).
    std::int64_t cur_start = 0, cur_end = -1;
    for (const Span* s : mine) {  // sorted by start
      if (s->start_ns > cur_end) {
        if (cur_end >= cur_start) a.covered_ns += static_cast<double>(cur_end - cur_start);
        cur_start = s->start_ns;
        cur_end = s->end_ns;
      } else {
        cur_end = std::max(cur_end, s->end_ns);
      }
    }
    if (cur_end >= cur_start) a.covered_ns += static_cast<double>(cur_end - cur_start);
    // Idle: from the end of an empty top-level receive to the next
    // top-level span (or the window's end) the worker was sleeping.
    const Span* prev = nullptr;
    for (const Span* s : mine) {
      if (s->parent != 0) continue;
      if (prev != nullptr && prev->empty_receive) {
        a.idle_ns += static_cast<double>(s->start_ns - prev->end_ns);
      }
      prev = s;
    }
    if (prev != nullptr && prev->empty_receive) {
      a.idle_ns += static_cast<double>(end_ns - prev->end_ns);
    }
  }
  a.residual_ns = a.wall_ns - a.self_total() - a.idle_ns;
  return a;
}

std::vector<std::string> reconcile(const Attribution& a) {
  std::vector<std::string> failures;
  char buf[200];
  if (a.reconcile_error() > kReconcileTolerance) {
    std::snprintf(buf, sizeof(buf),
                  "reconciliation: layer self times %.0f ns vs span coverage %.0f ns "
                  "(error %.4f of wall > %.2f)",
                  a.self_total(), a.covered_ns, a.reconcile_error(), kReconcileTolerance);
    failures.emplace_back(buf);
  }
  if (a.residual_ns < -kReconcileTolerance * a.wall_ns) {
    std::snprintf(buf, sizeof(buf),
                  "reconciliation: self %.0f ns + idle %.0f ns exceed worker wall %.0f ns",
                  a.self_total(), a.idle_ns, a.wall_ns);
    failures.emplace_back(buf);
  }
  return failures;
}

OpSummary summarize_ops(const std::vector<Span>& spans, const std::set<std::uint32_t>& threads,
                        std::string_view site_prefix, std::string_view op) {
  OpSummary out;
  for (const Span& s : spans) {
    if (!threads.contains(s.thread) || !s.site.starts_with(site_prefix) || s.op() != op) continue;
    ++out.count;
    out.failed += s.failed ? 1 : 0;
    out.empty += s.empty_receive ? 1 : 0;
    out.total_ns += static_cast<double>(s.duration_ns());
    out.durations_ns.push_back(static_cast<double>(s.duration_ns()));
  }
  return out;
}

std::set<std::uint32_t> worker_threads(const std::vector<Span>& spans, std::uint32_t main_thread) {
  std::set<std::uint32_t> out;
  for (const Span& s : spans) {
    if (s.thread != main_thread) out.insert(s.thread);
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& metadata_json) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t origin = INT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans) {
    char ts[64];
    std::snprintf(ts, sizeof(ts), "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns - origin) / 1000.0,
                  static_cast<double>(s.duration_ns()) / 1000.0);
    out << (first ? "" : ",\n") << "{\"name\": \"" << json_escape(s.site) << "\", \"cat\": \""
        << layer_name(s.layer) << "\", \"ph\": \"X\", " << ts
        << ", \"pid\": 1, \"tid\": " << s.thread << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"task\": \"" << json_escape(s.task)
        << "\", \"key\": \"" << json_escape(s.key) << "\", \"failed\": "
        << (s.failed ? "true" : "false") << ", \"empty\": "
        << (s.empty_receive ? "true" : "false") << "}}";
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"metadata\": " << metadata_json << "}\n";
  if (!out) throw std::runtime_error("error writing trace file " + path);
}

void TimedStorage::put(const std::string& bucket, const std::string& key, std::string data) {
  const std::size_t bytes = data.size();
  const std::uint64_t span = recorder_.begin(Layer::kStorage, "decorator.put", key);
  const std::int64_t t0 = now_ns();
  inner_.put(bucket, key, std::move(data));
  const std::int64_t t1 = now_ns();
  recorder_.end(span);
  add(puts_, t1 - t0, bytes, false);
}

std::shared_ptr<const std::string> TimedStorage::get(const std::string& bucket,
                                                     const std::string& key) {
  const std::uint64_t span = recorder_.begin(Layer::kStorage, "decorator.get", key);
  const std::int64_t t0 = now_ns();
  auto data = inner_.get(bucket, key);
  const std::int64_t t1 = now_ns();
  recorder_.end(span, data == nullptr);
  add(gets_, t1 - t0, data == nullptr ? 0 : data->size(), data == nullptr);
  return data;
}

TimedStorage::OpStats TimedStorage::load(const AtomicStats& a) {
  OpStats s;
  s.count = a.count.load();
  s.failed = a.failed.load();
  s.ns = a.ns.load();
  s.bytes = static_cast<double>(a.bytes.load());
  return s;
}

void TimedStorage::add(AtomicStats& a, std::int64_t ns, std::size_t bytes, bool failed) {
  a.count.fetch_add(1, std::memory_order_relaxed);
  a.ns.fetch_add(ns, std::memory_order_relaxed);
  a.bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (failed) a.failed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace perfbench
