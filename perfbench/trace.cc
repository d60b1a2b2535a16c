#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "cltree/cltree.h"
#include "common/parallel.h"
#include "core/kcore.h"
#include "explorer/dataset.h"
#include "graph/io.h"

namespace perfbench {

std::uint64_t Tracer::Buffer::Add(const char* name, std::uint64_t request,
                                  std::uint64_t parent, Clock::time_point start,
                                  Clock::time_point end, int tag,
                                  double value) {
  Span span;
  span.name = name;
  span.request = request;
  span.id = (index_ << 40) | (spans.size() + 1);
  span.parent = parent;
  span.start = start;
  span.end = end;
  span.tag = tag;
  span.value = value;
  spans.push_back(span);
  return span.id;
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>(buffers_.size() + 1));
  return buffers_.back().get();
}

void Tracer::Write(const std::string& path, Clock::time_point origin) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"request\":%llu,\"id\":%llu,"
                   "\"parent\":%llu,\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"tag\":%d,\"value\":%.17g}\n",
                   s.name, static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), us(s.start),
                   us(s.end), s.tag, s.value);
    }
  }
  std::fclose(out);
}

std::size_t Tracer::Count(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) n += std::string_view(name) == s.name;
  }
  return n;
}

void Tracer::AddLayerMetrics(std::vector<Metric>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Span*> spans;
  cexplorer::AcqStats acq;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) spans.push_back(&s);
    acq.Merge(buffer->acq);
  }
  std::unordered_map<std::uint64_t, double> children_ms;
  std::unordered_map<std::uint64_t, int> num_children;
  for (const Span* s : spans) {
    if (s->parent == 0) continue;
    children_ms[s->parent] += MsBetween(s->start, s->end);
    ++num_children[s->parent];
  }
  auto duration = [](const Span* s) { return MsBetween(s->start, s->end); };
  auto self = [&](const Span* s) {
    auto it = children_ms.find(s->id);
    return duration(s) - (it == children_ms.end() ? 0.0 : it->second);
  };
  // Values of `fn` over the spans named `name` that satisfy `keep`.
  auto collect = [&](std::string_view name, auto keep, auto fn) {
    std::vector<double> values;
    for (const Span* s : spans) {
      if (name == s->name && keep(s)) values.push_back(fn(s));
    }
    return values;
  };
  auto all = [](const Span*) { return true; };
  auto has_child = [&](const Span* s) { return num_children.count(s->id) > 0; };
  auto add = [&](const char* metric, const std::vector<double>& values,
                 double q, double scale, const char* unit) {
    out->push_back({metric, Percentile(values, q) * scale, unit});
  };

  add("server.parse_us.p50", collect("server.parse", all, duration), 0.5,
      1e3, "us");
  add("server.dispatch_self_us.p50",
      collect("server.dispatch", has_child, self), 0.5, 1e3, "us");
  add("api.search_self_ms.p50",
      collect("api.search",
              [&](const Span* s) {
                return s->tag == kCacheMiss && has_child(s);
              },
              self),
      0.5, 1.0, "ms");
  add("api.response_bytes.p50",
      collect("api.search", all, [](const Span* s) { return s->value; }), 0.5,
      1.0, "bytes");
  add("cltree.locate_us.p50", collect("cltree.locate", all, duration), 0.5,
      1e3, "us");
  const auto acq_ms = collect("acq.search", all, duration);
  add("acq.search_ms.p50", acq_ms, 0.5, 1.0, "ms");
  add("acq.search_ms.p99", acq_ms, 0.99, 1.0, "ms");
  out->push_back({"acq.candidates_verified",
                  static_cast<double>(acq.candidates_verified) /
                      std::max<double>(1.0, static_cast<double>(acq_ms.size())),
                  "count"});
  out->push_back({"acq.prune_ratio",
                  acq.candidates_generated == 0
                      ? 0.0
                      : static_cast<double>(acq.support_pruned) /
                            static_cast<double>(acq.candidates_generated),
                  "ratio"});
  add("algos.global_ms.p50", collect("algos.global", all, duration), 0.5, 1.0,
      "ms");
  add("algos.local_ms.p99", collect("algos.local", all, duration), 0.99, 1.0,
      "ms");
  add("algos.ktruss_ms.p99", collect("algos.ktruss", all, duration), 0.99,
      1.0, "ms");
  add("layout.display_ms.p50", collect("layout.display", all, duration), 0.5,
      1.0, "ms");
  add("layout.members.p50",
      collect("layout.display", all, [](const Span* s) { return s->value; }),
      0.5, 1.0, "count");
  add("graph.parse_ms", collect("graph.parse", all, duration), 0.5, 1.0, "ms");
  add("core.decomposition_ms", collect("core.decomposition", all, duration),
      0.5, 1.0, "ms");
  add("cltree.build_ms", collect("cltree.build", all, duration), 0.5, 1.0,
      "ms");
  add("explorer.dataset_build_ms",
      collect("explorer.dataset_build", all, duration), 0.5, 1.0, "ms");
  add("snapshot.load_ms", collect("snapshot.load", all, duration), 0.5, 1.0,
      "ms");
}

void TraceLoadPath(const Config& config, Tracer::Buffer* buffer) {
  std::ifstream in(config.data_dir + "/graph.attr");
  std::stringstream text;
  text << in.rdbuf();
  const std::string graph_text = text.str();
  const std::string snapshot = config.data_dir + "/snapshot.bin";
  cexplorer::ThreadPool* pool = cexplorer::DefaultPool();
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t request = buffer->NewRequest();
    Clock::time_point t0 = Clock::now();
    auto graph = cexplorer::ParseAttributed(graph_text);
    Clock::time_point t1 = Clock::now();
    buffer->Add("graph.parse", request, 0, t0, t1);
    if (!graph.ok()) return;
    t0 = Clock::now();
    const auto cores = cexplorer::CoreDecomposition(graph->graph(), pool);
    t1 = Clock::now();
    buffer->Add("core.decomposition", request, 0, t0, t1);
    t0 = Clock::now();
    {
      cexplorer::ClTree tree = cexplorer::ClTree::Build(
          graph.value(), cores, cexplorer::ClTreeBuildMethod::kAdvanced, pool);
      t1 = Clock::now();
    }
    buffer->Add("cltree.build", request, 0, t0, t1);
    t0 = Clock::now();
    {
      auto dataset = cexplorer::Dataset::Build(std::move(graph.value()));
      t1 = Clock::now();
    }
    buffer->Add("explorer.dataset_build", request, 0, t0, t1);
    t0 = Clock::now();
    {
      auto dataset = cexplorer::Dataset::FromSnapshotFile(snapshot);
      t1 = Clock::now();
    }
    buffer->Add("snapshot.load", request, 0, t0, t1);
  }
}

}  // namespace perfbench
