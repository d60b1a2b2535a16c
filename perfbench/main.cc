// cexbench — the C-Explorer end-to-end benchmark program.
//
//   cexbench prepare --out DIR [--authors N]
//       Generates the synthetic DBLP graph (graph.attr) and a binary
//       snapshot of it (snapshot.bin). Runs in its own process, so no
//       generator allocation shows in the serving process's memory.
//   cexbench run --workload W --seed N --seconds S --trace 0|1 --data DIR
//                --out DIR
//       Serves the prepared inputs from one in-process CExplorerServer and
//       drives workload W through CExplorerServer::Handle. Prints a report
//       line, then the result line:
//       {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//       --trace 0 measures the end-to-end metrics; --trace 1 runs half the
//       time untraced and half traced and reports the per-layer metrics.
//
// perfbench/run.py builds this binary and runs both steps; see
// PREDICTIONS.md for the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/json.h"
#include "core/kcore.h"
#include "data/dblp.h"
#include "graph/io.h"
#include "perfbench/bench.h"
#include "perfbench/clients.h"
#include "perfbench/trace.h"
#include "server/http.h"
#include "server/server.h"

namespace perfbench {
namespace {

/// Unrecorded seconds before measuring: sessions, caches and the worker
/// pool warm up.
constexpr double kWarmupSeconds = 2.0;
/// Set-ups per run; setup_s is their median. A snapshot load takes
/// milliseconds, so it is repeated more to steady its median.
constexpr int kUploads = 5;
constexpr int kSnapshotLoads = 31;
/// Ops of the traced delta sweep on browse and search_cold.
constexpr std::size_t kSweepOps = 24;
constexpr std::size_t kProbes = 16;
/// The dataset is generated from one fixed seed; --seed varies the request
/// streams. Graphs generated from different seeds differ enough in shape
/// (giant-component size, community sizes) to move ops_per_s by about 30%
/// with the same request stream, which would drown any regression bound.
constexpr std::uint64_t kGraphSeed = 2017;
/// Fewest traced calls per search algorithm (see SweepAlgorithms).
constexpr std::size_t kAlgorithmSamples = 20;

using Runner = std::function<void(Clock::time_point, ClientStats*)>;

struct Phase {
  ClientStats clients;
  WriterStats writer;
  double ops_per_s = 0;
  cexplorer::api::ResultCache::Stats cache_before;
  cexplorer::api::ResultCache::Stats cache_after;
};

/// Runs the clients (and the writer) for `seconds`, then verifies the
/// answers the clients sampled.
Phase RunPhase(Env& env, const std::vector<Runner>& runners,
               const std::vector<Caller*>& callers, double seconds,
               Writer* writer, Tracer::Buffer* writer_buffer) {
  Phase phase;
  phase.cache_before = env.server.service().ResultCacheStats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<ClientStats> per(runners.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < runners.size(); ++i) {
    threads.emplace_back([&, i] { runners[i](deadline, &per[i]); });
  }
  if (writer != nullptr) {
    threads.emplace_back([&] {
      writer->Run(start, deadline, std::numeric_limits<std::size_t>::max(),
                  &phase.writer, writer_buffer);
    });
  }
  for (std::thread& t : threads) t.join();
  phase.cache_after = env.server.service().ResultCacheStats();
  for (const ClientStats& s : per) {
    std::size_t ops = 0;
    for (int k = 0; k < kNumKinds; ++k) ops += s.latency_ms[k].size();
    const double busy_s = (s.wall_ms - s.check_ms) / 1000.0;
    if (busy_s > 0) phase.ops_per_s += static_cast<double>(ops) / busy_s;
    phase.clients.Merge(s);
  }
  for (Caller* caller : callers) caller->CheckPending(&phase.clients);
  return phase;
}

/// Writes `metrics` as {"name": {"value": v, "unit": u}, ...}.
void WriteMetrics(cexplorer::JsonWriter* w,
                  const std::vector<Metric>& metrics) {
  w->BeginObject();
  for (const Metric& m : metrics) {
    w->Key(m.name);
    w->BeginObject();
    w->Key("value");
    w->Double(m.value);
    w->Key("unit");
    w->String(m.unit);
    w->EndObject();
  }
  w->EndObject();
}

/// Writes a count map as {"name": share of the total, ...}.
void WriteShares(cexplorer::JsonWriter* w,
                 const std::map<std::string, std::uint64_t>& counts) {
  double total = 0;
  for (const auto& [name, n] : counts) total += static_cast<double>(n);
  w->BeginObject();
  for (const auto& [name, n] : counts) {
    w->Key(name);
    w->Double(static_cast<double>(n) / std::max(1.0, total));
  }
  w->EndObject();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Median lag of the first and of the last quarter of the writer's ops: a
/// run is steady when the backlog did not grow by more than one interval.
bool WriterSteady(const std::vector<double>& lag_ms, double* first,
                  double* last) {
  const std::size_t quarter = lag_ms.size() / 4;
  if (quarter == 0) return true;
  *first = Percentile({lag_ms.begin(), lag_ms.begin() + quarter}, 0.5);
  *last = Percentile({lag_ms.end() - quarter, lag_ms.end()}, 0.5);
  return *last <= *first + 1000.0 / kWriterRate;
}

/// The end-of-run oracle of mutate: served core numbers equal a fresh core
/// decomposition of the final graph, and a fixed probe set answers byte for
/// byte like a server rebuilt from scratch from that graph.
void CheckFinalGraph(Env& env, ClientStats* out) {
  const cexplorer::DatasetPtr ds = env.server.dataset();
  ++out->attempted;
  const auto cores = cexplorer::CoreDecomposition(ds->graph().graph());
  const auto served = ds->core_numbers();
  if (!std::equal(cores.begin(), cores.end(), served.begin(), served.end())) {
    out->Fail("served core numbers differ from CoreDecomposition");
  }
  const std::string path = env.config.out_dir + "/final.attr";
  cexplorer::CExplorerServer fresh;
  if (!cexplorer::SaveAttributed(ds->graph(), path).ok() ||
      fresh.Handle("GET /v1/upload?path=" + cexplorer::UrlEncode(path)).code !=
          200) {
    out->Fail("could not rebuild a server from the final graph");
    return;
  }
  auto session = [](cexplorer::CExplorerServer& s) {
    return SessionId(s.Handle("GET /v1/session/new").body);
  };
  const std::string mutated_session = session(env.server);
  const std::string fresh_session = session(fresh);
  Rng rng(env.config.seed + 99);
  for (std::size_t i = 0; i < kProbes; ++i) {
    const SearchQuery& probe = env.pool[rng.Below(env.pool.size())];
    const auto a = env.server.Handle(probe.Text(mutated_session));
    const auto b = fresh.Handle(probe.Text(fresh_session));
    ++out->attempted;
    if (a.code != 200 || a.body != b.body) {
      out->Fail("probe " + probe.Key() + " differs from a rebuilt server");
    }
  }
}

struct Args {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.values[key] = argv[++i];
    } else {
      args.values[key] = "1";
    }
  }
  return args;
}

int Prepare(const Args& args) {
  const std::string out = args.Get("out", "");
  const std::size_t authors = std::stoull(args.Get("authors", "100000"));
  cexplorer::DblpOptions options;
  options.num_authors = authors;
  options.num_areas = std::max<std::size_t>(4, authors / 1000);
  options.vocabulary_size = std::max<std::size_t>(400, authors * 8 / 100);
  options.seed = kGraphSeed;
  const std::string graph_path = out + "/graph.attr";
  {
    cexplorer::DblpDataset data = cexplorer::GenerateDblp(options);
    if (!cexplorer::SaveAttributed(data.graph, graph_path).ok()) {
      std::fprintf(stderr, "cannot write %s\n", graph_path.c_str());
      return 1;
    }
  }
  cexplorer::CExplorerServer server;
  const auto uploaded =
      server.Handle("GET /v1/upload?path=" + cexplorer::UrlEncode(graph_path));
  const auto saved = server.Handle("POST /v1/snapshot/save?path=" +
                                   cexplorer::UrlEncode(out + "/snapshot.bin"));
  if (uploaded.code != 200 || saved.code != 200) {
    std::fprintf(stderr, "prepare failed: %s %s\n", uploaded.body.c_str(),
                 saved.body.c_str());
    return 1;
  }
  return 0;
}

int Run(const Args& args) {
  Config config;
  config.workload = args.Get("workload", "");
  config.seed = std::stoull(args.Get("seed", "1"));
  config.seconds = std::stod(args.Get("seconds", "10"));
  config.trace = args.Get("trace", "0") == "1";
  config.data_dir = args.Get("data", "");
  config.out_dir = args.Get("out", "");
  config.corrupt = args.Get("corrupt", "0") == "1";
  const bool browse = config.workload == "browse";
  const bool cold = config.workload == "search_cold";
  const bool mutate = config.workload == "mutate";
  if (!browse && !cold && !mutate) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }

  // Set-up: text upload (browse, search_cold) or snapshot load (mutate),
  // each on a fresh server, several times; the last server serves the run.
  const std::string setup_request =
      mutate ? "POST /v1/snapshot/load?path=" +
                   cexplorer::UrlEncode(config.data_dir + "/snapshot.bin")
             : "GET /v1/upload?path=" +
                   cexplorer::UrlEncode(config.data_dir + "/graph.attr");
  std::unique_ptr<cexplorer::CExplorerServer> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (mutate ? kSnapshotLoads : kUploads); ++rep) {
    server.reset();
    server = std::make_unique<cexplorer::CExplorerServer>();
    const Clock::time_point t0 = Clock::now();
    const auto response = server->Handle(setup_request);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    if (response.code != 200) {
      std::fprintf(stderr, "set-up failed: %s\n", response.body.c_str());
      return 1;
    }
  }

  Env env(config, *server);
  env.Init();
  std::vector<std::unique_ptr<BrowseClient>> browsers;
  std::unique_ptr<ColdClient> cold_client;
  std::vector<Runner> runners;
  std::vector<Caller*> callers;
  if (cold) {
    cold_client = std::make_unique<ColdClient>(env, config.seed * 31 + 7);
    callers.push_back(cold_client.get());
    runners.push_back([&](Clock::time_point d, ClientStats* s) {
      cold_client->Run(d, s);
    });
  } else {
    // browse: 4 sessions (one per CPU); mutate: 3 reader sessions beside
    // the writer.
    const int sessions = browse ? 4 : 3;
    for (int i = 0; i < sessions; ++i) {
      browsers.push_back(std::make_unique<BrowseClient>(
          env, config.seed * 1000003 + static_cast<std::uint64_t>(i), browse));
      BrowseClient* client = browsers.back().get();
      callers.push_back(client);
      runners.push_back(
          [client](Clock::time_point d, ClientStats* s) { client->Run(d, s); });
    }
  }
  std::unique_ptr<Writer> writer;
  if (mutate) {
    writer = std::make_unique<Writer>(*server, config.seed * 7919 + 3);
  }
  Writer* phase_writer = writer.get();

  Tracer tracer;
  if (config.trace) TraceLoadPath(config, tracer.NewBuffer());
  RunPhase(env, runners, callers, kWarmupSeconds, nullptr, nullptr);
  Phase measured = RunPhase(env, runners, callers,
                            config.trace ? config.seconds / 2 : config.seconds,
                            phase_writer, nullptr);
  Phase traced;
  if (config.trace) {
    env.tracer = &tracer;
    traced = RunPhase(env, runners, callers, config.seconds / 2, phase_writer,
                      tracer.NewBuffer());
    SweepAlgorithms(env, kAlgorithmSamples, tracer.NewBuffer());
    env.tracer = nullptr;
  }
  const double peak_rss_mb = PeakRssMb();

  ClientStats totals = measured.clients;
  totals.Merge(measured.writer.client);
  totals.Merge(traced.clients);
  totals.Merge(traced.writer.client);
  if (mutate) CheckFinalGraph(env, &totals);

  // The delta layer on the read-only workloads: the mutate writer's op mix
  // against a side server sharing the served dataset, so the main server
  // and its caches stay untouched.
  WriterStats sweep;
  if (config.trace && !mutate) {
    cexplorer::CExplorerServer side;
    side.AttachDataset(env.base);
    Writer side_writer(side, config.seed * 7919 + 5);
    side_writer.Run(Clock::now(), Clock::time_point::max(), kSweepOps, &sweep,
                    nullptr);
    totals.Merge(sweep.client);
  }

  const Phase& main_phase = config.trace ? traced : measured;
  const WriterStats& w = mutate ? main_phase.writer : sweep;
  const auto& lat = measured.clients.latency_ms;
  const auto& cache0 = main_phase.cache_before;
  const auto& cache1 = main_phase.cache_after;
  const double cache_lookups =
      static_cast<double>(cache1.lookups - cache0.lookups);
  const double hit_ratio =
      cache_lookups > 0
          ? static_cast<double>(cache1.hits - cache0.hits) / cache_lookups
          : 0.0;
  double lag_first = 0;
  double lag_last = 0;
  const bool steady =
      WriterSteady(measured.writer.lag_ms, &lag_first, &lag_last);

  std::vector<Metric> metrics;
  if (!config.trace) {
    metrics = {
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ops_per_s", measured.ops_per_s, "1/s"},
        {"search_p50_ms", Percentile(lat[kSearch], 0.5), "ms"},
        {"search_p90_ms", Percentile(lat[kSearch], 0.9), "ms"},
        {"lookup_p50_ms", Percentile(lat[kLookup], 0.5), "ms"},
        {"lookup_p90_ms", Percentile(lat[kLookup], 0.9), "ms"},
    };
  } else {
    tracer.AddLayerMetrics(&metrics);
    const double publishes =
        std::max(1.0, static_cast<double>(w.publishes));
    const std::vector<Metric> more = {
        {"result_cache.hit_ratio", hit_ratio, "ratio"},
        {"result_cache.evictions",
         static_cast<double>(cache1.evictions - cache0.evictions), "count"},
        {"result_cache.reused_across_mutation",
         static_cast<double>(cache1.reused_across_mutation -
                             cache0.reused_across_mutation),
         "count"},
        {"delta.repair_hit_rate",
         static_cast<double>(w.repairs) /
             std::max<double>(1.0, static_cast<double>(w.repairs + w.rebuilds)),
         "ratio"},
        {"delta.rebuild_ms.p50", Percentile(w.rebuild_index_ms, 0.5), "ms"},
        {"delta.core_repair_ms", w.core_repair_ms / publishes, "ms"},
        {"delta.index_repair_ms", w.index_repair_ms / publishes, "ms"},
        {"delta.arena_copy_ms", w.arena_copy_ms / publishes, "ms"},
        {"delta.cas_ms", w.cas_ms / publishes, "ms"},
        {"delta.core_repair_visited",
         static_cast<double>(w.core_repair_visited) / publishes, "count"},
        {"delta.compactions", static_cast<double>(w.compactions), "count"},
        {"delta.writer_lag_ms.p90", Percentile(w.lag_ms, 0.9), "ms"},
        {"trace.overhead_pct",
         (Percentile(traced.clients.latency_ms[kSearch], 0.5) /
              std::max(1e-9, Percentile(lat[kSearch], 0.5)) -
          1.0) * 100.0,
         "%"},
    };
    metrics.insert(metrics.end(), more.begin(), more.end());
    tracer.Write(config.out_dir + "/trace.jsonl", Clock::now());
  }

  // The report line: what the result line cannot carry — the metrics of a
  // single workload, sample counts, measured traffic and writer health.
  const ClientStats& c = measured.clients;
  const WriterStats& mw = measured.writer;
  cexplorer::JsonWriter r;
  r.BeginObject();
  r.Key("report");
  r.BeginObject();
  r.Key("workload");
  r.String(config.workload);
  r.Key("seed");
  r.UInt(config.seed);
  r.Key("phase_seconds");
  r.Double(config.trace ? config.seconds / 2 : config.seconds);
  r.Key("samples");
  r.BeginObject();
  const std::pair<const char*, std::size_t> counts[] = {
      {"search", lat[kSearch].size()}, {"lookup", lat[kLookup].size()},
      {"view", lat[kView].size()},     {"publish", mw.publish_ms.size()},
      {"checked", totals.checked}};
  for (const auto& [name, n] : counts) {
    r.Key(name);
    r.UInt(n);
  }
  r.Key("checked_by_class");
  r.BeginObject();
  for (const auto& [label, n] : totals.checked_by) {
    r.Key(label);
    r.UInt(n);
  }
  r.EndObject();
  r.EndObject();
  r.Key("workload_metrics");
  WriteMetrics(
      &r, {{"search_p99_ms", Percentile(lat[kSearch], 0.99), "ms"},
           {"lookup_p99_ms", Percentile(lat[kLookup], 0.99), "ms"},
           {"view_p50_ms", Percentile(lat[kView], 0.5), "ms"},
           {"view_p90_ms", Percentile(lat[kView], 0.9), "ms"},
           {"publish_p50_ms", Percentile(mw.publish_ms, 0.5), "ms"},
           {"publish_p90_ms", Percentile(mw.publish_ms, 0.9), "ms"},
           {"error_rate",
            static_cast<double>(totals.failed) /
                std::max(1.0, static_cast<double>(totals.attempted)),
            "ratio"}});
  // A percentile is supported when at least ten samples lie beyond it.
  r.Key("percentiles_with_under_ten_beyond");
  r.BeginArray();
  const std::tuple<const char*, std::size_t, double> tails[] = {
      {"search_p90_ms", lat[kSearch].size(), 0.9},
      {"search_p99_ms", lat[kSearch].size(), 0.99},
      {"lookup_p90_ms", lat[kLookup].size(), 0.9},
      {"lookup_p99_ms", lat[kLookup].size(), 0.99},
      {"view_p90_ms", lat[kView].size(), 0.9},
      {"publish_p90_ms", mw.publish_ms.size(), 0.9}};
  for (const auto& [name, samples, q] : tails) {
    if (samples > 0 && samples - PercentileRank(samples, q) < 10) {
      r.String(name);
    }
  }
  r.EndArray();
  const auto& mc0 = measured.cache_before;
  const auto& mc1 = measured.cache_after;
  r.Key("traffic");
  r.BeginObject();
  r.Key("algo_share");
  WriteShares(&r, c.algos);
  r.Key("community_size_p50");
  r.Double(Percentile(c.community_sizes, 0.5));
  r.Key("community_size_p90");
  r.Double(Percentile(c.community_sizes, 0.9));
  r.Key("empty_results");
  r.UInt(c.empty_results);
  r.Key("views_skipped_large");
  r.UInt(c.views_skipped_large);
  r.Key("distinct_pool_queries");
  r.UInt(env.pool.size());
  r.Key("result_cache_capacity");
  r.UInt(mc1.capacity);
  r.Key("result_cache_hit_ratio");
  r.Double(static_cast<double>(mc1.hits - mc0.hits) /
           std::max(1.0, static_cast<double>(mc1.lookups - mc0.lookups)));
  r.Key("result_cache_evictions");
  r.UInt(mc1.evictions - mc0.evictions);
  r.Key("reused_across_mutation");
  r.UInt(mc1.reused_across_mutation - mc0.reused_across_mutation);
  r.EndObject();
  if (mutate) {
    const double publishes =
        std::max(1.0, static_cast<double>(mw.repairs + mw.rebuilds));
    r.Key("writer");
    r.BeginObject();
    r.Key("rate_per_s");
    r.Double(kWriterRate);
    r.Key("op_share");
    WriteShares(&r, mw.ops);
    r.Key("repair_share");
    r.Double(static_cast<double>(mw.repairs) / publishes);
    r.Key("rebuild_share");
    r.Double(static_cast<double>(mw.rebuilds) / publishes);
    r.Key("lag_p50_ms");
    r.Double(Percentile(mw.lag_ms, 0.5));
    r.Key("lag_p90_ms");
    r.Double(Percentile(mw.lag_ms, 0.9));
    r.Key("lag_first_quarter_ms");
    r.Double(lag_first);
    r.Key("lag_last_quarter_ms");
    r.Double(lag_last);
    r.Key("steady");
    r.Bool(steady);
    r.Key("compactions");
    r.UInt(mw.compactions);
    r.EndObject();
  }
  std::uint64_t stream = 0;
  for (const auto& b : browsers) {
    stream = stream * 1099511628211ull ^ b->digest();
  }
  if (cold_client != nullptr) stream = cold_client->digest();
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(stream));
  r.Key("request_digest");
  r.String(digest);
  r.Key("errors");
  r.BeginArray();
  for (const std::string& e : totals.errors) r.String(e);
  r.EndArray();
  r.EndObject();
  r.EndObject();
  std::printf("%s\n", r.TakeString().c_str());

  cexplorer::JsonWriter result;
  result.BeginObject();
  result.Key("correct");
  result.Bool(totals.failed == 0);
  result.Key("attempted");
  result.UInt(totals.attempted);
  result.Key("failed");
  result.UInt(totals.failed);
  result.Key("metrics");
  WriteMetrics(&result, metrics);
  result.EndObject();
  std::printf("%s\n", result.TakeString().c_str());
  std::fflush(stdout);
  return totals.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: cexbench prepare|run [--flag value]...\n");
    return 2;
  }
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  const std::string mode = argv[1];
  if (mode == "prepare") return perfbench::Prepare(args);
  if (mode == "run") return perfbench::Run(args);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
