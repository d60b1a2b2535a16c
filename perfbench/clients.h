// The benchmark's clients: the browsing session loop (browse, and the
// mutate readers), the unique-query searcher (search_cold) and the
// open-loop mutation writer (mutate). Every request goes through
// CExplorerServer::Handle; in the traced phase the same request is sent
// through ParseRequest + Dispatch (or QueryService::Search for /v1/search)
// so each layer gets its own span.

#ifndef CEXPLORER_PERFBENCH_CLIENTS_H_
#define CEXPLORER_PERFBENCH_CLIENTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "explorer/explorer.h"
#include "perfbench/bench.h"
#include "perfbench/checker.h"
#include "perfbench/trace.h"
#include "server/server.h"

namespace perfbench {

/// State shared by every client of one run.
struct Env {
  Env(const Config& c, cexplorer::CExplorerServer& s)
      : config(c), server(s), checker(c.corrupt) {}

  /// Fills `base`, `by_core` and the Zipf query pool from the dataset the
  /// server serves now.
  void Init();

  /// A pool index drawn from the Zipf distribution over the pool.
  std::size_t DrawPoolIndex(Rng* rng) const;

  const Config& config;
  cexplorer::CExplorerServer& server;
  Checker checker;
  /// The dataset served when the run started. Read-only workloads check
  /// against it; the mutate workload draws its inputs from it.
  cexplorer::DatasetPtr base;
  /// Vertices of `base` by exact core number.
  std::vector<std::vector<VertexId>> by_core;
  /// The browse search pool, several times larger than the result cache.
  std::vector<SearchQuery> pool;
  std::vector<double> zipf_cdf;
  /// Non-null while the traced phase runs.
  Tracer* tracer = nullptr;
};

/// Shared request machinery of the clients.
class Caller {
 public:
  Caller(Env& env, std::uint64_t seed) : env_(env), rng_(seed) {}

  /// Picks up the tracer of the phase about to start (or none).
  void BeginPhase();

  /// Verifies the search answers sampled in the last phase against the
  /// fixed dataset they were served from (read-only workloads; mutate
  /// checks its samples as it takes them, against the snapshot it pinned).
  void CheckPending(ClientStats* stats);

  /// FNV-1a digest of the first requests this client sent: the same seed
  /// gives the same digest, another seed another one.
  std::uint64_t digest() const { return digest_; }

 protected:
  struct Reply {
    cexplorer::HttpResponse response;
    std::uint64_t request = 0;  ///< trace request id (traced phase only)
    std::uint64_t span = 0;     ///< the span shadow calls attach to
  };

  /// Sends one request, records its latency under `kind` and counts a
  /// non-200 answer as a failure.
  Reply Send(Kind kind, const std::string& text, ClientStats* stats);

  /// Sends a search-class request (search or explore) for `query`,
  /// samples answers for the checker and, in the traced phase, runs the
  /// shadow calls of the lower layers. Returns the answer's first
  /// community (no members when there is none).
  Listed Search(const SearchQuery& query, const std::string& text,
                bool is_explore, ClientStats* stats);

  /// Sends a lookup and checks every eighth answer (`vertex` >= 0: the
  /// profile of that vertex).
  void Lookup(const std::string& text, std::int64_t vertex,
              ClientStats* stats);

  /// Checks `sample` against `ds` and records the outcome under its class;
  /// true when it passed.
  bool CheckSample(const cexplorer::Dataset& ds, const SearchSample& sample,
                   Clock::time_point t0, ClientStats* stats);

  /// Records the outcome of a sampled check that started at `t0`.
  void Checked(ClientStats* stats, Clock::time_point t0,
               const std::string& why);

  /// Shadow calls of one traced /v1/search on `ds`: Explorer::Search, and
  /// for ACQ ClTree::LocateKCore and AcqEngine::Search; plus
  /// Explorer::Display of one answer in four.
  void Shadow(const SearchQuery& query, const Reply& reply,
              const cexplorer::DatasetPtr& ds);

  /// The dataset a request can be checked against: the fixed base for the
  /// read-only workloads, the served snapshot for mutate.
  cexplorer::DatasetPtr Pin() const;

  /// Answers seen, and answers awaiting verification, of one class.
  struct Sampling {
    std::uint64_t seen = 0;
    std::size_t pending = 0;
  };

  Env& env_;
  Rng rng_;
  std::map<std::string, Sampling> sampling_;
  std::vector<SearchSample> pending_;
  std::unordered_set<std::uint64_t> verified_;
  Tracer::Buffer* buffer_ = nullptr;
  /// The shadow engine: lives as long as the client's server session, so
  /// per-session algorithm caches (the KTruss decomposition) match.
  std::unique_ptr<cexplorer::Explorer> shadow_;
  std::uint64_t shadowed_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t digest_ = 1469598103934665603ull;
  std::uint64_t digested_ = 0;
};

/// One browsing user: session/new, author, search, (view), profile x2,
/// explore, history, session/delete, over and over with no think time.
class BrowseClient : public Caller {
 public:
  BrowseClient(Env& env, std::uint64_t seed, bool views)
      : Caller(env, seed), views_(views) {}
  void Run(Clock::time_point deadline, ClientStats* stats);

 private:
  void Cycle(ClientStats* stats);
  bool views_;
  std::uint64_t views_sent_ = 0;
};

/// The cold searcher: only never-repeated /v1/search requests, each
/// followed by the query author's profile, in one long-lived session.
class ColdClient : public Caller {
 public:
  ColdClient(Env& env, std::uint64_t seed) : Caller(env, seed) {}
  void Run(Clock::time_point deadline, ClientStats* stats);

 private:
  SearchQuery NextUnique();
  std::string session_;
  std::unordered_set<std::string> seen_;
  std::uint64_t issued_ = 0;
  std::map<std::string, std::uint64_t> strata_;
};

/// Tops each of Global, Local and KTruss up to `min_samples` traced
/// Explorer::Search calls after the traced phase, on query vertices and k
/// drawn the way the workload draws them, so every workload reports every
/// algorithm layer.
void SweepAlgorithms(Env& env, std::size_t min_samples, Tracer::Buffer* buffer);

/// The open-loop writer: one-op mutation batches due at a fixed rate,
/// each timed from its due time.
class Writer {
 public:
  /// Certifies a stock of tree-neutral inserts up front (untimed).
  Writer(cexplorer::CExplorerServer& target, std::uint64_t seed);
  /// Sends the ops due in [start, deadline) (at most `max_ops`).
  void Run(Clock::time_point start, Clock::time_point deadline,
           std::size_t max_ops, WriterStats* stats, Tracer::Buffer* buffer);

 private:
  /// The next op as request text; `kind` names it.
  std::string NextOp(const char** kind);
  /// A triangle-closing edge whose insertion provably moves no core number.
  std::pair<VertexId, VertexId> FindNeutralEdge();

  cexplorer::CExplorerServer& target_;
  Rng rng_;
  std::vector<std::pair<VertexId, VertexId>> neutral_;  ///< not yet sent
  std::vector<std::pair<VertexId, VertexId>> inserted_;
  std::vector<std::uint32_t> trial_cores_;  ///< scratch of FindNeutralEdge
  std::uint64_t issued_ = 0;
  std::uint64_t appended_ = 0;
};

}  // namespace perfbench

#endif  // CEXPLORER_PERFBENCH_CLIENTS_H_
