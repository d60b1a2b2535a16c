#include "perfbench/clients.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <thread>

#include "acq/acq.h"
#include "api/error.h"
#include "api/types.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "core/kcore.h"
#include "delta/core_maintenance.h"
#include "server/http.h"

namespace perfbench {

namespace {

using cexplorer::HttpResponse;

/// Browse draws its searches from this many distinct queries: four times
/// the result cache's default 512 entries, so the cache both hits and
/// evicts.
constexpr std::size_t kPoolSize = 2048;
/// The browse draw is Zipf-Mandelbrot: rank r has weight 1 / (r + 5).
/// The offset spreads the head over dozens of queries instead of handing
/// the top one 8% of all draws (as plain Zipf does), so a run's cost does
/// not hinge on which few queries its seed made popular. About 63% of the
/// search lookups hit the 512-entry cache: far enough from half that the
/// median search stays a cache hit on every seed instead of flipping
/// between a hit and an algorithm run.
constexpr double kZipfOffset = 5.0;
/// A user clicks a community into view only when it is small enough to
/// lay out interactively (layout is quadratic in the member count).
constexpr std::int64_t kViewMaxMembers = 500;
/// Share of search answers the checker verifies, counted separately for
/// each class of answer (the algorithm of a /v1/search, or explore): one
/// in four, after the phase, on the read-only workloads; one in sixteen on
/// mutate, whose answers are verified as they arrive against the snapshot
/// they came from (pinning many snapshots until the end would inflate
/// memory).
constexpr std::uint64_t kCheckEverySearch = 4;
constexpr std::uint64_t kCheckEveryMutateSearch = 16;
/// Most answers of one class one client keeps for verification per phase.
constexpr std::size_t kMaxPendingPerClass = 16;
constexpr std::uint64_t kCheckEveryLookup = 8;
/// Requests per client that the stream digest covers.
constexpr std::uint64_t kDigestRequests = 200;

/// `n` distinct keywords of `v` (all of them when it has fewer).
std::vector<std::string> PickKeywords(const cexplorer::AttributedGraph& g,
                                      VertexId v, std::size_t n, Rng* rng) {
  std::vector<std::string> words = g.KeywordStrings(v);
  for (std::size_t i = 0; i < words.size() && i < n; ++i) {
    std::swap(words[i], words[i + rng->Below(words.size() - i)]);
  }
  words.resize(std::min(n, words.size()));
  return words;
}

/// Tree-neutral inserts certified when the writer starts; more are found
/// on demand.
constexpr int kNeutralStock = 96;
std::string EdgeBody(VertexId u, VertexId v) {
  return "{\"edges\": [[" + std::to_string(u) + ", " + std::to_string(v) +
         "]]}";
}

}  // namespace

std::size_t PercentileRank(std::size_t n, double q) {
  // The epsilon keeps 0.9 * 100 (90.00000000000001 in binary) at rank 90.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[PercentileRank(values.size(), q) - 1];
}

std::string SearchQuery::Text(const std::string& session) const {
  std::string text = "GET /v1/search?vertex=" + std::to_string(q) +
                     "&k=" + std::to_string(k) + "&algo=" + algo;
  if (!keywords.empty()) {
    std::string joined;
    for (const std::string& w : keywords) {
      joined += (joined.empty() ? "" : ",") + w;
    }
    text += "&keywords=" + cexplorer::UrlEncode(joined);
  }
  return text + "&session=" + session;
}

std::string SearchQuery::Key() const {
  std::vector<std::string> sorted = keywords;
  std::sort(sorted.begin(), sorted.end());
  std::string key = algo + "|" + std::to_string(q) + "|" + std::to_string(k);
  for (const std::string& w : sorted) key += "|" + w;
  return key;
}

void ClientStats::Fail(std::string why) {
  ++failed;
  if (errors.size() < 5) errors.push_back(std::move(why));
}

void ClientStats::Merge(const ClientStats& other) {
  for (int k = 0; k < kNumKinds; ++k) {
    latency_ms[k].insert(latency_ms[k].end(), other.latency_ms[k].begin(),
                         other.latency_ms[k].end());
  }
  attempted += other.attempted;
  failed += other.failed;
  checked += other.checked;
  for (const auto& [label, n] : other.checked_by) checked_by[label] += n;
  check_ms += other.check_ms;
  wall_ms = std::max(wall_ms, other.wall_ms);
  for (const std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
  for (const auto& [algo, n] : other.algos) algos[algo] += n;
  community_sizes.insert(community_sizes.end(), other.community_sizes.begin(),
                         other.community_sizes.end());
  empty_results += other.empty_results;
  views_skipped_large += other.views_skipped_large;
}

// --- Env -------------------------------------------------------------------

void Env::Init() {
  base = server.dataset();
  const auto cores = base->core_numbers();
  by_core.assign(cexplorer::MaxCoreNumber(cores) + 1, {});
  for (VertexId v = 0; v < cores.size(); ++v) by_core[cores[v]].push_back(v);
  if (config.workload == "search_cold") return;

  // The browse pool: mostly ACQ with 1-2 of the vertex's keywords, plus
  // some Global and Local; k in 4..6 and core(q) >= k. KTruss is left to
  // search_cold: it builds a whole-graph truss decomposition once per
  // session (about a second here), and browse opens a session per cycle,
  // so the few KTruss draws of a run would swing its throughput by 10%.
  const cexplorer::AttributedGraph& g = base->graph();
  std::vector<VertexId> candidates;
  for (std::size_t c = 4; c < by_core.size(); ++c) {
    candidates.insert(candidates.end(), by_core[c].begin(), by_core[c].end());
  }
  Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 17);
  std::unordered_set<std::string> keys;
  while (!candidates.empty() && pool.size() < kPoolSize) {
    SearchQuery query;
    const double x = rng.Unit();
    query.algo = x < 0.80 ? "ACQ" : x < 0.90 ? "Global" : "Local";
    query.k = 4 + static_cast<std::uint32_t>(rng.Below(3));
    query.q = candidates[rng.Below(candidates.size())];
    if (cores[query.q] < query.k || g.Keywords(query.q).empty()) continue;
    if (query.algo == "ACQ") {
      query.keywords = PickKeywords(g, query.q, 1 + rng.Below(2), &rng);
    }
    if (keys.insert(query.Key()).second) pool.push_back(std::move(query));
  }
  double total = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    total += 1.0 / (static_cast<double>(i + 1) + kZipfOffset);
    zipf_cdf.push_back(total);
  }
  for (double& c : zipf_cdf) c /= total;
}

std::size_t Env::DrawPoolIndex(Rng* rng) const {
  const auto it =
      std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), rng->Unit());
  return std::min<std::size_t>(it - zipf_cdf.begin(), pool.size() - 1);
}

// --- Caller ----------------------------------------------------------------

void Caller::BeginPhase() {
  buffer_ = env_.tracer != nullptr ? env_.tracer->NewBuffer() : nullptr;
  pending_.clear();
  for (auto& [label, sampling] : sampling_) sampling.pending = 0;
}

void Caller::CheckPending(ClientStats* stats) {
  for (const SearchSample& sample : pending_) {
    const Clock::time_point t0 = Clock::now();
    // The dataset is fixed, so an answer identical to one already verified
    // (a repeated popular query) is verified by that check.
    std::uint64_t key = 1469598103934665603ull;
    auto mix = [&key](std::uint64_t x) { key = (key ^ x) * 1099511628211ull; };
    for (char c : sample.algo) mix(static_cast<unsigned char>(c));
    mix(sample.q);
    mix(sample.k);
    for (const Listed& c : sample.communities) {
      mix(static_cast<std::uint64_t>(c.size));
      for (VertexId v : c.members) mix(v);
      for (const std::string& w : c.theme) mix(std::hash<std::string>()(w));
    }
    if (!sample.parsed || !verified_.count(key)) {
      if (CheckSample(*env_.base, sample, t0, stats)) verified_.insert(key);
    } else {
      ++stats->checked_by[sample.label];
      Checked(stats, t0, "");
    }
  }
  pending_.clear();
  for (auto& [label, sampling] : sampling_) sampling.pending = 0;
}

bool Caller::CheckSample(const cexplorer::Dataset& ds,
                         const SearchSample& sample, Clock::time_point t0,
                         ClientStats* stats) {
  const std::string why = env_.checker.CheckSearch(ds, sample);
  ++stats->checked_by[sample.label];
  Checked(stats, t0, why);
  return why.empty();
}

cexplorer::DatasetPtr Caller::Pin() const {
  return env_.config.workload == "mutate" ? env_.server.dataset() : env_.base;
}

Caller::Reply Caller::Send(Kind kind, const std::string& text,
                           ClientStats* stats) {
  if (digested_ < kDigestRequests) {
    // Session ids depend on how the threads interleave; the stream does not.
    ++digested_;
    const std::size_t cut = std::min(text.find("session="), text.find("?id="));
    for (unsigned char c : text.substr(0, cut)) {
      digest_ = (digest_ ^ c) * 1099511628211ull;
    }
  }
  ++stats->attempted;
  Reply reply;
  if (buffer_ == nullptr) {
    const Clock::time_point t0 = Clock::now();
    reply.response = env_.server.Handle(text);
    stats->latency_ms[kind].push_back(MsBetween(t0, Clock::now()));
  } else {
    // The traced path splits Handle into its layers: ParseRequest, then
    // Dispatch — or, for /v1/search, the QueryService::Search call that
    // Dispatch's binder makes, so the API layer has its own span.
    reply.request = buffer_->NewRequest();
    const Clock::time_point t0 = Clock::now();
    auto parsed = cexplorer::ParseRequest(text);
    const Clock::time_point parsed_at = Clock::now();
    const char* name = "server.dispatch";
    int tag = 0;
    Clock::time_point t1 = parsed_at;
    Clock::time_point t2;
    if (!parsed.ok()) {
      reply.response = HttpResponse::Error(400, parsed.status().message());
      t2 = Clock::now();
    } else if (parsed->path == "/v1/search") {
      name = "api.search";
      const cexplorer::HttpRequest& request = parsed.value();
      cexplorer::api::SearchRequest typed;
      typed.session = request.Param("session");
      typed.k = static_cast<std::uint32_t>(request.IntParam("k", 4));
      typed.keywords = cexplorer::SplitNonEmpty(request.Param("keywords"), ',');
      typed.vertices.push_back(
          static_cast<VertexId>(request.IntParam("vertex", 0)));
      typed.algo = request.Param("algo");
      cexplorer::api::QueryService& service = env_.server.service();
      const auto before = service.ResultCacheStats();
      t1 = Clock::now();
      auto result = service.Search(typed);
      t2 = Clock::now();
      const auto after = service.ResultCacheStats();
      // Another thread's lookup in the same window makes the outcome
      // ambiguous; only clear cases are tagged.
      const auto hits = after.hits - before.hits;
      const auto misses = after.misses - before.misses;
      tag = hits == 0 && misses >= 1   ? kCacheMiss
            : hits >= 1 && misses == 0 ? kCacheHit
                                       : kCacheUnknown;
      if (result.ok()) {
        reply.response = HttpResponse::Ok(std::move(result).value());
      } else {
        reply.response.code = cexplorer::api::HttpStatus(result.error().code);
        reply.response.body = result.error().ToJson();
      }
    } else {
      reply.response = env_.server.Dispatch(parsed.value());
      t2 = Clock::now();
    }
    const Clock::time_point t3 = Clock::now();
    const std::uint64_t root =
        buffer_->Add("request", reply.request, 0, t0, t3);
    buffer_->Add("server.parse", reply.request, root, t0, parsed_at);
    reply.span = buffer_->Add(name, reply.request, root, t1, t2, tag,
                              static_cast<double>(reply.response.body.size()));
    stats->latency_ms[kind].push_back(MsBetween(t0, t3));
  }
  if (reply.response.code != 200) {
    stats->Fail(text.substr(0, 120) + " -> " +
                std::to_string(reply.response.code) + " " +
                reply.response.body.substr(0, 160));
  }
  return reply;
}

void Caller::Checked(ClientStats* stats, Clock::time_point t0,
                     const std::string& why) {
  ++stats->checked;
  if (!why.empty()) stats->Fail("checker: " + why);
  stats->check_ms += MsBetween(t0, Clock::now());
}

void Caller::Lookup(const std::string& text, std::int64_t vertex,
                    ClientStats* stats) {
  Reply reply = Send(kLookup, text, stats);
  if (reply.response.code != 200) return;
  if (buffer_ != nullptr && vertex >= 0) {
    // Shadow of the QueryService method behind a profile: Dispatch's self
    // time is its span minus this call.
    cexplorer::api::ProfileRequest typed;
    const std::size_t pos = text.find("&session=");
    if (pos != std::string::npos) typed.session = text.substr(pos + 9);
    typed.vertex = vertex;
    const Clock::time_point t0 = Clock::now();
    auto shadow = env_.server.service().Profile(typed);
    buffer_->Add("api.profile", reply.request, reply.span, t0, Clock::now());
  }
  if (++lookups_ % kCheckEveryLookup == 0) {
    const Clock::time_point t0 = Clock::now();
    Checked(stats, t0, env_.checker.CheckLookup(reply.response.body, vertex));
  }
}

Listed Caller::Search(const SearchQuery& query, const std::string& text,
                     bool is_explore, ClientStats* stats) {
  const bool mutate = env_.config.workload == "mutate";
  // Each class is sampled on its own count, so every algorithm in the mix
  // is checked whatever order the requests come in.
  const std::string label = is_explore ? "explore" : query.algo;
  Sampling& sampling = sampling_[label];
  const bool check =
      sampling.seen % (mutate ? kCheckEveryMutateSearch : kCheckEverySearch) ==
          0 &&
      (mutate || sampling.pending < kMaxPendingPerClass);
  const bool shadow = buffer_ != nullptr && !is_explore;
  cexplorer::DatasetPtr pinned;
  if (check || shadow) pinned = Pin();
  Reply reply = Send(kSearch, text, stats);
  if (reply.response.code != 200) return {};
  const Clock::time_point parsed_at = Clock::now();
  SearchSample sample;
  sample.parsed = ParseListed(reply.response.body, &sample.communities);
  const Listed first =
      sample.communities.empty() ? Listed{} : sample.communities.front();
  if (!is_explore) {
    ++stats->algos[query.algo];
    if (first.members.empty()) {
      ++stats->empty_results;
    } else {
      stats->community_sizes.push_back(static_cast<double>(first.size));
    }
  }
  // On mutate a publish may land mid-request; such an answer has no single
  // snapshot to check against, so the check passes to the next answer of
  // the class.
  if (pinned != nullptr && pinned != Pin()) pinned = nullptr;
  if (!check || pinned != nullptr) ++sampling.seen;
  if (check && pinned != nullptr) {
    sample.label = label;
    sample.algo = query.algo;
    sample.q = query.q;
    sample.k = query.k;
    if (mutate) {
      CheckSample(*pinned, sample, parsed_at, stats);
    } else {
      ++sampling.pending;
      pending_.push_back(std::move(sample));
    }
  }
  if (shadow && pinned != nullptr) Shadow(query, reply, pinned);
  return first;
}

void Caller::Shadow(const SearchQuery& query, const Reply& reply,
                    const cexplorer::DatasetPtr& ds) {
  if (shadow_ == nullptr) shadow_ = std::make_unique<cexplorer::Explorer>();
  if (shadow_->dataset() != ds) shadow_->AttachDataset(ds);
  cexplorer::Query q;
  q.vertices.push_back(query.q);
  q.k = query.k;
  q.keywords = query.keywords;
  const char* name = query.algo == "ACQ"      ? "algos.acq"
                     : query.algo == "Global" ? "algos.global"
                     : query.algo == "Local"  ? "algos.local"
                                              : "algos.ktruss";
  Clock::time_point t0 = Clock::now();
  auto result = shadow_->Search(query.algo, q);
  const std::uint64_t algo_span =
      buffer_->Add(name, reply.request, reply.span, t0, Clock::now());
  if (query.algo == "ACQ") {
    t0 = Clock::now();
    ds->index().LocateKCore(query.q, query.k);
    buffer_->Add("cltree.locate", reply.request, algo_span, t0, Clock::now());
    cexplorer::KeywordList ids;
    for (const std::string& w : query.keywords) {
      ids.push_back(ds->graph().vocabulary().Find(w));
    }
    std::sort(ids.begin(), ids.end());
    cexplorer::AcqEngine engine(&ds->graph(), &ds->index(),
                                cexplorer::DefaultPool());
    t0 = Clock::now();
    auto acq = engine.Search(query.q, query.k, ids);
    buffer_->Add("acq.search", reply.request, algo_span, t0, Clock::now());
    if (acq.ok()) buffer_->acq.Merge(acq->stats);
  }
  // The communities a browsing user views: the first community of one
  // search in four, when it is small enough to lay out.
  if (result.ok() && !result->empty() && shadowed_++ % 4 == 0 &&
      static_cast<std::int64_t>(result->front().size()) <= kViewMaxMembers) {
    t0 = Clock::now();
    auto display = shadow_->Display(result->front());
    buffer_->Add("layout.display", reply.request, 0, t0, Clock::now(), 0,
                 static_cast<double>(result->front().size()));
  }
}

// --- BrowseClient ----------------------------------------------------------

void BrowseClient::Run(Clock::time_point deadline, ClientStats* stats) {
  BeginPhase();
  const Clock::time_point start = Clock::now();
  while (Clock::now() < deadline) Cycle(stats);
  stats->wall_ms = MsBetween(start, Clock::now());
}

void BrowseClient::Cycle(ClientStats* stats) {
  Reply opened = Send(kLookup, "GET /v1/session/new", stats);
  const std::string session = SessionId(opened.response.body);
  if (opened.response.code != 200 || session.empty()) return;
  shadow_.reset();  // a new session starts with cold per-session caches
  const std::string suffix = "&session=" + session;
  const SearchQuery& query = env_.pool[env_.DrawPoolIndex(&rng_)];
  const std::string name(env_.base->graph().Name(query.q));
  Lookup("GET /v1/author?name=" + cexplorer::UrlEncode(name) + suffix, -1,
         stats);
  const Listed found = Search(query, query.Text(session), false, stats);
  const std::vector<VertexId>& members = found.members;
  if (views_ && !members.empty() && rng_.Below(4) == 0) {
    if (found.size <= kViewMaxMembers) {
      Reply view = Send(kView, "GET /v1/community?id=0" + suffix, stats);
      if (view.response.code == 200 && ++views_sent_ % 2 == 0) {
        const Clock::time_point t0 = Clock::now();
        Checked(stats, t0, env_.checker.CheckView(found, view.response.body));
      }
    } else {
      ++stats->views_skipped_large;
    }
  }
  auto member = [&] {
    return members.empty() ? query.q : members[rng_.Below(members.size())];
  };
  for (int i = 0; i < 2; ++i) {
    const VertexId m = member();
    Lookup("GET /v1/profile?vertex=" + std::to_string(m) + suffix, m, stats);
  }
  // Users explore from the members listed first, so popular communities
  // repeat their explorations too.
  SearchQuery explore;
  explore.algo = "ACQ";
  explore.q = query.q;
  if (!members.empty()) {
    explore.q = members[rng_.Below(std::min<std::size_t>(4, members.size()))];
  }
  explore.k = query.k;
  Search(explore,
         "GET /v1/explore?vertex=" + std::to_string(explore.q) + suffix, true,
         stats);
  Lookup("GET /v1/history?session=" + session, -1, stats);
  Lookup("GET /v1/session/delete?id=" + session, -1, stats);
}

// --- ColdClient ------------------------------------------------------------

void ColdClient::Run(Clock::time_point deadline, ClientStats* stats) {
  BeginPhase();
  if (session_.empty()) {
    ClientStats scratch;
    session_ =
        SessionId(Send(kLookup, "GET /v1/session/new", &scratch).response.body);
  }
  const Clock::time_point start = Clock::now();
  while (Clock::now() < deadline) {
    const SearchQuery query = NextUnique();
    Search(query, query.Text(session_), false, stats);
    Lookup("GET /v1/profile?vertex=" + std::to_string(query.q) +
               "&session=" + session_,
           query.q, stats);
  }
  stats->wall_ms = MsBetween(start, Clock::now());
}

SearchQuery ColdClient::NextUnique() {
  // A stratified stream: every twenty queries run the algorithms in a
  // fixed pattern (14 ACQ, 4 Global, 1 Local, 1 KTruss), and each algorithm
  // walks its own grid of k in 4..8, core level k..max and (ACQ) keyword
  // count, so each run measures the same mix; only the vertex within a
  // core level and the ACQ keywords are drawn at random. The stream opens
  // with KTruss, which builds the session's truss decomposition during the
  // warm-up, as a long-lived session would have done long ago.
  //
  // Answers are either selective communities of a few hundred members
  // (about 3 ms) or a giant component (about 15 ms). The mix puts about
  // 60% of the answers in the giant mode, so the median lies inside it
  // rather than in the gap between the modes, where a 1% shift of the mix
  // moved search_p50_ms by 7%.
  static constexpr const char* kPattern[20] = {
      "KTruss", "ACQ", "ACQ", "Global", "ACQ", "ACQ",    "Global",
      "ACQ",    "ACQ", "Local", "ACQ",    "ACQ", "Global", "ACQ",
      "ACQ",    "ACQ", "Global", "ACQ",   "ACQ", "ACQ"};
  static constexpr std::size_t kKeywordCounts[4] = {1, 1, 2, 3};
  const cexplorer::AttributedGraph& g = env_.base->graph();
  const auto max_core = static_cast<std::uint32_t>(env_.by_core.size() - 1);
  SearchQuery query;
  query.algo = kPattern[issued_++ % 20];
  for (;;) {
    const std::uint64_t cell = strata_[query.algo]++;
    query.k = std::min<std::uint32_t>(4 + cell % 5, max_core);
    // Core levels at or above k, in turn: query vertices spread across the
    // core spectrum instead of crowding at the low levels.
    const auto level = static_cast<std::uint32_t>(
        query.k + (cell / 5) % (max_core - query.k + 1));
    const auto& vertices = env_.by_core[level];
    if (vertices.empty()) continue;
    for (int draw = 0; draw < 8; ++draw) {
      query.q = vertices[rng_.Below(vertices.size())];
      query.keywords.clear();
      if (query.algo == "ACQ") {
        if (g.Keywords(query.q).empty()) continue;
        query.keywords =
            PickKeywords(g, query.q, kKeywordCounts[(cell / 3) % 4], &rng_);
      }
      if (seen_.insert(query.Key()).second) return query;
    }
  }
}

void SweepAlgorithms(Env& env, std::size_t min_samples,
                     Tracer::Buffer* buffer) {
  cexplorer::Explorer explorer;
  explorer.AttachDataset(env.server.dataset());
  Rng rng(env.config.seed * 131 + 11);
  const std::pair<const char*, const char*> algos[] = {
      {"Global", "algos.global"}, {"Local", "algos.local"},
      {"KTruss", "algos.ktruss"}};
  for (const auto& [algo, span] : algos) {
    for (std::size_t n = env.tracer->Count(span); n < min_samples; ++n) {
      cexplorer::Query query;
      if (env.pool.empty()) {
        // search_cold: a core level at or above k, then a vertex of it.
        const auto max_core =
            static_cast<std::uint32_t>(env.by_core.size() - 1);
        query.k = std::min<std::uint32_t>(
            4 + static_cast<std::uint32_t>(rng.Below(5)), max_core);
        const auto& level =
            env.by_core[query.k + rng.Below(max_core - query.k + 1)];
        if (level.empty()) continue;
        query.vertices.push_back(level[rng.Below(level.size())]);
      } else {
        const SearchQuery& drawn = env.pool[env.DrawPoolIndex(&rng)];
        query.vertices.push_back(drawn.q);
        query.k = drawn.k;
      }
      const std::uint64_t request = buffer->NewRequest();
      const Clock::time_point t0 = Clock::now();
      auto result = explorer.Search(algo, query);
      buffer->Add(span, request, 0, t0, Clock::now(), 1);
    }
  }
}

// --- Writer ----------------------------------------------------------------

std::string Writer::NextOp(const char** kind) {
  const cexplorer::DatasetPtr ds = target_.dataset();
  const cexplorer::AttributedGraph& ag = ds->graph();
  const cexplorer::Graph& g = ag.graph();
  const std::size_t n = g.num_vertices();
  // A fixed cycle of 20 ops: 11 tree-neutral inserts (N), 4 random
  // inserts (R), 3 deletes (D), 2 vertex appends (A). Every run then sends
  // the same mix and the same share of rebuilds; only the edges and
  // vertices are drawn at random.
  static constexpr char kCycle[] = "NNRNDNANRNNDNRANNDRN";
  const char op = kCycle[issued_++ % (sizeof kCycle - 1)];
  if (op == 'A') {
    *kind = "append_vertex";
    VertexId v = 0;
    for (int i = 0; i < 100; ++i) {
      v = static_cast<VertexId>(rng_.Below(n));
      if (ag.Keywords(v).size() >= 2) break;
    }
    std::string words;
    for (const std::string& w : PickKeywords(ag, v, 2, &rng_)) {
      words += std::string(words.empty() ? "" : ", ") + "\"" + w + "\"";
    }
    return "POST /v1/vertices\n{\"vertices\": [{\"name\": \"perfbench " +
           std::to_string(rng_.Next() % 1000000007) + "-" +
           std::to_string(appended_++) + "\", \"keywords\": [" + words + "]}]}";
  }
  if (op == 'D' && !inserted_.empty()) {
    *kind = "delete";
    const std::size_t i = rng_.Below(inserted_.size());
    const auto [u, v] = inserted_[i];
    inserted_[i] = inserted_.back();
    inserted_.pop_back();
    return "DELETE /v1/edges\n" + EdgeBody(u, v);
  }
  if (op == 'R') {
    *kind = "random_insert";
    for (;;) {
      const VertexId u = static_cast<VertexId>(rng_.Below(n));
      const VertexId v = static_cast<VertexId>(rng_.Below(n));
      if (u != v && !g.HasEdge(u, v)) {
        return "POST /v1/edges\n" + EdgeBody(u, v);
      }
    }
  }
  *kind = "neutral_insert";
  std::pair<VertexId, VertexId> edge;
  do {
    if (neutral_.empty()) {
      edge = FindNeutralEdge();
      break;
    }
    edge = neutral_.back();
    neutral_.pop_back();
  } while (g.HasEdge(edge.first, edge.second));
  inserted_.push_back(edge);
  return "POST /v1/edges\n" + EdgeBody(edge.first, edge.second);
}

Writer::Writer(cexplorer::CExplorerServer& target, std::uint64_t seed)
    : target_(target), rng_(seed) {
  for (int i = 0; i < kNeutralStock; ++i) neutral_.push_back(FindNeutralEdge());
}

std::pair<VertexId, VertexId> Writer::FindNeutralEdge() {
  const cexplorer::DatasetPtr ds = target_.dataset();
  const cexplorer::Graph& g = ds->graph().graph();
  const auto cores = ds->core_numbers();
  // Triangle closing through a common neighbour w with
  // core(w) >= min(core(u), core(v)): the new edge stays inside one
  // connected core component, which the CL-tree repair certifies, and
  // deleting it later leaves the u-w-v witness path. The insert must also
  // move no core number, which the server's own core repair decides on a
  // copy of the cores.
  std::vector<VertexId> row_u;
  std::vector<VertexId> row_v;
  for (;;) {
    const VertexId w = static_cast<VertexId>(rng_.Below(g.num_vertices()));
    const auto nbrs = g.Neighbors(w);
    if (nbrs.size() < 2) continue;
    const VertexId u = nbrs[rng_.Below(nbrs.size())];
    const VertexId v = nbrs[rng_.Below(nbrs.size())];
    if (u == v || cores[w] < std::min(cores[u], cores[v]) || g.HasEdge(u, v)) {
      continue;
    }
    row_u.assign(g.Neighbors(u).begin(), g.Neighbors(u).end());
    row_u.push_back(v);
    row_v.assign(g.Neighbors(v).begin(), g.Neighbors(v).end());
    row_v.push_back(u);
    auto adj = [&](VertexId x) -> std::span<const VertexId> {
      if (x == u) return row_u;
      if (x == v) return row_v;
      return g.Neighbors(x);
    };
    trial_cores_.assign(cores.begin(), cores.end());
    cexplorer::delta::CoreRepairStats repair;
    cexplorer::delta::RepairCoresAfterInsert(adj, &trial_cores_, u, v,
                                             &repair);
    if (repair.changed == 0) return {u, v};
  }
}

void Writer::Run(Clock::time_point start, Clock::time_point deadline,
                 std::size_t max_ops, WriterStats* stats,
                 Tracer::Buffer* buffer) {
  cexplorer::api::QueryService& service = target_.service();
  const auto first = service.MutationStatsNow();
  for (std::size_t i = 0; i < max_ops; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  kWriterRate));
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const char* kind = "";
    const std::string text = NextOp(&kind);
    const Clock::time_point sent = Clock::now();
    const auto before = service.MutationStatsNow();
    ++stats->client.attempted;
    const cexplorer::HttpResponse response = target_.Handle(text);
    const Clock::time_point done = Clock::now();
    const auto after = service.MutationStatsNow();
    stats->publish_ms.push_back(MsBetween(due, done));
    stats->lag_ms.push_back(MsBetween(due, sent));
    ++stats->ops[kind];
    if (response.code != 200) {
      stats->client.Fail(text.substr(0, 120) + " -> " +
                         std::to_string(response.code) + " " +
                         response.body.substr(0, 160));
      continue;
    }
    const bool rebuilt =
        after.cltree_rebuild_fallbacks > before.cltree_rebuild_fallbacks;
    ++stats->publishes;
    stats->repairs += after.cltree_repairs - before.cltree_repairs;
    stats->rebuilds +=
        after.cltree_rebuild_fallbacks - before.cltree_rebuild_fallbacks;
    if (rebuilt) {
      stats->rebuild_index_ms.push_back(after.publish_index_repair_ms -
                                        before.publish_index_repair_ms);
    }
    stats->core_repair_ms +=
        after.publish_core_repair_ms - before.publish_core_repair_ms;
    stats->index_repair_ms +=
        after.publish_index_repair_ms - before.publish_index_repair_ms;
    stats->arena_copy_ms +=
        after.publish_arena_copy_ms - before.publish_arena_copy_ms;
    stats->cas_ms += after.publish_cas_ms - before.publish_cas_ms;
    stats->core_repair_visited +=
        after.core_repair_visited - before.core_repair_visited;
    if (buffer != nullptr) {
      const std::uint64_t request = buffer->NewRequest();
      buffer->Add("delta.publish", request, 0, sent, done, rebuilt ? 1 : 0);
    }
  }
  stats->compactions +=
      service.MutationStatsNow().compactions - first.compactions;
}

}  // namespace perfbench
