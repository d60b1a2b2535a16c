// Shared declarations of the C-Explorer end-to-end benchmark (cexbench).
//
// The benchmark drives one in-process CExplorerServer through
// CExplorerServer::Handle(request_text), the path every client request
// takes, under three seeded workloads (browse, search_cold, mutate). The
// server runs in its default configuration; the benchmark only feeds it
// the generated graph file and request streams. See PREDICTIONS.md for the
// workloads, the metrics and what each layer metric should move.

#ifndef CEXPLORER_PERFBENCH_BENCH_H_
#define CEXPLORER_PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/types.h"

namespace perfbench {

using cexplorer::VertexId;
using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// SplitMix64: a small seeded generator, so one seed fixes every input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The 1-based nearest rank of percentile q in [0, 1] of n > 0 samples.
std::size_t PercentileRank(std::size_t n, double q);

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// The request classes whose latencies the benchmark reports.
enum Kind { kSearch = 0, kLookup, kView, kPublish, kNumKinds };

/// One community search, as a /v1/search request.
struct SearchQuery {
  std::string algo;
  VertexId q = 0;
  std::uint32_t k = 4;
  std::vector<std::string> keywords;

  std::string Text(const std::string& session) const;
  /// Canonical identity (the result cache keys on the same fields).
  std::string Key() const;
};

/// What the command line selects.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;  ///< the prepared inputs (read only)
  std::string out_dir;   ///< this run's outputs (spans, the final graph)
  /// Test hook: drop a member from every sampled search response before it
  /// is checked, to show that the checker counts a corrupted answer.
  bool corrupt = false;
};

/// Everything one client thread accumulates in a measured phase.
struct ClientStats {
  std::array<std::vector<double>, kNumKinds> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;
  /// Search-class answers checked, by algorithm (or "explore").
  std::map<std::string, std::uint64_t> checked_by;
  /// Time spent in the output checker; taken out of the client's busy time.
  double check_ms = 0;
  /// Wall time of the client's measured phase.
  double wall_ms = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::uint64_t> algos;
  /// Size of the first community of each answered /v1/search.
  std::vector<double> community_sizes;
  std::uint64_t empty_results = 0;
  std::uint64_t views_skipped_large = 0;

  void Fail(std::string why);
  void Merge(const ClientStats& other);
};

/// The open-loop writer's record (mutate, and the traced delta sweep).
struct WriterStats {
  std::vector<double> publish_ms;  ///< completion minus due time
  std::vector<double> lag_ms;      ///< send time minus due time
  std::vector<double> rebuild_index_ms;  ///< index phase of rebuild publishes
  std::map<std::string, std::uint64_t> ops;
  std::uint64_t repairs = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t publishes = 0;
  double core_repair_ms = 0;
  double index_repair_ms = 0;
  double arena_copy_ms = 0;
  double cas_ms = 0;
  std::uint64_t core_repair_visited = 0;
  std::uint64_t compactions = 0;
  ClientStats client;  ///< attempted / failed of the writer's requests
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Writer rate of the mutate workload (one-op batches per second): one
/// batch per rebuild time (about 240 ms), so the writer keeps up.
inline constexpr double kWriterRate = 4.0;

}  // namespace perfbench

#endif  // CEXPLORER_PERFBENCH_BENCH_H_
