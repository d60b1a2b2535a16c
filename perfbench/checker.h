// Output checker of the benchmark: verifies sampled server answers against
// independent oracles computed from the dataset snapshot they were served
// from. Answers are captured cheaply in the request loop (ParseListed) and
// verified outside the latency timers.

#ifndef CEXPLORER_PERFBENCH_CHECKER_H_
#define CEXPLORER_PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "explorer/dataset.h"
#include "perfbench/bench.h"

namespace perfbench {

/// One community as an answer lists it.
struct Listed {
  std::int64_t size = -1;
  bool truncated = false;
  std::vector<VertexId> members;
  std::vector<std::string> theme;
};

/// Reads every community object of a /v1/search, /v1/explore or
/// /v1/community body. The server's JSON writer emits no whitespace and
/// the community fields in a fixed order (method, size, members,
/// members_truncated, theme); any deviation is a parse failure. This
/// scanner costs a few microseconds where a full JSON parse of a large
/// answer costs milliseconds, so sampling does not slow the client.
bool ParseListed(const std::string& body, std::vector<Listed>* out);

/// The "session" field of a /v1/session/new body ("" when absent).
std::string SessionId(const std::string& body);

/// A sampled search-class answer awaiting verification.
struct SearchSample {
  /// What the checked count is reported under: the algorithm of a
  /// /v1/search, or "explore".
  std::string label;
  std::string algo;
  VertexId q = 0;
  std::uint32_t k = 0;
  bool parsed = false;
  std::vector<Listed> communities;
};

class Checker {
 public:
  explicit Checker(bool corrupt) : corrupt_(corrupt) {}

  /// Checks a search or explore answer computed on `ds`. Every community
  /// must contain q, be connected and have minimum internal degree >= k
  /// (k-1 for KTruss);
  /// ACQ communities must equal q's connected k-core among the vertices
  /// carrying the reported shared keywords; Global must equal
  /// ConnectedKCore. Returns "" when correct, otherwise what is wrong.
  std::string CheckSearch(const cexplorer::Dataset& ds,
                          const SearchSample& sample) const;

  /// Checks a full-shape /v1/community body against the searched community
  /// it shows: same members, one layout point per member.
  std::string CheckView(const Listed& searched,
                        const std::string& view_body) const;

  /// Checks that a lookup body is a JSON object; for a profile (vertex
  /// >= 0) that it describes that vertex.
  std::string CheckLookup(const std::string& body, std::int64_t vertex) const;

 private:
  bool corrupt_;
};

}  // namespace perfbench

#endif  // CEXPLORER_PERFBENCH_CHECKER_H_
