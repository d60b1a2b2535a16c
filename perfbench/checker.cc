#include "perfbench/checker.h"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/json.h"
#include "core/kcore.h"

namespace perfbench {

namespace {

using cexplorer::Graph;
using cexplorer::JsonValue;
using cexplorer::KeywordId;
using cexplorer::VertexList;

/// A cursor over a compact JSON text.
class Scanner {
 public:
  Scanner(const std::string& text, std::size_t pos) : text_(text), pos_(pos) {}
  bool Take(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }
  bool Number(std::int64_t* value) {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == begin) return false;
    *value = std::stoll(text_.substr(begin, pos_ - begin));
    return true;
  }
  bool String(std::string* value) {
    if (!Take("\"")) return false;
    value->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      if (pos_ < text_.size()) value->push_back(text_[pos_++]);
    }
    return Take("\"");
  }

 private:
  const std::string& text_;
  std::size_t pos_;
};

/// "" when `members` (ascending) induce a connected subgraph of minimum
/// degree >= `min_degree`.
std::string CheckCohesive(const Graph& g, const std::vector<VertexId>& members,
                          std::uint32_t min_degree) {
  auto inside = [&](VertexId v) {
    return std::binary_search(members.begin(), members.end(), v);
  };
  for (VertexId v : members) {
    std::uint32_t degree = 0;
    for (VertexId u : g.Neighbors(v)) degree += inside(u) ? 1 : 0;
    if (degree < min_degree) {
      return "member " + std::to_string(v) + " has internal degree " +
             std::to_string(degree) + " < " + std::to_string(min_degree);
    }
  }
  std::unordered_set<VertexId> seen{members.front()};
  std::vector<VertexId> stack{members.front()};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (VertexId u : g.Neighbors(v)) {
      if (inside(u) && seen.insert(u).second) stack.push_back(u);
    }
  }
  if (seen.size() != members.size()) return "community is not connected";
  return "";
}

/// The ACQ answer for shared keywords S: q's connected k-core among the
/// vertices that carry every keyword of S.
VertexList AcqOracle(const cexplorer::Dataset& ds, VertexId q,
                     std::uint32_t k, const std::vector<KeywordId>& s) {
  const cexplorer::AttributedGraph& ag = ds.graph();
  const Graph& g = ag.graph();
  const auto cores = ds.core_numbers();
  // 0 = not seen, 1 = in the region, 2 = not eligible.
  std::vector<std::uint8_t> state(g.num_vertices(), 0);
  auto admit = [&](VertexId v) {
    if (state[v] != 0) return false;
    state[v] = cores[v] >= k && ag.HasAllKeywords(v, s) ? 1 : 2;
    return state[v] == 1;
  };
  if (!admit(q)) return {};
  VertexList region{q};
  for (std::size_t i = 0; i < region.size(); ++i) {
    for (VertexId u : g.Neighbors(region[i])) {
      if (admit(u)) region.push_back(u);
    }
  }
  return cexplorer::PeelToKCore(g, std::move(region), k, q);
}

/// "" when the listed members are the first members of `expected` and the
/// reported size is its size.
std::string CompareToOracle(const std::vector<VertexId>& members,
                            std::int64_t size, const VertexList& expected,
                            const char* oracle) {
  if (static_cast<std::size_t>(size) != expected.size()) {
    return std::string("size ") + std::to_string(size) + " but " + oracle +
           " has " + std::to_string(expected.size());
  }
  if (members.size() > expected.size() ||
      !std::equal(members.begin(), members.end(), expected.begin())) {
    return std::string("members differ from ") + oracle;
  }
  return "";
}

}  // namespace

bool ParseListed(const std::string& body, std::vector<Listed>* out) {
  static const std::string kOpen = "{\"method\":";
  for (std::size_t at = body.find(kOpen); at != std::string::npos;
       at = body.find(kOpen, at + 1)) {
    Scanner in(body, at + kOpen.size());
    Listed listed;
    std::string text;
    std::int64_t id = 0;
    if (!in.String(&text) || !in.Take(",\"size\":") ||
        !in.Number(&listed.size) || !in.Take(",\"members\":[")) {
      return false;
    }
    while (!in.Take("]")) {
      in.Take(",");
      if (!in.Take("{\"id\":") || !in.Number(&id) || !in.Take(",\"name\":") ||
          !in.String(&text) || !in.Take("}")) {
        return false;
      }
      listed.members.push_back(static_cast<VertexId>(id));
    }
    listed.truncated = in.Take(",\"members_truncated\":true");
    if (!in.Take(",\"theme\":[")) return false;
    while (!in.Take("]")) {
      in.Take(",");
      if (!in.String(&text)) return false;
      listed.theme.push_back(text);
    }
    if (!in.Take("}")) return false;
    out->push_back(std::move(listed));
  }
  return true;
}

std::string Checker::CheckSearch(const cexplorer::Dataset& ds,
                                 const SearchSample& sample) const {
  if (!sample.parsed) return "answer does not parse";
  const std::string& algo = sample.algo;
  const VertexId q = sample.q;
  const std::uint32_t k = sample.k;
  const Graph& g = ds.graph().graph();
  const auto cores = ds.core_numbers();
  if (q >= g.num_vertices()) return "query vertex out of range";
  if (sample.communities.empty()) {
    // ACQ and Global always answer when q lies in the k-core.
    if ((algo == "ACQ" || algo == "Global") && cores[q] >= k) {
      return algo + " returned no community although core(q) >= k";
    }
    return "";
  }
  bool first = true;
  for (const Listed& community : sample.communities) {
    std::vector<VertexId> members = community.members;
    if (corrupt_ && first && !members.empty()) members.erase(members.begin());
    first = false;
    const std::int64_t size = community.size;
    const bool truncated = community.truncated;
    if (members.empty()) return "community without members";
    if (!truncated && static_cast<std::int64_t>(members.size()) != size) {
      return "size " + std::to_string(size) + " but " +
             std::to_string(members.size()) + " members listed";
    }
    if (!std::is_sorted(members.begin(), members.end()) ||
        std::adjacent_find(members.begin(), members.end()) != members.end()) {
      return "members are not ascending and distinct";
    }
    for (VertexId v : members) {
      if (v >= g.num_vertices()) return "member out of range";
    }
    if (!truncated) {
      if (!std::binary_search(members.begin(), members.end(), q)) {
        return "community does not contain q=" + std::to_string(q);
      }
      // A k-truss community guarantees each member k-2 triangles on an
      // edge, so only internal degree k-1; the k-core algorithms give k.
      std::string why =
          CheckCohesive(g, members, algo == "KTruss" && k > 0 ? k - 1 : k);
      if (!why.empty()) return why;
    }
    if (algo == "Global") {
      std::string why = CompareToOracle(
          members, size, cexplorer::ConnectedKCore(g, cores, q, k),
          "ConnectedKCore");
      if (!why.empty()) return why;
    } else if (algo == "ACQ") {
      std::vector<KeywordId> shared;
      for (const std::string& word : community.theme) {
        const KeywordId id = ds.graph().vocabulary().Find(word);
        if (id == cexplorer::kInvalidKeyword) return "unknown theme keyword";
        shared.push_back(id);
      }
      std::sort(shared.begin(), shared.end());
      for (VertexId v : members) {
        if (!ds.graph().HasAllKeywords(v, shared)) {
          return "member " + std::to_string(v) +
                 " lacks a shared ACQ keyword";
        }
      }
      std::string why = CompareToOracle(members, size,
                                        AcqOracle(ds, q, k, shared),
                                        "ACQ oracle");
      if (!why.empty()) return why;
    }
  }
  return "";
}

std::string Checker::CheckView(const Listed& searched,
                               const std::string& view_body) const {
  std::vector<Listed> viewed;
  if (!ParseListed(view_body, &viewed) || viewed.size() != 1) {
    return "view answer does not parse";
  }
  if (viewed.front().members != searched.members) {
    return "viewed members differ from the searched community";
  }
  // One layout point {"id":..,"x":..,"y":..} per member.
  std::size_t points = 0;
  const std::size_t layout = view_body.find("\"layout\":[");
  const std::size_t end = view_body.find(']', layout);
  for (std::size_t at = view_body.find("{\"id\":", layout);
       layout != std::string::npos && at < end;
       at = view_body.find("{\"id\":", at + 1)) {
    ++points;
  }
  if (points != viewed.front().members.size()) {
    return "layout does not place every member";
  }
  return "";
}

std::string SessionId(const std::string& body) {
  auto parsed = JsonValue::Parse(body);
  return parsed.ok() ? parsed.value().Get("session").AsString() : "";
}

std::string Checker::CheckLookup(const std::string& body,
                                 std::int64_t vertex) const {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return "lookup body is not a JSON object";
  }
  if (vertex >= 0 && parsed.value().Get("id").AsInt(-1) != vertex) {
    return "profile describes another vertex";
  }
  return "";
}

}  // namespace perfbench
