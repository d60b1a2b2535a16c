#include "graph/attributed_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>

#include "common/simd/simd.h"
#include "common/strings.h"

namespace cexplorer {

namespace {

/// Three-way compare of tolower(a) against the already-lower-cased `b`,
/// byte-wise — the lazy form of ToLower(a) <=> b that the view-mode name
/// lookup uses so a binary-search probe never allocates.
int CompareLoweredTo(std::string_view a, std::string_view b_lower) {
  const std::size_t n = std::min(a.size(), b_lower.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(a[i])));
    const unsigned char cb = static_cast<unsigned char>(b_lower[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b_lower.size()) return 0;
  return a.size() < b_lower.size() ? -1 : 1;
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (AsciiLower(a[i]) != AsciiLower(b[i])) return false;
  }
  return true;
}

/// FNV-1a over the lower-cased bytes of `name`, folded so the low bits
/// (the name table's slot index) depend on every byte.
std::uint64_t NameHash(std::string_view name) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(AsciiLower(c));
    h *= 1099511628211ull;
  }
  return h ^ (h >> 29);
}

}  // namespace

KeywordId Vocabulary::Intern(std::string_view word) {
  assert(!view_ && "Intern on a snapshot-backed vocabulary");
  assert(base_ == nullptr && "Intern on a delta-overlay vocabulary");
  auto it = index_.find(std::string(word));
  if (it != index_.end()) return it->second;
  KeywordId id = static_cast<KeywordId>(words_.size());
  words_.emplace_back(word);
  index_.emplace(words_.back(), id);
  return id;
}

KeywordId Vocabulary::Find(std::string_view word) const {
  if (base_ != nullptr) {
    const KeywordId id = base_->Find(word);
    if (id != kInvalidKeyword) return id;
    auto it = extra_index_->find(std::string(word));
    if (it == extra_index_->end()) return kInvalidKeyword;
    return it->second;
  }
  if (view_) {
    // order_ sorts ids by exact word bytes; probe with plain comparisons.
    auto it = std::lower_bound(order_.begin(), order_.end(), word,
                               [this](KeywordId id, std::string_view w) {
                                 return Word(id) < w;
                               });
    if (it == order_.end() || Word(*it) != word) return kInvalidKeyword;
    return *it;
  }
  auto it = index_.find(std::string(word));
  if (it == index_.end()) return kInvalidKeyword;
  return it->second;
}

bool AttributedGraph::HasKeyword(VertexId v, KeywordId kw) const {
  auto kws = Keywords(v);
  return std::binary_search(kws.begin(), kws.end(), kw);
}

bool AttributedGraph::HasAllKeywords(VertexId v,
                                     std::span<const KeywordId> kws) const {
  auto mine = Keywords(v);
  // Merge-style subset test over two sorted ranges.
  std::size_t i = 0;
  for (KeywordId want : kws) {
    while (i < mine.size() && mine[i] < want) ++i;
    if (i >= mine.size() || mine[i] != want) return false;
  }
  return true;
}

VertexId AttributedGraph::FindByName(std::string_view name) const {
  if (delta_base_ != nullptr) {
    // Base vertices carry lower ids than any tail vertex, so resolving
    // against the base first preserves the lowest-id-wins tie-break of a
    // from-scratch rebuild.
    const VertexId hit = delta_base_->FindByName(name);
    if (hit != kInvalidVertex) return hit;
    auto it = tail_name_index_->find(ToLower(name));
    if (it == tail_name_index_->end()) return kInvalidVertex;
    return it->second;
  }
  if (names_view_) {
    if (name.empty()) return kInvalidVertex;
    const std::string lower = ToLower(name);
    // name_order_ is sorted by (lower-cased name, id), so the first entry
    // whose lowered name equals the query is the lowest matching id —
    // identical to the owned map's first-insertion-wins semantics.
    auto it = std::lower_bound(name_order_.begin(), name_order_.end(), lower,
                               [this](VertexId v, const std::string& target) {
                                 return CompareLoweredTo(Name(v), target) < 0;
                               });
    if (it == name_order_.end() || CompareLoweredTo(Name(*it), lower) != 0) {
      return kInvalidVertex;
    }
    return *it;
  }
  if (name.empty() || name_slots_.empty()) return kInvalidVertex;
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t i = NameHash(name) & mask;; i = (i + 1) & mask) {
    const VertexId v = name_slots_[i];
    if (v == kInvalidVertex || EqualsIgnoreCase(names_[v], name)) return v;
  }
}

std::vector<std::string> AttributedGraph::KeywordStrings(VertexId v) const {
  std::vector<std::string> out;
  for (KeywordId kw : Keywords(v)) out.emplace_back(vocab_.Word(kw));
  return out;
}

VertexId AttributedGraphBuilder::AddVertex(
    std::string name, const std::vector<std::string>& keywords) {
  std::vector<KeywordId> ids;
  ids.reserve(keywords.size());
  for (const auto& w : keywords) ids.push_back(vocab_.Intern(w));
  return AddVertexWithIds(std::move(name), std::move(ids));
}

VertexId AttributedGraphBuilder::AddVertexWithIds(
    std::string name, std::vector<KeywordId> keywords) {
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  VertexId id = static_cast<VertexId>(names_.size());
  names_.push_back(std::move(name));
  keyword_data_.insert(keyword_data_.end(), keywords.begin(), keywords.end());
  keyword_offsets_.push_back(keyword_data_.size());
  return id;
}

void AttributedGraphBuilder::AddVertices(std::vector<std::string> names,
                                         std::vector<std::uint64_t> offsets,
                                         std::vector<KeywordId> keywords) {
  assert(names_.empty());
  assert(offsets.size() == names.size() + 1 && offsets.front() == 0);
  names_ = std::move(names);
  keyword_offsets_ = std::move(offsets);
  keyword_data_ = std::move(keywords);
}

Status AttributedGraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u >= names_.size() || v >= names_.size()) {
    return Status::InvalidArgument("edge endpoint does not exist");
  }
  edges_.AddEdge(u, v);
  return Status::Ok();
}

AttributedGraph AttributedGraphBuilder::Build() {
  AttributedGraph g;
  edges_.EnsureVertices(names_.size());
  g.graph_ = edges_.Build();
  g.vocab_ = std::move(vocab_);
  g.names_ = std::move(names_);
  g.keyword_offsets_ = std::move(keyword_offsets_);
  g.keyword_data_ = std::move(keyword_data_);

  const std::size_t n = g.names_.size();
  std::vector<std::uint64_t> keyword_fp(n);
  for (std::size_t v = 0; v < n; ++v) {
    keyword_fp[v] = simd::BloomFingerprint(g.Keywords(v));
  }
  g.keyword_fp_ = std::move(keyword_fp);
  // Name table at load factor <= 1/2; inserting in id order keeps the
  // first (lowest) id of each case-insensitively equal name.
  g.name_slots_.assign(std::bit_ceil(2 * n + 1), kInvalidVertex);
  const std::size_t mask = g.name_slots_.size() - 1;
  for (std::size_t v = 0; v < n; ++v) {
    const std::string& name = g.names_[v];
    if (name.empty()) continue;
    for (std::size_t i = NameHash(name) & mask;; i = (i + 1) & mask) {
      VertexId& slot = g.name_slots_[i];
      if (slot == kInvalidVertex) {
        slot = static_cast<VertexId>(v);
        break;
      }
      if (EqualsIgnoreCase(g.names_[slot], name)) break;
    }
  }

  vocab_ = Vocabulary();
  keyword_offsets_ = {0};
  keyword_data_.clear();
  return g;
}

}  // namespace cexplorer
