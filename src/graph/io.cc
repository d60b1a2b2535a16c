#include "graph/io.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_set>

#include "common/strings.h"

namespace cexplorer {

namespace {

Result<std::string> ReadFile(const std::string& path) {
  // One read into a buffer sized from the file up front: no stream copy.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return Status::IoError("cannot open " + path);
  std::string text(static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uintmax_t>(in.gcount()) != size) {
    return Status::IoError("short read from " + path);
  }
  return text;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << content;
  if (!out) return Status::IoError("short write to " + path);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Line scanner shared by both formats.
//
// The text is cut into newline-aligned chunks whose boundaries depend only
// on its size, and each chunk is scanned on the pool into its own records.
// A chunk stops at its first bad line, so the first error in file order is
// the first failed chunk's error; its line number is counted only then.
// ---------------------------------------------------------------------------

constexpr std::size_t kMinChunkBytes = std::size_t{64} << 10;
constexpr std::size_t kMaxChunks = 16;

/// ASCII whitespace as the C locale's isspace() defines it.
constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The first bad line of a chunk: its byte offset and the message that
/// follows "<format> line N: ".
struct LineError {
  std::size_t offset = std::string::npos;
  std::string message;

  bool failed() const { return offset != std::string::npos; }
};

/// Newline-aligned chunk starts for `text`, plus text.size() as the end.
std::vector<std::size_t> ChunkBounds(std::string_view text) {
  const std::size_t bytes = std::max(
      kMinChunkBytes, (text.size() + kMaxChunks - 1) / kMaxChunks);
  std::vector<std::size_t> bounds{0};
  for (std::size_t at = bytes; at < text.size(); at += bytes) {
    const char* nl = static_cast<const char*>(
        std::memchr(text.data() + at - 1, '\n', text.size() - (at - 1)));
    if (nl == nullptr) break;
    const std::size_t start = static_cast<std::size_t>(nl - text.data()) + 1;
    if (start > bounds.back() && start < text.size()) bounds.push_back(start);
  }
  bounds.push_back(text.size());
  return bounds;
}

/// Calls fn(offset, line) for each trimmed line of text[begin, end) that is
/// neither blank nor a '#' comment; `offset` is where the raw line starts.
/// Stops when fn returns false.
template <typename Fn>
void ForEachLine(std::string_view text, std::size_t begin, std::size_t end,
                 Fn&& fn) {
  while (begin < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(text.data() + begin, '\n', end - begin));
    const std::size_t stop =
        nl == nullptr ? end : static_cast<std::size_t>(nl - text.data());
    const std::string_view line = Trim(text.substr(begin, stop - begin));
    if (!line.empty() && line[0] != '#' && !fn(begin, line)) return;
    begin = stop + 1;
  }
}

/// Calls fn(word) for each run of non-whitespace in `text`.
template <typename Fn>
void ForEachWord(std::string_view text, Fn&& fn) {
  std::size_t i = 0;
  while (i < text.size()) {
    if (IsSpace(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && !IsSpace(text[j])) ++j;
    fn(text.substr(i, j - i));
    i = j;
  }
}

/// 1-based number of the line starting at byte `offset`.
std::size_t LineNumber(std::string_view text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

/// The ParseError for `error`: "<format> line N: <message>".
Status LineStatus(std::string_view text, std::string_view format,
                  const LineError& error) {
  return Status::ParseError(std::string(format) + " line " +
                            std::to_string(LineNumber(text, error.offset)) +
                            ": " + error.message);
}

/// The error of the earliest chunk that failed, or nullptr.
template <typename Chunk>
const LineError* FirstFailed(const std::vector<Chunk>& chunks) {
  for (const Chunk& chunk : chunks) {
    if (chunk.error.failed()) return &chunk.error;
  }
  return nullptr;
}

/// Parses a vertex id: a base-10 integer in [0, kInvalidVertex).
bool ParseVertexId(std::string_view field, VertexId* out) {
  std::int64_t value = 0;
  if (!ParseInt64(field, &value) || value < 0 || value >= kInvalidVertex) {
    return false;
  }
  *out = static_cast<VertexId>(value);
  return true;
}

/// Splits `line` on tabs into `fields` (at most fields.size() of them) and
/// returns the total field count, capped at fields.size() + 1.
std::size_t SplitTabs(std::string_view line,
                      std::span<std::string_view> fields) {
  std::size_t count = 0;
  while (true) {
    const std::size_t tab = line.find('\t');
    if (count == fields.size()) return count + 1;
    fields[count++] = line.substr(0, tab);
    if (tab == std::string_view::npos) return count;
    line.remove_prefix(tab + 1);
  }
}

// ---------------------------------------------------------------------------
// Attributed format.
// ---------------------------------------------------------------------------

/// Keyword dictionary over views into the text: ids count up from 0 in
/// insertion order. Open addressing with linear probing over (hash, id)
/// slots, kept at most half full.
class WordTable {
 public:
  /// The id of `word`, adding it under the next id if new.
  std::uint32_t Intern(std::string_view word) {
    if (2 * (words_.size() + 1) > slots_.size()) Grow();
    const std::uint64_t hash = std::hash<std::string_view>{}(word);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == kEmpty) {
        slot = {hash, static_cast<std::uint32_t>(words_.size())};
        words_.push_back(word);
        return slot.id;
      }
      if (slot.hash == hash && words_[slot.id] == word) return slot.id;
    }
  }

  /// Words by id.
  const std::vector<std::string_view>& words() const { return words_; }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kEmpty;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kEmpty) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].id != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::string_view> words_;
};

/// What one chunk of an attributed document holds.
struct AttributedChunk {
  struct Vertex {
    VertexId id;
    std::uint32_t num_keywords;
    std::size_t first_keyword;  // into `keywords`
    std::size_t offset;         // where the line starts, for errors
    std::string_view name;
  };
  std::vector<Vertex> vertices;
  std::vector<std::uint32_t> keywords;  // ids into `words`, in line order
  WordTable words;                      // chunk-local dictionary
  std::vector<KeywordId> to_vocabulary;  // words id -> final keyword id
  std::vector<std::pair<VertexId, VertexId>> edges;
  LineError error;
};

void ScanAttributedChunk(std::string_view text, std::size_t begin,
                         std::size_t end, AttributedChunk* chunk) {
  ForEachLine(text, begin, end, [&](std::size_t offset,
                                    std::string_view line) {
    std::string_view fields[4];
    const std::size_t count = SplitTabs(line, fields);
    auto fail = [&](std::string message) {
      chunk->error = {offset, std::move(message)};
      return false;
    };
    if (fields[0] == "v") {
      if (count < 3 || count > 4) {
        return fail("expected 'v<TAB>id<TAB>name[<TAB>keywords]'");
      }
      AttributedChunk::Vertex vertex{};
      if (!ParseVertexId(fields[1], &vertex.id)) {
        return fail("invalid vertex id");
      }
      vertex.offset = offset;
      vertex.name = fields[2];
      vertex.first_keyword = chunk->keywords.size();
      if (count == 4) {
        ForEachWord(fields[3], [chunk](std::string_view word) {
          chunk->keywords.push_back(chunk->words.Intern(word));
        });
      }
      vertex.num_keywords = static_cast<std::uint32_t>(
          chunk->keywords.size() - vertex.first_keyword);
      chunk->vertices.push_back(vertex);
    } else if (fields[0] == "e") {
      if (count != 3) return fail("expected 'e<TAB>u<TAB>v'");
      VertexId u = 0;
      VertexId v = 0;
      if (!ParseVertexId(fields[1], &u) || !ParseVertexId(fields[2], &v)) {
        return fail("invalid edge endpoint");
      }
      chunk->edges.emplace_back(u, v);
    } else {
      return fail("unknown record type '" + std::string(fields[0]) + "'");
    }
    return true;
  });
}

}  // namespace

Result<Graph> ParseEdgeList(const std::string& text) {
  struct Chunk {
    std::vector<std::pair<VertexId, VertexId>> edges;
    LineError error;
  };
  const std::vector<std::size_t> bounds = ChunkBounds(text);
  std::vector<Chunk> chunks(bounds.size() - 1);
  ParallelFor(0, chunks.size(), DefaultPool(), [&](std::size_t c) {
    Chunk& chunk = chunks[c];
    ForEachLine(text, bounds[c], bounds[c + 1], [&](std::size_t offset,
                                                    std::string_view line) {
      std::string_view ids[2];
      std::size_t count = 0;
      ForEachWord(line, [&](std::string_view word) {
        if (count < 2) ids[count] = word;
        ++count;
      });
      if (count != 2) {
        chunk.error = {offset, "expected 'u v'"};
        return false;
      }
      VertexId u = 0;
      VertexId v = 0;
      if (!ParseVertexId(ids[0], &u) || !ParseVertexId(ids[1], &v)) {
        chunk.error = {offset, "invalid vertex id"};
        return false;
      }
      chunk.edges.emplace_back(u, v);
      return true;
    });
  });
  if (const LineError* error = FirstFailed(chunks)) {
    return LineStatus(text, "edge list", *error);
  }

  GraphBuilder builder;
  for (const Chunk& chunk : chunks) {
    for (const auto& [u, v] : chunk.edges) builder.AddEdge(u, v);
  }
  return builder.Build();
}

Result<Graph> LoadEdgeList(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseEdgeList(text.value());
}

std::string ToEdgeList(const Graph& g) {
  std::string out;
  out += "# vertices " + std::to_string(g.num_vertices()) + " edges " +
         std::to_string(g.num_edges()) + "\n";
  for (const auto& [u, v] : g.Edges()) {
    out += std::to_string(u);
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  }
  return out;
}

Status SaveEdgeList(const Graph& g, const std::string& path) {
  return WriteFile(path, ToEdgeList(g));
}

Result<AttributedGraph> ParseAttributed(const std::string& text) {
  return ParseAttributed(text, DefaultPool());
}

Result<AttributedGraph> ParseAttributed(std::string_view text,
                                        ThreadPool* pool) {
  const std::vector<std::size_t> bounds = ChunkBounds(text);
  std::vector<AttributedChunk> chunks(bounds.size() - 1);
  ParallelFor(0, chunks.size(), pool, [&](std::size_t c) {
    ScanAttributedChunk(text, bounds[c], bounds[c + 1], &chunks[c]);
  });

  // Lines after the first bad one never count, so only vertex lines before
  // it take part in the duplicate check below.
  const LineError* first_error = FirstFailed(chunks);
  const std::size_t limit =
      first_error == nullptr ? std::string::npos : first_error->offset;

  // Place each vertex record at its id, in file order. Storage is sized by
  // the number of 'v' lines, never by an id: dense ids all fall below
  // that count, and the few that do not only need a duplicate check.
  struct Placed {
    AttributedChunk* chunk = nullptr;
    const AttributedChunk::Vertex* vertex = nullptr;
  };
  std::size_t n = 0;
  for (const AttributedChunk& chunk : chunks) n += chunk.vertices.size();
  std::vector<Placed> placed(n);
  std::unordered_set<VertexId> beyond;
  for (AttributedChunk& chunk : chunks) {
    for (const AttributedChunk::Vertex& vertex : chunk.vertices) {
      if (vertex.offset >= limit) break;
      const bool duplicate = vertex.id < n
                                 ? placed[vertex.id].vertex != nullptr
                                 : !beyond.insert(vertex.id).second;
      if (duplicate) {
        return LineStatus(text, "attributed",
                          {vertex.offset, "duplicate vertex id"});
      }
      if (vertex.id < n) placed[vertex.id] = {&chunk, &vertex};
    }
  }
  if (first_error != nullptr) {
    return LineStatus(text, "attributed", *first_error);
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (placed[v].vertex == nullptr) {
      return Status::ParseError("vertex id " + std::to_string(v) +
                                " never declared (ids must be dense)");
    }
  }

  // Intern keywords in first-occurrence order by vertex id, so ids match
  // what interning the vertices one by one, in id order, would give. Each
  // chunk-local word is looked up globally once.
  WordTable vocabulary;
  for (AttributedChunk& chunk : chunks) {
    chunk.to_vocabulary.assign(chunk.words.words().size(), kInvalidKeyword);
  }
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + placed[v].vertex->num_keywords;
  }
  std::vector<KeywordId> ids(offsets[n]);
  for (std::size_t v = 0; v < n; ++v) {
    AttributedChunk& chunk = *placed[v].chunk;
    const AttributedChunk::Vertex& vertex = *placed[v].vertex;
    KeywordId* out = ids.data() + offsets[v];
    for (std::uint32_t k = 0; k < vertex.num_keywords; ++k) {
      const std::uint32_t local = chunk.keywords[vertex.first_keyword + k];
      KeywordId& id = chunk.to_vocabulary[local];
      if (id == kInvalidKeyword) {
        id = vocabulary.Intern(chunk.words.words()[local]);
      }
      out[k] = id;
    }
  }

  // Per-vertex sort + dedup on the pool, then compact into the CSR.
  std::vector<std::string> names(n);
  std::vector<std::uint32_t> distinct(n);
  ParallelFor(
      0, n, pool,
      [&](std::size_t v) {
        names[v] = placed[v].vertex->name;
        auto first = ids.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
        auto last = ids.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
        std::sort(first, last);
        distinct[v] =
            static_cast<std::uint32_t>(std::unique(first, last) - first);
      },
      /*grain=*/1024);
  std::uint64_t write = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t read = offsets[v];
    std::copy_n(ids.begin() + static_cast<std::ptrdiff_t>(read), distinct[v],
                ids.begin() + static_cast<std::ptrdiff_t>(write));
    offsets[v] = write;
    write += distinct[v];
  }
  offsets[n] = write;
  ids.resize(write);

  AttributedGraphBuilder builder;
  for (std::string_view word : vocabulary.words()) {
    builder.mutable_vocabulary()->Intern(word);
  }
  builder.AddVertices(std::move(names), std::move(offsets), std::move(ids));
  for (const AttributedChunk& chunk : chunks) {
    for (const auto& [u, v] : chunk.edges) {
      CEXPLORER_RETURN_IF_ERROR(builder.AddEdge(u, v));
    }
  }
  return builder.Build();
}

Result<AttributedGraph> LoadAttributed(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseAttributed(text.value());
}

std::string ToAttributedText(const AttributedGraph& g) {
  std::string out;
  out += "# attributed graph: " + std::to_string(g.num_vertices()) +
         " vertices, " + std::to_string(g.graph().num_edges()) + " edges\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out += "v\t";
    out += std::to_string(v);
    out += '\t';
    out += g.Name(v);
    auto kws = g.KeywordStrings(v);
    if (!kws.empty()) {
      out += '\t';
      out += Join(kws, " ");
    }
    out += '\n';
  }
  for (const auto& [u, v] : g.graph().Edges()) {
    out += "e\t";
    out += std::to_string(u);
    out += '\t';
    out += std::to_string(v);
    out += '\n';
  }
  return out;
}

Status SaveAttributed(const AttributedGraph& g, const std::string& path) {
  return WriteFile(path, ToAttributedText(g));
}

}  // namespace cexplorer
