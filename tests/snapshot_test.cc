// Tests for the zero-copy persistence tier: snapshot round trips,
// byte-identical query results served from a mapped file, the heap
// fallback, and the corruption matrix (every tampering mode must fail
// closed with a structured UNAVAILABLE — never UB, never a partial
// dataset).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash64.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "explorer/dataset.h"
#include "graph/fixtures.h"
#include "server/server.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"

namespace cexplorer {
namespace {

using snapshot::SectionEntry;
using snapshot::SectionId;
using snapshot::SnapshotHeader;

/// Random attributed graph with names and keywords, dense enough to grow a
/// multi-level CL-tree.
AttributedGraph RandomAttributed(std::size_t n, std::size_t m,
                                 std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  AttributedGraphBuilder b;
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<KeywordId> kws;
    const std::size_t count = 1 + rng.UniformU32(4);
    for (std::size_t i = 0; i < count; ++i) {
      std::string word = "kw";
      word += std::to_string(rng.UniformU32(static_cast<std::uint32_t>(vocab)));
      kws.push_back(b.mutable_vocabulary()->Intern(word));
    }
    // No spaces: these names travel through request lines in query strings.
    std::string name = "author";
    name += std::to_string(v);
    b.AddVertexWithIds(std::move(name), std::move(kws));
  }
  for (std::size_t i = 0; i < m; ++i) {
    (void)b.AddEdge(rng.UniformU32(static_cast<std::uint32_t>(n)),
                    rng.UniformU32(static_cast<std::uint32_t>(n)));
  }
  return b.Build();
}

DatasetPtr BuildDataset(AttributedGraph graph) {
  auto built = Dataset::Build(std::move(graph));
  EXPECT_TRUE(built.ok());
  return built.value();
}

/// Full structural comparison of two datasets through the public read API:
/// graph topology, attributes, names (including lookup), core numbers, and
/// the CL-tree (structure + postings).
void ExpectDatasetsEquivalent(const Dataset& a, const Dataset& b) {
  const AttributedGraph& ga = a.graph();
  const AttributedGraph& gb = b.graph();
  ASSERT_EQ(ga.num_vertices(), gb.num_vertices());
  ASSERT_EQ(ga.graph().num_edges(), gb.graph().num_edges());
  ASSERT_EQ(ga.vocabulary().size(), gb.vocabulary().size());
  for (KeywordId kw = 0; kw < ga.vocabulary().size(); ++kw) {
    EXPECT_EQ(ga.vocabulary().Word(kw), gb.vocabulary().Word(kw));
    EXPECT_EQ(gb.vocabulary().Find(std::string(ga.vocabulary().Word(kw))),
              kw);
  }
  for (VertexId v = 0; v < ga.num_vertices(); ++v) {
    EXPECT_EQ(ga.Name(v), gb.Name(v));
    const auto na = ga.graph().Neighbors(v);
    const auto nb = gb.graph().Neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
    const auto ka = ga.Keywords(v);
    const auto kb = gb.Keywords(v);
    ASSERT_TRUE(std::equal(ka.begin(), ka.end(), kb.begin(), kb.end()));
  }
  // Case-insensitive name lookup must behave identically in view mode.
  for (VertexId v = 0; v < ga.num_vertices(); v += 7) {
    std::string upper(ga.Name(v));
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(gb.FindByName(upper), ga.FindByName(upper)) << upper;
  }
  EXPECT_EQ(gb.FindByName("no such author"), kInvalidVertex);
  EXPECT_EQ(gb.FindByName(""), kInvalidVertex);

  const auto ca = a.core_numbers();
  const auto cb = b.core_numbers();
  ASSERT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));

  const ClTree& ta = a.index();
  const ClTree& tb = b.index();
  ASSERT_EQ(ta.num_nodes(), tb.num_nodes());
  for (ClNodeId i = 0; i < ta.num_nodes(); ++i) {
    const ClTreeNode& x = ta.node(i);
    const ClTreeNode& y = tb.node(i);
    EXPECT_EQ(x.core, y.core);
    EXPECT_EQ(x.parent, y.parent);
    EXPECT_EQ(x.subtree_end, y.subtree_end);
    ASSERT_TRUE(std::equal(x.children.begin(), x.children.end(),
                           y.children.begin(), y.children.end()));
    ASSERT_TRUE(std::equal(x.vertices.begin(), x.vertices.end(),
                           y.vertices.begin(), y.vertices.end()));
    ASSERT_TRUE(std::equal(x.inv_keywords.begin(), x.inv_keywords.end(),
                           y.inv_keywords.begin(), y.inv_keywords.end()));
    // Postings agree keyword by keyword.
    for (KeywordId kw : x.inv_keywords) {
      const KeywordId kws[] = {kw};
      VertexList va, vb;
      ta.AppendNodeMatches(i, kws, simd::BloomFingerprint(kws), &va);
      tb.AppendNodeMatches(i, kws, simd::BloomFingerprint(kws), &vb);
      EXPECT_EQ(va, vb) << "node " << i << " kw " << kw;
    }
  }
  for (VertexId v = 0; v < ga.num_vertices(); ++v) {
    EXPECT_EQ(ta.NodeOf(v), tb.NodeOf(v));
    EXPECT_EQ(ta.CoreOf(v), tb.CoreOf(v));
  }
  for (ClNodeId i = 0; i < ta.num_nodes(); ++i) {
    EXPECT_EQ(ta.SubtreeSize(i), tb.SubtreeSize(i));
    EXPECT_EQ(ta.NodeKeywordBloom(i), tb.NodeKeywordBloom(i));
  }
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SnapshotTest, LoadedSnapshotIsEquivalent) {
  DatasetPtr original = BuildDataset(RandomAttributed(400, 1600, 40, 17));
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  auto loaded = Dataset::FromSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->storage().mode, "mmap");
  EXPECT_GT(loaded.value()->storage().file_bytes, 0u);
  ExpectDatasetsEquivalent(*original, *loaded.value());

  // A snapshot of the loaded (view-mode) dataset round-trips again —
  // saving does not depend on owned storage.
  const std::string path2 = TempPath("roundtrip_resave.snap");
  ASSERT_TRUE(loaded.value()->SaveSnapshot(path2).ok());
  auto reloaded = Dataset::FromSnapshotFile(path2);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectDatasetsEquivalent(*original, *reloaded.value());
}

TEST(SnapshotTest, HeapFallbackModeMatchesMmap) {
  DatasetPtr original = BuildDataset(Figure5Graph());
  const std::string path = TempPath("heap_fallback.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  ::setenv("CEXPLORER_SNAPSHOT_MMAP", "0", 1);
  auto heap = Dataset::FromSnapshotFile(path);
  ::unsetenv("CEXPLORER_SNAPSHOT_MMAP");
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_EQ(heap.value()->storage().mode, "heap");
  ExpectDatasetsEquivalent(*original, *heap.value());
}

TEST(SnapshotTest, EmptyGraphRoundTrips) {
  DatasetPtr original = BuildDataset(AttributedGraph());
  const std::string path = TempPath("empty.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  auto loaded = Dataset::FromSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->graph().num_vertices(), 0u);
  EXPECT_EQ(loaded.value()->index().num_nodes(), 0u);
}

// --------------------------------------------------------------------------
// Byte-identical query bodies: owned vs mapped
// --------------------------------------------------------------------------

std::vector<std::string> QuerySuite(const AttributedGraph& g) {
  // A representative mix: name search (ACQ with keywords), vertex search
  // (Global), exploration-shaped k sweep, and an author form.
  std::vector<std::string> queries;
  const VertexId q = 3 % g.num_vertices();
  const std::string name(g.Name(q));
  std::string kw(g.vocabulary().Word(g.Keywords(q)[0]));
  queries.push_back("GET /v1/search?vertex=" + std::to_string(q) +
                    "&k=2&algo=Global");
  queries.push_back("GET /v1/search?vertex=" + std::to_string(q) +
                    "&k=2&keywords=" + kw + "&algo=ACQ");
  queries.push_back("GET /v1/search?vertex=" + std::to_string(q) +
                    "&k=3&algo=Local");
  queries.push_back("GET /v1/community?id=0");
  queries.push_back("GET /v1/author?name=" + name);
  return queries;
}

TEST(SnapshotTest, SearchBodiesByteIdenticalAcrossStorage) {
  AttributedGraph graph = RandomAttributed(300, 1500, 30, 23);
  const std::string path = TempPath("bodies.snap");
  ASSERT_TRUE(BuildDataset(graph)->SaveSnapshot(path).ok());

  CExplorerServer owned;
  ASSERT_TRUE(owned.UploadGraph(graph).ok());
  const std::vector<std::string> queries = QuerySuite(graph);
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    HttpResponse r = owned.Handle(q);
    EXPECT_EQ(r.code, 200) << q << " -> " << r.body;
    expected.push_back(r.body);
  }

  CExplorerServer server;
  HttpResponse loaded = server.Handle("POST /v1/snapshot/load?path=" + path);
  ASSERT_EQ(loaded.code, 200) << loaded.body;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    HttpResponse r = server.Handle(queries[i]);
    EXPECT_EQ(r.code, 200) << queries[i];
    EXPECT_EQ(r.body, expected[i]) << queries[i];
  }
}

// --------------------------------------------------------------------------
// API surface
// --------------------------------------------------------------------------

TEST(SnapshotTest, ApiSaveLoadAndStats) {
  CExplorerServer saver;
  ASSERT_TRUE(saver.UploadGraph(Figure5Graph()).ok());
  const std::string path = TempPath("api_surface.snap");

  // POST-only on /v1: GET is a 405, POST without a path a 400.
  EXPECT_EQ(saver.Handle("GET /v1/snapshot/save?path=" + path).code, 405);
  EXPECT_EQ(saver.Handle("POST /v1/snapshot/save").code, 400);
  HttpResponse saved = saver.Handle("POST /v1/snapshot/save?path=" + path);
  ASSERT_EQ(saved.code, 200) << saved.body;

  CExplorerServer loader;
  EXPECT_EQ(loader.Handle("GET /v1/snapshot/load?path=" + path).code, 405);
  HttpResponse loaded = loader.Handle("POST /v1/snapshot/load?path=" + path);
  ASSERT_EQ(loaded.code, 200) << loaded.body;
  EXPECT_NE(loaded.body.find("\"storage\":\"mmap\""), std::string::npos)
      << loaded.body;

  HttpResponse stats = loader.Handle("GET /v1/stats");
  ASSERT_EQ(stats.code, 200);
  EXPECT_NE(stats.body.find("\"mode\":\"mmap\""), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"file_bytes\":"), std::string::npos);
  EXPECT_NE(stats.body.find("\"checksum\":"), std::string::npos);

  // The owned-mode server reports mode "owned" with no file identity.
  HttpResponse owned_stats = saver.Handle("GET /v1/stats");
  EXPECT_NE(owned_stats.body.find("\"mode\":\"owned\""), std::string::npos)
      << owned_stats.body;

  // A loaded snapshot serves queries immediately.
  EXPECT_EQ(loader.Handle("GET /v1/search?name=A&k=2&algo=Global").code, 200);
}

TEST(SnapshotTest, SaveUnderMutationOverlayCompactsFirst) {
  // Regression: saving while a mutation overlay is pending must never
  // silently drop the mutations — the save folds the overlay into an owned
  // dataset first, and the written snapshot round-trips the mutated graph.
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
  HttpResponse mutated =
      server.Handle("POST /v1/edges\n\n{\"edges\": [[8, 9], [7, 9]]}");
  ASSERT_EQ(mutated.code, 200) << mutated.body;
  ASSERT_TRUE(server.dataset()->is_overlay());

  const std::string path = TempPath("overlay_save.snap");
  HttpResponse saved = server.Handle("POST /v1/snapshot/save?path=" + path);
  ASSERT_EQ(saved.code, 200) << saved.body;
  // The save compacted: the served dataset is owned now.
  EXPECT_FALSE(server.dataset()->is_overlay());

  CExplorerServer loader;
  HttpResponse loaded = loader.Handle("POST /v1/snapshot/load?path=" + path);
  ASSERT_EQ(loaded.code, 200) << loaded.body;
  const Graph& g = loader.dataset()->graph().graph();
  EXPECT_TRUE(g.HasEdge(8, 9));
  EXPECT_TRUE(g.HasEdge(7, 9));
}

TEST(SnapshotTest, ApiErrorPathsWithoutGraphOrFile) {
  // Nothing served yet: there is no dataset to save.
  CExplorerServer empty;
  HttpResponse no_graph =
      empty.Handle("POST /v1/snapshot/save?path=" + TempPath("none.snap"));
  EXPECT_EQ(no_graph.code, 409) << no_graph.body;
  EXPECT_NE(no_graph.body.find("CONFLICT"), std::string::npos)
      << no_graph.body;
  EXPECT_EQ(empty.Handle("POST /v1/snapshot/load").code, 400);

  // Unwritable and unreadable paths fail without touching the served graph.
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
  HttpResponse unwritable = server.Handle(
      "POST /v1/snapshot/save?path=%2Fnonexistent_dir%2Fx.snap");
  EXPECT_EQ(unwritable.code, 400) << unwritable.body;
  HttpResponse unreadable = server.Handle(
      "POST /v1/snapshot/load?path=%2Fnonexistent_dir%2Fx.snap");
  EXPECT_EQ(unreadable.code, 503) << unreadable.body;
  EXPECT_EQ(server.Handle("GET /v1/search?name=A&k=2&algo=Global").code, 200);
}

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// `bytes` with the u32 header field at `offset` set to `value` (the
/// header is outside every checksum, so nothing else needs fixing up).
std::vector<std::uint8_t> WithHeaderField(std::vector<std::uint8_t> bytes,
                                          std::size_t offset,
                                          std::uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

TEST(SnapshotTest, CorruptLoadThroughApiIs503AndKeepsOldDataset) {
  const std::string junk = TempPath("junk.snap");
  std::ofstream(junk, std::ios::trunc) << "this is not a snapshot file";
  // A well-formed file in a posting format this build does not read.
  const std::string other_format = TempPath("posting_encoding_1.snap");
  ASSERT_TRUE(BuildDataset(Figure5Graph())->SaveSnapshot(other_format).ok());
  WriteFile(other_format,
            WithHeaderField(ReadFile(other_format),
                            offsetof(SnapshotHeader, posting_encoding), 1));

  for (const std::string& path : {junk, other_format}) {
    CExplorerServer server;
    ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
    const std::uint64_t served = server.dataset()->id();
    HttpResponse r = server.Handle("POST /v1/snapshot/load?path=" + path);
    EXPECT_EQ(r.code, 503) << path << ": " << r.body;
    EXPECT_NE(r.body.find("UNAVAILABLE"), std::string::npos) << r.body;
    // The previously served dataset is untouched.
    EXPECT_EQ(server.dataset()->id(), served) << path;
    EXPECT_EQ(server.Handle("GET /v1/search?name=A&k=2&algo=Global").code,
              200);
  }
}

// --------------------------------------------------------------------------
// Corruption matrix
// --------------------------------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetPtr dataset = BuildDataset(RandomAttributed(120, 500, 16, 5));
    good_path_ = TempPath("corruption_base.snap");
    ASSERT_TRUE(dataset->SaveSnapshot(good_path_).ok());
    good_ = ReadFile(good_path_);
    ASSERT_GT(good_.size(), sizeof(SnapshotHeader));
  }

  /// Writes `bytes` to a scratch file and expects a clean kUnavailable
  /// (whose message contains `reason`, when given).
  void ExpectRejected(const std::vector<std::uint8_t>& bytes,
                      const std::string& what,
                      const std::string& reason = "") {
    const std::string path = TempPath("corruption_case.snap");
    WriteFile(path, bytes);
    auto loaded = Dataset::FromSnapshotFile(path);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable)
        << what << ": " << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(reason), std::string::npos)
        << what << ": " << loaded.status().ToString();
  }

  SectionEntry TocEntry(std::size_t index) const {
    SectionEntry entry;
    std::memcpy(&entry,
                good_.data() + sizeof(SnapshotHeader) +
                    index * sizeof(SectionEntry),
                sizeof(entry));
    return entry;
  }

  /// Writes `entry` over TOC slot `index` of `bytes` with a recomputed
  /// payload checksum, then recomputes the TOC checksum: the tampering
  /// passes every integrity check and only structural validation is left.
  static void RewriteTocEntry(std::vector<std::uint8_t>* bytes,
                              std::size_t index, SectionEntry entry) {
    entry.checksum = Hash64(bytes->data() + entry.offset, entry.length);
    std::memcpy(bytes->data() + sizeof(SnapshotHeader) +
                    index * sizeof(SectionEntry),
                &entry, sizeof(entry));
    const std::size_t toc_bytes =
        snapshot::kSectionCount * sizeof(SectionEntry);
    const std::uint64_t toc_checksum =
        Hash64(bytes->data() + sizeof(SnapshotHeader), toc_bytes);
    std::memcpy(bytes->data() + offsetof(SnapshotHeader, toc_checksum),
                &toc_checksum, sizeof(toc_checksum));
  }

  std::string good_path_;
  std::vector<std::uint8_t> good_;
};

TEST_F(CorruptionTest, MissingFile) {
  auto loaded = Dataset::FromSnapshotFile(TempPath("does_not_exist.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
}

TEST_F(CorruptionTest, EmptyAndTinyFiles) {
  ExpectRejected({}, "empty file");
  ExpectRejected({'C', 'E', 'X'}, "3-byte file");
  ExpectRejected(std::vector<std::uint8_t>(64, 0), "zeroed header");
}

TEST_F(CorruptionTest, WrongMagic) {
  auto bytes = good_;
  bytes[0] ^= 0xFF;
  ExpectRejected(bytes, "flipped magic");
}

TEST_F(CorruptionTest, UnsupportedVersion) {
  auto bytes = good_;
  bytes[8] = 99;  // SnapshotHeader::version
  ExpectRejected(bytes, "future format version");
}

TEST_F(CorruptionTest, NonZeroHeaderFields) {
  // No checksum covers the header, so every field that must be zero is
  // checked on its own.
  ExpectRejected(
      WithHeaderField(good_, offsetof(SnapshotHeader, posting_encoding), 1),
      "posting_encoding 1", "unsupported posting encoding 1");
  ExpectRejected(WithHeaderField(good_, offsetof(SnapshotHeader, flags), 1),
                 "flags 1", "non-zero header flags");
  for (std::size_t word = 0; word < 3; ++word) {
    for (std::size_t half = 0; half < 2; ++half) {
      ExpectRejected(
          WithHeaderField(good_,
                          offsetof(SnapshotHeader, reserved) + word * 8 +
                              half * 4,
                          0x80),
          "reserved word " + std::to_string(word),
          "non-zero reserved header word");
    }
  }
}

TEST_F(CorruptionTest, NonEmptyReservedSectionsWithFixedChecksums) {
  // Sections 22 and 23 once held compressed postings; a file that fills
  // them is rejected even when every checksum is consistent.
  for (SectionId id : {SectionId::kTreeCompArena, SectionId::kTreeCompOffsets}) {
    const std::size_t index = static_cast<std::size_t>(id) - 1;
    SectionEntry entry = TocEntry(index);
    ASSERT_EQ(entry.length, 0u);
    entry.length = 4;  // the next section's first bytes: in bounds
    ASSERT_LE(entry.offset + entry.length, good_.size());
    auto bytes = good_;
    RewriteTocEntry(&bytes, index, entry);
    ExpectRejected(bytes, "section id " + std::to_string(entry.id),
                   "reserved posting sections not empty");
  }
}

TEST_F(CorruptionTest, TruncationAtEveryRegion) {
  for (std::size_t keep :
       {sizeof(SnapshotHeader) + 1, good_.size() / 4, good_.size() / 2,
        good_.size() - sizeof(snapshot::SnapshotFooter), good_.size() - 1}) {
    std::vector<std::uint8_t> bytes(good_.begin(),
                                    good_.begin() +
                                        static_cast<std::ptrdiff_t>(keep));
    ExpectRejected(bytes, "truncated to " + std::to_string(keep));
  }
}

TEST_F(CorruptionTest, FlippedTocByte) {
  auto bytes = good_;
  bytes[sizeof(SnapshotHeader) + 13] ^= 0x40;
  ExpectRejected(bytes, "flipped TOC byte");
}

TEST_F(CorruptionTest, FlippedFooterByte) {
  auto bytes = good_;
  bytes[bytes.size() - 3] ^= 0x01;
  ExpectRejected(bytes, "flipped footer byte");
}

TEST_F(CorruptionTest, FlippedByteInEverySection) {
  // One flipped bit anywhere in any payload must be caught by that
  // section's checksum (empty sections are skipped: no payload to flip).
  for (std::size_t i = 0; i < snapshot::kSectionCount; ++i) {
    const SectionEntry entry = TocEntry(i);
    if (entry.length == 0) continue;
    auto bytes = good_;
    bytes[entry.offset + entry.length / 2] ^= 0x10;
    ExpectRejected(bytes, "flipped byte in section id " +
                              std::to_string(entry.id));
  }
}

TEST_F(CorruptionTest, StructuralTamperingWithFixedChecksums) {
  // An attacker (or bug) that keeps every checksum consistent still cannot
  // smuggle structurally-invalid arrays past the loader: re-point a
  // vertex->node entry out of range and recompute both checksums.
  auto bytes = good_;
  const std::size_t vn_index =
      static_cast<std::size_t>(SectionId::kTreeVertexNode) - 1;
  const SectionEntry entry = TocEntry(vn_index);
  ASSERT_GT(entry.length, 0u);
  const std::uint32_t bogus = 0x7FFFFFFF;
  std::memcpy(bytes.data() + entry.offset, &bogus, sizeof(bogus));
  RewriteTocEntry(&bytes, vn_index, entry);
  ExpectRejected(bytes, "out-of-range vertex_node with valid checksums");
}

}  // namespace
}  // namespace cexplorer
