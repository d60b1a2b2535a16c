// Unit tests for the graph substrate: CSR construction, attributed graphs,
// traversal, subgraph induction, I/O formats, fixtures.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graph/attributed_graph.h"
#include "graph/fixtures.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"

namespace cexplorer {
namespace {

Graph Triangle() {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  return b.Build();
}

// --------------------------------------------------------------------------
// Graph / GraphBuilder
// --------------------------------------------------------------------------

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.AverageDegree(), 0.0);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(GraphBuilderTest, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate, reversed
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(2, 2);  // self loop
  b.AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
}

TEST(GraphBuilderTest, EnsureVerticesCreatesIsolated) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.EnsureVertices(5);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.Degree(4), 0u);
}

TEST(GraphTest, NeighborsSortedAscending) {
  GraphBuilder b;
  b.AddEdge(3, 1);
  b.AddEdge(3, 0);
  b.AddEdge(3, 2);
  Graph g = b.Build();
  auto nbrs = g.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphTest, HasEdgeBothDirections) {
  Graph g = Triangle();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_FALSE(g.HasEdge(0, 99));
}

TEST(GraphTest, EdgesReturnsCanonicalPairs) {
  Graph g = Triangle();
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(GraphTest, DegreeStatistics) {
  Graph g = Triangle();
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
  EXPECT_EQ(g.MaxDegree(), 2u);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(GraphTest, LargeRandomGraphDegreeSum) {
  Rng rng(99);
  GraphBuilder b(2000);
  for (int i = 0; i < 6000; ++i) {
    b.AddEdge(rng.UniformU32(2000), rng.UniformU32(2000));
  }
  Graph g = b.Build();
  std::size_t degree_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) degree_sum += g.Degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

// --------------------------------------------------------------------------
// AttributedGraph
// --------------------------------------------------------------------------

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary vocab;
  KeywordId a = vocab.Intern("data");
  KeywordId b = vocab.Intern("system");
  EXPECT_NE(a, b);
  EXPECT_EQ(vocab.Intern("data"), a);
  EXPECT_EQ(vocab.size(), 2u);
  EXPECT_EQ(vocab.Word(a), "data");
  EXPECT_EQ(vocab.Find("system"), b);
  EXPECT_EQ(vocab.Find("nope"), kInvalidKeyword);
}

TEST(AttributedGraphTest, KeywordsSortedAndDeduped) {
  AttributedGraphBuilder b;
  VertexId v = b.AddVertex("alice", {"z", "a", "z", "m"});
  AttributedGraph g = b.Build();
  auto kws = g.Keywords(v);
  EXPECT_EQ(kws.size(), 3u);
  EXPECT_TRUE(std::is_sorted(kws.begin(), kws.end()));
}

TEST(AttributedGraphTest, HasKeywordAndHasAll) {
  AttributedGraphBuilder b;
  VertexId v = b.AddVertex("alice", {"x", "y", "z"});
  b.AddVertex("bob", {"x"});
  AttributedGraph g = b.Build();
  KeywordId x = g.vocabulary().Find("x");
  KeywordId y = g.vocabulary().Find("y");
  KeywordId z = g.vocabulary().Find("z");
  EXPECT_TRUE(g.HasKeyword(v, x));
  KeywordList xy{x, y};
  std::sort(xy.begin(), xy.end());
  EXPECT_TRUE(g.HasAllKeywords(v, xy));
  KeywordList xyz{x, y, z};
  std::sort(xyz.begin(), xyz.end());
  EXPECT_TRUE(g.HasAllKeywords(v, xyz));
  EXPECT_FALSE(g.HasAllKeywords(1, xy));
}

TEST(AttributedGraphTest, FindByNameCaseInsensitive) {
  AttributedGraphBuilder b;
  b.AddVertex("Jim Gray", {"data"});
  b.AddVertex("Michael Stonebraker", {"system"});
  AttributedGraph g = b.Build();
  EXPECT_EQ(g.FindByName("jim gray"), 0u);
  EXPECT_EQ(g.FindByName("JIM GRAY"), 0u);
  EXPECT_EQ(g.FindByName("michael stonebraker"), 1u);
  EXPECT_EQ(g.FindByName("nobody"), kInvalidVertex);
}

TEST(AttributedGraphTest, EdgeValidation) {
  AttributedGraphBuilder b;
  b.AddVertex("a", {});
  b.AddVertex("b", {});
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_FALSE(b.AddEdge(0, 5).ok());
}

TEST(AttributedGraphTest, KeywordStringsRoundTrip) {
  AttributedGraphBuilder b;
  VertexId v = b.AddVertex("a", {"data", "web"});
  AttributedGraph g = b.Build();
  auto strings = g.KeywordStrings(v);
  std::sort(strings.begin(), strings.end());
  EXPECT_EQ(strings, (std::vector<std::string>{"data", "web"}));
}

// --------------------------------------------------------------------------
// Traversal
// --------------------------------------------------------------------------

TEST(TraversalTest, ConnectedComponentsOfDisconnectedGraph) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  Graph g = b.Build();  // component {0,1,2}, {3,4}, {5}
  auto cc = ConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 3u);
  EXPECT_EQ(cc.label[0], cc.label[1]);
  EXPECT_EQ(cc.label[1], cc.label[2]);
  EXPECT_EQ(cc.label[3], cc.label[4]);
  EXPECT_NE(cc.label[0], cc.label[3]);
  EXPECT_NE(cc.label[0], cc.label[5]);
  EXPECT_EQ(cc.LargestComponentSize(), 3u);
  EXPECT_EQ(cc.ComponentVertices(cc.label[3]), (VertexList{3, 4}));
}

TEST(TraversalTest, ReachableFromRespectsComponents) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  EXPECT_EQ(ReachableFrom(g, 0), (VertexList{0, 1}));
  EXPECT_EQ(ReachableFrom(g, 3), (VertexList{2, 3}));
  EXPECT_EQ(ReachableFrom(g, 4), (VertexList{4}));
}

TEST(TraversalTest, ReachableWithinFiltersVertices) {
  // Path 0-1-2-3; block vertex 1.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  Bitset allowed(4);
  allowed.Set(0);
  allowed.Set(2);
  allowed.Set(3);
  EXPECT_EQ(ReachableWithin(g, 0, allowed), (VertexList{0}));
  EXPECT_EQ(ReachableWithin(g, 2, allowed), (VertexList{2, 3}));
  // Source not allowed -> empty.
  Bitset none(4);
  EXPECT_TRUE(ReachableWithin(g, 0, none).empty());
}

TEST(TraversalTest, BfsDistances) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], std::numeric_limits<std::uint32_t>::max());
}

TEST(TraversalTest, DoubleSweepFindsPathDiameter) {
  GraphBuilder b;
  for (VertexId v = 0; v + 1 < 10; ++v) b.AddEdge(v, v + 1);
  Graph g = b.Build();
  EXPECT_EQ(DoubleSweepDiameter(g, 5), 9u);
}

// --------------------------------------------------------------------------
// Subgraph
// --------------------------------------------------------------------------

TEST(SubgraphTest, InducedSubgraphKeepsInternalEdges) {
  Graph g = KarateClub();
  VertexList members{0, 1, 2, 3};
  Subgraph sub = InducedSubgraph(g, members);
  EXPECT_EQ(sub.num_vertices(), 4u);
  // 0-1,0-2,0-3,1-2,1-3,2-3 all exist in karate.
  EXPECT_EQ(sub.graph.num_edges(), 6u);
  EXPECT_EQ(sub.ToLocal(0), 0u);
  EXPECT_EQ(sub.ToLocal(3), 3u);
  EXPECT_EQ(sub.ToLocal(10), kInvalidVertex);
}

TEST(SubgraphTest, HandlesUnsortedDuplicates) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {2, 0, 2});
  EXPECT_EQ(sub.num_vertices(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
  EXPECT_EQ(sub.to_parent, (VertexList{0, 2}));
}

TEST(SubgraphTest, CountInducedEdgesMatchesMaterialized) {
  Graph g = KarateClub();
  VertexList members{0, 1, 2, 3, 7, 13, 33};
  EXPECT_EQ(CountInducedEdges(g, members),
            InducedSubgraph(g, members).graph.num_edges());
}

TEST(SubgraphTest, InducedDegreesMatchSubgraph) {
  Graph g = KarateClub();
  VertexList members{0, 1, 2, 3, 7};
  auto degrees = InducedDegrees(g, &members);
  Subgraph sub = InducedSubgraph(g, members);
  ASSERT_EQ(degrees.size(), sub.num_vertices());
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    EXPECT_EQ(degrees[i], sub.graph.Degree(static_cast<VertexId>(i)));
  }
}

// --------------------------------------------------------------------------
// IO
// --------------------------------------------------------------------------

TEST(IoTest, EdgeListParseBasics) {
  auto g = ParseEdgeList("# comment\n0 1\n1 2\n\n2 0\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
}

/// A document the parser must reject, the status code and exact message.
struct BadDocument {
  std::string text;
  StatusCode code;
  std::string message;
};

TEST(IoTest, EdgeListRejectsBadLinesWithExactMessages) {
  const std::vector<BadDocument> cases = {
      {"0 1 2\n", StatusCode::kParseError, "edge list line 1: expected 'u v'"},
      {"0\n", StatusCode::kParseError, "edge list line 1: expected 'u v'"},
      {"a b\n", StatusCode::kParseError, "edge list line 1: invalid vertex id"},
      {"-1 2\n", StatusCode::kParseError,
       "edge list line 1: invalid vertex id"},
      // Ids at or above 2^32 - 1 are rejected, not truncated (this one
      // would otherwise wrap to the self-loop 0-0 and vanish).
      {"0 4294967296\n1 2\n", StatusCode::kParseError,
       "edge list line 1: invalid vertex id"},
      {"0 4294967295\n", StatusCode::kParseError,
       "edge list line 1: invalid vertex id"},
      // Line numbers count blank and comment lines.
      {"0 1\n\n# note\n5\n", StatusCode::kParseError,
       "edge list line 4: expected 'u v'"},
  };
  for (const BadDocument& c : cases) {
    auto parsed = ParseEdgeList(c.text);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.status().code(), c.code) << c.text;
    EXPECT_EQ(parsed.status().message(), c.message) << c.text;
  }
}

TEST(IoTest, EdgeListRoundTrip) {
  Graph g = KarateClub();
  auto parsed = ParseEdgeList(ToEdgeList(g));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vertices(), g.num_vertices());
  EXPECT_EQ(parsed->Edges(), g.Edges());
}

TEST(IoTest, EdgeListFileRoundTrip) {
  Graph g = Triangle();
  const std::string path = ::testing::TempDir() + "/triangle.edges";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Edges(), g.Edges());
}

TEST(IoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadEdgeList("/nonexistent/x.edges").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(LoadAttributed("/nonexistent/x.attr").status().code(),
            StatusCode::kIoError);
}

TEST(IoTest, AttributedRoundTrip) {
  AttributedGraph g = Figure5Graph();
  auto parsed = ParseAttributed(ToAttributedText(g));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vertices(), g.num_vertices());
  EXPECT_EQ(parsed->graph().Edges(), g.graph().Edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parsed->Name(v), g.Name(v));
    EXPECT_EQ(parsed->KeywordStrings(v), g.KeywordStrings(v));
  }
}

TEST(IoTest, AttributedRejectsMalformedWithExactMessages) {
  const std::string v_shape =
      "expected 'v<TAB>id<TAB>name[<TAB>keywords]'";
  const std::vector<BadDocument> cases = {
      {"x\t0\ta\n", StatusCode::kParseError,
       "attributed line 1: unknown record type 'x'"},
      {"v\t0\n", StatusCode::kParseError, "attributed line 1: " + v_shape},
      {"v\t0\ta\tkw\textra\n", StatusCode::kParseError,
       "attributed line 1: " + v_shape},
      {"v\tzero\ta\n", StatusCode::kParseError,
       "attributed line 1: invalid vertex id"},
      {"v\t-1\ta\n", StatusCode::kParseError,
       "attributed line 1: invalid vertex id"},
      {"v\t4294967295\ta\n", StatusCode::kParseError,
       "attributed line 1: invalid vertex id"},
      {"v\t0\ta\nv\t0\tb\n", StatusCode::kParseError,
       "attributed line 2: duplicate vertex id"},
      {"v\t7\ta\nv\t7\tb\n", StatusCode::kParseError,
       "attributed line 2: duplicate vertex id"},
      {"e\t0\n", StatusCode::kParseError,
       "attributed line 1: expected 'e<TAB>u<TAB>v'"},
      {"e\t0\t1\t2\n", StatusCode::kParseError,
       "attributed line 1: expected 'e<TAB>u<TAB>v'"},
      {"e\t0\t-1\n", StatusCode::kParseError,
       "attributed line 1: invalid edge endpoint"},
      // 2^32 + 1 would truncate to 1 and silently become the edge 0-1.
      {"v\t0\ta\nv\t1\tb\ne\t0\t4294967297\n", StatusCode::kParseError,
       "attributed line 3: invalid edge endpoint"},
      // Line numbers count blank and comment lines.
      {"# header\n\nv\t0\ta\nq\n", StatusCode::kParseError,
       "attributed line 4: unknown record type 'q'"},
      // The first bad line in file order wins, whatever its kind.
      {"v\t0\ta\nbad\nv\t0\tb\n", StatusCode::kParseError,
       "attributed line 2: unknown record type 'bad'"},
      {"v\t0\ta\nv\t0\tb\nbad\n", StatusCode::kParseError,
       "attributed line 2: duplicate vertex id"},
      // Whole-document checks, after every line parsed.
      {"v\t1\ta\n", StatusCode::kParseError,
       "vertex id 0 never declared (ids must be dense)"},
      {"v\t0\ta\nv\t2\tc\nv\t3\td\n", StatusCode::kParseError,
       "vertex id 1 never declared (ids must be dense)"},
      // Vertex storage is sized by the 'v' line count, never by an id.
      {"v\t3000000000\tx\n", StatusCode::kParseError,
       "vertex id 0 never declared (ids must be dense)"},
      {"v\t0\ta\ne\t0\t9\n", StatusCode::kInvalidArgument,
       "edge endpoint does not exist"},
  };
  for (const BadDocument& c : cases) {
    auto parsed = ParseAttributed(c.text);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.status().code(), c.code) << c.text;
    EXPECT_EQ(parsed.status().message(), c.message) << c.text;
  }
}

TEST(IoTest, AttributedFormattingVariants) {
  // CRLF endings, comments, a missing final newline and trailing tabs all
  // parse to the same graph as the plain document.
  const std::string plain =
      "v\t0\talice\tdb web\nv\t1\tbob\nv\t2\tcarol\tweb\n"
      "e\t0\t1\ne\t1\t2\n";
  const std::vector<std::string> variants = {
      "v\t0\talice\tdb web\r\nv\t1\tbob\r\nv\t2\tcarol\tweb\r\n"
      "e\t0\t1\r\ne\t1\t2\r\n",
      "# comment\nv\t0\talice\tdb web\n  # indented comment\n"
      "v\t1\tbob\n\nv\t2\tcarol\tweb\ne\t0\t1\ne\t1\t2\n",
      "v\t0\talice\tdb web\nv\t1\tbob\nv\t2\tcarol\tweb\n"
      "e\t0\t1\ne\t1\t2",
      "v\t0\talice\tdb web\t\nv\t1\tbob\t\nv\t2\tcarol\tweb\n"
      "e\t0\t1\t\ne\t1\t2\n",
  };
  auto expected = ParseAttributed(plain);
  ASSERT_TRUE(expected.ok());
  for (const std::string& text : variants) {
    auto parsed = ParseAttributed(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(ToAttributedText(*parsed), ToAttributedText(*expected));
  }
  EXPECT_EQ(expected->Name(1), "bob");
  EXPECT_EQ(expected->KeywordStrings(0),
            (std::vector<std::string>{"db", "web"}));
}

TEST(IoTest, AttributedKeywordIdsFollowVertexIdOrder) {
  // Lines out of order: vertex 1's keywords come first in the file, but
  // ids are interned in first-occurrence order by vertex id.
  auto g = ParseAttributed(
      "v\t1\tb\tzeta alpha\nv\t0\ta\tbeta zeta beta\ne\t0\t1\n");
  ASSERT_TRUE(g.ok());
  const Vocabulary& vocab = g->vocabulary();
  ASSERT_EQ(vocab.size(), 3u);
  EXPECT_EQ(vocab.Word(0), "beta");
  EXPECT_EQ(vocab.Word(1), "zeta");
  EXPECT_EQ(vocab.Word(2), "alpha");
  EXPECT_EQ(std::vector<KeywordId>(g->Keywords(0).begin(),
                                   g->Keywords(0).end()),
            (std::vector<KeywordId>{0, 1}));
  EXPECT_EQ(std::vector<KeywordId>(g->Keywords(1).begin(),
                                   g->Keywords(1).end()),
            (std::vector<KeywordId>{1, 2}));
}

/// An attributed document of `n` vertices with a ring of edges, about
/// 40 bytes a vertex. Documents over 128 KiB span several parse chunks
/// (chunks are at least 64 KiB, at most 16 per document).
std::string BigAttributedDocument(std::size_t n) {
  std::string text;
  for (std::size_t v = 0; v < n; ++v) {
    text += "v\t" + std::to_string(v) + "\tAuthor " + std::to_string(v) +
            "\tkw" + std::to_string(v % 97) + " kw" + std::to_string(v % 13) +
            "\n";
  }
  for (std::size_t v = 0; v < n; ++v) {
    text += "e\t" + std::to_string(v) + "\t" + std::to_string((v + 1) % n) +
            "\n";
  }
  return text;
}

/// 1-based line number of the first line containing `needle`.
std::size_t LineOf(const std::string& text, const std::string& needle) {
  const std::size_t at = text.find(needle);
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(at),
                            '\n'));
}

/// Replaces the line starting with `prefix` by `replacement`.
void ReplaceLine(std::string* text, const std::string& prefix,
                 const std::string& replacement) {
  const std::size_t at = text->find(prefix);
  ASSERT_NE(at, std::string::npos);
  text->replace(at, text->find('\n', at) - at, replacement);
}

TEST(IoTest, AttributedLargeDocumentMatchesBuilder) {
  constexpr std::size_t kN = 30000;
  const std::string text = BigAttributedDocument(kN);
  ASSERT_GT(text.size(), std::size_t{1} << 20);
  AttributedGraphBuilder builder;
  for (std::size_t v = 0; v < kN; ++v) {
    builder.AddVertex("Author " + std::to_string(v),
                      {"kw" + std::to_string(v % 97),
                       "kw" + std::to_string(v % 13)});
  }
  for (std::size_t v = 0; v < kN; ++v) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<VertexId>(v),
                             static_cast<VertexId>((v + 1) % kN))
                    .ok());
  }
  const AttributedGraph expected = builder.Build();
  auto parsed = ParseAttributed(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->vocabulary().size(), expected.vocabulary().size());
  for (KeywordId kw = 0; kw < expected.vocabulary().size(); ++kw) {
    EXPECT_EQ(parsed->vocabulary().Word(kw), expected.vocabulary().Word(kw));
  }
  // Compared as a boolean: a failing EXPECT_EQ would diff megabytes.
  EXPECT_TRUE(ToAttributedText(*parsed) == ToAttributedText(expected));
  EXPECT_EQ(parsed->FindByName("author 29999"), 29999u);
}

TEST(IoTest, AttributedErrorsAcrossChunksReportTheFirstLine) {
  constexpr std::size_t kN = 30000;
  const std::string base = BigAttributedDocument(kN);

  // One bad line in a late chunk.
  std::string late = base;
  ReplaceLine(&late, "e\t25000\t", "e\t25000");
  auto parsed = ParseAttributed(late);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "attributed line " + std::to_string(LineOf(late, "e\t25000\n")) +
                ": expected 'e<TAB>u<TAB>v'");

  // Two chunks fail; the earlier line wins.
  std::string two = base;
  ReplaceLine(&two, "v\t9000\t", "v\tnine\tx");
  ReplaceLine(&two, "e\t20000\t", "z\t20000");
  parsed = ParseAttributed(two);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "attributed line " + std::to_string(LineOf(two, "v\tnine")) +
                ": invalid vertex id");

  // A duplicate id whose copies sit in the first and the last chunk.
  std::string dup = base + "v\t5\tagain\n";
  parsed = ParseAttributed(dup);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "attributed line " + std::to_string(LineOf(dup, "again")) +
                ": duplicate vertex id");

  // A duplicate in a middle chunk still loses to an earlier bad line in
  // another chunk, and beats a later one.
  std::string dup_mid = base;
  ReplaceLine(&dup_mid, "v\t15000\t", "v\t3\tagain");
  std::string early = dup_mid;
  ReplaceLine(&early, "v\t2000\t", "v\t2000");
  parsed = ParseAttributed(early);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "attributed line 2001: " +
                std::string("expected 'v<TAB>id<TAB>name[<TAB>keywords]'"));
  std::string later = dup_mid;
  ReplaceLine(&later, "e\t100\t", "e\t100\tfar");
  parsed = ParseAttributed(later);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "attributed line " + std::to_string(LineOf(later, "again")) +
                ": duplicate vertex id");
}

TEST(IoTest, AttributedFileRoundTrip) {
  AttributedGraph g = Figure5Graph();
  const std::string path = ::testing::TempDir() + "/fig5.attr";
  ASSERT_TRUE(SaveAttributed(g, path).ok());
  auto loaded = LoadAttributed(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
}

// --------------------------------------------------------------------------
// Fixtures
// --------------------------------------------------------------------------

TEST(FixturesTest, KarateClubShape) {
  Graph g = KarateClub();
  EXPECT_EQ(g.num_vertices(), 34u);
  EXPECT_EQ(g.num_edges(), 78u);
  // The two hubs have the highest degrees (16 and 17).
  EXPECT_EQ(g.Degree(kKarateInstructor), 16u);
  EXPECT_EQ(g.Degree(kKaratePresident), 17u);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
}

TEST(FixturesTest, Figure5GraphShape) {
  AttributedGraph g = Figure5Graph();
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.graph().num_edges(), 11u);
  EXPECT_EQ(g.FindByName("A"), 0u);
  EXPECT_EQ(g.FindByName("J"), 9u);
  // A has keywords {w, x, y}.
  EXPECT_EQ(g.Keywords(0).size(), 3u);
  // J is isolated.
  EXPECT_EQ(g.graph().Degree(9), 0u);
}

}  // namespace
}  // namespace cexplorer
