// Tests for the parallel execution subsystem: ThreadPool / ParallelFor /
// ParallelReduce semantics (coverage, exceptions, nesting), and the
// determinism contract — the parallel core decomposition, CL-tree build,
// and ACQ algorithms must produce results identical to their sequential
// oracles on random graphs, for a 1-thread and an N-thread pool alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acq/acq.h"
#include "cltree/cltree.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/kcore.h"
#include "data/dblp.h"
#include "data/planted.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"

namespace cexplorer {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor / ParallelReduce semantics
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      ++counter;
      ++done;
    });
  }
  // Destructor drains the queue; check after.
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&] { ++counter; });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, &pool, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::size_t count = 0;
  ParallelFor(5, 25, nullptr, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 20u);
}

TEST(ParallelForTest, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, &pool,
                  [](std::size_t i) {
                    if (i == 137) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(0, 8, &pool, [&](std::size_t) {
    // Inner loop issued from a worker: must complete inline.
    ParallelFor(0, 100, &pool, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ParallelReduceTest, SumMatchesSequentialForAnyPoolSize) {
  constexpr std::size_t kN = 54321;
  auto map = [](std::size_t lo, std::size_t hi) {
    std::uint64_t s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += i;
    return s;
  };
  auto reduce = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  const std::uint64_t expected = kN * (kN - 1) / 2;
  EXPECT_EQ(ParallelReduce<std::uint64_t>(0, kN, 0, map, reduce, nullptr),
            expected);
  ThreadPool one(1);
  EXPECT_EQ(ParallelReduce<std::uint64_t>(0, kN, 0, map, reduce, &one),
            expected);
  ThreadPool four(4);
  EXPECT_EQ(ParallelReduce<std::uint64_t>(0, kN, 0, map, reduce, &four),
            expected);
}

TEST(DefaultPoolTest, RespectsEnvironmentContract) {
  // DefaultThreadCount is fixed for the process; the pool either matches
  // it (> 1) or is null (sequential).
  const std::size_t threads = DefaultThreadCount();
  ThreadPool* pool = DefaultPool();
  if (threads <= 1) {
    EXPECT_EQ(pool, nullptr);
  } else {
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->num_threads(), threads);
  }
}

// ---------------------------------------------------------------------------
// Determinism: parallel algorithms vs sequential oracles
// ---------------------------------------------------------------------------

TEST(ParallelCoreDecompositionTest, MatchesSequentialOnRandomGraphs) {
  ThreadPool one(1);
  ThreadPool four(4);
  // The parallel path engages above its small-graph cutoff (4096 vertices).
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Graph er = ErdosRenyi(6000, 24000, seed);
    Graph ba = BarabasiAlbert(5000, 4, seed);
    for (const Graph* g : {&er, &ba}) {
      const auto expected = CoreDecomposition(*g);
      EXPECT_EQ(CoreDecomposition(*g, &one), expected) << "seed " << seed;
      EXPECT_EQ(CoreDecomposition(*g, &four), expected) << "seed " << seed;
    }
  }
}

TEST(ParallelCoreDecompositionTest, SmallGraphFallbackMatches) {
  ThreadPool four(4);
  Graph g = WattsStrogatz(500, 6, 0.1, 7);
  EXPECT_EQ(CoreDecomposition(g, &four), CoreDecomposition(g));
}

/// Node-by-node equality of two finalized trees (ids are canonical, so this
/// is plain array comparison).
void ExpectSameTree(const ClTree& a, const ClTree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (ClNodeId i = 0; i < a.num_nodes(); ++i) {
    const ClTreeNode& x = a.node(i);
    const ClTreeNode& y = b.node(i);
    EXPECT_EQ(x.core, y.core) << "node " << i;
    EXPECT_EQ(x.parent, y.parent) << "node " << i;
    EXPECT_EQ(x.subtree_end, y.subtree_end) << "node " << i;
    EXPECT_TRUE(std::ranges::equal(x.vertices, y.vertices)) << "node " << i;
  }
}

TEST(ParallelClTreeBuildTest, TreesAreIdenticalAcrossPoolSizes) {
  ThreadPool one(1);
  ThreadPool four(4);
  DblpOptions options;
  options.num_authors = 5000;
  options.num_areas = 12;
  options.vocabulary_size = 600;
  options.seed = 42;
  DblpDataset data = GenerateDblp(options);
  for (ClTreeBuildMethod method :
       {ClTreeBuildMethod::kBasic, ClTreeBuildMethod::kAdvanced}) {
    const ClTree expected = ClTree::Build(data.graph, method, nullptr);
    ExpectSameTree(ClTree::Build(data.graph, method, &one), expected);
    ExpectSameTree(ClTree::Build(data.graph, method, &four), expected);
  }
}

/// Slot-by-slot equality of two trees' inverted lists, anchored vertices
/// and vertex -> node maps.
void ExpectSameInvertedLists(const ClTree& seq, const ClTree& par,
                             std::size_t num_vertices) {
  ASSERT_EQ(seq.num_nodes(), par.num_nodes());
  for (ClNodeId i = 0; i < seq.num_nodes(); ++i) {
    // The inverted lists are span views into the tree-wide arenas; compare
    // their contents slot by slot.
    const auto& seq_kws = seq.node(i).inv_keywords;
    const auto& par_kws = par.node(i).inv_keywords;
    ASSERT_EQ(seq_kws.size(), par_kws.size()) << i;
    for (std::size_t k = 0; k < seq_kws.size(); ++k) {
      ASSERT_EQ(seq_kws[k], par_kws[k]) << i;
      const auto seq_postings = seq.node(i).inv_postings[k];
      const auto par_postings = par.node(i).inv_postings[k];
      ASSERT_TRUE(std::equal(seq_postings.begin(), seq_postings.end(),
                             par_postings.begin(), par_postings.end()))
          << i;
    }
    const auto seq_vertices = seq.node(i).vertices;
    const auto par_vertices = par.node(i).vertices;
    ASSERT_TRUE(std::equal(seq_vertices.begin(), seq_vertices.end(),
                           par_vertices.begin(), par_vertices.end()))
        << i;
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    ASSERT_EQ(seq.NodeOf(v), par.NodeOf(v)) << v;
  }
}

TEST(ParallelClTreeBuildTest, InvertedListsMatchSequential) {
  ThreadPool four(4);
  DblpOptions options;
  options.num_authors = 3000;
  options.seed = 9;
  DblpDataset data = GenerateDblp(options);
  ExpectSameInvertedLists(
      ClTree::Build(data.graph, ClTreeBuildMethod::kAdvanced),
      ClTree::Build(data.graph, ClTreeBuildMethod::kAdvanced, &four),
      data.graph.num_vertices());
}

// ---------------------------------------------------------------------------
// Parallel text parse: chunked on the pool, identical for any pool size
// ---------------------------------------------------------------------------

TEST(ParallelParseTest, DocumentParsesAndIndexesIdenticallyAcrossPoolSizes) {
  ThreadPool one(1);
  ThreadPool four(4);
  DblpOptions options;
  options.num_authors = 13000;
  options.seed = 5;
  const AttributedGraph source = GenerateDblp(options).graph;
  const std::string text = ToAttributedText(source);
  ASSERT_GE(text.size(), std::size_t{2} << 20);  // many parse chunks

  auto seq = ParseAttributed(text, &one);
  auto par = ParseAttributed(text, &four);
  ASSERT_TRUE(seq.ok()) << seq.status().message();
  ASSERT_TRUE(par.ok()) << par.status().message();
  // Compared as booleans: a failing EXPECT_EQ would diff megabytes.
  EXPECT_TRUE(ToAttributedText(*seq) == ToAttributedText(*par));
  EXPECT_TRUE(seq->graph().Edges() == source.graph().Edges());
  for (VertexId v = 0; v < source.num_vertices(); ++v) {
    ASSERT_EQ(seq->Name(v), source.Name(v)) << v;
  }
  ASSERT_EQ(seq->vocabulary().size(), par->vocabulary().size());
  for (KeywordId kw = 0; kw < seq->vocabulary().size(); ++kw) {
    ASSERT_EQ(seq->vocabulary().Word(kw), par->vocabulary().Word(kw));
  }
  for (VertexId v = 0; v < seq->num_vertices(); ++v) {
    ASSERT_TRUE(std::ranges::equal(seq->Keywords(v), par->Keywords(v))) << v;
  }
  EXPECT_TRUE(seq->graph().Edges() == par->graph().Edges());

  const ClTree seq_tree =
      ClTree::Build(*seq, ClTreeBuildMethod::kAdvanced, &one);
  const ClTree par_tree =
      ClTree::Build(*par, ClTreeBuildMethod::kAdvanced, &four);
  ExpectSameTree(seq_tree, par_tree);
  ExpectSameInvertedLists(seq_tree, par_tree, seq->num_vertices());
}

TEST(ParallelAcqTest, AllAlgorithmsMatchSequentialOracle) {
  ThreadPool one(1);
  ThreadPool four(4);
  DblpOptions options;
  options.num_authors = 2500;
  options.num_areas = 10;
  options.vocabulary_size = 400;
  options.seed = 2017;
  DblpDataset data = GenerateDblp(options);
  ClTree tree = ClTree::Build(data.graph);

  AcqEngine sequential(&data.graph, &tree, nullptr);
  AcqEngine with_one(&data.graph, &tree, &one);
  AcqEngine with_four(&data.graph, &tree, &four);

  // A handful of query authors with non-trivial keyword sets.
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < data.graph.num_vertices() && queries.size() < 6;
       v += 97) {
    if (data.graph.Keywords(v).size() >= 4 && tree.CoreOf(v) >= 2) {
      queries.push_back(v);
    }
  }
  ASSERT_FALSE(queries.empty());

  for (VertexId q : queries) {
    auto wq = data.graph.Keywords(q);
    KeywordList S(wq.begin(),
                  wq.begin() + std::min<std::size_t>(wq.size(), 5));
    for (AcqAlgorithm algo :
         {AcqAlgorithm::kIncS, AcqAlgorithm::kIncT, AcqAlgorithm::kDec}) {
      auto expected = sequential.Search(q, 2, S, algo);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (AcqEngine* engine : {&with_one, &with_four}) {
        auto result = engine->Search(q, 2, S, algo);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->communities, expected->communities)
            << AcqAlgorithmName(algo) << " q=" << q;
        // Stats merge additively: parallel totals equal sequential ones.
        EXPECT_EQ(result->stats.candidates_generated,
                  expected->stats.candidates_generated);
        EXPECT_EQ(result->stats.candidates_verified,
                  expected->stats.candidates_verified);
        EXPECT_EQ(result->stats.support_pruned,
                  expected->stats.support_pruned);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GraphBuilder counting-sort path
// ---------------------------------------------------------------------------

TEST(GraphBuilderCountingSortTest, MatchesReferenceAdjacency) {
  Rng rng(31337);
  for (int round = 0; round < 5; ++round) {
    const std::size_t n = 50 + rng.UniformU32(200);
    const std::size_t m = rng.UniformU32(2000);
    GraphBuilder builder(n);
    std::set<std::pair<VertexId, VertexId>> reference;
    for (std::size_t i = 0; i < m; ++i) {
      VertexId u = rng.UniformU32(static_cast<std::uint32_t>(n));
      VertexId v = rng.UniformU32(static_cast<std::uint32_t>(n));
      builder.AddEdge(u, v);
      if (rng.Bernoulli(0.3)) builder.AddEdge(v, u);  // duplicate, swapped
      if (u != v) {
        reference.emplace(std::min(u, v), std::max(u, v));
      }
    }
    Graph g = builder.Build();
    ASSERT_EQ(g.num_vertices(), n);
    EXPECT_EQ(g.num_edges(), reference.size());
    auto edges = g.Edges();
    std::set<std::pair<VertexId, VertexId>> got(edges.begin(), edges.end());
    EXPECT_EQ(got, reference);
    // Adjacency lists sorted and duplicate-free.
    for (VertexId v = 0; v < n; ++v) {
      auto nbrs = g.Neighbors(v);
      for (std::size_t i = 1; i < nbrs.size(); ++i) {
        ASSERT_LT(nbrs[i - 1], nbrs[i]);
      }
    }
  }
}

}  // namespace
}  // namespace cexplorer
