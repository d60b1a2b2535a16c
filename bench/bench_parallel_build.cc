// The load-path benchmark behind the parallel execution subsystem: the
// three stages a text /upload pays — attributed-text parse, core
// decomposition and CL-tree construction — on one thread versus the pool.
//
//   $ ./bench_parallel_build                  # 120k-author graph
//   $ CEXPLORER_BENCH_AUTHORS=100000 ./bench_parallel_build
//   $ CEXPLORER_THREADS=8 ./bench_parallel_build
//   $ CEXPLORER_BENCH_FULL=1 ./bench_parallel_build
//
// Every stage's parallel output must be IDENTICAL to its sequential one:
// the parsed graph (names, vocabulary order, keyword ids, adjacency), the
// core-number vector and the CL-tree structure are all checked on every
// run, and a mismatch makes the process exit non-zero. On machines with
// fewer cores the identity checks still run; the speedup column reports
// whatever the hardware allows.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cltree/cltree.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/kcore.h"
#include "data/dblp.h"
#include "graph/io.h"

namespace {

using namespace cexplorer;

constexpr int kReps = 3;

double BestOf(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    const double ms = t.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// Node-by-node equality of two finalized trees (ids are canonical).
bool SameTree(const ClTree& a, const ClTree& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (ClNodeId i = 0; i < a.num_nodes(); ++i) {
    const ClTreeNode& x = a.node(i);
    const ClTreeNode& y = b.node(i);
    if (x.core != y.core || x.parent != y.parent ||
        x.subtree_end != y.subtree_end ||
        !std::ranges::equal(x.vertices, y.vertices)) {
      return false;
    }
  }
  return true;
}

/// Equality of everything a parse produces: names, vocabulary (word per
/// id), keyword ids and adjacency.
bool SameGraph(const AttributedGraph& a, const AttributedGraph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.vocabulary().size() != b.vocabulary().size()) {
    return false;
  }
  for (KeywordId kw = 0; kw < a.vocabulary().size(); ++kw) {
    if (a.vocabulary().Word(kw) != b.vocabulary().Word(kw)) return false;
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    if (a.Name(v) != b.Name(v) ||
        !std::ranges::equal(a.Keywords(v), b.Keywords(v)) ||
        !std::ranges::equal(a.graph().Neighbors(v), b.graph().Neighbors(v))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  DblpOptions options = bench::BenchDblpOptions();
  if (!bench::FullScale() &&
      std::getenv("CEXPLORER_BENCH_AUTHORS") == nullptr) {
    options.num_authors = 120000;
  }
  DblpDataset data = GenerateDblp(options);
  const AttributedGraph& graph = data.graph;
  const std::size_t n = graph.num_vertices();
  const std::size_t m = graph.graph().num_edges();

  const std::size_t threads = DefaultThreadCount();
  ThreadPool* pool = DefaultPool();

  bench::Banner("parallel load path (text parse + core decomposition + "
                "CL-tree)",
                "each load stage scales with cores; parallel output is "
                "identical to sequential");
  const std::string text = ToAttributedText(graph);
  std::printf("graph: %s vertices, %s edges, %s text bytes; pool: %zu "
              "thread(s)\n\n",
              FormatWithCommas(n).c_str(), FormatWithCommas(m).c_str(),
              FormatWithCommas(text.size()).c_str(), threads);

  // --- Text parse (what /v1/upload pays before any index work) ------------
  std::optional<AttributedGraph> parsed_seq;
  std::optional<AttributedGraph> parsed_par;
  const double parse_seq_ms = BestOf(kReps, [&] {
    auto parsed = ParseAttributed(text, nullptr);
    if (parsed.ok()) parsed_seq = std::move(parsed.value());
  });
  const double parse_par_ms = BestOf(kReps, [&] {
    auto parsed = ParseAttributed(text, pool);
    if (parsed.ok()) parsed_par = std::move(parsed.value());
  });
  const bool parse_identical =
      parsed_seq && parsed_par && SameGraph(*parsed_seq, *parsed_par) &&
      parsed_seq->graph().Edges() == graph.graph().Edges();
  parsed_seq.reset();
  parsed_par.reset();

  // --- Core decomposition -------------------------------------------------
  std::vector<std::uint32_t> core_seq;
  std::vector<std::uint32_t> core_par;
  const double core_seq_ms =
      BestOf(kReps, [&] { core_seq = CoreDecomposition(graph.graph()); });
  const double core_par_ms = BestOf(
      kReps, [&] { core_par = CoreDecomposition(graph.graph(), pool); });
  const bool core_identical = core_seq == core_par;

  // --- Full index build (what Dataset::Build pays) ------------------------
  ClTree tree_seq;
  ClTree tree_par;
  const double tree_seq_ms = BestOf(kReps, [&] {
    tree_seq = ClTree::Build(graph, ClTreeBuildMethod::kAdvanced, nullptr);
  });
  const double tree_par_ms = BestOf(kReps, [&] {
    tree_par = ClTree::Build(graph, ClTreeBuildMethod::kAdvanced, pool);
  });
  const bool tree_identical = SameTree(tree_seq, tree_par);

  std::printf("stage                sequential(ms)  parallel(ms)  speedup  identical\n");
  std::printf("-------------------  --------------  ------------  -------  ---------\n");
  std::printf("text parse           %14.1f  %12.1f  %6.2fx  %s\n", parse_seq_ms,
              parse_par_ms, parse_seq_ms / std::max(parse_par_ms, 1e-9),
              parse_identical ? "yes" : "NO (BUG)");
  std::printf("core decomposition   %14.1f  %12.1f  %6.2fx  %s\n", core_seq_ms,
              core_par_ms, core_seq_ms / std::max(core_par_ms, 1e-9),
              core_identical ? "yes" : "NO (BUG)");
  std::printf("CL-tree build        %14.1f  %12.1f  %6.2fx  %s\n", tree_seq_ms,
              tree_par_ms, tree_seq_ms / std::max(tree_par_ms, 1e-9),
              tree_identical ? "yes" : "NO (BUG)");

  const double total_seq = core_seq_ms + tree_seq_ms;
  const double total_par = core_par_ms + tree_par_ms;
  std::printf("\ntotal index build: %.1f ms -> %.1f ms (%.2fx at %zu threads)\n",
              total_seq, total_par, total_seq / std::max(total_par, 1e-9),
              threads);

  bench::EmitJsonLine("text_parse_seq", n, m, 1, parse_seq_ms);
  bench::EmitJsonLine("text_parse_par", n, m, threads, parse_par_ms);
  bench::EmitJsonLine("core_decomposition_seq", n, m, 1, core_seq_ms);
  bench::EmitJsonLine("core_decomposition_par", n, m, threads, core_par_ms);
  bench::EmitJsonLine("cltree_build_seq", n, m, 1, tree_seq_ms);
  bench::EmitJsonLine("cltree_build_par", n, m, threads, tree_par_ms);
  bench::EmitJsonLine("index_build_seq", n, m, 1, total_seq);
  bench::EmitJsonLine("index_build_par", n, m, threads, total_par);

  return parse_identical && core_identical && tree_identical ? 0 : 1;
}
