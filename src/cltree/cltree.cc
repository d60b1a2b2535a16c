#include "cltree/cltree.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/bitset.h"
#include "common/simd/simd.h"
#include "core/kcore.h"

namespace cexplorer {

namespace {

// ---------------------------------------------------------------------------
// Basic builder: top-down recursive component splitting.
// ---------------------------------------------------------------------------

ClTreeRawTree BuildBasicTree(const Graph& g,
                             const std::vector<std::uint32_t>& core) {
  const std::size_t n = g.num_vertices();
  ClTreeRawTree raw;

  // Root: core 0, anchoring the isolated (core-0) vertices.
  for (VertexId v = 0; v < n; ++v) {
    if (core[v] == 0) raw.vertices.push_back(v);
  }
  raw.root = raw.CloseNode(0);

  // Work item: a connected component of some k-core, to become one node
  // (at the component's minimum core number) plus its descendants.
  struct Item {
    ClNodeId parent;
    VertexList component;
  };

  Bitset allowed(n);
  std::vector<Item> stack;

  // Seed: connected components of the 1-core.
  {
    Bitset visited(n);
    for (VertexId v = 0; v < n; ++v) {
      if (core[v] >= 1) allowed.Set(v);
    }
    for (VertexId v = 0; v < n; ++v) {
      if (core[v] < 1 || visited.Test(v)) continue;
      VertexList comp;
      std::vector<VertexId> queue{v};
      visited.Set(v);
      std::size_t head = 0;
      while (head < queue.size()) {
        VertexId u = queue[head++];
        comp.push_back(u);
        for (VertexId w : g.Neighbors(u)) {
          if (allowed.Test(w) && !visited.Test(w)) {
            visited.Set(w);
            queue.push_back(w);
          }
        }
      }
      std::sort(comp.begin(), comp.end());
      stack.push_back({raw.root, std::move(comp)});
    }
  }

  Bitset in_higher(n);
  Bitset visited(n);
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();

    std::uint32_t kk = core[item.component.front()];
    for (VertexId v : item.component) kk = std::min(kk, core[v]);

    VertexList higher;
    for (VertexId v : item.component) {
      if (core[v] == kk) {
        raw.vertices.push_back(v);
      } else {
        higher.push_back(v);
        in_higher.Set(v);
      }
    }
    const ClNodeId id = raw.CloseNode(kk);
    raw.parent[id] = item.parent;

    // Split `higher` into connected components; each becomes a child item.
    for (VertexId v : higher) {
      if (visited.Test(v)) continue;
      VertexList comp;
      std::vector<VertexId> queue{v};
      visited.Set(v);
      std::size_t head = 0;
      while (head < queue.size()) {
        VertexId u = queue[head++];
        comp.push_back(u);
        for (VertexId w : g.Neighbors(u)) {
          if (in_higher.Test(w) && !visited.Test(w)) {
            visited.Set(w);
            queue.push_back(w);
          }
        }
      }
      std::sort(comp.begin(), comp.end());
      stack.push_back({id, std::move(comp)});
    }
    for (VertexId v : higher) {
      in_higher.Reset(v);
      visited.Reset(v);
    }
  }
  return raw;
}

// ---------------------------------------------------------------------------
// Advanced builder: bottom-up union-find over decreasing core numbers.
// ---------------------------------------------------------------------------

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), VertexId{0});
  }

  VertexId Find(VertexId v) {
    VertexId root = v;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[v] != root) {
      VertexId next = parent_[v];
      parent_[v] = root;
      v = next;
    }
    return root;
  }

  /// Unions the sets of a and b; returns the surviving root.
  VertexId Union(VertexId a, VertexId b) {
    VertexId ra = Find(a);
    VertexId rb = Find(b);
    if (ra == rb) return ra;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return ra;
  }

 private:
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> size_;
};

ClTreeRawTree BuildAdvancedTree(const Graph& g,
                                const std::vector<std::uint32_t>& core) {
  const std::size_t n = g.num_vertices();
  ClTreeRawTree raw;

  // Vertices bucketed by core number (counting sort, ascending per level).
  const std::uint32_t kmax = MaxCoreNumber(core);
  std::vector<std::size_t> level_begin(kmax + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++level_begin[core[v] + 1];
  for (std::uint32_t c = 0; c <= kmax; ++c) {
    level_begin[c + 1] += level_begin[c];
  }
  std::vector<VertexId> by_level(n);
  {
    std::vector<std::size_t> cursor(level_begin.begin(), level_begin.end() - 1);
    for (VertexId v = 0; v < n; ++v) by_level[cursor[core[v]]++] = v;
  }

  // Per DSU root, two intrusive lists over flat arrays:
  //   * the nodes already built inside the component (the children of the
  //     next node built for it), linked through next_child with head/tail
  //     per root, spliced in O(1) on union;
  //   * the level's newly anchored vertices, linked through next_anchor,
  //     built after the level's unions.
  UnionFind dsu(n);
  Bitset present(n);
  std::vector<ClNodeId> child_head(n, kInvalidClNode);
  std::vector<ClNodeId> child_tail(n, kInvalidClNode);
  std::vector<ClNodeId> next_child;
  std::vector<VertexId> anchor_head(n, kInvalidVertex);
  std::vector<VertexId> next_anchor(n, kInvalidVertex);
  std::vector<VertexId> roots;

  for (std::uint32_t c = kmax; c >= 1; --c) {
    const std::span<const VertexId> newly(by_level.data() + level_begin[c],
                                          level_begin[c + 1] - level_begin[c]);
    if (newly.empty()) continue;
    for (VertexId v : newly) present.Set(v);
    for (VertexId v : newly) {
      for (VertexId u : g.Neighbors(v)) {
        if (!present.Test(u)) continue;
        const VertexId rv = dsu.Find(v);
        const VertexId ru = dsu.Find(u);
        if (rv == ru) continue;
        const VertexId survivor = dsu.Union(rv, ru);
        const VertexId absorbed = survivor == rv ? ru : rv;
        if (child_head[absorbed] == kInvalidClNode) continue;
        if (child_head[survivor] == kInvalidClNode) {
          child_head[survivor] = child_head[absorbed];
        } else {
          next_child[child_tail[survivor]] = child_head[absorbed];
        }
        child_tail[survivor] = child_tail[absorbed];
        child_head[absorbed] = child_tail[absorbed] = kInvalidClNode;
      }
    }
    // Group the level's vertices by component; walking them backwards
    // leaves every list ascending.
    roots.clear();
    for (std::size_t i = newly.size(); i-- > 0;) {
      const VertexId v = newly[i];
      const VertexId r = dsu.Find(v);
      if (anchor_head[r] == kInvalidVertex) roots.push_back(r);
      next_anchor[v] = anchor_head[r];
      anchor_head[r] = v;
    }
    for (VertexId r : roots) {
      for (VertexId v = anchor_head[r]; v != kInvalidVertex;
           v = next_anchor[v]) {
        raw.vertices.push_back(v);
      }
      anchor_head[r] = kInvalidVertex;
      const ClNodeId id = raw.CloseNode(c);
      next_child.push_back(kInvalidClNode);
      for (ClNodeId child = child_head[r]; child != kInvalidClNode;
           child = next_child[child]) {
        raw.parent[child] = id;
      }
      child_head[r] = child_tail[r] = id;
    }
  }

  // Root (core 0): anchors isolated vertices; adopts every component's
  // top node (the one node left on each remaining root's list).
  raw.vertices.insert(raw.vertices.end(), by_level.begin(),
                      by_level.begin() +
                          static_cast<std::ptrdiff_t>(level_begin[1]));
  raw.root = raw.CloseNode(0);
  for (VertexId v = 0; v < n; ++v) {
    if (core[v] >= 1 && dsu.Find(v) == v) raw.parent[child_head[v]] = raw.root;
  }
  return raw;
}

}  // namespace

std::span<const VertexId> ClTreeNode::Postings(KeywordId kw) const {
  auto it = std::lower_bound(inv_keywords.begin(), inv_keywords.end(), kw);
  if (it == inv_keywords.end() || *it != kw) return {};
  return inv_postings[static_cast<std::size_t>(it - inv_keywords.begin())];
}

ClTree ClTree::Build(const AttributedGraph& g, ClTreeBuildMethod method,
                     ThreadPool* pool) {
  if (g.num_vertices() == 0) return ClTree();
  const std::vector<std::uint32_t> core = CoreDecomposition(g.graph(), pool);
  return Build(g, core, method, pool);
}

ClTree ClTree::Build(const AttributedGraph& g,
                     std::span<const std::uint32_t> core_numbers,
                     ClTreeBuildMethod method, ThreadPool* pool) {
  ClTree tree;
  if (g.num_vertices() == 0) return tree;
  const std::vector<std::uint32_t> core(core_numbers.begin(),
                                        core_numbers.end());
  const ClTreeRawTree raw = method == ClTreeBuildMethod::kBasic
                                ? BuildBasicTree(g.graph(), core)
                                : BuildAdvancedTree(g.graph(), core);
  tree.Finalize(g, raw, pool);
  return tree;
}

void ClTree::Finalize(const AttributedGraph& g, const ClTreeRawTree& raw,
                      ThreadPool* pool) {
  const std::size_t num_raw = raw.num_nodes();
  const ClNodeId raw_root = raw.root;
  auto anchored = [&raw](ClNodeId id) {
    return std::span<const VertexId>(
        raw.vertices.data() + raw.vertex_begin[id],
        raw.vertex_begin[id + 1] - raw.vertex_begin[id]);
  };

  // Child lists from the parent links: a counting sort by parent.
  std::vector<std::uint64_t> raw_child_begin(num_raw + 1, 0);
  for (ClNodeId parent : raw.parent) {
    if (parent != kInvalidClNode) ++raw_child_begin[parent + 1];
  }
  for (std::size_t i = 0; i < num_raw; ++i) {
    raw_child_begin[i + 1] += raw_child_begin[i];
  }
  std::vector<ClNodeId> raw_children(raw_child_begin[num_raw]);
  {
    std::vector<std::uint64_t> cursor(raw_child_begin.begin(),
                                      raw_child_begin.end() - 1);
    for (std::size_t i = 0; i < num_raw; ++i) {
      if (raw.parent[i] != kInvalidClNode) {
        raw_children[cursor[raw.parent[i]]++] = static_cast<ClNodeId>(i);
      }
    }
  }
  auto children = [&](ClNodeId id) {
    return std::span<ClNodeId>(raw_children.data() + raw_child_begin[id],
                               raw_child_begin[id + 1] - raw_child_begin[id]);
  };

  // Pass 1 (post-order): minimum vertex in each subtree, for canonical
  // child ordering; and subtree vertex counts.
  std::vector<VertexId> min_vertex(num_raw, kInvalidVertex);
  std::vector<std::size_t> counts(num_raw, 0);
  {
    // Iterative post-order: (node, child cursor) stack.
    std::vector<std::pair<ClNodeId, std::size_t>> stack{{raw_root, 0}};
    while (!stack.empty()) {
      auto& [id, cursor] = stack.back();
      if (cursor < children(id).size()) {
        ClNodeId child = children(id)[cursor++];
        stack.emplace_back(child, 0);
        continue;
      }
      VertexId mv =
          anchored(id).empty() ? kInvalidVertex : anchored(id).front();
      std::size_t cnt = anchored(id).size();
      for (ClNodeId child : children(id)) {
        mv = std::min(mv, min_vertex[child]);
        cnt += counts[child];
      }
      min_vertex[id] = mv;
      counts[id] = cnt;
      stack.pop_back();
    }
  }
  for (std::size_t i = 0; i < num_raw; ++i) {
    auto kids = children(static_cast<ClNodeId>(i));
    std::sort(kids.begin(), kids.end(), [&min_vertex](ClNodeId a, ClNodeId b) {
      return min_vertex[a] < min_vertex[b];
    });
  }

  // Pass 2 (pre-order): assign canonical ids.
  std::vector<ClNodeId> new_id(num_raw, kInvalidClNode);
  std::vector<ClNodeId> order;  // raw ids in preorder
  order.reserve(num_raw);
  {
    std::vector<ClNodeId> stack{raw_root};
    while (!stack.empty()) {
      ClNodeId id = stack.back();
      stack.pop_back();
      new_id[id] = static_cast<ClNodeId>(order.size());
      order.push_back(id);
      const auto kids = children(id);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }

  // Flatten child lists and anchored vertices into preorder arenas; the
  // node directory then only holds (begin, count) views into them — the
  // representation the snapshot format persists directly.
  std::vector<std::uint64_t> child_begin(num_raw + 1, 0);
  std::vector<std::uint64_t> anchor_begin(num_raw + 1, 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    child_begin[pos + 1] = child_begin[pos] + children(order[pos]).size();
    anchor_begin[pos + 1] = anchor_begin[pos] + anchored(order[pos]).size();
  }
  {
    std::vector<ClNodeId> child_arena(child_begin[num_raw]);
    std::vector<VertexId> anchor_arena(anchor_begin[num_raw]);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      std::uint64_t c = child_begin[pos];
      for (ClNodeId child : children(order[pos])) {
        child_arena[c++] = new_id[child];
      }
      const auto vertices = anchored(order[pos]);
      std::copy(vertices.begin(), vertices.end(),
                anchor_arena.begin() +
                    static_cast<std::ptrdiff_t>(anchor_begin[pos]));
    }
    child_arena_ = std::move(child_arena);
    anchor_arena_ = std::move(anchor_arena);
  }

  nodes_.clear();
  nodes_.resize(num_raw);
  std::vector<std::uint64_t> subtree_sizes(num_raw, 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    ClNodeId raw_id = order[pos];
    ClTreeNode& dst = nodes_[pos];
    dst.core = raw.core[raw_id];
    dst.parent = raw.parent[raw_id] == kInvalidClNode
                     ? kInvalidClNode
                     : new_id[raw.parent[raw_id]];
    dst.children = {child_arena_.data() + child_begin[pos],
                    child_begin[pos + 1] - child_begin[pos]};
    dst.vertices = {anchor_arena_.data() + anchor_begin[pos],
                    anchor_begin[pos + 1] - anchor_begin[pos]};
    subtree_sizes[pos] = counts[raw_id];
  }
  subtree_sizes_ = std::move(subtree_sizes);

  // subtree_end: preorder subtree of node i is [i, i + node count); compute
  // node counts bottom-up over the canonical ids (children have larger ids).
  {
    std::vector<ClNodeId> node_counts(num_raw, 1);
    for (std::size_t i = num_raw; i-- > 1;) {
      node_counts[nodes_[i].parent] += node_counts[i];
    }
    for (std::size_t i = 0; i < num_raw; ++i) {
      nodes_[i].subtree_end = static_cast<ClNodeId>(i + node_counts[i]);
    }
  }

  // Vertex -> node map. Nodes are independent (every vertex is anchored at
  // exactly one node), so it fills in parallel without synchronization.
  std::vector<ClNodeId> vertex_node(g.num_vertices(), kInvalidClNode);
  ParallelFor(
      0, num_raw, pool,
      [&](std::size_t i) {
        for (VertexId v : nodes_[i].vertices) {
          vertex_node[v] = static_cast<ClNodeId>(i);
        }
      },
      /*grain=*/256);
  vertex_node_ = std::move(vertex_node);

  FillPostings(g, pool);
}

namespace {

/// Per-thread buffers of the posting fill. `count` is indexed by keyword
/// id and is all zeros between work items.
struct PostingFillScratch {
  std::vector<std::uint32_t> count;
  std::vector<KeywordId> touched;
};

PostingFillScratch& ThreadFillScratch() {
  thread_local PostingFillScratch scratch;
  return scratch;
}

/// Counts the (keyword, vertex) pairs of `vertices` into s.count, listing
/// each keyword seen in s.touched on first sight; returns the pair count.
std::size_t CountPairs(const AttributedGraph& g,
                       std::span<const VertexId> vertices,
                       PostingFillScratch& s) {
  std::size_t pairs = 0;
  s.touched.clear();
  for (VertexId v : vertices) {
    const auto kws = g.Keywords(v);
    pairs += kws.size();
    for (KeywordId kw : kws) {
      if (s.count[kw]++ == 0) s.touched.push_back(kw);
    }
  }
  return pairs;
}

}  // namespace

void ClTree::FillPostings(const AttributedGraph& g, ThreadPool* pool) {
  const std::size_t num_nodes = nodes_.size();
  KeywordId num_keywords = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto kws = g.Keywords(v);
    if (!kws.empty()) num_keywords = std::max(num_keywords, kws.back() + 1);
  }

  // Both passes below run over runs of consecutive nodes holding about
  // 1/64 of the anchored vertices each, not over fixed node counts: the
  // heavy nodes sit together at the top of the preorder, and a fixed grain
  // would hand them all to one thread.
  std::vector<std::size_t> run_begin{0};
  {
    const std::size_t target = g.num_vertices() / 64 + 1;
    std::size_t weight = 0;
    for (std::size_t i = 0; i < num_nodes; ++i) {
      weight += nodes_[i].vertices.size() + 1;
      if (weight >= target) {
        run_begin.push_back(i + 1);
        weight = 0;
      }
    }
    if (run_begin.back() != num_nodes) run_begin.push_back(num_nodes);
  }
  auto for_each_node = [&](auto&& body) {
    ParallelFor(0, run_begin.size() - 1, pool, [&](std::size_t r) {
      for (std::size_t i = run_begin[r]; i < run_begin[r + 1]; ++i) body(i);
    });
  };

  // Counting pass: each node's distinct-keyword and postings counts, so
  // the arenas below are sized exactly before a single element is written.
  std::vector<std::size_t> kw_counts(num_nodes, 0);
  std::vector<std::size_t> post_counts(num_nodes, 0);
  for_each_node([&](std::size_t i) {
    PostingFillScratch& s = ThreadFillScratch();
    if (s.count.size() < num_keywords) s.count.resize(num_keywords, 0);
    post_counts[i] = CountPairs(g, nodes_[i].vertices, s);
    kw_counts[i] = s.touched.size();
    for (KeywordId kw : s.touched) s.count[kw] = 0;
  });

  // Per-node arena starts (prefix sums). Postings of a node are contiguous
  // and nodes follow preorder, so node i's final offset sentinel is node
  // i+1's first offset — one shared offsets array of total_kws + 1 entries.
  std::vector<std::size_t> kw_begin(num_nodes + 1, 0);
  std::vector<std::size_t> post_begin(num_nodes + 1, 0);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    kw_begin[i + 1] = kw_begin[i] + kw_counts[i];
    post_begin[i + 1] = post_begin[i] + post_counts[i];
  }
  const std::size_t total_kws = kw_begin[num_nodes];
  const std::size_t total_posts = post_begin[num_nodes];

  // Exact-size allocation from the counted totals, filled in place. The
  // arenas are built in local vectors and moved into the ArrayRef members
  // once complete (the move keeps the heap buffers, so the node spans set
  // afterwards stay valid).
  std::vector<KeywordId> kw_arena(total_kws);
  std::vector<std::uint32_t> offset_arena(total_kws + 1);
  std::vector<VertexId> post_arena(total_posts);
  offset_arena[total_kws] = static_cast<std::uint32_t>(total_posts);
  std::vector<std::uint64_t> blooms(num_nodes, 0);

  // Fill pass: a stable counting sort of each node's (keyword, vertex)
  // pairs by keyword. Anchored vertices are ascending, so scattering them
  // in order leaves every posting list sorted with no comparison sort:
  // O(pairs + distinct keywords) per node, where the distinct keywords
  // are ordered by a sort while few, else by a scan of the counts. Every
  // node writes its own disjoint arena slices.
  for_each_node([&](std::size_t i) {
    PostingFillScratch& s = ThreadFillScratch();
    if (s.count.size() < num_keywords) s.count.resize(num_keywords, 0);
    const auto vertices = nodes_[i].vertices;
    CountPairs(g, vertices, s);
    if (s.touched.size() * 32 < num_keywords) {
      std::sort(s.touched.begin(), s.touched.end());
    } else {
      s.touched.clear();
      for (KeywordId kw = 0; kw < num_keywords; ++kw) {
        if (s.count[kw] != 0) s.touched.push_back(kw);
      }
    }
    // Counts become each keyword's write cursor, relative to the node.
    std::uint64_t bloom = 0;
    std::uint32_t cursor = 0;
    std::size_t slot = kw_begin[i];
    for (KeywordId kw : s.touched) {
      kw_arena[slot] = kw;
      offset_arena[slot++] =
          static_cast<std::uint32_t>(post_begin[i] + cursor);
      bloom |= simd::BloomMask(kw);
      const std::uint32_t c = s.count[kw];
      s.count[kw] = cursor;
      cursor += c;
    }
    blooms[i] = bloom;
    VertexId* out = post_arena.data() + post_begin[i];
    for (VertexId v : vertices) {
      for (KeywordId kw : g.Keywords(v)) out[s.count[kw]++] = v;
    }
    for (KeywordId kw : s.touched) s.count[kw] = 0;
  });
  // Offset slots of keyword-less nodes collapse onto the next non-empty
  // node's first slot, which that node wrote with the same value; only the
  // global sentinel has no owner and was set above.

  inv_keyword_arena_ = std::move(kw_arena);
  inv_offset_arena_ = std::move(offset_arena);
  inv_posting_arena_ = std::move(post_arena);
  node_kw_bloom_ = std::move(blooms);

  for (std::size_t i = 0; i < num_nodes; ++i) {
    nodes_[i].inv_keywords = {inv_keyword_arena_.data() + kw_begin[i],
                              kw_counts[i]};
    nodes_[i].inv_postings = {inv_offset_arena_.data() + kw_begin[i],
                              inv_posting_arena_.data(), kw_counts[i]};
  }
}

ClNodeId ClTree::LocateKCore(VertexId q, std::uint32_t k) const {
  ClNodeId id = NodeOf(q);
  if (id == kInvalidClNode) return kInvalidClNode;
  if (nodes_[id].core < k) return kInvalidClNode;
  while (nodes_[id].parent != kInvalidClNode &&
         nodes_[nodes_[id].parent].core >= k) {
    id = nodes_[id].parent;
  }
  return id;
}

VertexList ClTree::SubtreeVertices(ClNodeId id) const {
  VertexList out;
  out.reserve(subtree_sizes_[id]);
  for (ClNodeId i = id; i < nodes_[id].subtree_end; ++i) {
    out.insert(out.end(), nodes_[i].vertices.begin(), nodes_[i].vertices.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Reusable per-thread buffers of the posting query path: two result
/// buffers the progressive intersection ping-pongs between (the kernels
/// forbid output aliasing an input) and the located posting lists. Grown
/// once per thread; steady-state node visits allocate nothing.
struct PostingScratch {
  std::vector<VertexId> ping;
  std::vector<VertexId> pong;
  std::vector<std::span<const VertexId>> lists;
};

PostingScratch& ThreadPostingScratch() {
  thread_local PostingScratch scratch;
  return scratch;
}

}  // namespace

void ClTree::AppendNodeMatches(ClNodeId id, std::span<const KeywordId> kws,
                               std::uint64_t query_fp, VertexList* out) const {
  const ClTreeNode& node = nodes_[id];
  if (kws.empty()) {
    out->insert(out->end(), node.vertices.begin(), node.vertices.end());
    return;
  }
  if (!simd::BloomMayContainAll(node_kw_bloom_[id], query_fp)) return;

  // Locate every keyword; bail out if any is absent from this node.
  PostingScratch& s = ThreadPostingScratch();
  s.lists.clear();
  for (KeywordId kw : kws) {
    auto it = std::lower_bound(node.inv_keywords.begin(),
                               node.inv_keywords.end(), kw);
    if (it == node.inv_keywords.end() || *it != kw) return;
    s.lists.push_back(node.inv_postings[static_cast<std::size_t>(
        it - node.inv_keywords.begin())]);
  }
  // Rarest-first order: starting from the shortest list keeps every
  // intermediate intersection no larger than it.
  std::sort(s.lists.begin(), s.lists.end(),
            [](std::span<const VertexId> a, std::span<const VertexId> b) {
              return a.size() < b.size();
            });
  std::span<const VertexId> cur = s.lists[0];
  if (s.lists.size() == 1) {
    out->insert(out->end(), cur.begin(), cur.end());
    return;
  }

  // Progressive intersection, ping-ponging the running result between the
  // two scratch buffers (the kernels forbid output aliasing an input). The
  // result can only shrink, so the first list's size plus the kernels'
  // write slack bounds every buffer.
  const std::size_t cap = cur.size() + simd::kIntersectPad;
  if (s.pong.size() < cap) s.pong.resize(cap);
  if (s.ping.size() < cap) s.ping.resize(cap);
  std::vector<VertexId>* dst = &s.ping;
  for (std::size_t i = 1; i < s.lists.size() && !cur.empty(); ++i) {
    const std::size_t cnt = simd::IntersectSorted(cur, s.lists[i], dst->data());
    cur = {dst->data(), cnt};
    dst = dst == &s.ping ? &s.pong : &s.ping;
  }
  out->insert(out->end(), cur.begin(), cur.end());
}

VertexList ClTree::CollectWithKeywords(ClNodeId id,
                                       std::span<const KeywordId> kws) const {
  if (kws.empty()) return SubtreeVertices(id);
  VertexList out;
  const std::uint64_t query_fp = simd::BloomFingerprint(kws);
  for (ClNodeId i = id; i < nodes_[id].subtree_end; ++i) {
    AppendNodeMatches(i, kws, query_fp, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ClTree::CountKeyword(ClNodeId id, KeywordId kw) const {
  const std::uint64_t mask = simd::BloomMask(kw);
  std::size_t count = 0;
  for (ClNodeId i = id; i < nodes_[id].subtree_end; ++i) {
    if ((node_kw_bloom_[i] & mask) != mask) continue;
    const ClTreeNode& node = nodes_[i];
    auto it = std::lower_bound(node.inv_keywords.begin(),
                               node.inv_keywords.end(), kw);
    if (it == node.inv_keywords.end() || *it != kw) continue;
    count += node.inv_postings[static_cast<std::size_t>(
                                   it - node.inv_keywords.begin())]
                 .size();
  }
  return count;
}

std::size_t ClTree::MemoryBytes() const {
  std::size_t patch_bytes = 0;
  for (const auto& [id, p] : node_patches_) {
    patch_bytes += sizeof(NodePatch) + p.vertices.size() * sizeof(VertexId) +
                   p.kws.size() * sizeof(KeywordId) +
                   p.offs.size() * sizeof(std::uint32_t) +
                   p.posts.size() * sizeof(VertexId);
  }
  return nodes_.capacity() * sizeof(ClTreeNode) +
         vertex_node_.size() * sizeof(ClNodeId) +
         subtree_sizes_.size() * sizeof(std::uint64_t) +
         child_arena_.size() * sizeof(ClNodeId) +
         anchor_arena_.size() * sizeof(VertexId) +
         inv_keyword_arena_.size() * sizeof(KeywordId) +
         inv_offset_arena_.size() * sizeof(std::uint32_t) +
         inv_posting_arena_.size() * sizeof(VertexId) +
         node_kw_bloom_.size() * sizeof(std::uint64_t) + patch_bytes;
}

void ClTree::FixPatchedNodeSpans(ClNodeId id, NodePatch& p) {
  ClTreeNode& n = nodes_[id];
  n.vertices = {p.vertices.data(), p.vertices.size()};
  n.inv_keywords = {p.kws.data(), p.kws.size()};
  // LOCAL offsets + the patch's own raw arena: ClTreePostingsView's
  // arena[offsets[i] .. offsets[i+1]) indexing works unchanged.
  n.inv_postings = {p.offs.data(), p.posts.data(), p.kws.size()};
}

ClTree ClTree::RepairedFrom(const ClTree& parent) {
  ClTree t;
  t.repair_depth_ = parent.repair_depth_ + 1;
  t.appended_root_vertices_ = parent.appended_root_vertices_;

  // Owned small state: the node directory (its spans still point at the
  // owner's arenas — or at patch overlays, re-fixed below), per-node
  // blooms and subtree sizes (repairs write patched values into them).
  t.nodes_ = parent.nodes_;
  t.subtree_sizes_ = std::vector<std::uint64_t>(parent.subtree_sizes_.begin(),
                                                parent.subtree_sizes_.end());
  t.node_kw_bloom_ = std::vector<std::uint64_t>(parent.node_kw_bloom_.begin(),
                                                parent.node_kw_bloom_.end());

  // Shared views of every big arena. When `parent` is itself repaired its
  // members are already views of the original owner, so the chain
  // collapses: every generation points straight at the owner's buffers
  // and pinning that single backing keeps all of them valid.
  t.vertex_node_ = ArrayRef<ClNodeId>::View(parent.vertex_node_.span());
  t.child_arena_ = ArrayRef<ClNodeId>::View(parent.child_arena_.span());
  t.anchor_arena_ = ArrayRef<VertexId>::View(parent.anchor_arena_.span());
  t.inv_keyword_arena_ =
      ArrayRef<KeywordId>::View(parent.inv_keyword_arena_.span());
  t.inv_offset_arena_ =
      ArrayRef<std::uint32_t>::View(parent.inv_offset_arena_.span());
  t.inv_posting_arena_ =
      ArrayRef<VertexId>::View(parent.inv_posting_arena_.span());

  // Patch overlays are copied (they are small) and the patched nodes'
  // directory spans re-pointed at OUR copies, so the parent tree itself
  // can be destroyed.
  t.node_patches_ = parent.node_patches_;
  for (auto& [id, patch] : t.node_patches_) t.FixPatchedNodeSpans(id, patch);
  return t;
}

void ClTree::AppendRootVertices(const AttributedGraph& g, VertexId first,
                                std::size_t count, ClTreeRepairStats* stats) {
  if (count == 0 || nodes_.empty()) return;
  const auto [slot, first_patch] = node_patches_.try_emplace(root());
  NodePatch& patch = slot->second;
  if (first_patch) {
    // First patch of the root: copy its current lists into the overlay,
    // which later merges rewrite.
    const ClTreeNode& rn = nodes_[root()];
    patch.vertices.assign(rn.vertices.begin(), rn.vertices.end());
    patch.kws.assign(rn.inv_keywords.begin(), rn.inv_keywords.end());
    patch.offs.resize(patch.kws.size() + 1);
    patch.offs[0] = 0;
    for (std::size_t i = 0; i < patch.kws.size(); ++i) {
      const auto list = rn.inv_postings[i];
      patch.posts.insert(patch.posts.end(), list.begin(), list.end());
      patch.offs[i + 1] = static_cast<std::uint32_t>(patch.posts.size());
    }
  }

  // Appended ids exceed every existing id, so the anchored-vertex list and
  // every per-keyword posting list stay sorted by plain appends/merges.
  std::uint64_t new_blooms = 0;
  std::vector<std::pair<KeywordId, VertexId>> add;
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId v = first + static_cast<VertexId>(i);
    patch.vertices.push_back(v);
    for (KeywordId kw : g.Keywords(v)) {
      add.emplace_back(kw, v);
      new_blooms |= simd::BloomMask(kw);
    }
  }
  std::sort(add.begin(), add.end());

  if (!add.empty()) {
    // One merge pass over (old keyword runs) x (new sorted pairs) into
    // fresh lists — linear in the root's patch size.
    std::vector<KeywordId> kws;
    std::vector<std::uint32_t> offs{0};
    VertexList posts;
    kws.reserve(patch.kws.size());
    posts.reserve(patch.posts.size() + add.size());
    std::size_t ai = 0;
    auto flush_new_runs_below = [&](KeywordId bound, bool bounded) {
      while (ai < add.size() && (!bounded || add[ai].first < bound)) {
        const KeywordId kw = add[ai].first;
        kws.push_back(kw);
        while (ai < add.size() && add[ai].first == kw) {
          posts.push_back(add[ai].second);
          ++ai;
        }
        offs.push_back(static_cast<std::uint32_t>(posts.size()));
      }
    };
    for (std::size_t i = 0; i < patch.kws.size(); ++i) {
      const KeywordId kw = patch.kws[i];
      flush_new_runs_below(kw, true);
      kws.push_back(kw);
      posts.insert(posts.end(), patch.posts.begin() + patch.offs[i],
                   patch.posts.begin() + patch.offs[i + 1]);
      while (ai < add.size() && add[ai].first == kw) {
        posts.push_back(add[ai].second);
        ++ai;
      }
      offs.push_back(static_cast<std::uint32_t>(posts.size()));
    }
    flush_new_runs_below(0, false);
    patch.kws = std::move(kws);
    patch.offs = std::move(offs);
    patch.posts = std::move(posts);
  }
  FixPatchedNodeSpans(root(), patch);

  // Root bloom and subtree size pick up the appended vertices; no other
  // node's subtree contains the root. The ArrayRefs only expose const
  // access, so the updated arrays are rebuilt (O(nodes), trivially cheap
  // against the rebuild this replaces).
  std::vector<std::uint64_t> blooms(node_kw_bloom_.begin(),
                                    node_kw_bloom_.end());
  blooms[root()] |= new_blooms;
  node_kw_bloom_ = std::move(blooms);
  std::vector<std::uint64_t> sizes(subtree_sizes_.begin(),
                                   subtree_sizes_.end());
  sizes[root()] += count;
  subtree_sizes_ = std::move(sizes);
  appended_root_vertices_ += count;

  if (stats != nullptr) {
    stats->nodes_touched += 1;
    stats->postings_patched += add.size();
  }
}

Result<ClTree> ClTree::FromParts(const ClTreeParts& parts,
                                 std::size_t num_graph_vertices) {
  const std::size_t num_nodes = parts.records.size();
  auto bad = [](const char* what) {
    return Status::Unavailable(std::string("snapshot CL-tree rejected: ") +
                               what);
  };
  if (parts.vertex_node.size() != num_graph_vertices) {
    return bad("vertex-node map size mismatch");
  }
  if (parts.subtree_sizes.size() != num_nodes ||
      parts.node_kw_bloom.size() != num_nodes) {
    return bad("per-node array size mismatch");
  }
  ClTree tree;
  if (num_nodes == 0) {
    if (num_graph_vertices != 0) return bad("empty tree over non-empty graph");
    return tree;
  }
  if (parts.anchor_arena.size() != num_graph_vertices) {
    return bad("anchor arena size mismatch");
  }
  const std::size_t total_kws = parts.inv_keyword_arena.size();
  if (parts.inv_offset_arena.size() != total_kws + 1) {
    return bad("inverted offset arena size mismatch");
  }

  // Every record's arena slices must be in bounds and the preorder
  // invariants (parent before child, nested subtree ranges) must hold —
  // the query paths index through these without further checks.
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const ClTreeNodeRecord& r = parts.records[i];
    if (i == 0 ? r.parent != kInvalidClNode : r.parent >= i) {
      return bad("non-preorder parent link");
    }
    if (r.subtree_end <= i || r.subtree_end > num_nodes) {
      return bad("subtree range out of bounds");
    }
    if (r.children_begin > parts.child_arena.size() ||
        r.children_count > parts.child_arena.size() - r.children_begin) {
      return bad("child slice out of bounds");
    }
    if (r.anchor_begin > parts.anchor_arena.size() ||
        r.anchor_count > parts.anchor_arena.size() - r.anchor_begin) {
      return bad("anchor slice out of bounds");
    }
    if (r.inv_slot_begin > total_kws ||
        r.inv_count > total_kws - r.inv_slot_begin) {
      return bad("inverted-list slice out of bounds");
    }
    if (parts.subtree_sizes[i] > num_graph_vertices) {
      return bad("subtree size exceeds graph");
    }
  }
  for (ClNodeId child : parts.child_arena) {
    if (child >= num_nodes) return bad("child id out of range");
  }
  for (ClNodeId node : parts.vertex_node) {
    if (node >= num_nodes) return bad("vertex anchored out of range");
  }
  for (VertexId v : parts.anchor_arena) {
    if (v >= num_graph_vertices) return bad("anchored vertex out of range");
  }
  // Offsets must ascend and the final sentinel must cover exactly the
  // posting arena.
  for (std::size_t slot = 0; slot < total_kws; ++slot) {
    if (parts.inv_offset_arena[slot] > parts.inv_offset_arena[slot + 1]) {
      return bad("posting offsets not ascending");
    }
  }
  if (parts.inv_offset_arena[total_kws] != parts.inv_posting_arena.size()) {
    return bad("posting arena size mismatch");
  }
  for (VertexId v : parts.inv_posting_arena) {
    if (v >= num_graph_vertices) return bad("posting vertex out of range");
  }

  tree.vertex_node_ = ArrayRef<ClNodeId>::View(parts.vertex_node);
  tree.subtree_sizes_ = ArrayRef<std::uint64_t>::View(parts.subtree_sizes);
  tree.child_arena_ = ArrayRef<ClNodeId>::View(parts.child_arena);
  tree.anchor_arena_ = ArrayRef<VertexId>::View(parts.anchor_arena);
  tree.inv_keyword_arena_ = ArrayRef<KeywordId>::View(parts.inv_keyword_arena);
  tree.inv_offset_arena_ =
      ArrayRef<std::uint32_t>::View(parts.inv_offset_arena);
  tree.inv_posting_arena_ = ArrayRef<VertexId>::View(parts.inv_posting_arena);
  tree.node_kw_bloom_ = ArrayRef<std::uint64_t>::View(parts.node_kw_bloom);

  // Materialize the node directory: the ONE load-path allocation that
  // scales with the tree (a single vector of span views into the mapped
  // arenas — one operator-new call regardless of graph size).
  tree.nodes_.resize(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const ClTreeNodeRecord& r = parts.records[i];
    ClTreeNode& dst = tree.nodes_[i];
    dst.core = r.core;
    dst.parent = r.parent;
    dst.subtree_end = r.subtree_end;
    dst.children = {tree.child_arena_.data() + r.children_begin,
                    r.children_count};
    dst.vertices = {tree.anchor_arena_.data() + r.anchor_begin,
                    r.anchor_count};
    dst.inv_keywords = {tree.inv_keyword_arena_.data() + r.inv_slot_begin,
                        r.inv_count};
    dst.inv_postings = {tree.inv_offset_arena_.data() + r.inv_slot_begin,
                        tree.inv_posting_arena_.data(),
                        static_cast<std::size_t>(r.inv_count)};
  }
  return tree;
}

}  // namespace cexplorer
