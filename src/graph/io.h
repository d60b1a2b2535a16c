// Text formats for plain and attributed graphs.
//
// Edge-list format (SNAP style): one "u v" pair per line, '#' comments.
//
// Attributed format (tab-separated):
//   v<TAB>id<TAB>name<TAB>kw1 kw2 kw3 ...
//   e<TAB>u<TAB>v
// Vertex ids must be dense 0..n-1; lines may appear in any order as long as
// every edge endpoint is declared by some 'v' line. Keyword ids are
// interned in first-occurrence order by vertex id (not by line order), so
// a document and any reordering of its lines parse to the same graph.
//
// Both formats: each line is trimmed of ASCII whitespace (so CRLF endings
// and trailing tabs are harmless), and blank lines and lines starting with
// '#' are skipped. A vertex id or edge endpoint is a base-10 integer in
// [0, kInvalidVertex); anything else is rejected, never truncated.
//
// Errors. A document is rejected with the FIRST bad line in file order,
// as a ParseError reading "<format> line N: <what>", where <format> is
// "edge list" or "attributed", N counts every line from 1 (blank and
// comment lines included), and <what> is one of:
//   edge list:  "expected 'u v'", "invalid vertex id"
//   attributed: "expected 'v<TAB>id<TAB>name[<TAB>keywords]'",
//               "invalid vertex id", "duplicate vertex id",
//               "expected 'e<TAB>u<TAB>v'", "invalid edge endpoint",
//               "unknown record type '<field>'"
// A line-clean attributed document can still fail as a whole: a ParseError
// "vertex id I never declared (ids must be dense)" names the smallest
// missing id (vertex storage is sized by the number of 'v' lines, so an id
// at or above that count always lands here), and an edge to an id that is
// in range but undeclared is InvalidArgument "edge endpoint does not
// exist".
//
// Parsing scans the text in newline-aligned chunks (at least 64 KiB, at
// most 16 per document) on a thread pool; the graph and every error are
// identical for any pool size.

#ifndef CEXPLORER_GRAPH_IO_H_
#define CEXPLORER_GRAPH_IO_H_

#include <string>
#include <string_view>

#include "common/parallel.h"
#include "common/status.h"
#include "graph/attributed_graph.h"
#include "graph/graph.h"

namespace cexplorer {

/// Parses an edge list from a string buffer.
Result<Graph> ParseEdgeList(const std::string& text);

/// Loads an edge list file.
Result<Graph> LoadEdgeList(const std::string& path);

/// Renders a graph as an edge list.
std::string ToEdgeList(const Graph& g);

/// Saves a graph as an edge list file.
Status SaveEdgeList(const Graph& g, const std::string& path);

/// Parses the attributed format from a string buffer on DefaultPool().
Result<AttributedGraph> ParseAttributed(const std::string& text);

/// Parses the attributed format on `pool` (nullptr = sequential).
Result<AttributedGraph> ParseAttributed(std::string_view text,
                                        ThreadPool* pool);

/// Loads an attributed graph file.
Result<AttributedGraph> LoadAttributed(const std::string& path);

/// Renders an attributed graph in the attributed format.
std::string ToAttributedText(const AttributedGraph& g);

/// Saves an attributed graph file.
Status SaveAttributed(const AttributedGraph& g, const std::string& path);

}  // namespace cexplorer

#endif  // CEXPLORER_GRAPH_IO_H_
