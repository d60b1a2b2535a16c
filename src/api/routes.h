// The declarative route table of the /v1 HTTP surface.
//
// One static table declares every endpoint: its name (the path is always
// "/v1/<name>"), its legacy unversioned alias (when it has one), the HTTP
// methods it answers, and its parameter schema (name, type, required,
// default, doc). Route names may contain one or more "<param>" segments
// ("jobs/<id>/result"); the matching segment of the request path is
// captured into the named parameter before validation. From this single
// source of truth the server derives
//
//   * route lookup for the /v1 path (exact or pattern) and the legacy
//     alias,
//   * method policy (405 for an undeclared method),
//   * automatic parameter validation (missing required params, type
//     mismatches, and — on /v1 paths only — unknown parameters are
//     kInvalidArgument before any handler runs; legacy aliases stay
//     lenient so pre-v1 clients keep their byte-identical behavior),
//   * the GET /v1/api self-description document, including the schema of
//     every registered algorithm.
//
// Adding an endpoint means adding one table row and one binder in
// server.cc; there is no other registration.

#ifndef CEXPLORER_API_ROUTES_H_
#define CEXPLORER_API_ROUTES_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/error.h"
#include "explorer/algorithm.h"
#include "server/http.h"

namespace cexplorer {
namespace api {

enum class ParamType { kString, kInt, kJson };

/// Wire name of a parameter type ("string", "int", "json").
const char* ParamTypeName(ParamType type);

/// HTTP method mask of a route.
enum RouteMethod : unsigned {
  kMethodGet = 1u << 0,
  kMethodPost = 1u << 1,
  kMethodDelete = 1u << 2,
};

/// The method bit of a request method string, or 0 when unsupported.
unsigned MethodBit(const std::string& method);

struct ParamSpec {
  const char* name;
  ParamType type;
  bool required;           ///< must be present and non-empty
  const char* default_value;  ///< documented default; "" = none
  const char* doc;
};

struct RouteSpec {
  /// Route name; the v1 path is "/v1/<name>". "<param>" segments match any
  /// non-empty path segment and capture it under the bracketed name.
  const char* name;
  const char* legacy_path;  ///< unversioned alias; "" = none
  unsigned methods;         ///< RouteMethod mask for the /v1 path
  const ParamSpec* params;
  std::size_t num_params;
  const char* doc;

  std::string V1Path() const { return std::string("/v1/") + name; }
};

/// The full route table, in documentation order. `count` receives its size.
const RouteSpec* Routes(std::size_t* count);

/// Looks a path up as a /v1 path (exact first, then "<param>" patterns) or
/// a legacy alias. Returns nullptr when unknown; `is_v1` reports which form
/// matched (strict validation applies only to the /v1 form); pattern
/// captures land in `path_params` (may be nullptr when the caller only
/// probes).
const RouteSpec* FindRoute(const std::string& path, bool* is_v1,
                           std::map<std::string, std::string>* path_params);

/// Two-argument overload (no capture output) for probing callers.
inline const RouteSpec* FindRoute(const std::string& path, bool* is_v1) {
  return FindRoute(path, is_v1, nullptr);
}

/// Validates a parsed request against the schema. In strict (/v1) mode,
/// required params must be present and non-empty, typed params must parse,
/// and any parameter not in the schema (other than the universal "session")
/// is rejected. Lenient (legacy-alias) mode only enforces required
/// presence, preserving the pre-v1 fallback behavior for everything else.
/// Returns nullopt when the request is valid.
std::optional<ApiError> ValidateParams(const RouteSpec& route,
                                       const HttpRequest& request,
                                       bool strict);

/// Renders the GET /v1/api self-description document from the table plus
/// the registered algorithm descriptors (kind, doc, capabilities, and the
/// full parameter schema of each).
std::string DescribeApi(
    const std::vector<const AlgorithmDescriptor*>& algorithms = {});

}  // namespace api
}  // namespace cexplorer

#endif  // CEXPLORER_API_ROUTES_H_
