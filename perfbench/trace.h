// Span recording for the traced run. The benchmark records spans from its
// own files, around its calls into each layer's public functions; nothing
// inside src/ is instrumented. Spans stay in per-thread memory while the
// run measures and are written out when it ends.
//
// A span's self time is its duration minus the time its children cover.
// Children are either nested calls or "shadow" calls: the benchmark re-runs
// a lower layer with the same inputs right after the request (for example
// Explorer::Search after QueryService::Search) and files that call as a
// child, so the parent's self time excludes the lower layer's cost.

#ifndef CEXPLORER_PERFBENCH_TRACE_H_
#define CEXPLORER_PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "acq/acq.h"
#include "perfbench/bench.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t request = 0;  ///< shared by every span of one request
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  Clock::time_point start;
  Clock::time_point end;
  int tag = 0;       ///< span-specific class (cache outcome, algorithm)
  double value = 0;  ///< span-specific count (bytes, members)
};

/// Tags of "api.search" spans: how the result cache answered.
enum CacheTag { kCacheUnknown = 0, kCacheHit = 1, kCacheMiss = 2 };

class Tracer {
 public:
  /// One thread's span buffer; only its owner thread writes to it.
  class Buffer {
   public:
    explicit Buffer(std::uint64_t index) : index_(index) {}
    std::uint64_t NewRequest() { return (index_ << 40) | ++requests_; }
    /// Records a finished span and returns its id.
    std::uint64_t Add(const char* name, std::uint64_t request,
                      std::uint64_t parent, Clock::time_point start,
                      Clock::time_point end, int tag = 0, double value = 0);

    std::vector<Span> spans;
    cexplorer::AcqStats acq;  ///< summed over the shadow ACQ searches

   private:
    std::uint64_t index_;
    std::uint64_t requests_ = 0;
  };

  /// A fresh buffer owned by the tracer. Thread-safe.
  Buffer* NewBuffer();

  /// Writes every span as one JSON line (times in microseconds since
  /// `origin`).
  void Write(const std::string& path, Clock::time_point origin) const;

  /// Spans named `name` recorded so far.
  std::size_t Count(const char* name) const;

  /// Appends the per-layer metrics the spans give (parse, dispatch self,
  /// API self, locate, ACQ, algorithms, layout, load path).
  void AddLayerMetrics(std::vector<Metric>* out) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times the load path's layers on the prepared inputs, three times each:
/// ParseAttributed, CoreDecomposition, ClTree::Build, Dataset::Build and
/// Dataset::FromSnapshotFile.
void TraceLoadPath(const Config& config, Tracer::Buffer* buffer);

}  // namespace perfbench

#endif  // CEXPLORER_PERFBENCH_TRACE_H_
