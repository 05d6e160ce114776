//===- obs/Span.h - Scoped spans + Chrome trace export ---------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timeline spans for the tuning pipeline. A SpanScope records one timed
/// interval (RAII: construction stamps the start on the monotonic obs
/// clock, destruction records the duration) attributed to a "tid" — for
/// engine evaluations the lane number, otherwise a dense per-thread id.
/// The process-wide SpanCollector gathers records and exports them as
/// Chrome trace-event JSON ("X" complete events plus "thread_name"
/// metadata), so a whole tune — search stages, warm batches, backend
/// evals, cache writes — renders as a per-lane timeline in
/// Perfetto or chrome://tracing.
///
/// Zero-cost when off: a SpanScope whose collector is disabled at
/// construction does one relaxed atomic load and never touches the clock.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_OBS_SPAN_H
#define ECO_OBS_SPAN_H

#include "support/Json.h"
#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eco {
namespace obs {

/// One completed interval on the shared monotonic timeline.
struct SpanRecord {
  std::string Name;   ///< event name ("eval v1/tile0", "stage:register")
  std::string Cat;    ///< category ("tune", "search", "eval", "io")
  std::string Detail; ///< free-form args.detail text (may be empty)
  uint64_t StartUs = 0;
  uint64_t DurUs = 0;
  int Tid = 0; ///< engine lane, or dense thread id for non-lane work
};

/// Thread-safe collector with Chrome trace-event JSON export.
class SpanCollector {
public:
  /// The process-wide collector all SpanScopes record into.
  static SpanCollector &global();

  bool enabled() const { return On.load(std::memory_order_relaxed); }
  void setEnabled(bool Enabled) {
    On.store(Enabled, std::memory_order_relaxed);
  }

  void record(SpanRecord R);
  /// Names \p Tid's row in the exported timeline ("lane 0 (search)").
  void setThreadName(int Tid, std::string Name);

  std::vector<SpanRecord> records() const;
  size_t numRecords() const;
  void clear();

  /// {"displayTimeUnit":"ms","traceEvents":[...]} — "M" thread_name
  /// metadata first, then one "X" complete event per span (ts/dur in
  /// microseconds, as the format requires).
  Json chromeTraceJson() const;

  /// Serializes chromeTraceJson() to \p Path (atomic write).
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::atomic<bool> On{false};
  mutable Mutex M{"obs.spans"};
  std::vector<SpanRecord> Records ECO_GUARDED_BY(M);
  std::map<int, std::string> ThreadNames ECO_GUARDED_BY(M);
};

/// Dense id of the calling thread (0 for the first caller — the main /
/// search thread, which is also engine lane 0).
int currentThreadTid();

/// RAII span over the global collector.
class SpanScope {
public:
  /// \p Tid < 0 attributes the span to the calling thread's dense id.
  explicit SpanScope(std::string Name, std::string Cat = "",
                     std::string Detail = "", int Tid = -1);
  ~SpanScope();

  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  /// Replaces the detail text (e.g. once a batch size is known).
  void setDetail(std::string Detail);

private:
  bool Active;
  SpanRecord R;
};

} // namespace obs
} // namespace eco

#endif // ECO_OBS_SPAN_H
