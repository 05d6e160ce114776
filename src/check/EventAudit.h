//===- check/EventAudit.h - Flight-recorder stream auditing ----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariant auditing over flight-recorder event streams (obs/Event.h),
/// the single audited record of a tune. Per segment (a restarted process
/// appends one whose seq restarts at 0):
///
///  * schema: every line parses and carries seq / t_us / type / fields;
///  * ordering: seq is dense (a gap or duplicate means a line was lost,
///    deleted or double-emitted) and timestamps never go backwards — the
///    bus stamps both under one mutex;
///  * reconciliation: per tune window, the counts recomputed from the
///    events (evaluations, cache hits, and the variant.rejected /
///    config.rejected events, 1:1 with `transform.rejected` bumps) equal
///    the tune.done totals the Tuner copied from TuneResult, and the last
///    winner.updated cost equals tune.done's best_cost bitwise.
///
/// Per tune window (obs::analyzeEvents: a daemon's file holds many
/// kernels and sizes, so nothing is compared across windows), the
/// config.evaluated events must show bitwise-consistent costs for the
/// same (variant, config), no NaN or negative cost, and stages in
/// pipeline order per variant (rank, initial, register, tile0..,
/// prefetch, adjust). With an expected best cost the window minimum must
/// equal it: a cheaper point means an accept step lost the incumbent, a
/// missing one that the result was never evaluated. Callers set it only
/// for default cold tunes — a PreferVariant or warm tune may rank a
/// cheaper variant it does not search.
///
/// checkJobsDeterminism() replays a tune at --jobs 1 and --jobs N,
/// asserts the winners are bit-identical, and audits both streams.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CHECK_EVENTAUDIT_H
#define ECO_CHECK_EVENTAUDIT_H

#include "exec/Run.h"
#include "ir/Loop.h"
#include "machine/MachineDesc.h"
#include "obs/Event.h"

#include <cstdint>
#include <string>
#include <vector>

namespace eco {
namespace check {

/// One invariant violation found in an event stream.
struct EventIssue {
  std::string Kind; ///< "parse", "schema", "seq", "time", "reconcile",
                    ///  "winner", "cost-mismatch", "bad-cost",
                    ///  "stage-order", "cold-hit", "regression"
  uint64_t Seq = 0; ///< seq of the offending event (0 for parse errors)
  std::string Detail;
};

struct EventAuditOptions {
  /// When true, a cache_hit event for a configuration never evaluated
  /// earlier in the stream is an issue — valid only for streams produced
  /// with a cold (empty or absent) persistent cache. Keyed by the config
  /// body (without the variant prefix): the engine memoizes under the
  /// instantiated nest, so variants whose skeletons instantiate
  /// identically share entries across variant names. The cache outlives
  /// a tune window, so this one check spans the whole stream.
  bool AssumeColdCache = false;
  /// When set, every completed tune window's best_cost and its minimum
  /// config.evaluated cost must equal this bit-for-bit (the caller holds
  /// the live TuneResult::BestCost).
  bool HasExpectedBestCost = false;
  double ExpectedBestCost = 0;
};

struct EventAuditReport {
  size_t Events = 0;
  size_t Segments = 0;
  size_t Tunes = 0; ///< completed tune windows
  std::vector<EventIssue> Issues;

  bool ok() const { return Issues.empty(); }
  std::string summary() const;
};

/// Audits in-memory events (e.g. straight from EventBus::snapshot()).
EventAuditReport auditEvents(const std::vector<obs::Event> &Events,
                             const EventAuditOptions &Opts = {});

/// Reads \p Path as JSONL and audits it. Unreadable file => one "parse"
/// issue; blank lines are ignored.
EventAuditReport auditEventsFile(const std::string &Path,
                                 const EventAuditOptions &Opts = {});

/// Outcome of the jobs-determinism replay.
struct JobsDeterminismResult {
  bool Ran = false;           ///< false when either tune failed outright
  std::string WinnerSeq;      ///< winning variant|configString at jobs=1
  std::string WinnerPar;      ///< ... at jobs=N
  double CostSeq = 0, CostPar = 0;
  EventAuditReport AuditSeq, AuditPar;
  std::string Detail;

  bool ok() const {
    return Ran && WinnerSeq == WinnerPar && CostSeq == CostPar &&
           AuditSeq.ok() && AuditPar.ok();
  }
  std::string summary() const;
};

/// Tunes \p Nest twice through fresh engines — jobs=1 and jobs=\p Jobs —
/// with the global event bus's file sink redirected into \p TmpDir,
/// asserts the winners are bit-identical, and audits both event files
/// (cold-cache mode, best cost cross-checked). The bus's previous sink
/// and enabled state are restored afterwards; a sink that was open gets
/// none of these tunes' events, so its own seq numbers skip them.
JobsDeterminismResult checkJobsDeterminism(const LoopNest &Nest,
                                           const MachineDesc &Machine,
                                           const ParamBindings &Problem,
                                           int Jobs,
                                           const std::string &TmpDir);

} // namespace check
} // namespace eco

#endif // ECO_CHECK_EVENTAUDIT_H
