//===- engine/EvalCache.h - Memoizing evaluation store ---------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's persistent memo table: every completed evaluation is
/// stored under a stable key derived from (canonical LoopNest print,
/// machine fingerprint, Env bindings), so
///
///  * points the search revisits within one tune (shape search backtracks
///    constantly) are free,
///  * a tune re-run on identical input replays from the JSON file with
///    no backend evaluation at all,
///  * a killed tune rerun on the same file resumes: the search replays
///    its decisions against the cached costs up to where it was killed,
///    so the winner is bit-identical to an uninterrupted tune. The
///    engine saves every EngineOptions::CacheSaveInterval inserts, which
///    bounds the work a kill loses.
///
/// The map is sharded (one mutex per shard) so concurrent workers
/// publishing results do not serialize on one lock.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_ENGINE_EVALCACHE_H
#define ECO_ENGINE_EVALCACHE_H

#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

namespace eco {

/// A stable cache key: the three component hashes plus their rendered
/// text form (the JSON field name).
struct EvalKey {
  uint64_t NestHash = 0;
  uint64_t MachineHash = 0;
  uint64_t EnvHash = 0;

  /// "nest-machine-env" in fixed-width hex; the persistent form.
  std::string str() const;
  uint64_t combined() const;
};

/// Thread-safe memoizing store of evaluation costs with optional JSON
/// persistence.
class EvalCache {
public:
  EvalCache() = default;

  /// Returns the memoized cost for \p Key, if present. Counts a hit or
  /// miss for hitRate().
  std::optional<double> lookup(const EvalKey &Key);

  /// Memoizes \p Cost under \p Key (last write wins; evaluations are
  /// deterministic so concurrent writers agree).
  void insert(const EvalKey &Key, double Cost);

  size_t size() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  double hitRate() const {
    uint64_t H = hits(), M = misses();
    return H + M ? static_cast<double>(H) / static_cast<double>(H + M) : 0;
  }
  void resetCounters();

  /// Loads entries from a JSON file previously written by save(); merges
  /// into the current contents. Returns the number of entries loaded
  /// (0 for a missing or malformed file — a fresh cache is not an error).
  ///
  /// When \p RequireMachineHash is non-zero, only entries whose key's
  /// machine-fingerprint segment matches it are accepted; entries from
  /// another machine (someone pointed --cache-file at a different
  /// target's cache) are rejected and counted on the
  /// "cache.foreign_rejected" metric instead of sitting in memory and
  /// being re-saved into this machine's file. Foreign costs could never
  /// be *served* (the lookup key embeds the machine hash), but silently
  /// carrying them forward made a wrong file look valid forever.
  size_t load(const std::string &Path, uint64_t RequireMachineHash = 0);

  /// Writes every finite entry to \p Path as pretty JSON (atomic
  /// rename). Non-finite costs (a failed native compile) are left out,
  /// so a later load re-evaluates them rather than reading JSON's
  /// finite stand-in back as a feasible cost.
  bool save(const std::string &Path) const;

private:
  static constexpr size_t NumShards = 16;
  struct Shard {
    mutable Mutex M{"evalcache.shard"};
    std::unordered_map<std::string, double> Map ECO_GUARDED_BY(M);
  };
  Shard &shardFor(const std::string &KeyText);
  const Shard &shardFor(const std::string &KeyText) const;

  Shard Shards[NumShards];
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

} // namespace eco

#endif // ECO_ENGINE_EVALCACHE_H
