//===- engine/Engine.cpp - Parallel evaluation engine ---------------------===//

#include "engine/Engine.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Span.h"
#include "support/NestHash.h"
#include "support/Timer.h"
#include "transform/TransformError.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <set>

using namespace eco;

namespace {

/// Mirrors one evaluation into the process metrics registry (only called
/// when obs::metricsEnabled()). Naming scheme:
///   eval.evaluations / eval.cache_hits        totals
///   eval.latency_ms                           histogram of backend ms
///   eval.points.<variant>.<stage>             per-bucket real evals
///   eval.hits.<variant>.<stage>               per-bucket cache hits
///   hw.loads / hw.stores / ... hw.stall_cycles summed HW deltas
void mirrorToMetrics(const std::string &Variant, const std::string &Stage,
                     bool CacheHit, double Millis, const HWCounters *HW) {
  obs::MetricsRegistry &Reg = obs::metrics();
  if (CacheHit) {
    Reg.counter("eval.cache_hits").inc();
    Reg.counter("eval.hits." + Variant + "." + Stage).inc();
    return;
  }
  Reg.counter("eval.evaluations").inc();
  Reg.counter("eval.points." + Variant + "." + Stage).inc();
  Reg.histogram("eval.latency_ms").record(Millis);
  if (HW) {
    Reg.counter("hw.loads").inc(HW->Loads);
    Reg.counter("hw.stores").inc(HW->Stores);
    Reg.counter("hw.prefetches").inc(HW->Prefetches);
    Reg.counter("hw.flops").inc(HW->Flops);
    Reg.counter("hw.l1_misses").inc(HW->l1Misses());
    Reg.counter("hw.l2_misses").inc(HW->l2Misses());
    Reg.counter("hw.tlb_misses").inc(HW->TlbMisses);
    Reg.gauge("hw.issue_cycles").add(HW->IssueCycles);
    Reg.gauge("hw.stall_cycles").add(HW->StallCycles);
  }
}

} // namespace

EvalEngine::EvalEngine(EvalBackend &Backend, EngineOptions EOpts)
    : Base(Backend), Opts(std::move(EOpts)) {
  MachineHash = Base.machine().fingerprint();
  MachineHash = hashString(Base.cacheSalt(), MachineHash);
  CachePtr = Opts.SharedCache ? Opts.SharedCache
                              : std::make_shared<EvalCache>();

  int Jobs = std::max(Opts.Jobs, 1);
  LaneBackends.resize(1); // lane 0 runs on Base
  for (int Lane = 1; Lane < Jobs; ++Lane) {
    std::unique_ptr<EvalBackend> Clone = Base.clone();
    if (!Clone) {
      // Backend cannot be parallelized; degrade to sequential rather
      // than share one instance across threads.
      ECO_LOG(Warn) << "backend is not clonable; degrading --jobs "
                    << Jobs << " to sequential evaluation";
      LaneBackends.resize(1);
      Jobs = 1;
      break;
    }
    LaneBackends.push_back(std::move(Clone));
  }
  Pool = std::make_unique<ThreadPool>(Jobs);

  if (obs::SpanCollector::global().enabled()) {
    // Lane tids coincide with dense thread ids only for lane 0 (the
    // search thread); name the rows so the exported timeline reads as
    // the engine's lane structure.
    obs::SpanCollector::global().setThreadName(0, "lane 0 (search)");
    for (int Lane = 1; Lane < Jobs; ++Lane)
      obs::SpanCollector::global().setThreadName(
          Lane, "lane " + std::to_string(Lane));
  }

  if (!Opts.CacheFile.empty())
    CachePtr->load(Opts.CacheFile, MachineHash);
  ECO_LOG(Info) << "engine ready: jobs=" << Jobs << " cache="
                << (Opts.CacheFile.empty() ? "<none>" : Opts.CacheFile);
}

EvalEngine::~EvalEngine() { flush(); }

void EvalEngine::flush() {
  if (!Opts.CacheFile.empty()) {
    obs::SpanScope S("cache.save", "io", Opts.CacheFile);
    MutexLock SaveLock(SaveMutex);
    CachePtr->save(Opts.CacheFile);
  }
}

const EvalEngine::Instantiation &
EvalEngine::instantiated(const DerivedVariant &V, const Env &Config) {
  std::pair<const void *, std::string> Key{&V, instantiationKey(V, Config)};
  {
    MutexLock Lock(InstMutex);
    auto It = InstMemo.find(Key);
    if (It != InstMemo.end())
      return It->second;
  }
  // Build outside the lock: instantiation walks the whole nest, and
  // warm batches instantiate distinct unroll/prefetch shapes in
  // parallel. Losing the emplace race just discards a duplicate.
  Instantiation Fresh;
  Fresh.Nest = V.instantiate(Config, Base.machine());
  Fresh.NestHash = hashNest(Fresh.Nest);
  MutexLock Lock(InstMutex);
  auto [It, Inserted] = InstMemo.emplace(std::move(Key), std::move(Fresh));
  (void)Inserted;
  return It->second;
}

EvalKey EvalEngine::keyFor(const DerivedVariant &V,
                           const Instantiation &Inst,
                           const Env &Config) const {
  EvalKey Key;
  Key.NestHash = Inst.NestHash;
  Key.MachineHash = MachineHash;
  Key.EnvHash = hashEnv(Config, V.Skeleton.Syms);
  return Key;
}

EvalOutcome EvalEngine::evalOne(const DerivedVariant &V, const Env &Config,
                                const std::string &Stage, int Lane,
                                bool Warm) {
  const Instantiation *InstPtr = nullptr;
  try {
    InstPtr = &instantiated(V, Config);
  } catch (const TransformError &E) {
    // Illegal unroll/prefetch request for this config: infinite cost,
    // never an escaping exception (evalOne runs on lane threads).
    ECO_LOG(Warn) << "config rejected (illegal transform): " << E.what();
    {
      MutexLock Lock(StatsMutex);
      ++Stats.Rejected;
    }
    if (obs::metricsEnabled())
      obs::metrics().counter("transform.rejected").inc();
    if (obs::eventsEnabled()) {
      // Paired 1:1 with the transform.rejected bump: the event audit
      // reconciles config.rejected events against that counter.
      Json F = Json::object();
      F.set("variant", V.Spec.Name);
      F.set("stage", Stage);
      F.set("config", V.configString(Config));
      F.set("reason", std::string(E.what()));
      obs::publishEvent("config.rejected", std::move(F));
    }
    EvalOutcome Bad;
    Bad.Cost = std::numeric_limits<double>::infinity();
    Bad.Lane = Lane;
    return Bad;
  }
  const Instantiation &Inst = *InstPtr;
  EvalKey Key = keyFor(V, Inst, Config);

  EvalOutcome O;
  if (std::optional<double> Hit = CachePtr->lookup(Key)) {
    if (Warm)
      return O; // speculative work already done — nothing to record
    O.Cost = *Hit;
    O.CacheHit = true;
    {
      MutexLock Lock(StatsMutex);
      ++Stats.CacheHits;
      StageTelemetry &Row = VariantStages[{V.Spec.Name, Stage}];
      Row.Variant = V.Spec.Name;
      Row.Stage = Stage;
      ++Row.CacheHits;
    }
    if (obs::metricsEnabled())
      mirrorToMetrics(V.Spec.Name, Stage, /*CacheHit=*/true, 0, nullptr);
    if (obs::eventsEnabled())
      publishEvaluated(V, Config, Stage, O, Warm);
    return O;
  }

  EvalBackend &Backend =
      Lane == 0 ? Base : *LaneBackends[static_cast<size_t>(Lane)];
  // The backend's accumulating HW counters are only touched by this
  // lane's thread (lane exclusivity), so an unsynchronized snapshot /
  // diff around the evaluation is race-free.
  const HWCounters *LiveHW = Backend.hwCounters();
  HWCounters Before;
  if (LiveHW)
    Before = *LiveHW;
  uint64_t EvalStartUs = obs::monotonicMicros();
  Timer T;
  O.Cost = Backend.evaluate(Inst.Nest, Config);
  O.Millis = T.millis();
  O.Lane = Lane;
  HWCounters Delta;
  if (LiveHW)
    Delta = LiveHW->delta(Before);

  if (obs::SpanCollector::global().enabled())
    obs::SpanCollector::global().record(
        {V.Spec.Name + "/" + Stage, "eval", V.configString(Config),
         EvalStartUs, obs::monotonicMicros() - EvalStartUs, Lane});

  bool SaveNow = false;
  {
    MutexLock Lock(StatsMutex);
    ++Stats.Evaluations;
    Stats.BackendSeconds += O.Millis / 1e3;
    StageTelemetry &Row = VariantStages[{V.Spec.Name, Stage}];
    Row.Variant = V.Spec.Name;
    Row.Stage = Stage;
    ++Row.Evaluations;
    Row.BackendSeconds += O.Millis / 1e3;
    if (LiveHW) {
      Row.HW += Delta;
      Row.HasHW = true;
    }
    if (!Opts.CacheFile.empty() && Opts.CacheSaveInterval > 0 &&
        ++InsertsSinceSave >= Opts.CacheSaveInterval) {
      InsertsSinceSave = 0;
      SaveNow = true;
    }
  }
  if (obs::metricsEnabled())
    mirrorToMetrics(V.Spec.Name, Stage, /*CacheHit=*/false, O.Millis,
                    LiveHW ? &Delta : nullptr);
  if (obs::eventsEnabled())
    publishEvaluated(V, Config, Stage, O, Warm);
  // Insert only after the event is out: a concurrent search of another
  // variant whose instantiation shares this key can then only publish
  // its cache hit after this evaluation in the stream.
  CachePtr->insert(Key, O.Cost);
  if (SaveNow) {
    // Periodic durability for kill/resume. Saves are serialized: when
    // another lane is already writing the snapshot, skip rather than
    // race it — this lane's insert lands in the next save or in flush().
    if (SaveMutex.try_lock()) {
      CachePtr->save(Opts.CacheFile);
      SaveMutex.unlock();
    }
  }
  return O;
}

EvalOutcome EvalEngine::evaluate(const DerivedVariant &V, const Env &Config,
                                 const std::string &Stage) {
  // A search running as a runConcurrently task evaluates on its own
  // lane's backend; the calling thread outside any task is lane 0.
  return evalOne(V, Config, Stage, std::max(Pool->currentLane(), 0),
                 /*Warm=*/false);
}

void EvalEngine::runConcurrently(
    const std::vector<std::function<void()>> &Tasks) {
  if (Pool->jobs() <= 1 || Tasks.size() <= 1) {
    // Nothing to overlap: run inline, outside any lane task, so a lone
    // search still fans its warm batches out to the lanes.
    Evaluator::runConcurrently(Tasks);
    return;
  }
  // Lane threads inherit the submitting thread's job id, and an escaping
  // exception is carried back to it (the first in task order) instead
  // of terminating a worker thread.
  const uint64_t Job = obs::currentJobId();
  std::vector<std::exception_ptr> Errors(Tasks.size());
  std::vector<std::function<void(int)>> LaneTasks;
  LaneTasks.reserve(Tasks.size());
  for (size_t I = 0; I < Tasks.size(); ++I)
    LaneTasks.push_back([&Tasks, &Errors, I, Job](int) {
      obs::ScopedJobId JobScope(Job);
      try {
        Tasks[I]();
      } catch (...) {
        Errors[I] = std::current_exception();
      }
    });
  Pool->runBatch(LaneTasks);
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}

void EvalEngine::warmMany(
    const std::vector<std::pair<const DerivedVariant *, Env>> &Points,
    const std::string &Stage) {
  bool WantRemote =
      Opts.RemoteWarm && (!Opts.RemoteWarmGate || Opts.RemoteWarmGate());
  // Inside a runConcurrently task every lane is already searching, so
  // only the remote fleet (thread-safe) can take the batch.
  const bool LocalLanes = Pool->jobs() > 1 && Pool->currentLane() < 0;
  if ((!LocalLanes && !WantRemote) || Points.size() < 2)
    return; // sequential: the decision loop will evaluate on demand

  // Drop duplicates within the batch so two lanes never race to run the
  // same point (results would agree, but the work would be wasted).
  std::set<std::string> Seen;
  std::vector<std::pair<const DerivedVariant *, const Env *>> Unique;
  Unique.reserve(Points.size());
  for (const auto &[V, Config] : Points) {
    if (!Seen.insert(V->Spec.Name + "|" + V->configString(Config)).second)
      continue;
    Unique.push_back({V, &Config});
  }

  if (WantRemote) {
    // Export every not-yet-cached point in portable form and block on
    // the fleet. Completed costs land in the shared cache; anything the
    // fleet drops (worker death, exhausted retries) stays uncached and
    // is evaluated locally by the decision loop — same winner, just
    // slower, which is the graceful-degradation contract.
    std::vector<RemotePoint> Remote;
    Remote.reserve(Unique.size());
    for (const auto &[V, Config] : Unique) {
      try {
        const Instantiation &Inst = instantiated(*V, *Config);
        EvalKey Key = keyFor(*V, Inst, *Config);
        if (CachePtr->lookup(Key))
          continue; // already known — nothing to ship
        RemotePoint P;
        P.Variant = V->Spec.Name;
        P.Config = envToBindings(V->Skeleton, *Config);
        P.Key = Key;
        Remote.push_back(std::move(P));
      } catch (const TransformError &) {
        // Illegal instantiation: skip silently. The decision loop's own
        // evalOne records the rejection (counter + event) exactly once;
        // accounting here would double-count it.
      }
    }
    if (!Remote.empty()) {
      obs::SpanScope S("warm-remote:" + Stage, "engine",
                       std::to_string(Remote.size()) + " points");
      Opts.RemoteWarm(Remote, Stage);
    }
  }

  if (!LocalLanes)
    return; // no local lanes to warm with

  // Lane threads publish under the submitting thread's job id.
  const uint64_t Job = obs::currentJobId();
  std::vector<std::function<void(int)>> Tasks;
  Tasks.reserve(Unique.size());
  for (const auto &[V, Config] : Unique) {
    const DerivedVariant *Variant = V;
    const Env &Bound = *Config;
    Tasks.push_back([this, Variant, Bound, Stage, Job](int Lane) {
      obs::ScopedJobId JobScope(Job);
      evalOne(*Variant, Bound, Stage, Lane, /*Warm=*/true);
    });
  }
  obs::SpanScope S("warm:" + Stage, "engine",
                   std::to_string(Tasks.size()) + " points");
  Pool->runBatch(Tasks);
}

EvalStats EvalEngine::stats() const {
  MutexLock Lock(StatsMutex);
  return Stats;
}

EvalStats EvalEngine::variantStats(const std::string &Variant) const {
  MutexLock Lock(StatsMutex);
  EvalStats Sum;
  for (auto It = VariantStages.lower_bound({Variant, ""});
       It != VariantStages.end() && It->first.first == Variant; ++It) {
    Sum.Evaluations += It->second.Evaluations;
    Sum.CacheHits += It->second.CacheHits;
    Sum.BackendSeconds += It->second.BackendSeconds;
  }
  return Sum;
}

std::map<std::string, EvalEngine::StageStats> EvalEngine::stageStats() const {
  MutexLock Lock(StatsMutex);
  std::map<std::string, StageStats> Stages;
  for (const auto &[Key, Row] : VariantStages) {
    StageStats &SS = Stages[Row.Stage];
    SS.Evaluations += Row.Evaluations;
    SS.CacheHits += Row.CacheHits;
    SS.BackendSeconds += Row.BackendSeconds;
  }
  return Stages;
}

std::vector<StageTelemetry> EvalEngine::telemetry() const {
  MutexLock Lock(StatsMutex);
  std::vector<StageTelemetry> Rows;
  Rows.reserve(VariantStages.size());
  for (const auto &[Key, Row] : VariantStages)
    Rows.push_back(Row); // map order = sorted by (variant, stage)
  return Rows;
}
