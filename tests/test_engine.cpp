//===- tests/test_engine.cpp - Parallel evaluation engine tests -----------===//
//
// Covers the eco::engine subsystem: ThreadPool batch semantics, EvalCache
// memoization + JSON persistence, the determinism contract (a --jobs N
// tune returns the bit-identical winner of a sequential tune), kill/resume
// from the cache file alone (including the resumed CLI appending to its
// events file), and the stats-based accounting the Tuner now reports. Runs under
// ThreadSanitizer via -DECO_SANITIZE=thread (ctest -L engine).
//
//===----------------------------------------------------------------------===//

#include "check/EventAudit.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "engine/EvalCache.h"
#include "engine/ThreadPool.h"
#include "kernels/Kernels.h"
#include "obs/Metrics.h"
#include "obs/Span.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <tuple>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__SANITIZE_THREAD__)
#define ECO_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ECO_UNDER_TSAN 1
#endif
#endif

using namespace eco;

namespace {

MachineDesc sgiScaled() { return MachineDesc::sgiR10000().scaledBy(16); }

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// Path of an example binary next to this test's tree:
/// build/tests/test_engine -> build/examples/<Name>.
std::string siblingExample(const std::string &Name) {
  char Exe[4096];
  ssize_t Len = ::readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  if (Len <= 0)
    return Name;
  std::string Dir(Exe, static_cast<size_t>(Len));
  Dir = Dir.substr(0, Dir.find_last_of('/'));
  Dir = Dir.substr(0, Dir.find_last_of('/'));
  return Dir + "/examples/" + Name;
}

/// Starts \p Exe with \p Args, its stdout written to \p Stdout, and
/// returns the child's pid (-1 when fork failed).
pid_t startProgram(const std::string &Exe,
                   const std::vector<std::string> &Args,
                   const std::string &Stdout) {
  std::vector<char *> Argv = {const_cast<char *>(Exe.c_str())};
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid = ::fork();
  if (Pid == 0) {
    int Out = ::open(Stdout.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Out >= 0)
      ::dup2(Out, STDOUT_FILENO);
    ::execv(Exe.c_str(), Argv.data());
    ::_exit(127);
  }
  return Pid;
}

/// Runs \p Exe with \p Args (stdout to \p Stdout, discarded by default)
/// and returns its exit status, or -1 when it could not run or died on a
/// signal.
int runProgram(const std::string &Exe, const std::vector<std::string> &Args,
               const std::string &Stdout = "/dev/null") {
  pid_t Pid = startProgram(Exe, Args, Stdout);
  if (Pid < 0)
    return -1;
  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// The three fields that define a tune's outcome, as comparable text.
std::string winnerOf(const TuneResult &R) {
  return R.best().Spec.Name + "|" + R.best().configString(R.BestConfig) +
         "|" +
         strformat("%.17g", R.BestCost);
}

} // namespace

// ---- ThreadPool ---------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskWithValidLanes) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4);

  std::atomic<int> Ran{0};
  std::atomic<bool> LaneOk{true};
  std::vector<std::function<void(int)>> Tasks;
  for (int T = 0; T < 100; ++T)
    Tasks.push_back([&](int Lane) {
      if (Lane < 0 || Lane >= 4)
        LaneOk = false;
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
  Pool.runBatch(Tasks);
  EXPECT_EQ(Ran.load(), 100);
  EXPECT_TRUE(LaneOk.load());
}

TEST(ThreadPoolTest, SupportsRepeatedBatches) {
  ThreadPool Pool(3);
  std::atomic<int> Ran{0};
  for (int Round = 0; Round < 50; ++Round) {
    std::vector<std::function<void(int)>> Tasks(
        5, [&](int) { Ran.fetch_add(1, std::memory_order_relaxed); });
    Pool.runBatch(Tasks);
  }
  EXPECT_EQ(Ran.load(), 250);
}

TEST(ThreadPoolTest, SingleJobRunsInlineOnLaneZero) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1);
  std::vector<int> Lanes;
  std::vector<std::function<void(int)>> Tasks(
      4, [&](int Lane) { Lanes.push_back(Lane); }); // no lock: inline
  Pool.runBatch(Tasks);
  EXPECT_EQ(Lanes, std::vector<int>({0, 0, 0, 0}));
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  ThreadPool Pool(4);
  Pool.runBatch({});
}

TEST(ThreadPoolTest, NestedBatchRunsInlineOnTheCallingLane) {
  // The engine runs variant searches as one batch, and each search may
  // submit a warm batch of its own. The nested call must neither clobber
  // the in-flight outer batch nor hand a busy lane index to a second
  // thread: it runs inline on the lane that issued it.
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.currentLane(), -1);
  std::atomic<int> Outer{0}, Inner{0};
  std::atomic<bool> LanesOk{true};
  std::vector<std::function<void(int)>> Tasks;
  for (int T = 0; T < 6; ++T)
    Tasks.push_back([&](int Lane) {
      if (Pool.currentLane() != Lane)
        LanesOk = false;
      std::vector<std::function<void(int)>> Nested(4, [&, Lane](int In) {
        if (In != Lane || Pool.currentLane() != Lane)
          LanesOk = false;
        Inner.fetch_add(1, std::memory_order_relaxed);
      });
      Pool.runBatch(Nested);
      if (Pool.currentLane() != Lane)
        LanesOk = false;
      Outer.fetch_add(1, std::memory_order_relaxed);
    });
  Pool.runBatch(Tasks);
  EXPECT_EQ(Outer.load(), 6);
  EXPECT_EQ(Inner.load(), 24);
  EXPECT_TRUE(LanesOk.load());
  EXPECT_EQ(Pool.currentLane(), -1);

  // The pool is intact afterwards.
  std::atomic<int> After{0};
  Pool.runBatch(std::vector<std::function<void(int)>>(
      5, [&](int) { After.fetch_add(1, std::memory_order_relaxed); }));
  EXPECT_EQ(After.load(), 5);
}

// ---- EvalCache ----------------------------------------------------------

TEST(EvalCacheTest, LookupInsertAndCounters) {
  EvalCache Cache;
  EvalKey Key{1, 2, 3};
  EXPECT_FALSE(Cache.lookup(Key).has_value());
  Cache.insert(Key, 42.5);
  auto Hit = Cache.lookup(Key);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, 42.5);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hitRate(), 0.5);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(EvalCacheTest, KeyTextIsStable) {
  EvalKey Key{0x1a, 0x2b, 0x3c};
  EXPECT_EQ(Key.str(), "000000000000001a-000000000000002b-000000000000003c");
}

TEST(EvalCacheTest, JsonRoundTrip) {
  std::string Path = tempPath("eco_cache_roundtrip.json");
  EvalCache Cache;
  for (uint64_t I = 0; I < 40; ++I)
    Cache.insert(EvalKey{I, I * 7, I * 13}, static_cast<double>(I) * 1.5);
  // JSON cannot hold Inf (a failed native compile's cost); it must be
  // left out and re-evaluated, never read back as a finite cost.
  const EvalKey Failed{99, 7, 13};
  Cache.insert(Failed, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(Cache.save(Path));

  EvalCache Loaded;
  EXPECT_EQ(Loaded.load(Path), 40u);
  EXPECT_EQ(Loaded.size(), 40u);
  for (uint64_t I = 0; I < 40; ++I) {
    auto Hit = Loaded.lookup(EvalKey{I, I * 7, I * 13});
    ASSERT_TRUE(Hit.has_value());
    EXPECT_EQ(*Hit, static_cast<double>(I) * 1.5);
  }
  EXPECT_FALSE(Loaded.lookup(Failed).has_value());
  std::remove(Path.c_str());
}

TEST(EvalCacheTest, MissingFileLoadsNothing) {
  EvalCache Cache;
  EXPECT_EQ(Cache.load(tempPath("eco_cache_does_not_exist.json")), 0u);
}

// ---- Determinism: parallel == sequential --------------------------------

TEST(EngineTest, ParallelTuneMatchesSequentialBitExactly) {
  LoopNest MM = makeMatMul();
  const ParamBindings Problem = {{"N", 96}};
  MachineDesc M = sgiScaled();

  SimEvalBackend SeqBackend(M);
  TuneResult Seq = tune(MM, SeqBackend, Problem); // DirectEvaluator

  SimEvalBackend ParBackend(M);
  EngineOptions Opts;
  Opts.Jobs = 4;
  EvalEngine Engine(ParBackend, Opts);
  ASSERT_EQ(Engine.jobs(), 4);
  TuneResult Par = tune(MM, Engine, Problem);

  ASSERT_GE(Seq.BestVariant, 0);
  EXPECT_EQ(Par.BestVariant, Seq.BestVariant);
  EXPECT_EQ(winnerOf(Par), winnerOf(Seq)); // config + bit-identical cost
  ASSERT_EQ(Par.Summaries.size(), Seq.Summaries.size());
  for (size_t I = 0; I < Seq.Summaries.size(); ++I) {
    EXPECT_EQ(Par.Summaries[I].Searched, Seq.Summaries[I].Searched);
    EXPECT_EQ(Par.Summaries[I].BestConfig, Seq.Summaries[I].BestConfig);
    EXPECT_EQ(Par.Summaries[I].BestCost, Seq.Summaries[I].BestCost);
  }
}

TEST(EngineTest, ParallelSearchVariantMatchesSequential) {
  LoopNest Jac = makeJacobi();
  const ParamBindings Problem = {{"N", 48}};
  MachineDesc M = sgiScaled();

  SimEvalBackend B1(M), B2(M);
  std::vector<DerivedVariant> Vs = deriveVariants(Jac, M);
  ASSERT_FALSE(Vs.empty());

  VariantSearchResult Seq = searchVariant(Vs.front(), B1, Problem);
  EngineOptions Opts;
  Opts.Jobs = 4;
  EvalEngine Engine(B2, Opts);
  VariantSearchResult Par = searchVariant(Vs.front(), Engine, Problem);

  EXPECT_EQ(Par.BestCost, Seq.BestCost);
  EXPECT_EQ(Vs.front().configString(Par.BestConfig),
            Vs.front().configString(Seq.BestConfig));
}

namespace {

/// A backend that opts out of parallelism (clone() keeps the default
/// nullptr), for exercising the engine's degradation path.
class NonClonableBackend : public EvalBackend {
public:
  explicit NonClonableBackend(MachineDesc M) : Machine(std::move(M)) {}
  double evaluate(const LoopNest &, const Env &) override { return 1.0; }
  const MachineDesc &machine() const override { return Machine; }

private:
  MachineDesc Machine;
};

} // namespace

TEST(EngineTest, NonClonableBackendDegradesToOneJob) {
  MachineDesc M = sgiScaled();
  NonClonableBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 8;
  EvalEngine Engine(Backend, Opts);
  EXPECT_EQ(Engine.jobs(), 1);
}

TEST(EngineTest, NativeBackendClonesShareKernelCacheWithoutRaces) {
  // Regression for a data race: the native backend's compiled-kernel
  // cache was a function-local static map, mutated without a lock by
  // every backend in the process. It is now a mutex-guarded cache shared
  // across the clone chain. Three threads (base + two clones) evaluating
  // the same source concurrently must produce finite timings — under
  // ThreadSanitizer (-DECO_SANITIZE=thread) the old code reports here.
  LoopNest MM = makeMatMul();
  Env Config = makeEnv(MM, {{"N", 24}});

  NativeEvalBackend Base(MachineDesc::genericHost(), /*Repeats=*/1);
  std::unique_ptr<EvalBackend> C1 = Base.clone();
  std::unique_ptr<EvalBackend> C2 = Base.clone();
  ASSERT_NE(C1, nullptr);
  ASSERT_NE(C2, nullptr);

  EvalBackend *Backends[3] = {&Base, C1.get(), C2.get()};
  std::atomic<int> Finite{0};
  std::vector<std::thread> Threads;
  for (EvalBackend *B : Backends)
    Threads.emplace_back([&, B] {
      for (int Rep = 0; Rep < 2; ++Rep)
        if (B->evaluate(MM, Config) < std::numeric_limits<double>::infinity())
          ++Finite;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Finite.load(), 6);
}

TEST(EngineTest, EngineParallelizesCloneableNativeBackend) {
  MachineDesc M = MachineDesc::genericHost();
  NativeEvalBackend Backend(M, 1);
  EngineOptions Opts;
  Opts.Jobs = 3;
  EvalEngine Engine(Backend, Opts);
  EXPECT_EQ(Engine.jobs(), 3);
}

TEST(EngineTest, ParallelSpeedsUpOnMulticoreHosts) {
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "needs >= 4 cpus for a wall-clock speedup";

  LoopNest MM = makeMatMul();
  const ParamBindings Problem = {{"N", 96}};
  MachineDesc M = sgiScaled();

  SimEvalBackend B1(M);
  EvalEngine Seq(B1);
  Timer T1;
  TuneResult RSeq = tune(MM, Seq, Problem);
  double SeqSeconds = T1.seconds();

  SimEvalBackend B2(M);
  EngineOptions Opts;
  Opts.Jobs = 4;
  EvalEngine Par(B2, Opts);
  Timer T2;
  TuneResult RPar = tune(MM, Par, Problem);
  double ParSeconds = T2.seconds();

  EXPECT_EQ(winnerOf(RPar), winnerOf(RSeq));
  EXPECT_GT(SeqSeconds / ParSeconds, 1.5);
}

// ---- Concurrent variant searches ----------------------------------------

namespace {

/// One tune's ledger as the concurrency tests compare it.
struct TuneLedger {
  TuneResult R;
  std::vector<std::string> Winners; ///< winner.updated, in stream order
};

TuneLedger tuneWithEvents(const LoopNest &Nest, const ParamBindings &Problem,
                          int Jobs) {
  obs::EventBus &Bus = obs::EventBus::global();
  Bus.clear();
  obs::setEventsEnabled(true);
  TuneLedger L;
  {
    SimEvalBackend Backend(sgiScaled());
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    EvalEngine Engine(Backend, Opts);
    L.R = tune(Nest, Engine, Problem);
  }
  obs::setEventsEnabled(false);
  std::vector<obs::Event> Events = Bus.snapshot();
  // The stream reconciles with the result, and its minimum is the winner.
  check::EventAuditOptions AOpts;
  AOpts.AssumeColdCache = true;
  AOpts.HasExpectedBestCost = true;
  AOpts.ExpectedBestCost = L.R.BestCost;
  check::EventAuditReport Audit = check::auditEvents(Events, AOpts);
  EXPECT_EQ(Audit.Tunes, 1u);
  EXPECT_TRUE(Audit.ok()) << Audit.summary();
  for (const obs::Event &E : Events)
    if (E.Type == "winner.updated")
      L.Winners.push_back(E.Fields.get("variant").asString() + "|" +
                          E.Fields.get("config").asString() + "|" +
                          strformat("%.17g",
                                    E.Fields.get("cost").asNumber()));
  Bus.clear();
  return L;
}

} // namespace

TEST(EngineTest, ConcurrentSearchesKeepPerVariantAccounting) {
  // Four lanes search four ranked variants at once. Each variant's
  // Points/CacheHits must still be its own (not a slice of a global
  // counter other searches moved meanwhile), so they equal the Jobs=1
  // ledger, the searches plus the ranking pass account for every
  // backend evaluation, and the flight record audits clean.
  struct Case {
    LoopNest Nest;
    ParamBindings Problem;
  };
  Case Cases[] = {{makeMatMul(), {{"N", 64}}}, {makeJacobi(), {{"N", 32}}}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Nest.Name);
    TuneLedger Seq = tuneWithEvents(C.Nest, C.Problem, 1);
    TuneLedger Par = tuneWithEvents(C.Nest, C.Problem, 4);
    ASSERT_GE(Seq.R.BestVariant, 0);
    EXPECT_EQ(winnerOf(Par.R), winnerOf(Seq.R));
    EXPECT_EQ(Par.Winners, Seq.Winners);
    EXPECT_FALSE(Seq.Winners.empty());

    size_t Searched = 0;
    ASSERT_EQ(Par.R.Summaries.size(), Seq.R.Summaries.size());
    for (size_t I = 0; I < Seq.R.Summaries.size(); ++I) {
      const VariantSummary &S = Seq.R.Summaries[I];
      const VariantSummary &P = Par.R.Summaries[I];
      SCOPED_TRACE(S.Name);
      EXPECT_EQ(P.Searched, S.Searched);
      EXPECT_EQ(P.Points, S.Points);
      EXPECT_EQ(P.CacheHits, S.CacheHits);
      EXPECT_EQ(P.Infeasible, S.Infeasible);
      Searched += S.Searched;
    }
    EXPECT_GE(Searched, 2u); // the searches really overlapped

    for (const TuneLedger *L : {&Seq, &Par}) {
      size_t Points = 0;
      for (const VariantSummary &S : L->R.Summaries)
        Points += S.Points;
      for (const StageTelemetry &Row : L->R.Telemetry)
        if (Row.Stage == "rank")
          Points += Row.Evaluations;
      EXPECT_EQ(Points, L->R.TotalPoints);
    }
  }
}

// ---- Cache persistence across runs --------------------------------------

TEST(EngineTest, SecondRunFromCacheFileEvaluatesNothing) {
  std::string Path = tempPath("eco_engine_cache.json");
  std::remove(Path.c_str());
  LoopNest MM = makeMatMul();
  const ParamBindings Problem = {{"N", 64}};
  MachineDesc M = sgiScaled();

  double FirstBest;
  {
    SimEvalBackend Backend(M);
    EngineOptions Opts;
    Opts.CacheFile = Path;
    EvalEngine Engine(Backend, Opts);
    FirstBest = tune(MM, Engine, Problem).BestCost;
    EXPECT_GT(Engine.stats().Evaluations, 0u);
  } // destructor saves

  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.CacheFile = Path;
  EvalEngine Engine(Backend, Opts);
  EXPECT_GT(Engine.cache().size(), 0u);
  TuneResult Second = tune(MM, Engine, Problem);

  EXPECT_EQ(Second.BestCost, FirstBest);
  // Resuming from a complete cache replays every point: no backend
  // evaluation at all (configs a transform refuses are counted as
  // Rejected, never as Evaluations).
  EvalStats S = Engine.stats();
  EXPECT_GT(S.CacheHits, 0u);
  EXPECT_EQ(S.Evaluations, 0u);
  EXPECT_EQ(Second.TotalPoints, 0u);
  std::remove(Path.c_str());
}

TEST(EngineTest, CacheSaltSeparatesBackends) {
  // Multi-size and plain backends over the same machine must not share
  // cache entries: their costs mean different things.
  MachineDesc M = sgiScaled();
  SimEvalBackend Plain(M);
  MultiSizeEvalBackend Multi(Plain, "N", {64, 96});
  EXPECT_NE(Plain.cacheSalt(), Multi.cacheSalt());
}

// ---- Resume keeps the flight record -------------------------------------

TEST(EngineTest, ResumedTuneAppendsEventsInsteadOfClobbering) {
#ifdef ECO_UNDER_TSAN
  GTEST_SKIP() << "fork/exec of eco_cli is not meaningful under TSan";
#else
  // The --resume flow end to end: eco_cli runs twice onto the same
  // --cache-file and --events-file. The resumed process must append a new
  // seq=0 segment after the first run's events, not truncate them.
  std::string Cli = siblingExample("eco_cli");
  if (::access(Cli.c_str(), X_OK) != 0)
    GTEST_SKIP() << "eco_cli not built at " << Cli;
  // A tune resumes from its cache file alone: --resume without one is a
  // usage error.
  EXPECT_EQ(runProgram(Cli, {"--resume", "--variants"}), 2);

  std::string Events = tempPath("eco_resume_events.jsonl");
  std::string Cache = tempPath("eco_resume_cache.json");
  std::remove(Events.c_str());
  std::remove(Cache.c_str());

  std::vector<std::string> Args = {"--kernel=matmul", "--n=48",
                                   "--scale=16",      "--jobs=4",
                                   "--cache-file=" + Cache,
                                   "--events-file=" + Events};
  ASSERT_EQ(runProgram(Cli, Args), 0);
  std::vector<std::string> First = readLines(Events);
  ASSERT_FALSE(First.empty());

  Args.push_back("--resume");
  ASSERT_EQ(runProgram(Cli, Args), 0);
  std::vector<std::string> All = readLines(Events);
  ASSERT_GT(All.size(), First.size());
  EXPECT_TRUE(std::equal(First.begin(), First.end(), All.begin()))
      << "the first run's segment was rewritten";

  check::EventAuditReport Report = check::auditEventsFile(Events);
  EXPECT_EQ(Report.Segments, 2u);
  EXPECT_EQ(Report.Tunes, 2u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
  std::remove(Events.c_str());
  std::remove(Cache.c_str());
#endif
}

TEST(EngineTest, KilledTuneResumesFromCacheFile) {
#ifdef ECO_UNDER_TSAN
  GTEST_SKIP() << "fork/exec of eco_cli is not meaningful under TSan";
#else
  // A real kill: eco_cli is SIGKILLed as soon as its first periodic
  // cache save lands, then rerun with --resume on that file alone. The
  // resumed search replays its decisions against the cached costs, so
  // it must pick the cold run's winner while evaluating fewer points.
  std::string Cli = siblingExample("eco_cli");
  if (::access(Cli.c_str(), X_OK) != 0)
    GTEST_SKIP() << "eco_cli not built at " << Cli;
  std::string Cache = tempPath("eco_killed_cache.json");
  std::string ColdOut = tempPath("eco_killed_cold.txt");
  std::string ResumedOut = tempPath("eco_killed_resumed.txt");
  std::remove(Cache.c_str());

  const std::vector<std::string> Tune = {"--kernel=matmul", "--n=64",
                                         "--scale=16"};
  ASSERT_EQ(runProgram(Cli, Tune, ColdOut), 0);

  std::vector<std::string> Args = Tune;
  Args.push_back("--cache-file=" + Cache);
  pid_t Pid = startProgram(Cli, Args, "/dev/null");
  ASSERT_GT(Pid, 0);
  int Status = 0;
  pid_t Exited = 0;
  while (::access(Cache.c_str(), F_OK) != 0 &&
         (Exited = ::waitpid(Pid, &Status, WNOHANG)) == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (Exited == 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
  }
  ASSERT_TRUE(WIFSIGNALED(Status))
      << "the tune finished before its first cache save";
  EvalCache Partial;
  ASSERT_GT(Partial.load(Cache), 0u);

  Args.push_back("--resume");
  ASSERT_EQ(runProgram(Cli, Args, ResumedOut), 0);

  auto LineStarting = [](const std::string &Path, const std::string &Key) {
    for (const std::string &Line : readLines(Path))
      if (Line.compare(0, Key.size(), Key) == 0)
        return Line;
    return std::string();
  };
  std::string Winner = LineStarting(ColdOut, "winner:");
  ASSERT_FALSE(Winner.empty());
  EXPECT_EQ(LineStarting(ResumedOut, "winner:"), Winner);

  size_t ColdPoints = 0, ResumedPoints = 0;
  ASSERT_EQ(std::sscanf(LineStarting(ColdOut, "searched ").c_str(),
                        "searched %zu", &ColdPoints),
            1);
  ASSERT_EQ(std::sscanf(LineStarting(ResumedOut, "searched ").c_str(),
                        "searched %zu", &ResumedPoints),
            1);
  EXPECT_LT(ResumedPoints, ColdPoints);
  std::remove(Cache.c_str());
  std::remove(ColdOut.c_str());
  std::remove(ResumedOut.c_str());
#endif
}

// ---- Telemetry ----------------------------------------------------------

TEST(EngineTest, TelemetryReconcilesWithStatsAndStages) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvalEngine Engine(Backend, Opts);
  tune(MM, Engine, {{"N", 64}});

  std::vector<StageTelemetry> Rows = Engine.telemetry();
  ASSERT_FALSE(Rows.empty());

  // Counts must sum to the engine's totals...
  EvalStats Total = Engine.stats();
  size_t Evals = 0, Hits = 0;
  for (const StageTelemetry &Row : Rows) {
    Evals += Row.Evaluations;
    Hits += Row.CacheHits;
  }
  EXPECT_EQ(Evals, Total.Evaluations);
  EXPECT_EQ(Hits, Total.CacheHits);

  // ...and, aggregated per stage, reproduce stageStats().
  std::map<std::string, EvalEngine::StageStats> ByStage;
  for (const StageTelemetry &Row : Rows) {
    ByStage[Row.Stage].Evaluations += Row.Evaluations;
    ByStage[Row.Stage].CacheHits += Row.CacheHits;
    ByStage[Row.Stage].BackendSeconds += Row.BackendSeconds;
  }
  std::map<std::string, EvalEngine::StageStats> Expected =
      Engine.stageStats();
  ASSERT_EQ(ByStage.size(), Expected.size());
  for (const auto &[Stage, SS] : Expected) {
    ASSERT_TRUE(ByStage.count(Stage)) << Stage;
    EXPECT_EQ(ByStage[Stage].Evaluations, SS.Evaluations) << Stage;
    EXPECT_EQ(ByStage[Stage].CacheHits, SS.CacheHits) << Stage;
    EXPECT_NEAR(ByStage[Stage].BackendSeconds, SS.BackendSeconds,
                1e-9 * std::max(1.0, SS.BackendSeconds))
        << Stage;
  }

  // The sim backend exposes hwCounters(), so every row with real
  // evaluations carries HW deltas, and simulated work costs cycles.
  for (const StageTelemetry &Row : Rows)
    if (Row.Evaluations > 0) {
      EXPECT_TRUE(Row.HasHW) << Row.Variant << "/" << Row.Stage;
      EXPECT_GT(Row.HW.cycles(), 0.0) << Row.Variant << "/" << Row.Stage;
      EXPECT_GT(Row.HW.Loads, 0u) << Row.Variant << "/" << Row.Stage;
    }

  // Rows arrive sorted by (variant, stage).
  for (size_t I = 1; I < Rows.size(); ++I)
    EXPECT_LT(std::tie(Rows[I - 1].Variant, Rows[I - 1].Stage),
              std::tie(Rows[I].Variant, Rows[I].Stage));
}

TEST(EngineTest, TuneResultTelemetryMatchesTotals) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EvalEngine Engine(Backend);

  // Two tunes through one engine: each TuneResult must report only its
  // own slice of the cumulative telemetry (the second is all cache hits).
  TuneResult First = tune(MM, Engine, {{"N", 64}});
  TuneResult Second = tune(MM, Engine, {{"N", 64}});
  for (const TuneResult *R : {&First, &Second}) {
    size_t Evals = 0, Hits = 0;
    for (const StageTelemetry &Row : R->Telemetry) {
      Evals += Row.Evaluations;
      Hits += Row.CacheHits;
    }
    EXPECT_EQ(Evals, R->TotalPoints);
    EXPECT_EQ(Hits, R->TotalCacheHits);
  }
  EXPECT_GT(First.TotalPoints, 0u);
  EXPECT_EQ(Second.TotalPoints, 0u); // fully memoized replay
  EXPECT_GT(Second.TotalCacheHits, 0u);
}

TEST(EngineTest, MetricsRegistryReconcilesWithTune) {
  // With metrics enabled, the registry's eval counters must agree
  // exactly with the tune's own accounting.
  obs::metrics().resetValues();
  obs::setMetricsEnabled(true);
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvalEngine Engine(Backend, Opts);
  TuneResult R = tune(MM, Engine, {{"N", 64}});
  obs::setMetricsEnabled(false);

  obs::MetricsRegistry &Reg = obs::metrics();
  EXPECT_EQ(Reg.counter("eval.evaluations").value(), R.TotalPoints);
  EXPECT_EQ(Reg.counter("eval.cache_hits").value(), R.TotalCacheHits);
  EXPECT_EQ(Reg.sumCounters("eval.points."), R.TotalPoints);
  EXPECT_EQ(Reg.sumCounters("eval.hits."), R.TotalCacheHits);
  EXPECT_EQ(Reg.histogram("eval.latency_ms").count(), R.TotalPoints);
  EXPECT_GT(Reg.counter("hw.loads").value(), 0u);
  EXPECT_GT(Reg.gauge("hw.stall_cycles").value(), 0.0);
  EXPECT_DOUBLE_EQ(Reg.gauge("tune.variants_done").value(),
                   Reg.gauge("tune.variants_total").value());
  obs::metrics().resetValues();
}

TEST(EngineTest, ChromeTraceCoversEvaluationsWithLaneAttribution) {
  obs::SpanCollector &C = obs::SpanCollector::global();
  C.clear();
  C.setEnabled(true);
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvalEngine Engine(Backend, Opts);
  TuneResult R = tune(MM, Engine, {{"N", 64}});
  C.setEnabled(false);

  std::vector<obs::SpanRecord> Spans = C.records();
  size_t EvalSpans = 0;
  bool SawNonZeroLane = false;
  uint64_t TuneDur = 0, ChildMax = 0;
  for (const obs::SpanRecord &S : Spans) {
    if (S.Cat == "eval") {
      ++EvalSpans;
      EXPECT_GE(S.Tid, 0);
      EXPECT_LT(S.Tid, 2);
      SawNonZeroLane |= S.Tid != 0;
    }
    if (S.Name == "tune")
      TuneDur = S.DurUs;
    else
      ChildMax = std::max(ChildMax, S.StartUs + S.DurUs);
  }
  // One eval span per real backend evaluation.
  EXPECT_EQ(EvalSpans, R.TotalPoints);
  EXPECT_TRUE(SawNonZeroLane); // searches really ran on lane 1
  ASSERT_GT(TuneDur, 0u);
  // The stage/search spans nest inside the tune span's interval.
  for (const obs::SpanRecord &S : Spans)
    if (S.Name != "tune") {
      EXPECT_LE(S.DurUs, TuneDur);
    }

  std::string Err;
  Json Root = Json::parse(C.chromeTraceJson().dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_GT(Root.get("traceEvents").size(), EvalSpans);
  C.clear();
}

TEST(EngineTest, StatsFeedTunerAccounting) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EvalEngine Engine(Backend);
  TuneResult R = tune(MM, Engine, {{"N", 64}});

  EvalStats S = Engine.stats();
  EXPECT_EQ(R.TotalPoints, S.Evaluations);
  EXPECT_EQ(R.TotalCacheHits, S.CacheHits);
  size_t SummedPoints = 0;
  for (const VariantSummary &Sum : R.Summaries)
    SummedPoints += Sum.Points;
  // Per-variant points plus the ranking pass account for every backend
  // evaluation.
  EXPECT_LE(SummedPoints, R.TotalPoints);
  EXPECT_GT(SummedPoints, 0u);
}

TEST(EngineTest, PerStageStatsSumToTotals) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvalEngine Engine(Backend, Opts);
  tune(MM, Engine, {{"N", 64}});

  std::map<std::string, EvalEngine::StageStats> Stages = Engine.stageStats();
  ASSERT_FALSE(Stages.empty());
  // The Tuner's ranking pass and the search's opening stage must appear.
  EXPECT_TRUE(Stages.count("rank"));
  EXPECT_TRUE(Stages.count("initial"));

  EvalStats Total = Engine.stats();
  size_t Evals = 0, Hits = 0;
  double Seconds = 0;
  for (const auto &[Name, SS] : Stages) {
    EXPECT_FALSE(Name.empty());
    Evals += SS.Evaluations;
    Hits += SS.CacheHits;
    Seconds += SS.BackendSeconds;
  }
  EXPECT_EQ(Evals, Total.Evaluations);
  EXPECT_EQ(Hits, Total.CacheHits);
  // Same addends, different association (chronological vs. per-bucket).
  EXPECT_NEAR(Seconds, Total.BackendSeconds,
              1e-9 * std::max(1.0, Total.BackendSeconds));
}

// ---- persistence robustness ---------------------------------------------

TEST(EngineTest, PeriodicSavesFromWarmBatchesNeverPublishTornFiles) {
  // CacheSaveInterval=1 + jobs=4 makes every lane trip the periodic-save
  // threshold inside the same warm batch — the exact overlap that used
  // to let two lanes write the cache file concurrently (and, with the
  // old fixed ".tmp" staging name, interleave into one temp file and
  // rename torn JSON into place). A reader polls the file for the whole
  // tune: it must never observe an unparseable document.
  std::string Path = tempPath("eco_engine_save_hammer.json");
  std::remove(Path.c_str());
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();

  std::atomic<bool> Stop{false};
  std::atomic<size_t> Torn{0}, Good{0};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      std::ifstream Probe(Path);
      if (!Probe)
        continue; // not yet published
      std::string Error;
      if (Json::loadFile(Path, &Error).isObject())
        Good.fetch_add(1, std::memory_order_relaxed);
      else
        Torn.fetch_add(1, std::memory_order_relaxed);
    }
  });

  double Best;
  {
    SimEvalBackend Backend(M);
    EngineOptions Opts;
    Opts.CacheFile = Path;
    Opts.CacheSaveInterval = 1;
    Opts.Jobs = 4;
    EvalEngine Engine(Backend, Opts);
    Best = tune(MM, Engine, {{"N", 64}}).BestCost;
  }
  Stop.store(true);
  Reader.join();

  EXPECT_EQ(Torn.load(), 0u)
      << Torn.load() << " torn observation(s), " << Good.load()
      << " clean";
  EXPECT_GT(Good.load(), 0u);

  // And the final snapshot replays the whole tune.
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.CacheFile = Path;
  EvalEngine Engine(Backend, Opts);
  EXPECT_GT(Engine.cache().size(), 0u);
  EXPECT_EQ(tune(MM, Engine, {{"N", 64}}).BestCost, Best);
  std::remove(Path.c_str());
}

TEST(EngineTest, TruncatedCacheFileRecoversToColdRunAnswer) {
  // A kill mid-write used to leave half a JSON document at the cache
  // path. Loading must warn and start empty — never crash, never serve
  // entries the file no longer proves — and the next tune must rebuild
  // both the answer and a healthy file.
  std::string Path = tempPath("eco_engine_truncated_cache.json");
  std::remove(Path.c_str());
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  const ParamBindings Problem = {{"N", 64}};

  double ColdBest;
  {
    SimEvalBackend Backend(M);
    EngineOptions Opts;
    Opts.CacheFile = Path;
    EvalEngine Engine(Backend, Opts);
    ColdBest = tune(MM, Engine, Problem).BestCost;
  } // destructor saves a healthy file

  // Truncate it to half, as a kill between write and rename would.
  {
    std::ifstream In(Path, std::ios::binary);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Half = SS.str().substr(0, SS.str().size() / 2);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Half;
  }

  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.CacheFile = Path;
  EvalEngine Engine(Backend, Opts); // must not crash
  EXPECT_EQ(Engine.cache().size(), 0u) << "entries from a torn file";
  TuneResult R = tune(MM, Engine, Problem);
  EXPECT_EQ(R.BestCost, ColdBest);
  EXPECT_GT(Engine.stats().Evaluations, 0u); // really re-evaluated
  Engine.flush();
  std::string Error;
  EXPECT_TRUE(Json::loadFile(Path, &Error).isObject()) << Error;
  std::remove(Path.c_str());
}

// ---- Cache machine filtering --------------------------------------------

TEST(EvalCacheTest, ForeignMachineEntriesAreRejectedOnLoad) {
  std::string Path = tempPath("eco_cache_foreign.json");
  std::string Resaved = tempPath("eco_cache_foreign_resave.json");
  std::remove(Path.c_str());
  std::remove(Resaved.c_str());

  // Four entries for machine 0xAAAA, three for 0xBBBB, in one file —
  // the state a --cache-file pointed at another target's cache has.
  EvalCache Mixed;
  for (uint64_t I = 1; I <= 4; ++I)
    Mixed.insert(EvalKey{I, 0xAAAA, I * 3}, static_cast<double>(I));
  for (uint64_t I = 1; I <= 3; ++I)
    Mixed.insert(EvalKey{I, 0xBBBB, I * 3}, 100.0 + static_cast<double>(I));
  ASSERT_TRUE(Mixed.save(Path));

  bool MetricsWere = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  uint64_t Before =
      obs::metrics().counter("cache.foreign_rejected").value();

  EvalCache Filtered;
  EXPECT_EQ(Filtered.load(Path, 0xAAAA), 4u);
  EXPECT_EQ(Filtered.size(), 4u);
  EXPECT_TRUE(Filtered.lookup(EvalKey{1, 0xAAAA, 3}).has_value());
  EXPECT_FALSE(Filtered.lookup(EvalKey{1, 0xBBBB, 3}).has_value());
  EXPECT_EQ(obs::metrics().counter("cache.foreign_rejected").value(),
            Before + 3);
  obs::setMetricsEnabled(MetricsWere);

  // The rejected entries are gone for good: a re-save no longer carries
  // them forward (the silent-poisoning mode the filter exists to stop).
  ASSERT_TRUE(Filtered.save(Resaved));
  EvalCache Reloaded;
  EXPECT_EQ(Reloaded.load(Resaved), 4u);

  // A filter-less load still takes everything (merge tooling relies on
  // it), and a matching filter is a no-op.
  EvalCache All;
  EXPECT_EQ(All.load(Path), 7u);
  std::remove(Path.c_str());
  std::remove(Resaved.c_str());
}
