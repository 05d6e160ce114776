//===- perfbench/driver.cpp - ECO benchmark driver -------------------------===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload from an inputs file that perfbench/run.py
/// generates from the workload seed:
///
///   tune_seq     cold two-phase tune() of a fixed problem set, one lane
///   tune_par     the same problem set through EvalEngine at Jobs lanes
///   serve_mixed  the real eco_served daemon: exact-hit reads, warm
///                nearest-size tunes, and exact-hit probes sent while a
///                warm tune runs
///
/// The timed section repeats whole rounds of the same operations until
/// the run length is used up. Output checks run after it and count in no
/// metric. With "trace" set, the driver wraps each layer's public entry
/// points in spans, keeps them in memory, writes them as a Chrome trace at
/// exit and prints per-layer metrics; without it the layers run bare and
/// the end-to-end metrics are printed. The last stdout line is the JSON
/// result: {"correct", "attempted", "failed", "metrics"}.
///
/// Usage: perfbench_driver INPUTS.json   (run from the run directory)
///
//===----------------------------------------------------------------------===//

#include "check/DbAudit.h"
#include "check/DiffCheck.h"
#include "check/EventAudit.h"
#include "core/Tuner.h"
#include "kernels/Reference.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "serve/Client.h"
#include "serve/ConfigDB.h"
#include "serve/Server.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace eco;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

int64_t microsNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Whole rounds fill the run: another round starts only when one more of
/// the length just measured still ends within \p Budget seconds.
bool roomForAnotherRound(Clock::time_point RunStart,
                         Clock::time_point RoundStart, double Budget) {
  return secondsSince(RunStart) + secondsSince(RoundStart) <= Budget;
}

/// Single-threaded work is rotated over the CPUs the process may use: on
/// a shared host one CPU can run slower than the others for minutes, and a
/// thread left on it would set a whole run's figures.
class CpuRotation {
public:
  CpuRotation() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
  }

  /// The set of \p Count CPUs starting at slot \p Slot (cyclically).
  cpu_set_t slot(size_t Slot, size_t Count) const {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (size_t I = 0; I < Count && !Cpus.empty(); ++I)
      CPU_SET(Cpus[(Slot + I) % Cpus.size()], &Set);
    return Set;
  }

  /// Pins the calling thread to slot \p Slot's single CPU.
  void pinThread(size_t Slot) const {
    if (Cpus.empty())
      return;
    cpu_set_t Set = slot(Slot, 1);
    sched_setaffinity(0, sizeof(Set), &Set);
  }

  /// Lets the calling thread run on every CPU again.
  void unpinThread() const {
    if (Cpus.empty())
      return;
    cpu_set_t Set = slot(0, Cpus.size());
    sched_setaffinity(0, sizeof(Set), &Set);
  }

private:
  std::vector<int> Cpus;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile (Q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

//===----------------------------------------------------------------------===//
// Spans (traced runs only)
//===----------------------------------------------------------------------===//

/// In-memory span log: name, start, end and parent of every call the
/// benchmark makes into a layer. Layer = span name up to the first '.'.
class SpanLog {
public:
  struct Span {
    std::string Name;
    int64_t StartUs = 0, EndUs = 0;
    int Parent = -1;
    int Tid = 0;
  };

  bool Enabled = false;

  int begin(const std::string &Name, int Parent = -2) {
    if (!Enabled)
      return -1;
    std::lock_guard<std::mutex> Lock(M);
    Span S;
    S.Name = Name;
    S.StartUs = microsNow();
    S.Parent = Parent == -2 ? (Stack.empty() ? -1 : Stack.back()) : Parent;
    S.Tid = threadIndex();
    Spans.push_back(std::move(S));
    int Id = static_cast<int>(Spans.size() - 1);
    Stack.push_back(Id);
    return Id;
  }

  void end(int Id) {
    if (Id < 0)
      return;
    std::lock_guard<std::mutex> Lock(M);
    Spans[Id].EndUs = microsNow();
    auto It = std::find(Stack.rbegin(), Stack.rend(), Id);
    if (It != Stack.rend())
      Stack.erase(std::next(It).base());
  }

  /// Innermost open span on the calling thread (-1 when none).
  int current() const {
    return Stack.empty() ? -1 : Stack.back();
  }

  /// Per layer: summed span time not covered by the span's children.
  std::map<std::string, double> selfSecondsByLayer() const {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Kids[S.Parent].emplace_back(S.StartUs, S.EndUs);
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      auto &K = Kids[I];
      std::sort(K.begin(), K.end());
      // Union of the children's intervals, clipped to the parent: lane
      // spans of one warm batch overlap each other.
      int64_t Covered = 0, CurLo = 0, CurHi = -1;
      for (auto [Lo, Hi] : K) {
        Lo = std::max(Lo, S.StartUs);
        Hi = std::min(Hi, S.EndUs);
        if (Hi <= Lo)
          continue;
        if (Lo > CurHi) {
          if (CurHi > CurLo)
            Covered += CurHi - CurLo;
          CurLo = Lo;
          CurHi = Hi;
        } else {
          CurHi = std::max(CurHi, Hi);
        }
      }
      if (CurHi > CurLo)
        Covered += CurHi - CurLo;
      std::string Layer = S.Name.substr(0, S.Name.find('.'));
      Out[Layer] += static_cast<double>(S.EndUs - S.StartUs - Covered) / 1e6;
    }
    return Out;
  }

  /// Chrome trace-event JSON ("X" complete events; args.parent links).
  bool writeChromeTrace(const std::string &Path) const {
    std::lock_guard<std::mutex> Lock(M);
    Json Events = Json::array();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Json E = Json::object();
      E.set("name", S.Name);
      E.set("cat", S.Name.substr(0, S.Name.find('.')));
      E.set("ph", "X");
      E.set("ts", S.StartUs);
      E.set("dur", S.EndUs - S.StartUs);
      E.set("pid", 1);
      E.set("tid", S.Tid);
      Json Args = Json::object();
      Args.set("id", static_cast<int64_t>(I));
      Args.set("parent", static_cast<int64_t>(S.Parent));
      E.set("args", std::move(Args));
      Events.push(std::move(E));
    }
    Json Root = Json::object();
    Root.set("traceEvents", std::move(Events));
    return Root.saveFile(Path);
  }

private:
  static int threadIndex() {
    static std::atomic<int> Next{0};
    thread_local int Idx = Next++;
    return Idx;
  }

  mutable std::mutex M;
  std::vector<Span> Spans;
  /// Open spans of the calling thread.
  static thread_local std::vector<int> Stack;
};

thread_local std::vector<int> SpanLog::Stack;

SpanLog Spans;

/// RAII span; a no-op unless tracing is on.
struct SpanScope {
  int Id;
  explicit SpanScope(const std::string &Name, int Parent = -2)
      : Id(Spans.begin(Name, Parent)) {}
  ~SpanScope() { Spans.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Problem {
  std::string Kernel, Machine;
  unsigned Scale = 16;
  int64_t N = 0;

  std::string label() const {
    return Kernel + "@" + Machine + "/" + std::to_string(Scale) +
           " n=" + std::to_string(N);
  }
  serve::JobSpec spec() const {
    serve::JobSpec S;
    S.Kernel = Kernel;
    S.Machine = Machine;
    S.Scale = Scale;
    S.N = N;
    return S;
  }
};

Problem problemFrom(const Json &J) {
  Problem P;
  P.Kernel = J.get("kernel").asString();
  P.Machine = J.get("machine").asString();
  P.Scale = static_cast<unsigned>(J.get("scale").asInt(16));
  P.N = J.get("n").asInt();
  return P;
}

std::vector<Problem> problemsFrom(const Json &J) {
  std::vector<Problem> Out;
  for (size_t I = 0; I < J.size(); ++I)
    Out.push_back(problemFrom(J.at(I)));
  return Out;
}

//===----------------------------------------------------------------------===//
// Result line
//===----------------------------------------------------------------------===//

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  Json Metrics = Json::object();
  std::vector<std::string> Problems; ///< failed output checks

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Json M = Json::object();
    M.set("value", Value);
    M.set("unit", Unit);
    Metrics.set(Name, std::move(M));
  }
  void fail(const std::string &Why) {
    Correct = false;
    Problems.push_back(Why);
  }
};

double peakRssMbSelf() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Output checks shared by the workloads
//===----------------------------------------------------------------------===//

const check::CheckKernel *checkKernelFor(const std::string &Name) {
  static const std::vector<check::CheckKernel> All = check::checkKernels();
  for (const check::CheckKernel &K : All)
    if (K.Name == Name)
      return &K;
  return nullptr;
}

/// Runs \p Exec under \p Config in value mode on \p Machine, with the
/// original arrays filled as DiffCheck fills them; returns the output.
std::vector<double> valueRun(const check::CheckKernel &K, const LoopNest &Exec,
                             const Env &Config, const MachineDesc &Machine) {
  MemHierarchySim Sim(Machine);
  ExecOptions EO;
  EO.ComputeValues = true;
  Executor E(Exec, Config, Sim, EO);
  for (ArrayId A : K.OriginalArrays)
    fillDeterministic(E.dataOf(A),
                      check::FillSeedBase + static_cast<uint64_t>(A));
  E.run();
  return E.dataOf(K.Output);
}

/// Checks a tuned executable's computed values. Two comparisons:
///  * bitwise against the untransformed kernel nest run the same way (the
///    transformations never reassociate arithmetic, so any difference is
///    a transformation bug);
///  * against kernels/Reference within DiffCheck's ulp tolerance, counted
///    per element or, for elements near zero, at the output's largest
///    magnitude. The IR and the reference sum in different orders; where
///    jacobi's six-term sums cancel to near zero, a one-ulp absolute
///    difference is hundreds of ulps of the element itself.
bool valuesMatchReference(const std::string &Kernel, const LoopNest &Exec,
                          const Env &Config, const MachineDesc &Machine,
                          int64_t N, std::string &Why) {
  const check::CheckKernel *K = checkKernelFor(Kernel);
  if (!K) {
    Why = "no reference for kernel " + Kernel;
    return false;
  }
  std::vector<double> Got = valueRun(*K, Exec, Config, Machine);
  std::vector<double> Plain =
      valueRun(*K, K->Nest, makeEnv(K->Nest, {{"N", N}}), Machine);
  std::vector<double> Want = K->Expected(N);
  if (Got.size() != Want.size() || Plain.size() != Want.size()) {
    Why = "output size differs from the reference";
    return false;
  }
  double Scale = 0;
  for (double W : Want)
    Scale = std::max(Scale, std::fabs(W));
  const uint64_t MaxUlps = check::DiffCheckOptions{}.MaxUlps;
  const double NormTol =
      static_cast<double>(MaxUlps) *
      (std::nextafter(Scale, INFINITY) - Scale);
  for (size_t I = 0; I < Got.size(); ++I) {
    std::ostringstream OS;
    OS.precision(17);
    if (Got[I] != Plain[I]) {
      OS << "element " << I << " = " << Got[I] << ", untransformed nest "
         << Plain[I];
    } else if (check::ulpDiff(Got[I], Want[I]) > MaxUlps &&
               !(std::fabs(Got[I] - Want[I]) <= NormTol)) {
      OS << "element " << I << " = " << Got[I] << ", reference " << Want[I];
    } else {
      continue;
    }
    Why = OS.str();
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Traced decorators: the benchmark's own view of the core/engine and
// engine/exec boundaries
//===----------------------------------------------------------------------===//

/// Counters the decorators fill during one tune.
struct LayerTally {
  std::mutex M;
  double CallerBackendS = 0; ///< lane 0 (caller thread) backend time
  double AllBackendS = 0;    ///< every lane
  double RunBackendS = 0;    ///< every lane, whole run (never reset)
  std::vector<double> EvalMs;
  uint64_t Accesses = 0;     ///< simulated loads + stores
  size_t EvaluateCalls = 0;  ///< Evaluator::evaluate
  size_t WarmCalls = 0, WarmPoints = 0;
  double EvaluatorS = 0;     ///< inside Evaluator calls
  std::atomic<int> WarmSpan{-1}; ///< parent of lane-thread backend spans

  /// Seeded reservoir of evaluated points for the exec/sim replay.
  struct Sample {
    LoopNest Nest;
    Env Config;
    MachineDesc Machine; ///< a copy: lane backends die with their engine
  };
  std::vector<Sample> Reservoir;
  size_t Seen = 0;
  size_t Capacity = 0;
  Rng SampleRng{1};
};

/// EvalBackend decorator: times each SimEvalBackend::evaluate call and its
/// counter delta. clone() wraps each engine lane's clone.
class TimedBackend : public EvalBackend {
public:
  TimedBackend(EvalBackend &Inner, LayerTally &T, bool CallerLane)
      : Inner(Inner), T(T), CallerLane(CallerLane) {}

  double evaluate(const LoopNest &Executable, const Env &Config) override {
    const HWCounters *HW = Inner.hwCounters();
    HWCounters Before = HW ? *HW : HWCounters{};
    SpanScope S("exec.evaluate",
                CallerLane ? -2 : T.WarmSpan.load(std::memory_order_relaxed));
    auto T0 = Clock::now();
    double Cost = Inner.evaluate(Executable, Config);
    double Sec = secondsSince(T0);
    HWCounters D = HW ? HW->delta(Before) : HWCounters{};
    std::lock_guard<std::mutex> Lock(T.M);
    if (CallerLane)
      T.CallerBackendS += Sec;
    T.AllBackendS += Sec;
    T.RunBackendS += Sec;
    T.EvalMs.push_back(Sec * 1e3);
    T.Accesses += D.Loads + D.Stores;
    ++T.Seen;
    if (T.Reservoir.size() < T.Capacity)
      T.Reservoir.push_back({Executable.clone(), Config, Inner.machine()});
    else if (T.Capacity > 0) {
      size_t Slot = static_cast<size_t>(T.SampleRng.next() % T.Seen);
      if (Slot < T.Capacity)
        T.Reservoir[Slot] = {Executable.clone(), Config, Inner.machine()};
    }
    return Cost;
  }

  const MachineDesc &machine() const override { return Inner.machine(); }
  std::string cacheSalt() const override { return Inner.cacheSalt(); }
  const HWCounters *hwCounters() const override { return Inner.hwCounters(); }

  std::unique_ptr<EvalBackend> clone() const override {
    std::unique_ptr<EvalBackend> C = Inner.clone();
    if (!C)
      return nullptr;
    auto Out = std::make_unique<TimedBackend>(*C, T, /*CallerLane=*/false);
    Out->Owned = std::move(C);
    return Out;
  }

private:
  EvalBackend &Inner;
  std::unique_ptr<EvalBackend> Owned; ///< set on clones only
  LayerTally &T;
  bool CallerLane;
};

/// Evaluator decorator: times the search's calls into the engine.
class TimedEvaluator : public Evaluator {
public:
  TimedEvaluator(Evaluator &Inner, LayerTally &T) : Inner(Inner), T(T) {}

  const MachineDesc &machine() const override { return Inner.machine(); }

  EvalOutcome evaluate(const DerivedVariant &V, const Env &Config,
                       const std::string &Stage) override {
    SpanScope S("engine.evaluate");
    auto T0 = Clock::now();
    EvalOutcome O = Inner.evaluate(V, Config, Stage);
    double Sec = secondsSince(T0);
    std::lock_guard<std::mutex> Lock(T.M);
    ++T.EvaluateCalls;
    T.EvaluatorS += Sec;
    return O;
  }

  void
  warmMany(const std::vector<std::pair<const DerivedVariant *, Env>> &Points,
           const std::string &Stage) override {
    SpanScope S("engine.warm");
    T.WarmSpan.store(S.Id, std::memory_order_relaxed);
    auto T0 = Clock::now();
    Inner.warmMany(Points, Stage);
    double Sec = secondsSince(T0);
    T.WarmSpan.store(-1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(T.M);
    ++T.WarmCalls;
    T.WarmPoints += Points.size();
    T.EvaluatorS += Sec;
  }

  EvalStats stats() const override { return Inner.stats(); }
  std::vector<StageTelemetry> telemetry() const override {
    return Inner.telemetry();
  }

private:
  Evaluator &Inner;
  LayerTally &T;
};

//===----------------------------------------------------------------------===//
// Replays (traced runs): the calls SimEvalBackend::evaluate makes, one
// at a time, and the simulator alone on a synthetic trace
//===----------------------------------------------------------------------===//

struct ReplayTimes {
  std::vector<double> BuildMs, PlanMs, RunMs;
};

void replaySamples(const std::vector<LayerTally::Sample> &Samples,
                   ReplayTimes &Out) {
  for (const LayerTally::Sample &S : Samples) {
    auto T0 = Clock::now();
    int Id = Spans.begin("sim.build");
    MemHierarchySim Sim(S.Machine);
    Spans.end(Id);
    auto T1 = Clock::now();
    Id = Spans.begin("exec.plan");
    Executor Exec(S.Nest, S.Config, Sim);
    Spans.end(Id);
    auto T2 = Clock::now();
    Id = Spans.begin("exec.run");
    Exec.run();
    Spans.end(Id);
    auto T3 = Clock::now();
    auto Ms = [](Clock::time_point A, Clock::time_point B) {
      return std::chrono::duration<double, std::milli>(B - A).count();
    };
    Out.BuildMs.push_back(Ms(T0, T1));
    Out.PlanMs.push_back(Ms(T1, T2));
    Out.RunMs.push_back(Ms(T2, T3));
  }
}

/// MemHierarchySim::access alone on a fixed synthetic trace: a tiled
/// row-major sweep of three N x N double arrays (the shape of a blocked
/// matmul's traffic) on sgi/16. Returns accesses per second.
double replaySyntheticTrace() {
  MachineDesc M;
  serve::buildMachine("sgi", 16, M);
  MemHierarchySim Sim(M);
  const uint64_t N = 128, Tile = 16, Elt = 8;
  const uint64_t A = 1 << 20, B = A + N * N * Elt + 4096,
                 C = B + N * N * Elt + 4096;
  SpanScope S("sim.replay");
  uint64_t Count = 0;
  double Now = 0;
  auto T0 = Clock::now();
  for (uint64_t II = 0; II < N; II += Tile)
    for (uint64_t KK = 0; KK < N; KK += Tile)
      for (uint64_t I = II; I < II + Tile; ++I)
        for (uint64_t J = 0; J < N; ++J) {
          for (uint64_t K = KK; K < KK + Tile; ++K) {
            Now += 1 + Sim.access(A + (I * N + K) * Elt, false, Now);
            Now += 1 + Sim.access(B + (K * N + J) * Elt, false, Now);
            Count += 2;
          }
          Now += 1 + Sim.access(C + (I * N + J) * Elt, true, Now);
          ++Count;
        }
  return static_cast<double>(Count) / secondsSince(T0);
}

//===----------------------------------------------------------------------===//
// Tune workloads
//===----------------------------------------------------------------------===//

struct Prepared {
  Problem P;
  LoopNest Nest;
  MachineDesc Machine;
  ParamBindings Bind;
  std::unique_ptr<SimEvalBackend> Backend;
};

bool prepare(const Problem &P, Prepared &Out) {
  Out.P = P;
  if (!serve::buildKernel(P.Kernel, Out.Nest) ||
      !serve::buildMachine(P.Machine, P.Scale, Out.Machine))
    return false;
  Out.Bind = {{"N", P.N}};
  Out.Backend = std::make_unique<SimEvalBackend>(Out.Machine);
  return true;
}

struct Winner {
  std::string Variant, Config;
  double Cost = 0;
  bool operator==(const Winner &O) const {
    return Variant == O.Variant && Config == O.Config && Cost == O.Cost;
  }
};

Winner winnerOf(const TuneResult &R) {
  if (R.BestVariant < 0)
    return {};
  return {R.best().Spec.Name, R.best().configString(R.BestConfig),
          R.BestCost};
}

/// Checks one tuned winner against independent computations; returns the
/// winner's simulated MFLOPS (0 on failure, with \p Res marked).
double checkTuneWinner(const Prepared &Pr, const TuneResult &R, Result &Res) {
  const std::string Tag = Pr.P.label() + ": ";
  if (R.BestVariant < 0 || R.Cancelled) {
    Res.fail(Tag + "tune produced no winner");
    return 0;
  }
  RunResult RR =
      simulateNest(R.BestExecutable, envToBindings(R.BestExecutable,
                                                   R.BestConfig),
                   Pr.Machine);
  if (RR.Cycles != R.BestCost) {
    std::ostringstream OS;
    OS.precision(17);
    OS << Tag << "simulateNest cost " << RR.Cycles << " != BestCost "
       << R.BestCost;
    Res.fail(OS.str());
  }
  std::string Why;
  if (!valuesMatchReference(Pr.P.Kernel, R.BestExecutable, R.BestConfig,
                            Pr.Machine, Pr.P.N, Why))
    Res.fail(Tag + "winner disagrees with the reference: " + Why);
  for (const VariantSummary &S : R.Summaries)
    if (S.Searched && !(R.BestCost <= S.HeuristicCost))
      Res.fail(Tag + "BestCost above the model-start cost of " + S.Name);
  return RR.Mflops;
}

struct TuneRecord {
  TuneResult R;
  double Seconds = 0;
};

void runTuneWorkload(const Json &In, Result &Res) {
  const bool Trace = In.get("trace").asBool();
  const int Jobs = static_cast<int>(In.get("jobs").asInt(1));
  const double Budget = In.get("seconds").asNumber(10);
  const std::vector<Problem> Problems = problemsFrom(In.get("problems"));
  const Problem Warmup = problemFrom(In.get("warmup"));
  const int SetupRepeats =
      static_cast<int>(std::max<int64_t>(1, In.get("setup_repeats").asInt(3)));
  EngineOptions EOpts;
  EOpts.Jobs = Jobs;

  // One lane runs every tune on this thread, so each set-up and each tune
  // goes to the next CPU; engine lanes inherit the caller's CPUs, so
  // tune_par is not pinned.
  const CpuRotation Rotation;

  // Set-up: build machines, kernels and inputs, then one untimed warm-up
  // tune; repeated, the last repetition's objects are kept.
  std::vector<double> SetupS;
  std::vector<Prepared> Set;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    if (Jobs == 1)
      Rotation.pinThread(static_cast<size_t>(Rep));
    auto T0 = Clock::now();
    std::vector<Prepared> Fresh(Problems.size());
    for (size_t I = 0; I < Problems.size(); ++I)
      if (!prepare(Problems[I], Fresh[I])) {
        Res.fail("cannot build " + Problems[I].label());
        return;
      }
    Prepared W;
    if (!prepare(Warmup, W)) {
      Res.fail("cannot build warm-up " + Warmup.label());
      return;
    }
    {
      EvalEngine E(*W.Backend, EOpts);
      tune(W.Nest, E, W.Bind);
    }
    SetupS.push_back(secondsSince(T0));
    Set = std::move(Fresh);
  }

  // Timed section: whole rounds over the problem set.
  LayerTally Tally;
  Tally.Capacity = Trace ? 24 : 0;
  Tally.SampleRng = Rng(static_cast<uint64_t>(In.get("sample_seed").asInt(1)));
  std::vector<TuneRecord> First; ///< round 0's results, for the checks
  std::vector<double> RoundTuneS, RoundEvalsPerS;
  std::vector<double> SearchSelfS, EngineCallS, EngineOverheadS, LaneBusy;
  size_t TotalEvals = 0, TotalTunes = 0, CacheHits = 0, CacheBase = 0;
  std::vector<size_t> Mismatch; ///< problems whose winner changed by round
  size_t TunesRun = 0;
  auto RunStart = Clock::now();
  Clock::time_point RoundStart;
  do {
    RoundStart = Clock::now();
    double RoundS = 0;
    size_t RoundEvals = 0;
    for (size_t I = 0; I < Set.size(); ++I) {
      Prepared &Pr = Set[I];
      TuneRecord Rec;
      if (Jobs == 1)
        Rotation.pinThread(TunesRun++);
      if (!Trace) {
        auto T0 = Clock::now();
        {
          EvalEngine E(*Pr.Backend, EOpts);
          Rec.R = tune(Pr.Nest, E, Pr.Bind);
        }
        Rec.Seconds = secondsSince(T0);
      } else {
        {
          std::lock_guard<std::mutex> Lock(Tally.M);
          Tally.CallerBackendS = Tally.AllBackendS = Tally.EvaluatorS = 0;
        }
        TimedBackend TB(*Pr.Backend, Tally, /*CallerLane=*/true);
        auto T0 = Clock::now();
        int Lanes = 1;
        EvalStats St;
        {
          SpanScope S("core.tune");
          EvalEngine E(TB, EOpts);
          TimedEvaluator TE(E, Tally);
          Rec.R = tune(Pr.Nest, TE, Pr.Bind);
          Lanes = E.jobs();
          St = E.stats();
        }
        Rec.Seconds = secondsSince(T0);
        std::lock_guard<std::mutex> Lock(Tally.M);
        SearchSelfS.push_back(Rec.Seconds - Tally.EvaluatorS);
        EngineCallS.push_back(Tally.EvaluatorS);
        EngineOverheadS.push_back(Tally.EvaluatorS - Tally.CallerBackendS);
        LaneBusy.push_back(Tally.AllBackendS / (Lanes * Rec.Seconds));
        CacheHits += St.CacheHits;
        CacheBase += St.CacheHits + St.Evaluations;
      }
      RoundS += Rec.Seconds;
      RoundEvals += Rec.R.TotalPoints;
      ++Res.Attempted;
      if (First.size() < Set.size())
        First.push_back(std::move(Rec));
      else if (!(winnerOf(Rec.R) == winnerOf(First[I].R)))
        Mismatch.push_back(I);
    }
    TotalEvals += RoundEvals;
    TotalTunes += Set.size();
    RoundTuneS.push_back(RoundS / static_cast<double>(Set.size()));
    RoundEvalsPerS.push_back(static_cast<double>(RoundEvals) / RoundS);
    std::fprintf(stderr, "perfbench: round %zu: %.3f s, %zu evals\n",
                 RoundTuneS.size() - 1, RoundS, RoundEvals);
  } while (roomForAnotherRound(RunStart, RoundStart, Budget));
  Rotation.unpinThread();
  const double PeakRss = peakRssMbSelf();

  // Output checks (not timed).
  std::vector<double> Mflops;
  for (size_t I = 0; I < Set.size(); ++I) {
    Mflops.push_back(checkTuneWinner(Set[I], First[I].R, Res));
    std::fprintf(stderr, "perfbench: %s: %.3f s, %zu evals, %.2f MFLOPS\n",
                 Set[I].P.label().c_str(), First[I].Seconds,
                 First[I].R.TotalPoints, Mflops.back());
  }
  for (size_t I : Mismatch)
    Res.fail(Set[I].P.label() + ": winner differs between rounds");
  const Json &SeqCheck = In.get("sequential_check");
  for (size_t K = 0; K < SeqCheck.size(); ++K) {
    size_t I = static_cast<size_t>(SeqCheck.at(K).asInt());
    if (I >= Set.size())
      continue;
    SimEvalBackend B(Set[I].Machine);
    DirectEvaluator D(B);
    TuneResult S = tune(Set[I].Nest, D, Set[I].Bind);
    if (!(winnerOf(S) == winnerOf(First[I].R)))
      Res.fail(Set[I].P.label() + ": winner at jobs=" +
               std::to_string(Jobs) + " differs from a sequential tune");
  }

  const std::string P = Trace ? "traced." : "";
  Res.metric(P + "setup_s", median(SetupS), "s");
  Res.metric(P + "tune_s", median(RoundTuneS), "s");
  Res.metric(P + "evals_per_s", median(RoundEvalsPerS), "1/s");
  Res.metric(P + "evals_per_tune",
             static_cast<double>(TotalEvals) / static_cast<double>(TotalTunes),
             "count");
  Res.metric(P + "tuned_mflops_geomean", geomean(Mflops), "MFLOPS");
  Res.metric(P + "peak_rss_mb", PeakRss, "MB");
  if (!Trace)
    return;

  // Per-layer metrics.
  std::vector<double> DeriveMs;
  for (const Prepared &Pr : Set) {
    DeriveOptions DO;
    DO.setRepresentativeSize(Pr.P.N);
    SpanScope S("core.derive");
    auto T0 = Clock::now();
    std::vector<DerivedVariant> V = deriveVariants(Pr.Nest, Pr.Machine, DO);
    DeriveMs.push_back(secondsSince(T0) * 1e3);
  }
  ReplayTimes RT;
  replaySamples(Tally.Reservoir, RT);
  double ReplayRate = replaySyntheticTrace();
  const double Tunes = static_cast<double>(TotalTunes);
  Res.metric("core.derive_ms", median(DeriveMs), "ms");
  Res.metric("core.search_self_s", mean(SearchSelfS), "s");
  Res.metric("core.evaluate_calls",
             static_cast<double>(Tally.EvaluateCalls) / Tunes, "count");
  Res.metric("core.warm_points_per_batch",
             Tally.WarmCalls ? static_cast<double>(Tally.WarmPoints) /
                                   static_cast<double>(Tally.WarmCalls)
                             : 0,
             "count");
  Res.metric("engine.call_s", mean(EngineCallS), "s");
  Res.metric("engine.overhead_s", mean(EngineOverheadS), "s");
  Res.metric("engine.cache_hit_ratio",
             CacheBase ? static_cast<double>(CacheHits) /
                             static_cast<double>(CacheBase)
                       : 0,
             "ratio");
  Res.metric("engine.cache_hit_base", static_cast<double>(CacheBase),
             "count");
  Res.metric("engine.lane_busy_ratio", mean(LaneBusy), "ratio");
  Res.metric("exec.evals", static_cast<double>(Tally.EvalMs.size()) / Tunes,
             "count");
  Res.metric("exec.eval_ms_p50", quantile(Tally.EvalMs, 0.5), "ms");
  Res.metric("exec.eval_ms_p99", quantile(Tally.EvalMs, 0.99), "ms");
  Res.metric("exec.plan_ms", median(RT.PlanMs), "ms");
  Res.metric("exec.run_ms", median(RT.RunMs), "ms");
  Res.metric("sim.build_ms", median(RT.BuildMs), "ms");
  Res.metric("sim.accesses_per_eval",
             Tally.EvalMs.empty()
                 ? 0
                 : static_cast<double>(Tally.Accesses) /
                       static_cast<double>(Tally.EvalMs.size()),
             "count");
  Res.metric("sim.accesses_per_s",
             static_cast<double>(Tally.Accesses) / Tally.RunBackendS, "1/s");
  Res.metric("sim.replay_accesses_per_s", ReplayRate, "1/s");
}

//===----------------------------------------------------------------------===//
// serve_mixed
//===----------------------------------------------------------------------===//

/// One eco_served child process. The child dies with the driver
/// (PR_SET_PDEATHSIG), and the destructor kills and reaps it if it is
/// still running.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }

  /// Starts eco_served; with \p Cpus set, the daemon runs on those CPUs.
  bool start(const std::string &Exe, const std::string &Socket,
             const std::string &Db, const std::string &Events,
             const std::string &Metrics, const std::string &Log,
             std::string &Err, const cpu_set_t *Cpus = nullptr) {
    std::vector<std::string> Args = {
        Exe, "--socket=" + Socket, "--db=" + Db, "--events-file=" + Events,
        "--metrics-file=" + Metrics};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid < 0) {
      Err = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      if (Cpus)
        ::sched_setaffinity(0, sizeof(*Cpus), Cpus);
      int Fd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, 1);
        ::dup2(Fd, 2);
        ::close(Fd);
      }
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    Socket_ = Socket;
    return true;
  }

  /// Connects, retrying until the daemon answers ping.
  std::unique_ptr<serve::Client> connect(std::string &Err) {
    auto T0 = Clock::now();
    while (secondsSince(T0) < 20) {
      std::unique_ptr<serve::Client> C =
          serve::Client::connectUnix(Socket_, &Err, 1000);
      if (C && C->ping(&Err))
        return C;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "eco_served exited during start-up";
        return nullptr;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return nullptr;
  }

  /// Waits for the process to exit; true on a clean exit(0).
  bool waitExit(double TimeoutS) {
    auto T0 = Clock::now();
    while (Pid > 0 && secondsSince(T0) < TimeoutS) {
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  pid_t pid() const { return Pid; }

private:
  pid_t Pid = -1;
  std::string Socket_;
};

/// utime + stime of \p Pid in seconds, from /proc/<pid>/stat.
double processCpuSeconds(pid_t Pid) {
  std::ifstream F("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(F, Line);
  size_t Paren = Line.rfind(')');
  if (Paren == std::string::npos)
    return 0;
  std::istringstream IS(Line.substr(Paren + 2));
  std::string Tok;
  double Ticks = 0;
  // Fields after the command name start at 3 (state); utime is 14.
  for (int Field = 3; Field <= 15 && (IS >> Tok); ++Field)
    if (Field >= 14)
      Ticks += std::stod(Tok);
  return Ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// VmHWM of \p Pid in MB, from /proc/<pid>/status.
double processPeakRssMb(pid_t Pid) {
  std::ifstream F("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB
  return 0;
}

struct Timed {
  serve::JobResult R;
  double Ms = 0; ///< client round trip
};

struct ServeRound {
  std::vector<Timed> Hits, Warm, Probes;
  double ReadWallS = 0;
  double DaemonCpuS = 0;
  double PeakRssMb = 0;
  std::string Db, Events;
};

/// Reports \p What as an output-check failure when \p Got is not the
/// answer \p Want the daemon gave when it tuned that size.
void checkExactHit(const std::string &What, const serve::JobResult &Got,
                   const serve::JobResult &Want, Result &Res) {
  if (!Got.ok() || Got.WarmStart != "exact")
    Res.fail(What + ": status " + Got.Status + " warm_start " +
             Got.WarmStart + " " + Got.Error);
  else if (Got.Variant != Want.Variant || Got.Config != Want.Config ||
           Got.Cost != Want.Cost)
    Res.fail(What + ": answer differs from the seeding tune");
}

/// Rebuilds a served warm answer (status done) from its variant name and
/// checks it: its simulated cost equals the served cost bitwise and it
/// computes the reference result. Returns its simulated MFLOPS.
double checkWarmAnswer(const Problem &P, const serve::JobResult &R,
                       Result &Res) {
  const std::string Tag = "warm " + P.label() + ": ";
  if (R.WarmStart != "nearest")
    Res.fail(Tag + "warm_start " + R.WarmStart + ", expected nearest");
  LoopNest Nest;
  MachineDesc M;
  serve::buildKernel(P.Kernel, Nest);
  serve::buildMachine(P.Machine, P.Scale, M);
  std::vector<DerivedVariant> Vs = deriveVariants(Nest, M);
  const DerivedVariant *V = nullptr;
  for (const DerivedVariant &C : Vs)
    if (C.Spec.Name == R.Variant)
      V = &C;
  if (!V) {
    Res.fail(Tag + "variant " + R.Variant + " is not derived");
    return 0;
  }
  for (const auto &[Name, Value] : R.Config)
    if (V->Skeleton.Syms.lookup(Name) < 0 ||
        V->Skeleton.Syms.kind(V->Skeleton.Syms.lookup(Name)) ==
            SymbolKind::LoopVar) {
      Res.fail(Tag + "config names unknown symbol " + Name);
      return 0;
    }
  Env Config = makeEnv(V->Skeleton, R.Config);
  LoopNest Exec = V->instantiate(Config, M);
  RunResult RR = simulateNest(Exec, envToBindings(Exec, Config), M);
  if (RR.Cycles != R.Cost)
    Res.fail(Tag + "rebuilt config's simulated cost differs from the "
                   "served cost");
  std::string Why;
  if (!valuesMatchReference(P.Kernel, Exec, Config, M, P.N, Why))
    Res.fail(Tag + "rebuilt config disagrees with the reference: " + Why);
  return RR.Mflops;
}

/// Counts lines and bytes of a JSONL file.
std::pair<size_t, size_t> fileLinesBytes(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  size_t Lines = 0, Bytes = 0;
  std::string Line;
  while (std::getline(F, Line)) {
    ++Lines;
    Bytes += Line.size() + 1;
  }
  return {Lines, Bytes};
}

void runServeWorkload(const Json &In, Result &Res) {
  namespace fs = std::filesystem;
  const bool Trace = In.get("trace").asBool();
  const double Budget = In.get("seconds").asNumber(10);
  const std::string Exe = In.get("daemon").asString();
  const std::vector<Problem> SeedRows = problemsFrom(In.get("seed_rows"));
  const std::vector<Problem> Warm = problemsFrom(In.get("warm"));
  const size_t ProbeRow = static_cast<size_t>(In.get("probe_row").asInt());
  const int64_t ProbeDeadlineMs = In.get("probe_deadline_ms").asInt(25);
  const int SetupRepeats =
      static_cast<int>(std::max<int64_t>(1, In.get("setup_repeats").asInt(2)));
  std::vector<size_t> HitRows;
  for (size_t I = 0; I < In.get("hits").size(); ++I)
    HitRows.push_back(static_cast<size_t>(In.get("hits").at(I).asInt()));
  if (ProbeRow >= SeedRows.size()) {
    Res.fail("probe_row out of range");
    return;
  }
  for (size_t R : HitRows)
    if (R >= SeedRows.size()) {
      Res.fail("hit row out of range");
      return;
    }

  // Set-up: start the daemon until it answers ping, then seed its
  // ConfigDB with cold tunes. Repeated on fresh DBs, each daemon on the
  // next pair of CPUs (as the rounds below); the last seeded DB is the one
  // every round starts from.
  const CpuRotation Rotation;
  std::vector<double> SetupS;
  std::vector<serve::JobResult> Seeded;
  const std::string SeedDb = "seed.db.json";
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    const std::string Tag = "setup" + std::to_string(Rep);
    fs::remove(SeedDb);
    std::string Err;
    const cpu_set_t Cpus = Rotation.slot(static_cast<size_t>(Rep), 2);
    auto T0 = Clock::now();
    Daemon D;
    if (!D.start(Exe, Tag + ".sock", SeedDb, Tag + ".events.jsonl",
                 Tag + ".metrics.json", "daemon.log", Err, &Cpus)) {
      Res.fail(Err);
      return;
    }
    std::unique_ptr<serve::Client> C = D.connect(Err);
    if (!C) {
      Res.fail("daemon did not answer ping: " + Err);
      return;
    }
    std::vector<serve::JobResult> Rows;
    for (const Problem &P : SeedRows) {
      serve::JobResult R = C->submit(P.spec());
      if (!R.ok() || R.WarmStart != "cold") {
        Res.fail("seeding " + P.label() + ": status " + R.Status + " " +
                 R.WarmStart + " " + R.Error);
        return;
      }
      Rows.push_back(R);
    }
    SetupS.push_back(secondsSince(T0));
    C->requestShutdown();
    if (!D.waitExit(60)) {
      Res.fail("set-up daemon did not drain and exit cleanly");
      return;
    }
    for (size_t I = 0; I < Rows.size() && !Seeded.empty(); ++I)
      if (Rows[I].Variant != Seeded[I].Variant ||
          Rows[I].Config != Seeded[I].Config ||
          Rows[I].Cost != Seeded[I].Cost)
        Res.fail("seeding " + SeedRows[I].label() +
                 " answered differently between set-ups");
    Seeded = std::move(Rows);
  }

  // Timed section: whole rounds, each on a fresh daemon over a copy of the
  // seeded DB, so every round runs the same operations on the same state.
  std::vector<ServeRound> Rounds;
  auto RunStart = Clock::now();
  Clock::time_point RoundStart;
  do {
    RoundStart = Clock::now();
    ServeRound Round;
    const std::string Tag = "round" + std::to_string(Rounds.size());
    Round.Db = Tag + ".db.json";
    Round.Events = Tag + ".events.jsonl";
    fs::copy_file(SeedDb, Round.Db, fs::copy_options::overwrite_existing);
    fs::remove(Round.Events);
    std::string Err;
    Daemon D;
    // The daemon's one service worker runs every tune, so each round's
    // daemon gets the next pair of CPUs (two, so the connection threads
    // answering polls and probes do not share the worker's CPU).
    const cpu_set_t Cpus = Rotation.slot(Rounds.size(), 2);
    if (!D.start(Exe, Tag + ".sock", Round.Db, Round.Events,
                 Tag + ".metrics.json", "daemon.log", Err, &Cpus)) {
      Res.fail(Err);
      return;
    }
    std::unique_ptr<serve::Client> C = D.connect(Err);
    std::unique_ptr<serve::Client> ProbeC =
        C ? D.connect(Err) : nullptr;
    if (!C || !ProbeC) {
      Res.fail("daemon did not answer ping: " + Err);
      return;
    }

    // Read phase: closed-loop exact hits over the seeded rows.
    double Cpu0 = processCpuSeconds(D.pid());
    auto R0 = Clock::now();
    for (size_t Row : HitRows) {
      SpanScope S("serve.hit");
      auto T0 = Clock::now();
      serve::JobResult R = C->submit(SeedRows[Row].spec());
      Round.Hits.push_back({std::move(R), secondsSince(T0) * 1e3});
    }
    Round.ReadWallS = secondsSince(R0);
    Round.DaemonCpuS = processCpuSeconds(D.pid()) - Cpu0;

    // Write phase: nearest-size warm tunes; during each one, a second
    // connection sends an exact-hit probe with a deadline.
    for (const Problem &P : Warm) {
      Timed W;
      std::atomic<bool> Finished{false};
      int Parent = Spans.current();
      std::thread Th([&] {
        SpanScope S("serve.warm", Parent);
        auto T0 = Clock::now();
        W.R = C->submit(P.spec());
        W.Ms = secondsSince(T0) * 1e3;
        Finished = true;
      });
      // Send the probe only once the warm job is running, so it always
      // queues behind it.
      bool Running = false;
      while (!Running && !Finished) {
        Json J = ProbeC->jobs();
        const Json &List = J.get("jobs");
        for (size_t I = 0; I < List.size(); ++I)
          if (List.at(I).get("phase").asString() == "running" &&
              List.at(I).get("n").asInt() == P.N)
            Running = true;
        if (!Running)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      serve::JobSpec Probe = SeedRows[ProbeRow].spec();
      Probe.DeadlineMs = ProbeDeadlineMs;
      Timed PR;
      {
        SpanScope S("serve.probe");
        auto T0 = Clock::now();
        PR.R = ProbeC->submit(Probe);
        PR.Ms = secondsSince(T0) * 1e3;
      }
      if (!Running)
        PR.R.Error += " (sent after the warm tune finished)";
      Th.join();
      Round.Probes.push_back(std::move(PR));
      Round.Warm.push_back(std::move(W));
    }
    Round.PeakRssMb = processPeakRssMb(D.pid());
    C->requestShutdown();
    if (!D.waitExit(60))
      Res.fail(Tag + ": daemon did not drain and exit cleanly");
    Res.Attempted +=
        Round.Hits.size() + Round.Warm.size() + Round.Probes.size();
    Rounds.push_back(std::move(Round));
  } while (roomForAnotherRound(RunStart, RoundStart, Budget));

  // Output checks (not timed).
  // A warm job that does not end done is a failed operation, reported by
  // status; one that does is checked.
  std::vector<double> Mflops;
  std::map<std::string, size_t> ProbeOutcomes, WarmFailures;
  for (size_t RI = 0; RI < Rounds.size(); ++RI) {
    const ServeRound &Round = Rounds[RI];
    const std::string Tag = "round" + std::to_string(RI) + " ";
    for (size_t I = 0; I < Round.Hits.size(); ++I)
      checkExactHit(Tag + "hit " + SeedRows[HitRows[I]].label(),
                    Round.Hits[I].R, Seeded[HitRows[I]], Res);
    for (size_t I = 0; I < Round.Warm.size(); ++I) {
      const serve::JobResult &R = Round.Warm[I].R;
      if (!R.ok()) {
        ++Res.Failed;
        ++WarmFailures[R.Status];
      }
      if (RI == 0) {
        if (R.ok())
          Mflops.push_back(checkWarmAnswer(Warm[I], R, Res));
        std::fprintf(stderr,
                     "perfbench: warm %s: %s%s, %.1f ms (run %.1f ms), "
                     "%llu evals, %.2f MFLOPS\n",
                     Warm[I].label().c_str(), R.Status.c_str(),
                     R.ok() ? "" : (" (" + R.Error + ")").c_str(),
                     Round.Warm[I].Ms, R.RunMs,
                     static_cast<unsigned long long>(R.Evaluations),
                     R.ok() ? Mflops.back() : 0.0);
      } else if (R.Status != Rounds[0].Warm[I].R.Status ||
                 R.Variant != Rounds[0].Warm[I].R.Variant ||
                 R.Config != Rounds[0].Warm[I].R.Config ||
                 R.Cost != Rounds[0].Warm[I].R.Cost)
        Res.fail(Tag + "warm " + Warm[I].label() +
                 " answered differently from round 0");
    }
    for (const Timed &P : Round.Probes) {
      ++ProbeOutcomes[P.R.Status];
      if (P.R.ok())
        checkExactHit(Tag + "probe", P.R, Seeded[ProbeRow], Res);
      else
        ++Res.Failed;
    }
    check::DbAuditReport DbR = check::auditConfigDBFile(Round.Db);
    if (!DbR.ok())
      Res.fail(Tag + "ConfigDB audit: " + DbR.summary());
    check::EventAuditReport EvR = check::auditEventsFile(Round.Events);
    if (!EvR.ok())
      Res.fail(Tag + "events audit: " + EvR.summary());
  }
  std::printf("perfbench: busy-hit probes:");
  for (const auto &[Status, Count] : ProbeOutcomes)
    std::printf(" %s=%zu", Status.c_str(), Count);
  std::printf("\nperfbench: warm jobs not done:");
  for (const auto &[Status, Count] : WarmFailures)
    std::printf(" %s=%zu", Status.c_str(), Count);
  std::printf("\n");

  std::vector<double> WarmS, WarmEvals, HitMs, HitQueue, HitRun, HitWire,
      ProbeMs, WarmQueue, WarmRun, WarmCacheHits, HitRate, CpuPerHit;
  double EvalsTotal = 0, WarmSecTotal = 0, PeakRss = 0;
  std::vector<double> RoundTuneS;
  for (const ServeRound &Round : Rounds) {
    double RoundWarmS = 0;
    for (const Timed &W : Round.Warm) {
      RoundWarmS += W.Ms / 1e3;
      EvalsTotal += static_cast<double>(W.R.Evaluations);
      WarmEvals.push_back(static_cast<double>(W.R.Evaluations));
      WarmQueue.push_back(W.R.QueueMs);
      WarmRun.push_back(W.R.RunMs);
      WarmCacheHits.push_back(static_cast<double>(W.R.CacheHits));
    }
    WarmSecTotal += RoundWarmS;
    RoundTuneS.push_back(RoundWarmS / static_cast<double>(Round.Warm.size()));
    for (const Timed &H : Round.Hits) {
      HitMs.push_back(H.Ms);
      HitQueue.push_back(H.R.QueueMs);
      HitRun.push_back(H.R.RunMs);
      HitWire.push_back(H.Ms - H.R.QueueMs - H.R.RunMs);
    }
    HitRate.push_back(static_cast<double>(Round.Hits.size()) /
                      Round.ReadWallS);
    CpuPerHit.push_back(Round.DaemonCpuS * 1e6 /
                        static_cast<double>(Round.Hits.size()));
    for (const Timed &P : Round.Probes)
      ProbeMs.push_back(P.Ms);
    PeakRss = std::max(PeakRss, Round.PeakRssMb);
  }

  const std::string P = Trace ? "traced." : "";
  Res.metric(P + "setup_s", median(SetupS), "s");
  Res.metric(P + "tune_s", median(RoundTuneS), "s");
  Res.metric(P + "evals_per_s", EvalsTotal / WarmSecTotal, "1/s");
  Res.metric(P + "evals_per_tune", mean(WarmEvals), "count");
  Res.metric(P + "tuned_mflops_geomean", geomean(Mflops), "MFLOPS");
  Res.metric(P + "peak_rss_mb", PeakRss, "MB");
  if (!Trace)
    return;

  // ConfigDB alone, in-process, on a copy of the run's DB.
  std::vector<double> ExactUs, PutSaveMs;
  {
    serve::ConfigDB Db(Rounds[0].Db);
    std::vector<uint64_t> Hash(SeedRows.size());
    for (size_t I = 0; I < SeedRows.size(); ++I) {
      MachineDesc M;
      serve::buildMachine(SeedRows[I].Machine, SeedRows[I].Scale, M);
      Hash[I] = M.fingerprint();
    }
    for (size_t Row : HitRows) {
      SpanScope S("serve.db_exact");
      auto T0 = Clock::now();
      auto E = Db.exact(SeedRows[Row].Kernel, Hash[Row], SeedRows[Row].N);
      ExactUs.push_back(secondsSince(T0) * 1e6);
      if (!E)
        Res.fail("in-process ConfigDB copy misses a seeded row");
    }
    serve::ConfigDB Copy("putsave.db.json");
    Db.forEach([&](const serve::TunedEntry &E) { Copy.put(E); });
    std::optional<serve::TunedEntry> Base =
        Db.exact(SeedRows[0].Kernel, Hash[0], SeedRows[0].N);
    for (int I = 0; Base && I < 32; ++I) {
      serve::TunedEntry E = *Base;
      E.N = 100000 + I; // a fresh key each time
      SpanScope S("serve.db_put_save");
      auto T0 = Clock::now();
      Copy.put(E);
      Copy.save();
      PutSaveMs.push_back(secondsSince(T0) * 1e3);
    }
  }
  std::vector<double> EventsPerJob, BytesPerJob;
  for (const ServeRound &Round : Rounds) {
    auto [Lines, Bytes] = fileLinesBytes(Round.Events);
    double Jobs = static_cast<double>(Round.Hits.size() + Round.Warm.size() +
                                      Round.Probes.size());
    EventsPerJob.push_back(static_cast<double>(Lines) / Jobs);
    BytesPerJob.push_back(static_cast<double>(Bytes) / Jobs);
  }
  std::vector<double> DeriveMs;
  for (const Problem &W : Warm) {
    Prepared Pr;
    prepare(W, Pr);
    DeriveOptions DO;
    DO.setRepresentativeSize(W.N);
    SpanScope S("core.derive");
    auto T0 = Clock::now();
    std::vector<DerivedVariant> V = deriveVariants(Pr.Nest, Pr.Machine, DO);
    DeriveMs.push_back(secondsSince(T0) * 1e3);
  }
  Res.metric("core.derive_ms", median(DeriveMs), "ms");
  Res.metric("sim.replay_accesses_per_s", replaySyntheticTrace(), "1/s");
  Res.metric("serve.hit_jobs_per_s", median(HitRate), "1/s");
  Res.metric("serve.hit_p50_ms", quantile(HitMs, 0.5), "ms");
  Res.metric("serve.hit_p99_ms", quantile(HitMs, 0.99), "ms");
  Res.metric("serve.hit_queue_ms", median(HitQueue), "ms");
  Res.metric("serve.hit_run_ms", median(HitRun), "ms");
  Res.metric("serve.hit_wire_ms", median(HitWire), "ms");
  Res.metric("serve.daemon_cpu_us_per_hit", median(CpuPerHit), "us");
  Res.metric("serve.probe_wait_ms", median(ProbeMs), "ms");
  Res.metric("serve.warm_queue_ms", median(WarmQueue), "ms");
  Res.metric("serve.warm_run_ms", median(WarmRun), "ms");
  Res.metric("serve.warm_cache_hits", mean(WarmCacheHits), "count");
  // Warm answers against an in-process cold tune of the same size, with
  // the daemon's cold settings (ROADMAP item 4: warm can end worse).
  std::vector<double> WarmOverCold;
  size_t WorseThanCold = 0;
  for (size_t I = 0; I < Warm.size(); ++I) {
    if (!Rounds[0].Warm[I].R.ok())
      continue;
    Prepared Pr;
    prepare(Warm[I], Pr);
    EvalEngine E(*Pr.Backend);
    TuneResult Cold;
    {
      SpanScope S("core.tune");
      Cold = tune(Pr.Nest, E, Pr.Bind);
    }
    double Ratio = Rounds[0].Warm[I].R.Cost / Cold.BestCost;
    WarmOverCold.push_back(Ratio);
    WorseThanCold += Ratio > 1;
  }
  Res.metric("serve.warm_cost_over_cold", geomean(WarmOverCold), "ratio");
  Res.metric("serve.warm_worse_than_cold", static_cast<double>(WorseThanCold),
             "count");
  Res.metric("serve.db_exact_us", median(ExactUs), "us");
  Res.metric("serve.db_put_save_ms", median(PutSaveMs), "ms");
  Res.metric("obs.events_per_job", median(EventsPerJob), "count");
  Res.metric("obs.event_bytes_per_job", median(BytesPerJob), "B");
}

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints each one; a layer the workload cannot reach from outside the
/// program reads 0 and is named on a "not measured" line.
const std::vector<std::pair<std::string, std::string>> &layerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> L = {
      {"core.derive_ms", "ms"},          {"core.search_self_s", "s"},
      {"core.evaluate_calls", "count"},  {"core.warm_points_per_batch", "count"},
      {"core.self_s", "s"},              {"engine.call_s", "s"},
      {"engine.overhead_s", "s"},        {"engine.cache_hit_ratio", "ratio"},
      {"engine.cache_hit_base", "count"}, {"engine.lane_busy_ratio", "ratio"},
      {"engine.self_s", "s"},            {"exec.evals", "count"},
      {"exec.eval_ms_p50", "ms"},        {"exec.eval_ms_p99", "ms"},
      {"exec.plan_ms", "ms"},            {"exec.run_ms", "ms"},
      {"exec.self_s", "s"},              {"sim.build_ms", "ms"},
      {"sim.accesses_per_eval", "count"}, {"sim.accesses_per_s", "1/s"},
      {"sim.replay_accesses_per_s", "1/s"}, {"sim.self_s", "s"},
      {"serve.hit_jobs_per_s", "1/s"},   {"serve.hit_p50_ms", "ms"},
      {"serve.hit_p99_ms", "ms"},        {"serve.hit_queue_ms", "ms"},
      {"serve.hit_run_ms", "ms"},        {"serve.hit_wire_ms", "ms"},
      {"serve.daemon_cpu_us_per_hit", "us"}, {"serve.probe_wait_ms", "ms"},
      {"serve.warm_queue_ms", "ms"},     {"serve.warm_run_ms", "ms"},
      {"serve.warm_cache_hits", "count"}, {"serve.warm_cost_over_cold", "ratio"},
      {"serve.warm_worse_than_cold", "count"}, {"serve.db_exact_us", "us"},
      {"serve.db_put_save_ms", "ms"},    {"serve.self_s", "s"},
      {"obs.events_per_job", "count"},   {"obs.event_bytes_per_job", "B"},
  };
  return L;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: perfbench_driver INPUTS.json\n");
    return 2;
  }
  std::string Err;
  Json In = Json::loadFile(Argv[1], &Err);
  if (!In.isObject()) {
    std::fprintf(stderr, "perfbench_driver: bad inputs %s: %s\n", Argv[1],
                 Err.c_str());
    return 2;
  }
  const std::string Workload = In.get("workload").asString();
  const bool Trace = In.get("trace").asBool();
  Spans.Enabled = Trace;
  ::signal(SIGPIPE, SIG_IGN);

  Result Res;
  if (Workload == "tune_seq" || Workload == "tune_par") {
    runTuneWorkload(In, Res);
  } else if (Workload == "serve_mixed") {
    runServeWorkload(In, Res);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 Workload.c_str());
    return 2;
  }

  if (Trace) {
    // Self time per layer, then every per-layer metric the workload did
    // not set reads 0 and is named.
    for (const auto &[Layer, Sec] : Spans.selfSecondsByLayer())
      Res.metric(Layer + ".self_s", Sec, "s");
    Json Traced = Res.Metrics;
    Json Out = Json::object();
    std::string Missing;
    for (const auto &[Name, Unit] : layerMetrics()) {
      if (Traced.has(Name)) {
        Out.set(Name, Traced.get(Name));
      } else {
        Json M = Json::object();
        M.set("value", 0.0);
        M.set("unit", Unit);
        Out.set(Name, std::move(M));
        Missing += " " + Name;
      }
    }
    for (const auto &[Name, V] : Traced.fields())
      if (Name.rfind("traced.", 0) == 0)
        Out.set(Name, V);
    Res.Metrics = std::move(Out);
    if (!Missing.empty())
      std::printf("perfbench: not measured on %s (0 printed):%s -- %s\n",
                  Workload.c_str(), Missing.c_str(),
                  Workload == "serve_mixed"
                      ? "the tunes run inside the eco_served process, "
                        "which the benchmark sees only through the wire "
                        "protocol and its output files"
                      : "the workload makes no call into these layers "
                        "(no daemon, no flight recorder)");
    std::string TracePath = In.get("trace_file").asString();
    if (!TracePath.empty() && Spans.writeChromeTrace(TracePath))
      std::printf("perfbench: spans written to %s\n", TracePath.c_str());
  }

  for (const std::string &P : Res.Problems)
    std::printf("perfbench: CHECK FAILED: %s\n", P.c_str());
  Json Out = Json::object();
  Out.set("correct", Res.Correct);
  Out.set("attempted", Res.Attempted);
  Out.set("failed", Res.Failed);
  Out.set("metrics", std::move(Res.Metrics));
  std::printf("%s\n", Out.dump().c_str());
  std::fflush(stdout);
  return 0;
}
