//===- tests/test_check.cpp - eco::check self-check harness tests ---------===//
//
// Covers the check subsystem: the kernel x config differential harness
// (simulator and native legs against the golden references, including one
// adversarial corner per transform), the shared element tolerance, the
// flight-recorder event auditor (clean streams pass; every seeded fault
// is caught, each in its own test), the jobs-determinism replay,
// and the persistence fault-injection matrix. Carries the "check" ctest
// label (ctest -L check).
//
//===----------------------------------------------------------------------===//

#include "check/DiffCheck.h"
#include "check/EventAudit.h"
#include "check/FaultInject.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"
#include "obs/Event.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

using namespace eco;
using namespace eco::check;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// A diff run bounded for test time: the simulator leg alone already
/// cross-checks instantiate()+Executor against the references; the
/// native leg gets its own (smaller) dedicated cases below.
DiffCheckOptions simOnlyOptions(const std::string &Kernel) {
  DiffCheckOptions Opts;
  Opts.KernelFilter = Kernel;
  Opts.CheckNative = false;
  Opts.Seed = 7;
  return Opts;
}

} // namespace

// ---- ulpDiff ------------------------------------------------------------

TEST(UlpDiffTest, BasicProperties) {
  EXPECT_EQ(ulpDiff(1.0, 1.0), 0u);
  EXPECT_EQ(ulpDiff(0.0, -0.0), 0u);
  EXPECT_EQ(ulpDiff(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulpDiff(1.0, std::nextafter(std::nextafter(1.0, 2.0), 2.0)),
            2u);
  // Symmetric, and ordered across the sign boundary.
  EXPECT_EQ(ulpDiff(-1.0, 1.0), ulpDiff(1.0, -1.0));
  EXPECT_GT(ulpDiff(-1.0, 1.0), ulpDiff(0.0, 1.0));
  EXPECT_EQ(ulpDiff(std::nan(""), 1.0), UINT64_MAX);
}

// ---- differential harness, simulator leg (every kernel) ----------------

TEST(DiffCheckTest, MatMulAllVariantsMatchReference) {
  DiffCheckReport Report = runDiffCheck(simOnlyOptions("matmul"));
  EXPECT_EQ(Report.Kernels, 1u);
  EXPECT_GE(Report.Variants, 2u);
  EXPECT_GT(Report.Comparisons, 0u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(DiffCheckTest, JacobiAllVariantsMatchReference) {
  DiffCheckReport Report = runDiffCheck(simOnlyOptions("jacobi"));
  EXPECT_EQ(Report.Kernels, 1u);
  EXPECT_GE(Report.Variants, 1u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(DiffCheckTest, MatVecAllVariantsMatchReference) {
  DiffCheckReport Report = runDiffCheck(simOnlyOptions("matvec"));
  EXPECT_EQ(Report.Kernels, 1u);
  EXPECT_GE(Report.Variants, 1u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(DiffCheckTest, AdversarialCornersAreExercised) {
  // With adversarial corners on, each kernel draws strictly more configs
  // than the (initial + random) baseline — the tile=1 / max-unroll /
  // prefetch-on corners must survive feasibility repair, not vanish.
  DiffCheckOptions With = simOnlyOptions("matmul");
  DiffCheckOptions Without = simOnlyOptions("matmul");
  Without.Adversarial = false;
  DiffCheckReport RWith = runDiffCheck(With);
  DiffCheckReport RWithout = runDiffCheck(Without);
  EXPECT_GT(RWith.Configs, RWithout.Configs);
  EXPECT_TRUE(RWith.ok()) << RWith.summary();
}

TEST(DiffCheckTest, NativeLegMatchesReferenceOnEveryKernel) {
  // One variant per kernel through the full emitC -> cc -> dlopen leg,
  // still with adversarial corners. Small N keeps compile counts sane.
  for (const char *Kernel : {"matmul", "jacobi", "matvec"}) {
    DiffCheckOptions Opts;
    Opts.KernelFilter = Kernel;
    Opts.MaxVariantsPerKernel = 1;
    Opts.RandomConfigsPerVariant = 1;
    Opts.ProblemSize = 9;
    DiffCheckReport Report = runDiffCheck(Opts);
    EXPECT_EQ(Report.Kernels, 1u) << Kernel;
    EXPECT_TRUE(Report.ok()) << Kernel << "\n" << Report.summary();
  }
}

TEST(DiffCheckTest, DeterministicForFixedSeed) {
  DiffCheckOptions Opts = simOnlyOptions("matvec");
  DiffCheckReport A = runDiffCheck(Opts);
  DiffCheckReport B = runDiffCheck(Opts);
  EXPECT_EQ(A.Configs, B.Configs);
  EXPECT_EQ(A.Comparisons, B.Comparisons);
  EXPECT_EQ(A.SkippedInfeasible, B.SkippedInfeasible);
}

TEST(DiffCheckTest, JacobiAtRealisticSizeMatchesReference) {
  // From N = 24 up some of jacobi's six-term sums cancel to near zero,
  // where the IR's and the reference's summation orders differ by
  // hundreds of ulps yet stay ~1e-16 of the output's largest magnitude.
  DiffCheckOptions Opts = simOnlyOptions("jacobi");
  Opts.ProblemSize = 46;
  Opts.RandomConfigsPerVariant = 1;
  DiffCheckReport Report = runDiffCheck(Opts);
  EXPECT_GT(Report.Comparisons, 0u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(ToleranceTest, SummationNoisePassesAndSeededMiscompilesFail) {
  // Near-zero cancellation noise: thousands of ulps, 2e-16 absolute.
  EXPECT_GT(ulpDiff(1e-17, 1e-17 + 2.2e-16), 16u);
  EXPECT_TRUE(withinTolerance(1e-17 + 2.2e-16, 1e-17, 1.0, 16));
  EXPECT_TRUE(withinTolerance(1.0, std::nextafter(1.0, 2.0), 1.0, 16));
  // Wrong cells, wrong values, and NaN never pass.
  EXPECT_FALSE(withinTolerance(0.5, 0.25, 1.0, 16));
  EXPECT_FALSE(withinTolerance(1e-3, 1e-17, 1.0, 16));
  EXPECT_FALSE(withinTolerance(1.0 + 1e-6, 1.0, 1.0, 16));
  EXPECT_FALSE(withinTolerance(std::nan(""), 1.0, 1.0, 16));

  // An off-by-one indexing bug seeded into real jacobi output.
  for (const CheckKernel &K : checkKernels()) {
    if (K.Name != "jacobi")
      continue;
    std::vector<double> Want = K.Expected(46);
    double Scale = 0;
    for (double W : Want)
      Scale = std::max(Scale, std::abs(W));
    std::vector<double> Shifted(Want.begin() + 1, Want.end());
    Shifted.push_back(Want.front());
    size_t Bad = 0;
    for (size_t I = 0; I < Want.size(); ++I)
      Bad += !withinTolerance(Shifted[I], Want[I], Scale, 16);
    EXPECT_GT(Bad, Want.size() / 2);
  }
}

// ---- event auditor ------------------------------------------------------

namespace {

struct Point {
  std::string Variant, Stage, Config;
  double Cost;
  bool Hit = false;
};

/// A well-formed one-tune stream: tune.start, one config.evaluated per
/// point, and a tune.done whose totals reconcile and which reports
/// \p Best. Seq is dense from \p FirstSeq; time rises 1 us per event.
std::vector<obs::Event> tuneStream(const std::vector<Point> &Points,
                                   double Best, uint64_t FirstSeq = 0,
                                   uint64_t FirstUs = 100) {
  std::vector<obs::Event> Out;
  auto Push = [&](const char *Type, Json F) {
    obs::Event E;
    E.Seq = FirstSeq + Out.size();
    E.TimeUs = FirstUs + Out.size();
    E.Type = Type;
    E.Fields = std::move(F);
    Out.push_back(std::move(E));
  };
  Json Start = Json::object();
  Start.set("nest", "synthetic");
  Push("tune.start", Start);
  uint64_t Evals = 0, Hits = 0;
  for (const Point &P : Points) {
    Json F = Json::object();
    F.set("variant", P.Variant);
    F.set("stage", P.Stage);
    F.set("config", P.Variant + "{" + P.Config + "}");
    F.set("cost", P.Cost);
    F.set("cache_hit", P.Hit);
    P.Hit ? ++Hits : ++Evals;
    Push("config.evaluated", F);
  }
  Json Done = Json::object();
  Done.set("points", Evals);
  Done.set("cache_hits", Hits);
  Done.set("variants_rejected", uint64_t(0));
  Done.set("configs_rejected", uint64_t(0));
  Done.set("best_cost", Best);
  Push("tune.done", Done);
  return Out;
}

bool sawKind(const EventAuditReport &R, const std::string &Kind) {
  for (const EventIssue &I : R.Issues)
    if (I.Kind == Kind)
      return true;
  return false;
}

/// Tunes \p Nest at N=24 through a fresh engine with the global bus's
/// file sink on \p Path; returns the tune's best cost.
double tuneIntoEventsFile(const LoopNest &Nest, const std::string &Path) {
  obs::EventBus &Bus = obs::EventBus::global();
  EXPECT_TRUE(Bus.openFile(Path));
  obs::setEventsEnabled(true);
  double Best;
  {
    SimEvalBackend Backend(MachineDesc::sgiR10000().scaledBy(16));
    EvalEngine Engine(Backend);
    TuneResult R = tune(Nest, Engine, {{"N", 24}});
    EXPECT_GE(R.BestVariant, 0);
    Best = R.BestCost;
  }
  obs::setEventsEnabled(false);
  Bus.closeFile();
  return Best;
}

} // namespace

TEST(EventAuditTest, CleanSyntheticStreamPasses) {
  std::vector<obs::Event> S = tuneStream(
      {{"v1", "rank", "a", 9.0},
       {"v1", "initial", "a", 9.0, /*Hit=*/true},
       {"v1", "register", "b", 7.0},
       {"v1", "tile0", "c", 5.0},
       {"v1", "prefetch", "d", 6.0},
       {"v1", "adjust", "c", 5.0, /*Hit=*/true}},
      5.0);
  EventAuditOptions Opts;
  Opts.AssumeColdCache = true;
  Opts.HasExpectedBestCost = true;
  Opts.ExpectedBestCost = 5.0;
  EventAuditReport Report = auditEvents(S, Opts);
  EXPECT_TRUE(Report.ok()) << Report.summary();
  EXPECT_EQ(Report.Events, 8u);
  EXPECT_EQ(Report.Segments, 1u);
  EXPECT_EQ(Report.Tunes, 1u);
}

TEST(EventAuditTest, CostMismatchIsCaught) {
  // Same (variant, config) with two different costs: the memo table or a
  // backend clone went non-deterministic.
  std::vector<obs::Event> S = tuneStream(
      {{"v1", "initial", "a", 9.0}, {"v1", "register", "a", 8.0}}, 8.0);
  EventAuditReport Report = auditEvents(S);
  ASSERT_EQ(Report.Issues.size(), 1u) << Report.summary();
  EXPECT_EQ(Report.Issues[0].Kind, "cost-mismatch");
}

TEST(EventAuditTest, CostsCompareOnlyWithinOneTuneWindow) {
  // A daemon's file holds many sizes: the same (variant, config) at two
  // problem sizes costs differently, and that is no mismatch.
  std::vector<obs::Event> S = tuneStream({{"v1", "initial", "a", 9.0}}, 9.0);
  std::vector<obs::Event> T =
      tuneStream({{"v1", "initial", "a", 4.0}}, 4.0, S.size(), 200);
  S.insert(S.end(), T.begin(), T.end());
  EventAuditReport Report = auditEvents(S);
  EXPECT_TRUE(Report.ok()) << Report.summary();
  EXPECT_EQ(Report.Tunes, 2u);
}

TEST(EventAuditTest, SeqGapAndStageRegressionAreCaught) {
  std::vector<obs::Event> S = tuneStream({{"v1", "initial", "a", 9.0},
                                          {"v1", "tile0", "b", 7.0},
                                          {"v1", "register", "c", 8.0}},
                                         7.0);
  // The register point comes after tile0 (stage went backwards), and one
  // seq number before it is missing.
  for (size_t I = 2; I < S.size(); ++I)
    ++S[I].Seq;
  EventAuditReport Report = auditEvents(S);
  EXPECT_TRUE(sawKind(Report, "seq")) << Report.summary();
  EXPECT_TRUE(sawKind(Report, "stage-order")) << Report.summary();
  EXPECT_EQ(Report.Issues.size(), 2u) << Report.summary();
}

TEST(EventAuditTest, BadCostAndColdCacheHitAreCaught) {
  std::vector<obs::Event> S =
      tuneStream({{"v1", "initial", "a",
                   std::numeric_limits<double>::quiet_NaN()},
                  {"v1", "register", "b", 5.0, /*Hit=*/true}},
                 5.0);
  EventAuditOptions Opts;
  Opts.AssumeColdCache = true;
  EventAuditReport Report = auditEvents(S, Opts);
  EXPECT_TRUE(sawKind(Report, "bad-cost")) << Report.summary();
  EXPECT_TRUE(sawKind(Report, "cold-hit")) << Report.summary();
  // Without the cold-cache claim a hit on an unseen point is legal.
  EXPECT_FALSE(sawKind(auditEvents(S), "cold-hit"));
}

TEST(EventAuditTest, NaNCostWrittenToFileIsBadCost) {
  // Json writes NaN as null: read back from the file sink it must still
  // be a bad cost, never a plausible 0.
  const std::string Path = tempPath("check_audit_nan.jsonl");
  obs::EventBus &Bus = obs::EventBus::global();
  ASSERT_TRUE(Bus.openFile(Path));
  obs::setEventsEnabled(true);
  const std::vector<Point> Points = {
      {"v1", "initial", "a", std::numeric_limits<double>::quiet_NaN()}};
  for (const obs::Event &E : tuneStream(Points, 5.0))
    obs::publishEvent(E.Type, E.Fields);
  obs::setEventsEnabled(false);
  Bus.closeFile();
  EventAuditReport Report = auditEventsFile(Path);
  EXPECT_TRUE(sawKind(Report, "bad-cost")) << Report.summary();
  std::remove(Path.c_str());
}

TEST(EventAuditTest, ReportedBestMustMatchStreamMinimum) {
  const std::vector<Point> Points = {{"v1", "initial", "a", 9.0},
                                     {"v1", "register", "b", 7.0}};
  EventAuditOptions Opts;
  Opts.HasExpectedBestCost = true;
  Opts.ExpectedBestCost = 7.0;
  EXPECT_TRUE(auditEvents(tuneStream(Points, 7.0), Opts).ok());
  // The tune claims a point its stream never evaluated.
  Opts.ExpectedBestCost = 6.5;
  EventAuditReport Report = auditEvents(tuneStream(Points, 6.5), Opts);
  ASSERT_EQ(Report.Issues.size(), 1u) << Report.summary();
  EXPECT_EQ(Report.Issues[0].Kind, "regression");
}

TEST(EventAuditTest, ResumedSecondSegmentStaysClean) {
  // A resumed process appends a second segment whose seq restarts at 0
  // and whose stages begin again — neither is an issue.
  std::vector<obs::Event> S = tuneStream(
      {{"v1", "initial", "a", 9.0}, {"v1", "tile0", "b", 7.0}}, 7.0);
  std::vector<obs::Event> Resumed = tuneStream(
      {{"v1", "initial", "a", 9.0}, {"v1", "register", "c", 8.0}}, 8.0,
      /*FirstSeq=*/0, /*FirstUs=*/50);
  S.insert(S.end(), Resumed.begin(), Resumed.end());
  EventAuditReport Report = auditEvents(S);
  EXPECT_TRUE(Report.ok()) << Report.summary();
  EXPECT_EQ(Report.Segments, 2u);
  EXPECT_EQ(Report.Tunes, 2u);
}

TEST(EventAuditTest, RealEngineTunePassesAudit) {
  const std::string Path = tempPath("check_audit_real.jsonl");
  double Best = tuneIntoEventsFile(makeMatMul(), Path);
  EventAuditOptions Opts;
  Opts.AssumeColdCache = true;
  Opts.HasExpectedBestCost = true;
  Opts.ExpectedBestCost = Best;
  EventAuditReport Report = auditEventsFile(Path, Opts);
  EXPECT_GT(Report.Events, 0u);
  EXPECT_EQ(Report.Tunes, 1u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
  std::remove(Path.c_str());
}

TEST(EventAuditTest, TamperedEventsFileIsCaught) {
  const std::string Clean = tempPath("check_audit_clean.jsonl");
  const std::string Tampered = tempPath("check_audit_tampered.jsonl");
  tuneIntoEventsFile(makeMatVec(), Clean);

  // Drop one line and truncate another mid-record: the auditor must see
  // both the seq gap and the parse failure.
  std::ifstream In(Clean);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  ASSERT_GE(Lines.size(), 4u);
  {
    std::ofstream Out(Tampered, std::ios::trunc);
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (I == 1)
        continue; // deleted record
      if (I == 3) {
        Out << Lines[I].substr(0, Lines[I].size() / 2) << "\n";
        continue; // torn record
      }
      Out << Lines[I] << "\n";
    }
  }
  EventAuditReport Report = auditEventsFile(Tampered);
  EXPECT_TRUE(sawKind(Report, "seq")) << Report.summary();
  EXPECT_TRUE(sawKind(Report, "parse")) << Report.summary();
  std::remove(Clean.c_str());
  std::remove(Tampered.c_str());
}

// ---- jobs determinism ---------------------------------------------------

TEST(JobsDeterminismTest, WinnerBitIdenticalAcrossJobs) {
  JobsDeterminismResult R = checkJobsDeterminism(
      makeMatMul(), MachineDesc::sgiR10000().scaledBy(16), {{"N", 24}},
      /*Jobs=*/2, ::testing::TempDir());
  EXPECT_TRUE(R.ok()) << R.summary();
  EXPECT_EQ(R.WinnerSeq, R.WinnerPar);
}

// ---- persistence fault injection ---------------------------------------

TEST(FaultInjectTest, InjectorsActuallyDamageFiles) {
  for (Fault F : AllFaults) {
    const std::string Path =
        tempPath(std::string("check_inject_") + faultName(F) + ".json");
    {
      std::ofstream Out(Path, std::ios::trunc);
      Out << "{\n  \"k\": [1, 2, 3]\n}\n";
    }
    ASSERT_TRUE(injectFault(Path, F)) << faultName(F);
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    EXPECT_NE(SS.str(), "{\n  \"k\": [1, 2, 3]\n}\n") << faultName(F);
    std::remove(Path.c_str());
  }
}

TEST(FaultInjectTest, FullPersistenceFaultMatrixPasses) {
  FaultCheckReport Report =
      runPersistenceFaultChecks(::testing::TempDir());
  EXPECT_GE(Report.Scenarios, 12u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}
