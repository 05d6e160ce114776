//===- check/EventAudit.cpp - Flight-recorder stream auditing -------------===//

#include "check/EventAudit.h"

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "obs/Report.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

using namespace eco;
using namespace eco::check;

std::string EventAuditReport::summary() const {
  std::string Out = strformat(
      "event-audit: %zu event(s), %zu segment(s), %zu tune(s) -> "
      "%zu issue(s)\n",
      Events, Segments, Tunes, Issues.size());
  for (const EventIssue &I : Issues)
    Out += strformat("  ISSUE [%s] seq=%llu %s\n", I.Kind.c_str(),
                     static_cast<unsigned long long>(I.Seq),
                     I.Detail.c_str());
  return Out;
}

namespace {

/// Per-type required payload fields (beyond the envelope itself, which
/// eventFromJson already enforced).
void checkSchema(const obs::Event &E, EventAuditReport &Report) {
  auto Require = [&](const char *Field, bool Numeric = false) {
    const Json &V = E.Fields.get(Field);
    bool Ok = Numeric ? V.isNumber() : !V.isNull();
    if (!Ok)
      Report.Issues.push_back(
          {"schema", E.Seq,
           strformat("%s event missing field '%s'", E.Type.c_str(),
                     Field)});
  };
  if (E.Type == "config.evaluated") {
    Require("variant");
    Require("stage");
    Require("config");
    Require("cost", /*Numeric=*/true);
    Require("cache_hit");
  } else if (E.Type == "config.rejected" || E.Type == "variant.rejected") {
    Require("reason");
  } else if (E.Type == "winner.updated" || E.Type == "variant.ranked") {
    Require("variant");
    Require("cost", /*Numeric=*/true);
  } else if (E.Type == "tune.done") {
    Require("points", /*Numeric=*/true);
    Require("cache_hits", /*Numeric=*/true);
    Require("variants_rejected", /*Numeric=*/true);
    Require("configs_rejected", /*Numeric=*/true);
    Require("best_cost", /*Numeric=*/true);
  }
}

/// Pipeline position of a stage name; -1 for unknown stages. Tile stages
/// carry their level so tile1 after tile0 is ordered, and the closing
/// stages sit above any realistic tile depth.
int stageRank(const std::string &Stage) {
  static const std::map<std::string, int> Fixed = {
      {"rank", 0}, {"initial", 1}, {"register", 2},
      {"prefetch", 1000}, {"adjust", 1001}};
  if (auto It = Fixed.find(Stage); It != Fixed.end())
    return It->second;
  if (Stage.size() <= 4 || Stage.size() > 8 ||
      Stage.compare(0, 4, "tile") != 0 ||
      Stage.find_first_not_of("0123456789", 4) != std::string::npos)
    return -1;
  return 3 + std::stoi(Stage.substr(4));
}

/// The "{...}" body of a configString, without its variant prefix.
std::string configBody(const std::string &Config) {
  size_t Brace = Config.find('{');
  return Brace == std::string::npos ? Config : Config.substr(Brace);
}

/// Checks one tune window's config.evaluated events (\p T indexes into
/// \p Segment): bitwise cost consistency, well-formed costs, stage order
/// per variant, and — with an expected best — the window minimum.
void auditWindow(const std::vector<obs::Event> &Segment,
                 const obs::TuneReportData &T, const EventAuditOptions &Opts,
                 EventAuditReport &Report) {
  auto Issue = [&Report](const char *Kind, uint64_t Seq,
                         std::string Detail) {
    Report.Issues.push_back({Kind, Seq, std::move(Detail)});
  };
  std::map<std::string, double> CostOf; // "variant|config" -> cost
  // Variant -> the furthest stage seen. The search leaves stages in
  // order; once left, a stage never emits again.
  std::map<std::string, int> MaxStage;
  double Min = std::numeric_limits<double>::infinity();
  for (size_t At : T.EvaluatedAt) {
    const obs::Event &E = Segment[At];
    const std::string &Variant = E.Fields.get("variant").asString();
    const std::string &Stage = E.Fields.get("stage").asString();
    // A missing or non-number cost (Json writes NaN as null) reads as
    // NaN. NaN or negative can only come from a broken backend or a
    // corrupted line.
    double Cost = E.Fields.get("cost").asNumber(
        std::numeric_limits<double>::quiet_NaN());

    if (std::isnan(Cost) || Cost < 0)
      Issue("bad-cost", E.Seq,
            strformat("variant %s stage %s cost %g", Variant.c_str(),
                      Stage.c_str(), Cost));
    else
      Min = std::min(Min, Cost);

    std::string Key = Variant + "|" + E.Fields.get("config").asString();
    auto [It, Fresh] = CostOf.emplace(Key, Cost);
    if (!Fresh && It->second != Cost)
      Issue("cost-mismatch", E.Seq,
            strformat("%s: cost %.17g earlier, %.17g now", Key.c_str(),
                      It->second, Cost));

    int Rank = stageRank(Stage);
    if (Rank < 0) {
      Issue("schema", E.Seq, "unknown stage '" + Stage + "'");
      continue;
    }
    auto [SIt, First] = MaxStage.emplace(Variant, Rank);
    if (!First && Rank < SIt->second)
      Issue("stage-order", E.Seq,
            strformat("variant %s: stage %s after a later stage",
                      Variant.c_str(), Stage.c_str()));
    SIt->second = std::max(SIt->second, Rank);
  }
  // Acceptance monotonicity against the tune's own answer: every point
  // costs at least the reported best, and the best itself was evaluated.
  if (Opts.HasExpectedBestCost && T.HasDone && !T.EvaluatedAt.empty() &&
      Min != Opts.ExpectedBestCost)
    Issue("regression", 0,
          strformat("tune reported best cost %.17g but its minimum "
                    "evaluated cost is %.17g",
                    Opts.ExpectedBestCost, Min));
}

/// Segment-level ordering + per-tune reconciliation for \p Segment.
/// \p Evaluated carries the config bodies really evaluated so far in the
/// stream, for the cold-cache check.
void auditSegment(const std::vector<obs::Event> &Segment,
                  const EventAuditOptions &Opts,
                  std::set<std::string> &Evaluated,
                  EventAuditReport &Report) {
  for (size_t I = 0; I < Segment.size(); ++I) {
    const obs::Event &E = Segment[I];
    checkSchema(E, Report);
    if (Opts.AssumeColdCache && E.Type == "config.evaluated") {
      std::string Body = configBody(E.Fields.get("config").asString());
      if (!E.Fields.get("cache_hit").asBool())
        Evaluated.insert(std::move(Body));
      else if (!Evaluated.count(Body))
        Report.Issues.push_back(
            {"cold-hit", E.Seq,
             "cache hit for never-evaluated point " +
                 E.Fields.get("config").asString() +
                 " under cold-cache assumption"});
    }
    if (I == 0)
      continue;
    const obs::Event &Prev = Segment[I - 1];
    // The file sink writes every published event, so seq is dense: a
    // gap means a line was lost or deleted.
    if (E.Seq != Prev.Seq + 1)
      Report.Issues.push_back(
          {"seq", E.Seq,
           E.Seq == Prev.Seq
               ? std::string("duplicate sequence number")
               : strformat("expected seq %llu, saw %llu",
                           static_cast<unsigned long long>(Prev.Seq + 1),
                           static_cast<unsigned long long>(E.Seq))});
    // The bus stamps seq and time under one mutex: any inversion means
    // the stream was reordered or edited.
    if (E.TimeUs < Prev.TimeUs)
      Report.Issues.push_back(
          {"time", E.Seq,
           strformat("timestamp went backwards (%llu us after %llu us)",
                     static_cast<unsigned long long>(E.TimeUs),
                     static_cast<unsigned long long>(Prev.TimeUs))});
  }

  obs::FlightAnalysis A = obs::analyzeEvents(Segment);
  for (const obs::TuneReportData &T : A.Tunes) {
    if (T.HasDone)
      ++Report.Tunes;
    // The analysis already cross-checked every stream-derived total
    // (including the variant.rejected / config.rejected counts, which
    // are 1:1 with transform.rejected counter bumps by construction)
    // against the tune.done totals the Tuner copied from TuneResult.
    for (const std::string &M : T.Mismatches)
      Report.Issues.push_back(
          {M.compare(0, 6, "winner") == 0 ? "winner" : "reconcile", 0,
           M});
    if (Opts.HasExpectedBestCost && T.HasDone) {
      double Best = T.Done.get("best_cost").asNumber();
      if (Best != Opts.ExpectedBestCost)
        Report.Issues.push_back(
            {"winner", 0,
             strformat("tune.done best_cost %.17g != expected "
                       "TuneResult::BestCost %.17g",
                       Best, Opts.ExpectedBestCost)});
    }
    auditWindow(Segment, T, Opts, Report);
  }
}

} // namespace

EventAuditReport check::auditEvents(const std::vector<obs::Event> &Events,
                                    const EventAuditOptions &Opts) {
  EventAuditReport Report;
  Report.Events = Events.size();
  // Split into segments: a restarted process appends events whose seq
  // drops back to 0. Any other backwards jump is an ordering violation
  // inside one segment, which auditSegment flags.
  std::vector<std::vector<obs::Event>> Segments;
  for (const obs::Event &E : Events) {
    bool Restart = !Segments.empty() && !Segments.back().empty() &&
                   E.Seq == 0 && Segments.back().back().Seq > 0;
    if (Segments.empty() || Restart)
      Segments.emplace_back();
    Segments.back().push_back(E);
  }
  Report.Segments = Segments.size();
  std::set<std::string> Evaluated;
  for (const std::vector<obs::Event> &S : Segments)
    auditSegment(S, Opts, Evaluated, Report);
  return Report;
}

EventAuditReport check::auditEventsFile(const std::string &Path,
                                        const EventAuditOptions &Opts) {
  std::vector<obs::Event> Events;
  std::string Error;
  std::vector<std::string> LineErrors;
  if (!obs::loadEventsFile(Path, Events, &Error, &LineErrors)) {
    EventAuditReport Report;
    Report.Issues.push_back({"parse", 0, Error});
    return Report;
  }
  EventAuditReport Report = auditEvents(Events, Opts);
  for (const std::string &E : LineErrors)
    Report.Issues.insert(Report.Issues.begin(), {"parse", 0, E});
  return Report;
}

namespace {

/// Diverts the global bus's JSONL sink into \p Path, with events on, for
/// the scope's lifetime; then hands the previous sink and switch back.
class EventFileScope {
public:
  explicit EventFileScope(const std::string &Path)
      : Out(std::fopen(Path.c_str(), "wb")),
        Prev(obs::EventBus::global().exchangeFile(Out)),
        WasEnabled(obs::eventsEnabled()) {
    obs::setEventsEnabled(true);
  }
  ~EventFileScope() {
    obs::setEventsEnabled(WasEnabled);
    obs::EventBus::global().exchangeFile(Prev);
    if (Out)
      std::fclose(Out);
  }
  EventFileScope(const EventFileScope &) = delete;
  EventFileScope &operator=(const EventFileScope &) = delete;

private:
  std::FILE *Out;
  std::FILE *Prev;
  bool WasEnabled;
};

} // namespace

JobsDeterminismResult eco::check::checkJobsDeterminism(
    const LoopNest &Nest, const MachineDesc &Machine,
    const ParamBindings &Problem, int Jobs, const std::string &TmpDir) {
  JobsDeterminismResult Result;

  auto RunOnce = [&](int J, const std::string &EventsPath,
                     std::string *Winner, double *Cost,
                     EventAuditReport *Audit) -> bool {
    TuneResult R;
    {
      EventFileScope Sink(EventsPath);
      SimEvalBackend Backend(Machine);
      EngineOptions EO;
      EO.Jobs = J;
      EvalEngine Engine(Backend, EO);
      R = tune(Nest, Engine, Problem);
    }
    if (R.BestVariant < 0)
      return false;
    *Winner = R.best().Spec.Name + "|" + R.best().configString(R.BestConfig);
    *Cost = R.BestCost;
    EventAuditOptions AO;
    AO.AssumeColdCache = true; // fresh engine, no CacheFile
    AO.HasExpectedBestCost = true;
    AO.ExpectedBestCost = R.BestCost;
    *Audit = auditEventsFile(EventsPath, AO);
    return true;
  };

  bool SeqOk = RunOnce(1, TmpDir + "/events_jobs1.jsonl", &Result.WinnerSeq,
                       &Result.CostSeq, &Result.AuditSeq);
  bool ParOk = RunOnce(Jobs, TmpDir + "/events_jobsN.jsonl",
                       &Result.WinnerPar, &Result.CostPar, &Result.AuditPar);
  Result.Ran = SeqOk && ParOk;
  if (!Result.Ran)
    Result.Detail = "tune failed (no best variant)";
  else if (Result.WinnerSeq != Result.WinnerPar)
    Result.Detail = "winner differs: jobs=1 -> " + Result.WinnerSeq +
                    ", jobs=" + std::to_string(Jobs) + " -> " +
                    Result.WinnerPar;
  else if (Result.CostSeq != Result.CostPar)
    Result.Detail = strformat("winner cost differs: %.17g vs %.17g",
                              Result.CostSeq, Result.CostPar);
  return Result;
}

std::string JobsDeterminismResult::summary() const {
  std::string Out =
      strformat("jobs-determinism: %s\n", ok() ? "OK" : "FAILED");
  if (!Detail.empty())
    Out += "  " + Detail + "\n";
  Out += "  jobs=1: " + WinnerSeq + strformat(" cost %.17g\n", CostSeq);
  Out += "  jobs=N: " + WinnerPar + strformat(" cost %.17g\n", CostPar);
  if (!AuditSeq.ok())
    Out += AuditSeq.summary();
  if (!AuditPar.ok())
    Out += AuditPar.summary();
  return Out;
}
