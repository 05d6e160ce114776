//===- tests/test_obs.cpp - obs/ unit tests -------------------------------===//
//
// Covers the observability subsystem: metric semantics (histogram bucket
// boundaries and quantiles, concurrent updates under the engine's
// ThreadPool), span collection and Chrome trace export, JSON escaping of
// hostile names, the leveled logger's zero-evaluation guarantee when
// disabled, and the flight recorder (obs/Event.h): publication stamping,
// drop-oldest overflow, job attribution, JSONL round-trips, concurrent
// publishers (the "obs" ctest label runs this under TSan), and a real
// tune whose event stream must reconcile with its TuneResult.
//
//===----------------------------------------------------------------------===//

#include "check/EventAudit.h"
#include "core/Tuner.h"
#include "engine/ThreadPool.h"
#include "kernels/Kernels.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "obs/Span.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace eco;

namespace {

/// Fresh registry per test so suites don't see each other's metrics (the
/// global obs::metrics() is shared process state).
obs::MetricsRegistry makeRegistry() { return obs::MetricsRegistry(); }

} // namespace

//===----------------------------------------------------------------------===//
// Counter / Gauge
//===----------------------------------------------------------------------===//

TEST(ObsCounter, IncAndReset) {
  obs::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge G;
  G.set(2.5);
  EXPECT_DOUBLE_EQ(G.value(), 2.5);
  G.add(1.5);
  EXPECT_DOUBLE_EQ(G.value(), 4.0);
  G.reset();
  EXPECT_DOUBLE_EQ(G.value(), 0.0);
}

//===----------------------------------------------------------------------===//
// Histogram bucket boundaries
//===----------------------------------------------------------------------===//

TEST(ObsHistogram, BucketBoundsDouble) {
  obs::Histogram H(/*FirstBound=*/1.0, /*NumBuckets=*/8);
  ASSERT_EQ(H.numBuckets(), 8u);
  for (unsigned I = 0; I < H.numBuckets(); ++I)
    EXPECT_DOUBLE_EQ(H.bucketBound(I), static_cast<double>(1u << I));
}

TEST(ObsHistogram, BoundaryValuesLandInclusive) {
  // Bucket I holds (bound(I-1), bound(I)]: a value exactly at a bound
  // belongs to that bucket, one ulp above belongs to the next.
  obs::Histogram H(1.0, 8);
  H.record(1.0); // == bound(0) -> bucket 0
  H.record(2.0); // == bound(1) -> bucket 1
  H.record(2.0000001); // just above bound(1) -> bucket 2
  H.record(0.001);     // far below FirstBound -> bucket 0
  H.record(-5.0);      // non-positive clamps into bucket 0
  EXPECT_EQ(H.bucketCount(0), 3u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.count(), 5u);
}

TEST(ObsHistogram, OverflowBucket) {
  obs::Histogram H(1.0, 4); // bounds 1,2,4,8
  H.record(8.0);  // == last bound -> last bounded bucket
  H.record(8.1);  // past every bound -> overflow
  H.record(1e9);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_EQ(H.bucketCount(H.numBuckets()), 2u); // overflow slot
  EXPECT_EQ(H.count(), 3u);
}

TEST(ObsHistogram, SumMinMax) {
  obs::Histogram H(1e-3, 10);
  EXPECT_DOUBLE_EQ(H.minValue(), 0.0); // empty
  EXPECT_DOUBLE_EQ(H.maxValue(), 0.0);
  H.record(3.0);
  H.record(1.0);
  H.record(2.0);
  EXPECT_DOUBLE_EQ(H.sum(), 6.0);
  EXPECT_DOUBLE_EQ(H.minValue(), 1.0);
  EXPECT_DOUBLE_EQ(H.maxValue(), 3.0);
}

TEST(ObsHistogram, QuantileExactAtBucketBounds) {
  // When every sample sits exactly on a bucket bound the quantile is the
  // bound itself — no bucket uncertainty at all.
  obs::Histogram H(1.0, 8);
  for (int I = 0; I < 5; ++I)
    H.record(1.0);
  for (int I = 0; I < 4; ++I)
    H.record(4.0);
  H.record(100.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.50), 1.0); // rank 5 of 10
  EXPECT_DOUBLE_EQ(H.quantile(0.90), 4.0); // rank 9
  // Rank 10 lands in the 100.0 sample's bucket (bound 128), clamped to
  // the observed max.
  EXPECT_DOUBLE_EQ(H.quantile(0.95), 100.0);
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(obs::Histogram(1.0, 4).quantile(0.5), 0.0); // empty
}

TEST(ObsHistogram, QuantileNeverBelowTruthAtMostTwice) {
  // Off-bound samples: the reported quantile is the enclosing log2
  // bucket's upper bound — >= the true order statistic, <= 2x it.
  obs::Histogram H(1e-3, 24);
  std::vector<double> Samples;
  for (int I = 1; I <= 200; ++I) {
    double V = 0.017 * I * I; // spread over many buckets
    Samples.push_back(V);
    H.record(V);
  }
  std::sort(Samples.begin(), Samples.end());
  for (double Q : {0.50, 0.95, 0.99}) {
    double Exact =
        Samples[static_cast<size_t>(Q * (Samples.size() - 1))];
    double Approx = H.quantile(Q);
    EXPECT_GE(Approx, Exact) << "q=" << Q;
    EXPECT_LE(Approx, Exact * 2.0) << "q=" << Q;
  }
}

TEST(ObsHistogram, JsonRoundTrip) {
  obs::Histogram H(1.0, 6);
  H.record(0.5);
  H.record(3.0);
  H.record(100.0); // overflow
  Json J = H.toJson();
  std::string Err;
  Json Back = Json::parse(J.dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Back.get("count").asInt(), 3);
  EXPECT_DOUBLE_EQ(Back.get("sum").asNumber(), 103.5);
  EXPECT_EQ(Back.get("overflow").asInt(), 1);
}

//===----------------------------------------------------------------------===//
// Concurrency: metric updates from engine ThreadPool lanes
//===----------------------------------------------------------------------===//

TEST(ObsConcurrency, CountersExactUnderThreadPool) {
  obs::MetricsRegistry Reg = makeRegistry();
  constexpr int NumTasks = 64;
  constexpr int IncsPerTask = 1000;

  ThreadPool Pool(4);
  std::vector<std::function<void(int)>> Tasks;
  for (int T = 0; T < NumTasks; ++T)
    Tasks.push_back([&Reg](int Lane) {
      for (int I = 0; I < IncsPerTask; ++I) {
        Reg.counter("shared").inc();
        Reg.counter("lane." + std::to_string(Lane)).inc();
        Reg.gauge("acc").add(1.0);
        Reg.histogram("h", 1.0, 8).record(static_cast<double>(I % 10));
      }
    });
  Pool.runBatch(Tasks);

  EXPECT_EQ(Reg.counter("shared").value(),
            static_cast<uint64_t>(NumTasks) * IncsPerTask);
  EXPECT_DOUBLE_EQ(Reg.gauge("acc").value(),
                   static_cast<double>(NumTasks) * IncsPerTask);
  EXPECT_EQ(Reg.histogram("h").count(),
            static_cast<uint64_t>(NumTasks) * IncsPerTask);
  uint64_t PerLane = Reg.sumCounters("lane.");
  EXPECT_EQ(PerLane, static_cast<uint64_t>(NumTasks) * IncsPerTask);
}

TEST(ObsConcurrency, SpanCollectorUnderThreadPool) {
  obs::SpanCollector C;
  C.setEnabled(true);
  ThreadPool Pool(4);
  std::vector<std::function<void(int)>> Tasks;
  for (int T = 0; T < 32; ++T)
    Tasks.push_back([&C](int Lane) {
      C.record({"task", "test", "", 10, 5, Lane});
    });
  Pool.runBatch(Tasks);
  EXPECT_EQ(C.numRecords(), 32u);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(ObsRegistry, StableReferencesAndReset) {
  obs::MetricsRegistry Reg = makeRegistry();
  obs::Counter &C = Reg.counter("a");
  C.inc(7);
  EXPECT_EQ(&Reg.counter("a"), &C); // lookup returns the same object
  Reg.resetValues();
  EXPECT_EQ(C.value(), 0u); // zeroed in place, reference still valid
}

TEST(ObsRegistry, JsonSnapshotParsesBack) {
  obs::MetricsRegistry Reg = makeRegistry();
  Reg.counter("evals").inc(12);
  Reg.gauge("temp").set(3.5);
  Reg.histogram("lat", 1e-3, 16).record(0.25);

  std::string Err;
  Json Back = Json::parse(Reg.toJson().dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Back.get("counters").get("evals").asInt(), 12);
  EXPECT_DOUBLE_EQ(Back.get("gauges").get("temp").asNumber(), 3.5);
  EXPECT_EQ(Back.get("histograms").get("lat").get("count").asInt(), 1);
}

TEST(ObsRegistry, HostileMetricNamesEscapeCleanly) {
  // Metric (and config/span) names flow user-controlled strings into
  // JSON; quotes, backslashes, and control characters must survive a
  // dump -> parse round trip unmangled.
  obs::MetricsRegistry Reg = makeRegistry();
  std::string Nasty = "ev\"al\\path\nwith\tctrl\x01chars";
  Reg.counter(Nasty).inc(5);

  std::string Err;
  Json Back = Json::parse(Reg.toJson().dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  const Json &Counters = Back.get("counters");
  ASSERT_EQ(Counters.fields().size(), 1u);
  EXPECT_EQ(Counters.fields()[0].first, Nasty);
  EXPECT_EQ(Counters.fields()[0].second.asInt(), 5);
}

TEST(ObsRegistry, GlobalDisabledByDefault) {
  // Instrumented code guards on metricsEnabled(); the default must be
  // off so library users pay nothing without opting in.
  EXPECT_FALSE(obs::metricsEnabled());
}

//===----------------------------------------------------------------------===//
// Spans + Chrome trace export
//===----------------------------------------------------------------------===//

TEST(ObsSpan, DisabledCollectorRecordsNothing) {
  obs::SpanCollector &G = obs::SpanCollector::global();
  ASSERT_FALSE(G.enabled());
  size_t Before = G.numRecords();
  { obs::SpanScope S("ignored", "test"); }
  EXPECT_EQ(G.numRecords(), Before);
}

TEST(ObsSpan, ScopeRecordsToGlobalWhenEnabled) {
  obs::SpanCollector &G = obs::SpanCollector::global();
  G.clear();
  G.setEnabled(true);
  {
    obs::SpanScope S("outer", "test", "detail-text");
    { obs::SpanScope Inner("inner", "test"); }
  }
  G.setEnabled(false);
  std::vector<obs::SpanRecord> Recs = G.records();
  ASSERT_EQ(Recs.size(), 2u);
  // Inner closes first; outer encloses it on the timeline.
  EXPECT_EQ(Recs[0].Name, "inner");
  EXPECT_EQ(Recs[1].Name, "outer");
  EXPECT_LE(Recs[1].StartUs, Recs[0].StartUs);
  EXPECT_GE(Recs[1].StartUs + Recs[1].DurUs,
            Recs[0].StartUs + Recs[0].DurUs);
  EXPECT_EQ(Recs[1].Detail, "detail-text");
  G.clear();
}

TEST(ObsSpan, ChromeTraceShapeAndEscaping) {
  obs::SpanCollector C;
  C.setEnabled(true);
  C.setThreadName(0, "lane 0 (search)");
  std::string Nasty = "v1\"quoted\"\nname\x02";
  C.record({Nasty, "eval", "TI=16\tTJ=32", 100, 50, 0});

  std::string Err;
  Json Root = Json::parse(C.chromeTraceJson().dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Root.get("displayTimeUnit").asString(), "ms");
  const Json &Events = Root.get("traceEvents");
  ASSERT_TRUE(Events.isArray());
  ASSERT_EQ(Events.size(), 2u); // thread_name metadata + one X event

  const Json &Meta = Events.at(0);
  EXPECT_EQ(Meta.get("ph").asString(), "M");
  EXPECT_EQ(Meta.get("name").asString(), "thread_name");
  EXPECT_EQ(Meta.get("args").get("name").asString(), "lane 0 (search)");

  const Json &Ev = Events.at(1);
  EXPECT_EQ(Ev.get("ph").asString(), "X");
  EXPECT_EQ(Ev.get("name").asString(), Nasty); // survived escaping
  EXPECT_EQ(Ev.get("cat").asString(), "eval");
  EXPECT_EQ(Ev.get("ts").asInt(), 100);
  EXPECT_EQ(Ev.get("dur").asInt(), 50);
  EXPECT_EQ(Ev.get("tid").asInt(), 0);
  EXPECT_EQ(Ev.get("args").get("detail").asString(), "TI=16\tTJ=32");
}

TEST(ObsSpan, ExplicitTidOverridesThreadId) {
  obs::SpanCollector &G = obs::SpanCollector::global();
  G.clear();
  G.setEnabled(true);
  { obs::SpanScope S("lane-span", "eval", "", /*Tid=*/3); }
  G.setEnabled(false);
  ASSERT_EQ(G.numRecords(), 1u);
  EXPECT_EQ(G.records()[0].Tid, 3);
  G.clear();
}

//===----------------------------------------------------------------------===//
// Logger
//===----------------------------------------------------------------------===//

namespace {
int SideEffects = 0;
int touch() {
  ++SideEffects;
  return 0;
}
} // namespace

TEST(ObsLog, DisabledLevelsSkipArgumentEvaluation) {
  obs::LogLevel Saved = obs::logLevel();
  obs::setLogLevel(obs::LogLevel::Error);
  SideEffects = 0;
  ECO_LOG(Debug) << "never evaluated: " << touch();
  ECO_LOG(Info) << touch();
  ECO_LOG(Warn) << touch();
  EXPECT_EQ(SideEffects, 0);
  obs::setLogLevel(obs::LogLevel::Off);
  ECO_LOG(Error) << touch();
  EXPECT_EQ(SideEffects, 0);
  obs::setLogLevel(Saved);
}

TEST(ObsLog, EnabledLevelEvaluatesOnce) {
  obs::LogLevel Saved = obs::logLevel();
  obs::setLogLevel(obs::LogLevel::Debug);
  SideEffects = 0;
  ECO_LOG(Debug) << "evaluated: " << touch();
  EXPECT_EQ(SideEffects, 1);
  obs::setLogLevel(Saved);
}

TEST(ObsLog, LevelNameParsing) {
  obs::LogLevel Saved = obs::logLevel();
  EXPECT_TRUE(obs::setLogLevelByName("debug"));
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Debug);
  EXPECT_TRUE(obs::setLogLevelByName("off"));
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Off);
  EXPECT_FALSE(obs::setLogLevelByName("verbose")); // unknown: unchanged
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Off);
  obs::setLogLevel(Saved);
}

TEST(ObsLog, MacroIsStatementSafe) {
  // The dangling-else form must compose with unbraced if/else.
  obs::LogLevel Saved = obs::logLevel();
  obs::setLogLevel(obs::LogLevel::Off);
  bool Taken = false;
  if (true)
    ECO_LOG(Error) << "then-branch";
  else
    Taken = true;
  EXPECT_FALSE(Taken);
  obs::setLogLevel(Saved);
}

TEST(ObsClock, MonotonicMicrosNeverGoesBackward) {
  uint64_t A = obs::monotonicMicros();
  uint64_t B = obs::monotonicMicros();
  EXPECT_LE(A, B);
}

//===----------------------------------------------------------------------===//
// Event bus (the flight recorder)
//===----------------------------------------------------------------------===//

namespace {

/// RAII around the process-wide bus: clear + enable on entry, disable +
/// clear on exit, so event tests cannot leak state into each other (or
/// into the library-default-off guarantee other tests assert).
struct ScopedEventCapture {
  ScopedEventCapture() {
    obs::EventBus::global().clear();
    obs::setEventsEnabled(true);
  }
  ~ScopedEventCapture() {
    obs::setEventsEnabled(false);
    obs::EventBus::global().clear();
  }
};

Json fields(const char *Key, int64_t Value) {
  Json F = Json::object();
  F.set(Key, Value);
  return F;
}

} // namespace

TEST(ObsEventBus, DisabledBusDropsPublishes) {
  // Library default: events off, publish is a no-op.
  obs::EventBus &Bus = obs::EventBus::global();
  Bus.clear();
  ASSERT_FALSE(obs::eventsEnabled());
  uint64_t Before = Bus.published();
  Bus.publish("test.noop", fields("k", 1));
  EXPECT_EQ(Bus.published(), Before);
  EXPECT_TRUE(Bus.snapshot().empty());
}

TEST(ObsEventBus, StampsDenseSeqAndMonotonicTime) {
  ScopedEventCapture Cap;
  obs::EventBus &Bus = obs::EventBus::global();
  for (int I = 0; I < 3; ++I)
    obs::publishEvent("test.stamp", fields("i", I));

  std::vector<obs::Event> Events = Bus.snapshot();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Bus.published(), 3u);
  EXPECT_EQ(Bus.typeCount("test.stamp"), 3u);
  for (size_t I = 0; I < Events.size(); ++I) {
    EXPECT_EQ(Events[I].Type, "test.stamp");
    EXPECT_EQ(Events[I].Fields.get("i").asInt(), static_cast<int64_t>(I));
    EXPECT_EQ(Events[I].Job, 0u); // not inside a serve job
    if (I) {
      EXPECT_EQ(Events[I].Seq, Events[I - 1].Seq + 1); // dense
      EXPECT_GE(Events[I].TimeUs, Events[I - 1].TimeUs);
    }
  }
}

TEST(ObsEventBus, ScopedJobIdAttributesEvents) {
  ScopedEventCapture Cap;
  EXPECT_EQ(obs::currentJobId(), 0u);
  {
    obs::ScopedJobId Outer(7);
    EXPECT_EQ(obs::currentJobId(), 7u);
    obs::publishEvent("test.job", fields("k", 1));
    {
      obs::ScopedJobId Inner(9); // nesting restores, not resets
      EXPECT_EQ(obs::currentJobId(), 9u);
      obs::publishEvent("test.job", fields("k", 2));
    }
    EXPECT_EQ(obs::currentJobId(), 7u);
  }
  EXPECT_EQ(obs::currentJobId(), 0u);

  std::vector<obs::Event> Events = obs::EventBus::global().snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Job, 7u);
  EXPECT_EQ(Events[1].Job, 9u);
}

TEST(ObsEventBus, OverflowDropsOldestAndBumpsCounter) {
  ScopedEventCapture Cap;
  obs::EventBus &Bus = obs::EventBus::global();
  size_t SavedCapacity = Bus.capacity();
  bool SavedMetrics = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  uint64_t Dropped0 = obs::metrics().counter("obs.events_dropped").value();

  Bus.setCapacity(4);
  for (int I = 0; I < 10; ++I)
    obs::publishEvent("test.flood", fields("i", I));

  // Live readers see the newest window; the oldest six are gone and
  // accounted for, both on the bus and in the metrics counter.
  std::vector<obs::Event> Events = Bus.snapshot();
  ASSERT_EQ(Events.size(), 4u);
  for (size_t I = 0; I < Events.size(); ++I)
    EXPECT_EQ(Events[I].Fields.get("i").asInt(),
              static_cast<int64_t>(6 + I));
  EXPECT_EQ(Bus.published(), 10u);
  EXPECT_EQ(Bus.dropped(), 6u);
  EXPECT_EQ(Bus.typeCount("test.flood"), 10u); // counts survive rotation
  EXPECT_EQ(obs::metrics().counter("obs.events_dropped").value(),
            Dropped0 + 6);

  Bus.setCapacity(SavedCapacity);
  obs::setMetricsEnabled(SavedMetrics);
}

TEST(ObsEventBus, JsonlRoundTripAndRejectsMalformed) {
  obs::Event E;
  E.Seq = 41;
  E.TimeUs = 123456789;
  E.Job = 5;
  E.Type = "config.evaluated";
  Json F = Json::object();
  F.set("variant", "v1\"quoted\"");
  F.set("cost", 2690098.0);
  E.Fields = std::move(F);

  std::string Err;
  Json Line = Json::parse(eventToJson(E).dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  obs::Event Back;
  ASSERT_TRUE(eventFromJson(Line, Back, &Err)) << Err;
  EXPECT_EQ(Back.Seq, 41u);
  EXPECT_EQ(Back.TimeUs, 123456789u);
  EXPECT_EQ(Back.Job, 5u);
  EXPECT_EQ(Back.Type, "config.evaluated");
  EXPECT_EQ(Back.Fields.get("variant").asString(), "v1\"quoted\"");
  EXPECT_EQ(Back.Fields.get("cost").asNumber(), 2690098.0); // bitwise

  // Job = 0 is elided from the wire form and restored as 0.
  E.Job = 0;
  ASSERT_TRUE(eventFromJson(eventToJson(E), Back, &Err)) << Err;
  EXPECT_EQ(Back.Job, 0u);

  obs::Event Bad;
  EXPECT_FALSE(eventFromJson(Json("not an object"), Bad, &Err));
  EXPECT_FALSE(Err.empty());
  Json NoType = eventToJson(E);
  NoType.set("type", Json());
  EXPECT_FALSE(eventFromJson(NoType, Bad, &Err));
}

TEST(ObsEventBus, AppendAfterTornRecordStartsAFreshLine) {
  // A SIGKILLed writer leaves half a record with no newline; a resumed
  // process appending to the file must not glue its first event onto it.
  const std::string Path = ::testing::TempDir() + "obs_torn_append.jsonl";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{\"seq\":0,\"t_us\":1,\"type\":\"tune.start\","
        << "\"fields\":{}}\n{\"seq\":1,\"t_";
  }
  ScopedEventCapture Capture;
  obs::EventBus &Bus = obs::EventBus::global();
  ASSERT_TRUE(Bus.openFile(Path, /*Append=*/true));
  obs::publishEvent("tune.start", fields("n", 1));
  Bus.closeFile();

  std::vector<obs::Event> Events;
  std::vector<std::string> Errors;
  ASSERT_TRUE(obs::loadEventsFile(Path, Events, nullptr, &Errors));
  EXPECT_EQ(Errors.size(), 1u); // the torn record alone
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[1].Type, "tune.start");
  EXPECT_EQ(Events[1].Fields.get("n").asInt(), 1);
  std::remove(Path.c_str());
}

TEST(ObsEventBusConcurrency, ParallelPublishersAndReaders) {
  ScopedEventCapture Cap;
  obs::EventBus &Bus = obs::EventBus::global();
  constexpr int Publishers = 24, PerPublisher = 200;

  // Publishers and snapshot/counter readers race on the shared bus; the
  // "obs" ctest label replays this under ThreadSanitizer.
  ThreadPool Pool(4);
  std::vector<std::function<void(int)>> Tasks;
  for (int T = 0; T < Publishers; ++T)
    Tasks.push_back([](int) {
      for (int I = 0; I < PerPublisher; ++I)
        obs::publishEvent("test.race", fields("i", I));
    });
  for (int T = 0; T < 8; ++T)
    Tasks.push_back([&Bus](int) {
      for (int I = 0; I < 50; ++I) {
        std::vector<obs::Event> Snap = Bus.snapshot();
        for (size_t S = 1; S < Snap.size(); ++S)
          EXPECT_GT(Snap[S].Seq, Snap[S - 1].Seq);
        Bus.published();
        Bus.typeCount("test.race");
      }
    });
  Pool.runBatch(Tasks);

  EXPECT_EQ(Bus.published(),
            static_cast<uint64_t>(Publishers) * PerPublisher);
  EXPECT_EQ(Bus.typeCount("test.race"),
            static_cast<uint64_t>(Publishers) * PerPublisher);
  std::vector<obs::Event> Events = Bus.snapshot();
  EXPECT_EQ(Events.size() + Bus.dropped(),
            static_cast<size_t>(Publishers) * PerPublisher);
  for (size_t I = 1; I < Events.size(); ++I) {
    EXPECT_EQ(Events[I].Seq, Events[I - 1].Seq + 1);
    EXPECT_GE(Events[I].TimeUs, Events[I - 1].TimeUs);
  }
}

//===----------------------------------------------------------------------===//
// Flight recorder end to end: a real tune's stream must reconcile
//===----------------------------------------------------------------------===//

TEST(ObsFlightRecorder, TuneStreamReconcilesWithTuneResult) {
  ScopedEventCapture Cap;
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(MachineDesc::sgiR10000().scaledBy(16));
  TuneResult R = tune(MM, Backend, {{"N", 32}});
  ASSERT_GE(R.BestVariant, 0);

  std::vector<obs::Event> Events = obs::EventBus::global().snapshot();
  ASSERT_FALSE(Events.empty());

  // tune.done carries the TuneResult ledger verbatim (best_cost bitwise).
  const obs::Event *Done = nullptr;
  for (const obs::Event &E : Events)
    if (E.Type == "tune.done")
      Done = &E;
  ASSERT_NE(Done, nullptr);
  const Json &F = Done->Fields;
  EXPECT_EQ(F.get("points").asInt(), static_cast<int64_t>(R.TotalPoints));
  EXPECT_EQ(F.get("cache_hits").asInt(),
            static_cast<int64_t>(R.TotalCacheHits));
  EXPECT_EQ(F.get("variants_derived").asInt(),
            static_cast<int64_t>(R.Variants.size()));
  EXPECT_EQ(F.get("variants_rejected").asInt(),
            static_cast<int64_t>(R.VariantsRejected));
  EXPECT_EQ(F.get("configs_rejected").asInt(),
            static_cast<int64_t>(R.ConfigsRejected));
  EXPECT_EQ(F.get("infeasible_pruned").asInt(),
            static_cast<int64_t>(R.InfeasiblePruned));
  EXPECT_EQ(F.get("best_variant").asString(), R.best().Spec.Name);
  EXPECT_EQ(F.get("best_cost").asNumber(), R.BestCost);

  // The report's independent recount over the raw events agrees.
  obs::FlightAnalysis A = obs::analyzeEvents(Events);
  ASSERT_EQ(A.Tunes.size(), 1u);
  const obs::TuneReportData &T = A.Tunes[0];
  EXPECT_TRUE(T.reconciled())
      << (T.Mismatches.empty() ? "" : T.Mismatches[0]);
  EXPECT_EQ(T.Evaluated, R.TotalPoints);
  EXPECT_EQ(T.CacheHits, R.TotalCacheHits);
  ASSERT_FALSE(T.Winners.empty());
  EXPECT_EQ(T.Winners.back().Cost, R.BestCost); // bitwise lineage

  // Both renderers accept the analysis; the Markdown report states the
  // reconciliation verdict.
  std::string Md = obs::renderMarkdown(A);
  EXPECT_NE(Md.find("Reconciliation"), std::string::npos);
  EXPECT_NE(Md.find("OK"), std::string::npos);
  EXPECT_NE(obs::renderHtml(A).find("<html"), std::string::npos);

  // And the stream passes the invariant audit against the live result.
  check::EventAuditOptions AO;
  AO.HasExpectedBestCost = true;
  AO.ExpectedBestCost = R.BestCost;
  check::EventAuditReport Audit = check::auditEvents(Events, AO);
  EXPECT_TRUE(Audit.ok()) << Audit.summary();
  EXPECT_EQ(Audit.Tunes, 1u);
}
