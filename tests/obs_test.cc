// Tests of the observability subsystem: Timer pause/resume accumulation,
// metric instruments and registry isolation, TraceSpan nesting, the JSON
// writer/parser pair, the exporters, and the maintenance event-log schema.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "midas/common/timer.h"
#include "midas/obs/event_log.h"
#include "midas/obs/export.h"
#include "midas/obs/json.h"
#include "midas/obs/metrics.h"
#include "midas/obs/trace.h"

namespace midas {
namespace {

void SpinFor(double ms) {
  Timer t;
  while (t.ElapsedMs() < ms) {
  }
}

// A paused gap far longer than the spun segments: a leaked gap adds at least
// this much, while preempting a 1 ms segment on a loaded host does not come
// close, so a pause-exclusion bound of kGapMs fails only on a real leak.
constexpr int kGapMs = 50;

void SleepGap() {
  std::this_thread::sleep_for(std::chrono::milliseconds(kGapMs));
}

// --- Timer -----------------------------------------------------------------

TEST(TimerTest, StartsRunningAndAccumulates) {
  Timer t;
  EXPECT_TRUE(t.running());
  SpinFor(1.0);
  EXPECT_GE(t.ElapsedMs(), 1.0);
}

TEST(TimerTest, PauseFreezesElapsed) {
  Timer t;
  SpinFor(1.0);
  t.Pause();
  EXPECT_FALSE(t.running());
  double frozen = t.ElapsedMs();
  SpinFor(2.0);
  EXPECT_DOUBLE_EQ(t.ElapsedMs(), frozen);
}

TEST(TimerTest, ResumeAccumulatesAcrossSegments) {
  Timer t;
  SpinFor(1.0);
  t.Pause();
  double first = t.ElapsedMs();
  SleepGap();  // not counted
  t.Resume();
  SpinFor(1.0);
  t.Pause();
  double second = t.ElapsedMs();
  EXPECT_GE(second, first + 1.0);
  EXPECT_LT(second, first + kGapMs);  // the paused gap must not leak in
}

TEST(TimerTest, PauseAndResumeAreIdempotent) {
  Timer t;
  t.Pause();
  t.Pause();
  double frozen = t.ElapsedMs();
  t.Resume();
  t.Resume();
  EXPECT_TRUE(t.running());
  EXPECT_GE(t.ElapsedMs(), frozen);
}

TEST(TimerTest, ResetZeroesAccumulatedTime) {
  Timer t;
  SpinFor(2.0);
  t.Pause();
  t.Reset();
  EXPECT_TRUE(t.running());
  EXPECT_LT(t.ElapsedMs(), 2.0);
}

// --- Instruments -----------------------------------------------------------

TEST(MetricsTest, CounterIncrements) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("midas_test_events_total");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  EXPECT_EQ(c->name(), "midas_test_events_total");
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  obs::MetricsRegistry reg;
  obs::Gauge* g = reg.GetGauge("midas_test_db_size");
  g->Set(10.0);
  g->Add(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 12.5);
}

TEST(MetricsTest, GetReturnsSameInstrumentForSameName) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.GetCounter("a_total"), reg.GetCounter("a_total"));
  EXPECT_EQ(reg.GetGauge("g"), reg.GetGauge("g"));
  EXPECT_EQ(reg.GetHistogram("h_ms"), reg.GetHistogram("h_ms"));
}

TEST(MetricsTest, HistogramBucketBoundariesAreInclusive) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("midas_test_ms", {1.0, 2.0, 5.0});
  // Prometheus le-semantics: an observation equal to a bound belongs to
  // that bound's bucket.
  h->Observe(1.0);   // bucket 0 (le=1)
  h->Observe(1.5);   // bucket 1 (le=2)
  h->Observe(2.0);   // bucket 1 (le=2)
  h->Observe(5.0);   // bucket 2 (le=5)
  h->Observe(99.0);  // overflow (+Inf)
  EXPECT_EQ(h->BucketCount(0), 1u);
  EXPECT_EQ(h->BucketCount(1), 2u);
  EXPECT_EQ(h->BucketCount(2), 1u);
  EXPECT_EQ(h->BucketCount(3), 1u);
  EXPECT_EQ(h->Count(), 5u);
  EXPECT_DOUBLE_EQ(h->Sum(), 1.0 + 1.5 + 2.0 + 5.0 + 99.0);
}

TEST(MetricsTest, HistogramDefaultBoundsAreLatencyBounds) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("midas_test_default_ms");
  EXPECT_EQ(h->bounds(), obs::MetricsRegistry::LatencyBoundsMs());
}

TEST(MetricsTest, ResetValuesKeepsHandlesAlive) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("c_total");
  obs::Histogram* h = reg.GetHistogram("h_ms", {1.0});
  c->Increment(7);
  h->Observe(0.5);
  reg.ResetValues();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_DOUBLE_EQ(h->Sum(), 0.0);
  EXPECT_EQ(reg.GetCounter("c_total"), c);  // registration survives
}

TEST(MetricsTest, RegistryIdsAreUnique) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), obs::MetricsRegistry::Global().id());
}

// --- Registry scoping ------------------------------------------------------

TEST(MetricsTest, CurrentDefaultsToGlobal) {
  EXPECT_EQ(&obs::MetricsRegistry::Current(), &obs::MetricsRegistry::Global());
}

TEST(MetricsTest, ScopedRegistryOverridesAndRestores) {
  obs::MetricsRegistry outer;
  obs::MetricsRegistry inner;
  {
    obs::ScopedMetricsRegistry so(outer);
    EXPECT_EQ(&obs::MetricsRegistry::Current(), &outer);
    {
      obs::ScopedMetricsRegistry si(inner);
      EXPECT_EQ(&obs::MetricsRegistry::Current(), &inner);
    }
    EXPECT_EQ(&obs::MetricsRegistry::Current(), &outer);
  }
  EXPECT_EQ(&obs::MetricsRegistry::Current(), &obs::MetricsRegistry::Global());
}

TEST(MetricsTest, ScopedRegistryIsolatesCounts) {
  obs::MetricsRegistry reg;
  uint64_t global_before =
      obs::MetricsRegistry::Global().GetCounter("iso_probe_total")->Value();
  {
    obs::ScopedMetricsRegistry scoped(reg);
    obs::MetricsRegistry::Current().GetCounter("iso_probe_total")->Increment();
  }
  EXPECT_EQ(reg.GetCounter("iso_probe_total")->Value(), 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("iso_probe_total")->Value(),
      global_before);
}

// --- TraceSpan -------------------------------------------------------------

TEST(TraceSpanTest, RecordsIntoHistogramAndAccumulator) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped(reg);
  double acc = 0.0;
  {
    obs::TraceSpan span("midas_test_span_ms", &acc);
    SpinFor(1.0);
  }
  obs::Histogram* h = reg.GetHistogram("midas_test_span_ms");
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_GE(h->Sum(), 1.0);
  EXPECT_GE(acc, 1.0);
}

TEST(TraceSpanTest, StopIsIdempotentAndFinal) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped(reg);
  double acc = 0.0;
  {
    obs::TraceSpan span("midas_test_stop_ms", &acc);
    SpinFor(1.0);
    span.Stop();
    double at_stop = acc;
    SpinFor(1.0);
    span.Stop();  // no-op; destructor must not record again either
    EXPECT_DOUBLE_EQ(acc, at_stop);
  }
  EXPECT_EQ(reg.GetHistogram("midas_test_stop_ms")->Count(), 1u);
}

TEST(TraceSpanTest, PauseExcludesTheGap) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped(reg);
  double acc = 0.0;
  {
    obs::TraceSpan span("midas_test_pause_ms", &acc);
    SpinFor(1.0);
    span.Pause();
    SleepGap();
    span.Resume();
    SpinFor(1.0);
  }
  EXPECT_GE(acc, 2.0);
  EXPECT_LT(acc, kGapMs);  // the paused gap must not be counted
}

TEST(TraceSpanTest, SpansNest) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped(reg);
  EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0);
  {
    obs::TraceSpan outer("midas_test_outer_ms");
    EXPECT_EQ(outer.depth(), 1);
    EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 1);
    {
      obs::TraceSpan inner("midas_test_inner_ms");
      EXPECT_EQ(inner.depth(), 2);
      EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 2);
    }
    EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 1);
  }
  EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0);
}

TEST(TraceSpanTest, DisabledRegistrySkipsHistogramButKeepsAccumulator) {
  obs::MetricsRegistry reg;
  reg.set_enabled(false);
  obs::ScopedMetricsRegistry scoped(reg);
  double acc = 0.0;
  {
    obs::TraceSpan span("midas_test_disabled_ms", &acc);
    SpinFor(1.0);
  }
  EXPECT_GE(acc, 1.0);  // stats breakdowns keep working with metrics off
  // The histogram was never registered: no lookup happens when disabled.
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(TraceSpanTest, DisabledRegistryAndNoAccumulatorIsInert) {
  obs::MetricsRegistry reg;
  reg.set_enabled(false);
  obs::ScopedMetricsRegistry scoped(reg);
  obs::TraceSpan span("midas_test_inert_ms");
  SpinFor(1.0);
  EXPECT_DOUBLE_EQ(span.ElapsedMs(), 0.0);
  EXPECT_EQ(obs::TraceSpan::CurrentDepth(), 0);  // inert spans don't nest
}

// --- JSON writer / parser --------------------------------------------------

TEST(JsonTest, WriterProducesCompactJson) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("a").Value(1.5);
  w.Key("b").Value(true);
  w.Key("c").Value("x\"y");
  w.Key("d").BeginArray().Value(uint64_t{1}).Value(uint64_t{2}).EndArray();
  w.Key("e").BeginObject().Key("n").Value(-3).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            R"({"a":1.5,"b":true,"c":"x\"y","d":[1,2],"e":{"n":-3}})");
}

TEST(JsonTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -1.5, 0.1, 1e-9, 12345.6789, 1e18}) {
    std::string s = obs::JsonWriter::FormatDouble(v);
    EXPECT_DOUBLE_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(obs::JsonWriter::FormatDouble(
                std::numeric_limits<double>::quiet_NaN()),
            "\"NaN\"");
}

TEST(JsonTest, ParseFlatJsonFlattensNestedPaths) {
  obs::FlatJson doc = obs::ParseFlatJson(
      R"({"a":{"b":1.5},"arr":[2,{"x":3}],"s":"hi","t":true,"z":null})");
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_DOUBLE_EQ(doc.numbers.at("a.b"), 1.5);
  EXPECT_DOUBLE_EQ(doc.numbers.at("arr.0"), 2.0);
  EXPECT_DOUBLE_EQ(doc.numbers.at("arr.1.x"), 3.0);
  EXPECT_EQ(doc.strings.at("s"), "hi");
  EXPECT_TRUE(doc.bools.at("t"));
  EXPECT_EQ(doc.strings.at("z"), "null");
  EXPECT_TRUE(doc.Has("a.b"));
  EXPECT_FALSE(doc.Has("a.c"));
}

TEST(JsonTest, ParseFlatJsonRejectsMalformedInput) {
  EXPECT_FALSE(obs::ParseFlatJson("{").ok);
  EXPECT_FALSE(obs::ParseFlatJson(R"({"a":1} trailing)").ok);
  EXPECT_FALSE(obs::ParseFlatJson(R"({"a":})").ok);
  EXPECT_FALSE(obs::ParseFlatJson("").ok);
  EXPECT_FALSE(obs::ParseFlatJson(R"({"a" 1})").ok);
}

TEST(JsonTest, ParseFlatJsonHandlesEscapes) {
  obs::FlatJson doc = obs::ParseFlatJson(R"({"k":"a\"b\\c\n"})");
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.strings.at("k"), "a\"b\\c\n");
}

// --- Exporters -------------------------------------------------------------

TEST(ExportTest, PrometheusFormat) {
  obs::MetricsRegistry reg;
  reg.GetCounter("midas_test_runs_total")->Increment(3);
  reg.GetGauge("midas_test_size")->Set(7.5);
  obs::Histogram* h = reg.GetHistogram("midas_test_dur_ms", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(100.0);
  std::string text = obs::ExportPrometheus(reg);
  EXPECT_NE(text.find("# TYPE midas_test_runs_total counter\n"
                      "midas_test_runs_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE midas_test_size gauge\n"
                      "midas_test_size 7.5\n"),
            std::string::npos);
  // Bucket counts are cumulative in the exposition format.
  EXPECT_NE(text.find("midas_test_dur_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("midas_test_dur_ms_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("midas_test_dur_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("midas_test_dur_ms_sum 105.5\n"), std::string::npos);
  EXPECT_NE(text.find("midas_test_dur_ms_count 3\n"), std::string::npos);
}

// Exposition-format conformance golden: one registry with every metric
// kind, whole-document comparison. Locks the details scrapers depend on —
// cumulative `le` buckets ending at +Inf, `_sum`/`_count`, `# TYPE` lines,
// and name/label sanitization.
TEST(ExportTest, PrometheusConformanceGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("midas_rounds_total")->Increment(2);
  // Hostile names: Prometheus metric names cannot carry '-', '.' or a
  // leading digit; the exporter must sanitize rather than emit them raw.
  reg.GetCounter("midas-weird.name")->Increment(1);
  reg.GetCounter("0starts_with_digit")->Increment(4);
  reg.GetGauge("midas_queue_depth")->Set(3.0);
  obs::Histogram* h = reg.GetHistogram("midas_round_ms", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(0.75);
  h->Observe(5.0);
  h->Observe(50.0);

  // Instruments export sorted by *registered* name ('0' < '-' < '_').
  const std::string expected =
      "# TYPE _0starts_with_digit counter\n"
      "_0starts_with_digit 4\n"
      "# TYPE midas_weird_name counter\n"
      "midas_weird_name 1\n"
      "# TYPE midas_rounds_total counter\n"
      "midas_rounds_total 2\n"
      "# TYPE midas_queue_depth gauge\n"
      "midas_queue_depth 3\n"
      "# TYPE midas_round_ms histogram\n"
      "midas_round_ms_bucket{le=\"1\"} 2\n"
      "midas_round_ms_bucket{le=\"10\"} 3\n"
      "midas_round_ms_bucket{le=\"+Inf\"} 4\n"
      "midas_round_ms_sum 56.25\n"
      "midas_round_ms_count 4\n";
  EXPECT_EQ(obs::ExportPrometheus(reg), expected);
}

TEST(ExportTest, SanitizeMetricName) {
  EXPECT_EQ(obs::SanitizeMetricName("midas_ok_total"), "midas_ok_total");
  EXPECT_EQ(obs::SanitizeMetricName("has-dash.and space"),
            "has_dash_and_space");
  EXPECT_EQ(obs::SanitizeMetricName("7digit"), "_7digit");
  EXPECT_EQ(obs::SanitizeMetricName("ns:name"), "ns:name");  // colons legal
  EXPECT_EQ(obs::SanitizeMetricName(""), "_");
}

TEST(ExportTest, EscapeLabelValue) {
  EXPECT_EQ(obs::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::EscapeLabelValue("a\nb"), "a\\nb");
}

// --- Exemplars (OpenMetrics) ------------------------------------------------

// A bucket only carries the `# {trace_id="..."} value` suffix after a traced
// observation landed in it, and only in the OpenMetrics dialect; untraced
// buckets must stay byte-identical to the pre-exemplar exposition, and the
// 0.0.4 dialect strips exemplars entirely (pre-OpenMetrics scrapers would
// choke on unexpected suffixes).
TEST(ExportTest, PrometheusExemplarSyntaxAndOmission) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("midas_round_ms", {1.0, 10.0});
  h->Observe(0.5);  // untraced: bucket le="1" must carry no exemplar
  obs::TraceId id = obs::TraceId::FromHex("00ff00ff00ff00ff0123456789abcdef");
  ASSERT_TRUE(id.valid());
  h->ObserveExemplar(5.0, id.hi, id.lo);

  const std::string text =
      obs::ExportPrometheus(reg, obs::MetricsTextFormat::kOpenMetrics);
  EXPECT_NE(text.find("midas_round_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("midas_round_ms_bucket{le=\"10\"} 2 "
                "# {trace_id=\"00ff00ff00ff00ff0123456789abcdef\"} 5\n"),
      std::string::npos);
  // +Inf had no traced observation either.
  EXPECT_NE(text.find("midas_round_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  // OpenMetrics bodies terminate with the mandatory EOF marker.
  EXPECT_NE(text.find("# EOF\n"), std::string::npos);

  // The legacy 0.0.4 dialect (single-arg overload) strips the exemplar and
  // carries no EOF marker.
  const std::string legacy = obs::ExportPrometheus(reg);
  EXPECT_NE(legacy.find("midas_round_ms_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_EQ(legacy.find("trace_id"), std::string::npos);
  EXPECT_EQ(legacy.find("# EOF"), std::string::npos);
}

TEST(ExportTest, PrometheusExemplarKeepsMostRecentTrace) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("midas_round_ms", {10.0});
  obs::TraceId first = obs::MintTraceId();
  obs::TraceId second = obs::MintTraceId();
  h->ObserveExemplar(1.0, first.hi, first.lo);
  h->ObserveExemplar(2.0, second.hi, second.lo);
  obs::Histogram::Exemplar e = h->BucketExemplar(0);
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(e.trace_hi, second.hi);
  EXPECT_EQ(e.trace_lo, second.lo);
  EXPECT_DOUBLE_EQ(e.value, 2.0);
  // Reset clears exemplars along with the counts.
  h->Reset();
  EXPECT_FALSE(h->BucketExemplar(0).valid);
}

TEST(ExportTest, JsonExportCarriesExemplar) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("midas_round_ms", {1.0, 10.0});
  obs::TraceId id = obs::TraceId::FromHex("deadbeefdeadbeefdeadbeefdeadbeef");
  h->ObserveExemplar(5.0, id.hi, id.lo);
  obs::FlatJson doc = obs::ParseFlatJson(obs::ExportJson(reg));
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(
      doc.strings.at("histograms.midas_round_ms.buckets.1.exemplar.trace_id"),
      "deadbeefdeadbeefdeadbeefdeadbeef");
  EXPECT_DOUBLE_EQ(
      doc.numbers.at("histograms.midas_round_ms.buckets.1.exemplar.value"),
      5.0);
  // The untraced bucket has no exemplar key at all.
  EXPECT_FALSE(
      doc.Has("histograms.midas_round_ms.buckets.0.exemplar.trace_id"));
}

TEST(TraceSpanTest, SpanTagsExemplarWithInstalledTrace) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped(reg);
  obs::TraceContext trace(obs::MintTraceId());
  {
    obs::ScopedTraceContext scope(&trace);
    obs::TraceSpan span("midas_test_span_ms");
  }
  obs::Histogram* h = reg.GetHistogram("midas_test_span_ms");
  ASSERT_EQ(h->Count(), 1u);
  bool found = false;
  for (size_t i = 0; i <= h->bounds().size(); ++i) {
    obs::Histogram::Exemplar e = h->BucketExemplar(i);
    if (!e.valid) continue;
    EXPECT_EQ(e.trace_hi, trace.id().hi);
    EXPECT_EQ(e.trace_lo, trace.id().lo);
    found = true;
  }
  EXPECT_TRUE(found);

  // Without an installed context the same span records no exemplar.
  { obs::TraceSpan span("midas_test_untagged_ms"); }
  obs::Histogram* h2 = reg.GetHistogram("midas_test_untagged_ms");
  ASSERT_EQ(h2->Count(), 1u);
  for (size_t i = 0; i <= h2->bounds().size(); ++i) {
    EXPECT_FALSE(h2->BucketExemplar(i).valid);
  }
}

TEST(ExportTest, JsonExportParses) {
  obs::MetricsRegistry reg;
  reg.GetCounter("midas_test_runs_total")->Increment(3);
  reg.GetGauge("midas_test_size")->Set(7.5);
  obs::Histogram* h = reg.GetHistogram("midas_test_dur_ms", {1.0});
  h->Observe(0.5);
  obs::FlatJson doc = obs::ParseFlatJson(obs::ExportJson(reg));
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_DOUBLE_EQ(doc.numbers.at("counters.midas_test_runs_total"), 3.0);
  EXPECT_DOUBLE_EQ(doc.numbers.at("gauges.midas_test_size"), 7.5);
  EXPECT_DOUBLE_EQ(doc.numbers.at("histograms.midas_test_dur_ms.count"), 1.0);
  EXPECT_DOUBLE_EQ(doc.numbers.at("histograms.midas_test_dur_ms.sum"), 0.5);
  EXPECT_DOUBLE_EQ(
      doc.numbers.at("histograms.midas_test_dur_ms.buckets.0.le"), 1.0);
  EXPECT_DOUBLE_EQ(
      doc.numbers.at("histograms.midas_test_dur_ms.buckets.0.count"), 1.0);
  EXPECT_EQ(doc.strings.at("histograms.midas_test_dur_ms.buckets.1.le"),
            "+Inf");
}

// --- Maintenance event log -------------------------------------------------

obs::MaintenanceEvent SampleEvent() {
  obs::MaintenanceEvent e;
  e.seq = 3;
  e.additions = 12;
  e.deletions = 4;
  e.db_size = 158;
  e.patterns = 30;
  e.major = true;
  e.graphlet_distance = 0.25;
  e.epsilon = 0.1;
  e.candidates = 16;
  e.swaps = 2;
  e.truncated = true;
  e.degrade_reason = "deadline";
  e.budget_steps = 4096;
  e.phase_ms = {{"total_ms", 10.5}, {"apply_ms", 4.5}, {"swap_ms", 6.0}};
  e.scov = 0.75;
  e.lcov = 0.5;
  e.div = 3.5;
  e.cog_avg = 6.25;
  e.cog_max = 12.0;
  return e;
}

TEST(EventLogTest, JsonLineMatchesGoldenSchema) {
  // Exact golden line: any schema change must update this test AND
  // docs/observability.md.
  EXPECT_EQ(
      obs::MaintenanceEventLog::ToJsonLine(SampleEvent()),
      R"({"seq":3,"additions":12,"deletions":4,"db_size":158,"patterns":30,)"
      R"("major":true,"graphlet_distance":0.25,"epsilon":0.1,)"
      R"("candidates":16,"swaps":2,)"
      R"("truncated":true,"degrade_reason":"deadline","budget_steps":4096,)"
      R"("phases":{"total_ms":10.5,"apply_ms":4.5,"swap_ms":6},)"
      R"("quality":{"scov":0.75,"lcov":0.5,"div":3.5,"cog_avg":6.25,)"
      R"("cog_max":12}})");
}

TEST(EventLogTest, EveryLineIsValidJson) {
  std::string line = obs::MaintenanceEventLog::ToJsonLine(SampleEvent());
  obs::FlatJson doc = obs::ParseFlatJson(line);
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_DOUBLE_EQ(doc.numbers.at("seq"), 3.0);
  EXPECT_TRUE(doc.bools.at("major"));
  EXPECT_DOUBLE_EQ(doc.numbers.at("phases.total_ms"), 10.5);
  EXPECT_DOUBLE_EQ(doc.numbers.at("quality.scov"), 0.75);
  EXPECT_TRUE(doc.bools.at("truncated"));
  EXPECT_EQ(doc.strings.at("degrade_reason"), "deadline");
  EXPECT_DOUBLE_EQ(doc.numbers.at("budget_steps"), 4096.0);
}

TEST(EventLogTest, BuffersAndNotifiesSink) {
  obs::MaintenanceEventLog log;
  std::ostringstream sink_out;
  log.set_sink(obs::StreamSink(&sink_out));
  log.Append(SampleEvent());
  log.Append(SampleEvent());
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.lines()[0], obs::MaintenanceEventLog::ToJsonLine(SampleEvent()));
  // Sink received both lines, newline-terminated.
  std::string streamed = sink_out.str();
  EXPECT_EQ(std::count(streamed.begin(), streamed.end(), '\n'), 2);
}

TEST(EventLogTest, BufferingCanBeDisabled) {
  obs::MaintenanceEventLog log;
  int sunk = 0;
  log.set_sink([&](const std::string&) { ++sunk; });
  log.set_buffering(false);
  log.Append(SampleEvent());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(sunk, 1);
}

}  // namespace
}  // namespace midas
